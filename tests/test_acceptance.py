"""End-to-end acceptance gate.

Each test exercises one of the ten headline guarantees and prints a single
PASS/FAIL line (run pytest with -s or check captured output).  Tolerances are
fixed; parameters were chosen once and frozen.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from pathprob import weights
from pathprob.analysis import classical_concentration_scan
from pathprob.lattice import LatticeConfig
from pathprob.montecarlo import SamplerConfig, estimate_transition_mc, sample_bridge_paths
from pathprob.oracle import (
    ck_check,
    free_kernel_exact,
    gaussian_packet,
    kernel_estimate,
    make_grid,
    propagate,
)
from pathprob.potentials import BandLimitedPotential
from pathprob.quadrature import (
    amplitude_discrete,
    extrapolate_gamma,
    probability_product_form,
    transition_probability_quadrature,
)
from pathprob.weights import (
    batch_log_weights,
    m_bound,
    m_sup_certified,
    negative_step_witness,
    positivity_threshold,
    step_m,
    step_q_exponential,
    step_q_linear,
)

TWO_PI = 2.0 * math.pi
COSINE = BandLimitedPotential.single_line(a=1.0, q=1.0)
WEAK = BandLimitedPotential.single_line(a=0.1, q=1.0)

pytestmark = pytest.mark.filterwarnings("ignore:.*lambda_strict.*:UserWarning")


def report(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {status}: {detail}")
    assert ok, detail


def test_criterion_01_positivity_zero_tolerance():
    potentials = [
        COSINE,
        BandLimitedPotential.from_lines([(1.0, 0.8, 0.4), (0.7, -0.3, 1.1)]),
        BandLimitedPotential.single_line(a=0.5, q=0.5, phi=1.0),
    ]
    n = 6
    n_paths = 100_000
    negatives = 0
    combos = 0
    for p in potentials:
        for gamma in (0.05, 0.1, 0.2):
            eps = positivity_threshold(p, gamma).lambda_strict
            cfg = LatticeConfig(0.0, n * eps, n, gamma, 0.0, 0.1 * eps)
            # wide-tailed bridge paths (drawn at gamma = 1) stress large
            # |s_j| and large |z_j|
            interiors, _ = sample_bridge_paths(
                replace(cfg, gamma=1.0), SamplerConfig(seed=1), n_paths
            )
            signs, _, q_signs = batch_log_weights(p, interiors, cfg)
            negatives += int(np.sum(q_signs < 0)) + int(np.sum(signs < 0))
            combos += 1
    # above the strict threshold a negative step factor exists by construction
    constructed_negative = True
    for p in potentials:
        gamma = 0.1
        lam = positivity_threshold(p, gamma).lambda_strict
        z_w, s_w, _ = negative_step_witness(p, gamma)
        constructed_negative &= step_q_linear(p, z_w, s_w, 2.0 * lam, gamma) < 0
    ok = negatives == 0 and constructed_negative
    report(
        1,
        ok,
        f"{combos} potential/gamma combos x {n_paths} paths: {negatives} negative "
        f"Q_j/W at eps=lambda_strict; negative Q constructed at 2x threshold: "
        f"{constructed_negative}",
    )


def test_criterion_02_kernel_bound_and_certified_sup():
    rng = np.random.default_rng(42)
    cases = [
        (COSINE, 0.1),
        (COSINE, 0.05),
        (BandLimitedPotential.from_lines([(1.0, 0.8, 0.4), (0.7, -0.3, 1.1)]), 0.1),
        (BandLimitedPotential.single_line(a=0.5, q=0.5), 0.1),
    ]
    worst = 0.0
    for p, gamma in cases:
        n_pts = 1_000_000
        z = rng.uniform(-10, 10, n_pts)
        s = np.where(
            rng.random(n_pts) < 0.5,
            rng.uniform(-5, 5, n_pts),
            gamma * rng.standard_cauchy(n_pts),
        )
        envelope = m_bound(p, gamma) * (1.0 + (gamma / p.R) ** 2 + 0.05)
        worst = max(worst, float(np.max(np.abs(step_m(p, z, s, gamma)))) / envelope)
    sup = m_sup_certified(COSINE, 0.1).value
    # the certified supremum exceeds the leading-order bound 100 by the
    # O((gamma/q)^2) margin; the exact value sits slightly above D(q, q)
    sup_ok = 100.0 < sup < 102.0 and sup == pytest.approx(101.7359, rel=1e-4)
    ok = worst <= 1.0 and sup_ok
    report(
        2,
        ok,
        f"max |M|/envelope = {worst:.4f} over 4x1e6 random (z,s); certified sup "
        f"= {sup:.4f} (leading-order bound 100)",
    )


def test_criterion_03_free_particle_value():
    target = 1.0 / TWO_PI
    gammas = (0.2, 0.1, 0.05)
    max_raw_dev = 0.0
    extrap_ok = True
    for n in (2, 3, 4):
        vals = [
            transition_probability_quadrature(
                BandLimitedPotential.zero(),
                LatticeConfig(0.0, 1.0, n, g, 0.0, 0.0),
                points_per_dim=28,
            ).value
            for g in gammas
        ]
        max_raw_dev = max(max_raw_dev, abs(vals[-1] - target) / target)
        p0, unc = extrapolate_gamma(gammas, vals)
        extrap_ok &= abs(p0 - target) <= unc
    # flatness in endpoint separation (symmetric placement) at gamma = 0.05
    flat_vals = [
        transition_probability_quadrature(
            BandLimitedPotential.zero(),
            LatticeConfig(0.0, 1.0, 3, 0.05, -dz / 2, dz / 2),
            points_per_dim=32,
        ).value
        for dz in (0.0, 0.5, 1.0)
    ]
    flat_dev = max(abs(v - flat_vals[0]) / flat_vals[0] for v in flat_vals)
    ok = max_raw_dev <= 0.10 and extrap_ok and flat_dev <= 0.02
    report(
        3,
        ok,
        f"raw gamma=0.05 deviation {max_raw_dev:.3%} (<=10%); extrapolated value "
        f"within fit uncertainty: {extrap_ok}; separation flatness {flat_dev:.3%} (<=2%)",
    )


def test_criterion_04_change_of_variables_identity():
    p = BandLimitedPotential.single_line(a=0.2, q=1.0, phi=0.3)
    cfg = LatticeConfig(0.0, 3.0, 3, 1.0, 0.1, -0.2)
    lhs = amplitude_discrete(p, cfg).modulus_squared
    rhs = probability_product_form(p, cfg)
    rel = abs(lhs - rhs) / lhs
    ok = rel <= 1e-6
    report(4, ok, f"|A|^2 vs pair-separation product form: relative delta {rel:.3e} (<=1e-6)")


def test_criterion_05_linearization_order():
    points = [(0.3, 0.7), (-0.4, 0.9), (1.0, 0.5), (0.8, 0.3), (-0.6, 0.4), (-1.0, 0.6)]
    eps_list = (0.04, 0.02, 0.01, 0.005)
    gamma = 0.1
    slopes = []
    for z, s in points:
        rel = []
        for eps in eps_list:
            q_lin = step_q_linear(COSINE, z, s, eps, gamma)
            q_exp = step_q_exponential(COSINE, z, s, eps, gamma)
            rel.append(abs(q_exp - q_lin) / abs(q_lin))
        slopes.append(float(np.polyfit(np.log(eps_list), np.log(rel), 1)[0]))
    ok = all(1.8 <= sl <= 2.2 for sl in slopes)
    report(
        5,
        ok,
        f"log-log slopes on {len(points)} points: "
        + ", ".join(f"{sl:.3f}" for sl in slopes)
        + " (all within 2 +- 0.2)",
    )


def test_criterion_06_non_markovianity():
    p = BandLimitedPotential.single_line(a=0.5, q=1.0)
    args = dict(z_a=-0.2, t_a=0.0, t_c=0.6, z_b=0.4, t_b=1.0)
    amp = ck_check(p, mode="amplitude", **args)
    prob = ck_check(p, mode="probability", **args)
    ok = amp.residual <= 1e-6 and prob.residual >= 0.05
    report(
        6,
        ok,
        f"amplitude composition residual {amp.residual:.2e} (<=1e-6); probability "
        f"composition residual {prob.residual:.3f} (>=0.05) at identical times/endpoints",
    )


def test_criterion_07_classical_limit():
    cfg = LatticeConfig(0.0, 1.0, 16, 0.1, 0.0, 0.4)
    res = classical_concentration_scan(
        cfg, [0.5, 0.2, 0.1, 0.05], delta=1.0,
        sampler=SamplerConfig(n_samples=100_000, seed=3),
    )
    fractions = [row["fraction"] for row in res.rows]
    ok = all(a > b for a, b in zip(fractions, fractions[1:]))
    report(
        7,
        ok,
        "free-particle mass with max|s_j|>1 strictly decreasing over gamma "
        "{0.5,0.2,0.1,0.05}: " + ", ".join(f"{f:.4f}" for f in fractions),
    )


def test_criterion_08_oracle_integrity():
    x = make_grid(20.0, 2048)
    p = BandLimitedPotential.single_line(a=0.5, q=1.0)
    w = gaussian_packet(x, 0.0, 1.0, momentum=1.0)
    norm_drift = abs(propagate(w, p, 1.0).norm() - w.norm()) / w.norm()

    sigma0, T = 0.7, 1.5
    out = propagate(gaussian_packet(x, 0.0, sigma0), BandLimitedPotential.zero(), T)
    dens = np.abs(out.psi) ** 2
    dens /= np.sum(dens) * out.dx
    var = float(np.sum(x**2 * dens) * out.dx)
    disp_dev = abs(var - (sigma0**2 + (T / (2 * sigma0)) ** 2)) / var

    est = kernel_estimate(BandLimitedPotential.zero(), -0.3, 0.5, 1.0)
    exact = free_kernel_exact(-0.3, 0.5, 1.0).amplitude
    kernel_dev = abs(est.amplitude - exact) / abs(exact)

    ok = norm_drift <= 1e-10 and disp_dev <= 1e-6 and kernel_dev <= 1e-4
    report(
        8,
        ok,
        f"norm drift {norm_drift:.2e} (<=1e-10); dispersion-law deviation "
        f"{disp_dev:.2e} (<=1e-6); kernel vs free exact {kernel_dev:.2e} (<=1e-4)",
    )


def test_criterion_09_mc_quadrature_consistency():
    all_devs = []
    for p, zb in ((BandLimitedPotential.zero(), 0.0), (WEAK, 0.3)):
        cfg = LatticeConfig(0.0, 1.0, 4, 0.1, 0.0, zb)
        ref = transition_probability_quadrature(p, cfg, points_per_dim=32).value
        for seed in range(20):
            mc = estimate_transition_mc(
                p, cfg, SamplerConfig(n_samples=100_000, seed=seed)
            )
            all_devs.append((mc.value - ref) / mc.std_error)
    devs = np.asarray(all_devs)
    within3 = bool(np.all(np.abs(devs) <= 3.0))
    within4 = bool(np.all(np.abs(devs) <= 4.0))
    mean_ok = abs(devs.mean()) <= 0.7  # ~3 sigma of a 40-sample standard mean
    ok = within3 and within4 and mean_ok
    report(
        9,
        ok,
        f"40 seed runs (free + weak cosine): max |dev| {np.abs(devs).max():.2f} sigma "
        f"(<=3), mean {devs.mean():+.3f} (|mean|<=0.7, no systematic bias)",
    )


def test_criterion_10_agreement_with_schrodinger():
    p = WEAK
    za, zb, T = 0.0, 0.3, 1.0
    ref = kernel_estimate(p, za, zb, T).modulus_squared
    devs = []
    for gamma in (0.4, 0.2, 0.1, 0.05):
        est = transition_probability_quadrature(
            p,
            LatticeConfig(0.0, T, 6, gamma, za, zb),
            points_per_dim=16,
            doublings=1,
        )
        devs.append(abs(est.value - ref) / ref)
    monotone = all(a > b for a, b in zip(devs, devs[1:]))
    ok = monotone and devs[-1] <= 0.20
    report(
        10,
        ok,
        "path-weight vs oracle |kernel|^2 at n=6, deviations over gamma "
        "{0.4,0.2,0.1,0.05}: "
        + ", ".join(f"{d:.3f}" for d in devs)
        + f" (monotone: {monotone}; final <=20%)",
    )


# ROADMAP item 1's acceptance: the model's effect of a weak potential, its weak/free ratio of
# prod exp(-gamma |z|) (1 - eps M) over 2^19 shared Cauchy-bridge draws minus 1, against the
# oracle's |K|^2 / |K_0|^2 - 1, on the first row of item 1's table.  Shifted by q the model's
# effect is about 1.9 times the oracle's; by q / 2, the product form's shift, about 0.97 times.
@pytest.mark.parametrize("shift", [
    pytest.param("q", marks=pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 1: the step factor's Lorentzians are shifted by q, the product form's "
        "by q / 2, and the model's weak-potential effect is about twice the oracle's"))),
    "q/2",
])
def test_item_01_weak_effect_matches_oracle(shift, monkeypatch):
    if shift == "q/2":
        monkeypatch.setattr(weights, "_shift", lambda q: q / 2)
    weak, free = BandLimitedPotential.single_line(a=0.05, q=1.0), BandLimitedPotential.zero()
    n = 12
    cfg = LatticeConfig(0.0, 1.0, n, 0.15 / n, 0.0, 0.3)
    sums = np.zeros(2)
    for batch in range(4):
        interiors, s = sample_bridge_paths(cfg, SamplerConfig(), 2**17, batch)
        for i, p in enumerate((weak, free)):
            sign, log_abs = weights._sign_log_ratio(p, interiors, s, cfg.eps, cfg.gamma)
            sums[i] += np.sum(sign * np.exp(log_abs))
    model = sums[0] / sums[1] - 1.0
    k_weak, k_free = (kernel_estimate(p, cfg.z_a, cfg.z_b, cfg.duration) for p in (weak, free))
    oracle = k_weak.modulus_squared / k_free.modulus_squared - 1.0
    ratio = model / oracle
    print(f"[item 1, shift {shift}] model effect {model:.5f}, oracle {oracle:.5f}, "
          f"ratio {ratio:.3f}")
    assert 0.9 <= ratio <= 1.1
