import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from pathprob import weights
from pathprob.lattice import LatticeConfig, interior_from_velocity_changes, make_path
from pathprob.potentials import BandLimitedPotential, band_limit
from pathprob.weights import (
    _GK_W,
    _GK_X,
    NonConvergenceError,
    _step_m_grid,
    batch_log_weights,
    lorentzian_pair,
    m_bound,
    m_sup_certified,
    negative_step_witness,
    path_weight,
    positivity_threshold,
    step_m,
    step_q_exponential,
    step_q_linear,
    weight_report,
)

TWO_PI = 2.0 * math.pi

COSINE = BandLimitedPotential.single_line(a=1.0, q=1.0, phi=0.0)


def straight_line(cfg):
    """The path with every velocity change zero."""
    return make_path(cfg, interior_from_velocity_changes(np.zeros(cfg.n - 1), cfg))


def mollified_m(p, z, s, gamma, width=1e-3):
    """Independent evaluation of M from its defining band integral.

    The line spectrum's delta pairs are replaced by narrow Gaussians and the
    integral over the positive band is done by adaptive quadrature.  This
    shares no code path with the closed-form line reduction.
    """

    def vt(qv):
        out = 0.0 + 0.0j
        for ln in p.lines:
            g_plus = math.exp(-0.5 * ((qv - ln.q) / width) ** 2) / (
                math.sqrt(TWO_PI) * width
            )
            out += math.pi * ln.a * np.exp(-1j * ln.phi) * g_plus
        return out

    def integrand(qv):
        return np.imag(vt(qv) * np.exp(-1j * z * qv)) * lorentzian_pair(s, qv, gamma)

    hi = max(ln.q for ln in p.lines) + 8 * width
    val, _ = quad(integrand, 0.0, hi, epsabs=1e-10, epsrel=1e-10, limit=400)
    return val / math.pi


class TestStepM:
    def test_zero_potential(self):
        p = BandLimitedPotential.zero()
        assert step_m(p, 0.3, 0.7, 0.1) == 0.0

    def test_s_zero_vanishes(self):
        assert step_m(COSINE, 1.234, 0.0, 0.1) == pytest.approx(0.0, abs=1e-14)

    def test_worked_cosine_value(self):
        # D(1,1) = 1.01/0.01 - 1.01/4.01 at the phase maximum z = pi/2
        val = step_m(COSINE, math.pi / 2, 1.0, 0.1)
        assert val == pytest.approx(-(1.01 / 0.01 - 1.01 / 4.01), rel=1e-12)
        assert val == pytest.approx(-100.74812967581046, rel=1e-12)

    def test_gamma_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            step_m(COSINE, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize(
        "z,s", [(0.3, 0.7), (-1.2, 1.5), (math.pi / 2, 1.0), (2.0, -0.4)]
    )
    def test_against_mollified_band_integral(self, z, s):
        closed = step_m(COSINE, z, s, 0.1)
        direct = mollified_m(COSINE, z, s, 0.1)
        assert direct == pytest.approx(closed, rel=2e-4, abs=1e-6)

    def test_two_line_mollified(self):
        p = BandLimitedPotential.from_lines([(1.0, 0.8, 0.4), (0.5, -0.3, 1.1)])
        closed = step_m(p, 0.9, 0.6, 0.1)
        assert mollified_m(p, 0.9, 0.6, 0.1) == pytest.approx(closed, rel=2e-4)

    def test_grid_representation_matches_line(self):
        x = np.linspace(-80, 80, 6001)
        p_grid, _ = band_limit(x, np.cos(x), R=2.0)
        for z, s in [(0.4, 0.8), (-1.0, 1.2)]:
            assert step_m(p_grid, z, s, 0.1) == pytest.approx(
                step_m(COSINE, z, s, 0.1), rel=0.02
            )

    def test_grid_gauss_kronrod_pair(self):
        # the refinement check compares two different rules on shared nodes:
        # the 10-point Gauss rule is exact to degree 19, the 21-point Kronrod
        # rule to degree 31, and they disagree on x^20
        assert np.count_nonzero(_GK_W[:, 1]) == 10
        for deg in range(0, 32, 2):
            exact = 2.0 / (deg + 1)
            assert _GK_W[:, 0] @ _GK_X**deg == pytest.approx(exact, rel=1e-14)
            if deg < 20:
                assert _GK_W[:, 1] @ _GK_X**deg == pytest.approx(exact, rel=1e-14)
        assert _GK_W[:, 1] @ _GK_X**20 < (1.0 - 1e-6) * (2.0 / 21.0)

    def test_grid_unresolved_phase_raises(self):
        # 9 spectral nodes on [-2, 2]: intervals of 0.5, 16 panels of 0.031
        # each at gamma = 0.002.  s = 5 keeps the Lorentzian pair smooth on
        # the band, so only exp(-izq) can outrun the panels: at z = 1000 it
        # turns by 31 rad across one, while exp(-gamma z) = 0.14 still
        # carries the error into the step factor
        x = np.linspace(-30, 30, 601)
        p_grid, _ = band_limit(x, np.cos(x), R=2.0, n_q=9)
        assert math.isfinite(step_m(p_grid, 300.0, 5.0, 0.002))
        with pytest.raises(NonConvergenceError, match="grid M"):
            step_m(p_grid, 1000.0, 5.0, 0.002)

    def test_grid_far_pair_below_decay_passes(self):
        # panels of 0.023 at gamma = 0.5 cannot follow exp(-izq) at z = 2e4,
        # but there exp(-gamma z) has underflowed, so that pair cannot move
        # the step factor and must not fail the batch
        x = np.linspace(-20, 20, 201)
        p_grid, _ = band_limit(x, 0.05 * np.cos(0.6 * x + 0.4), R=1.5)
        z = np.array([0.3, 224.0, 2000.0, 2.0e4])
        m = step_m(p_grid, z, 0.4, 0.5)
        assert np.all(np.isfinite(m))
        assert m[0] == pytest.approx(step_m(p_grid, 0.3, 0.4, 0.5), rel=1e-13)

    def test_grid_batch_matches_pointwise(self):
        x = np.linspace(-20, 20, 201)
        p_grid, _ = band_limit(x, 0.05 * np.cos(0.6 * x + 0.4), R=1.5)
        z = np.linspace(-30.0, 30.0, 7)[:, None]
        s = np.linspace(-2.0, 2.0, 5)[None, :]
        # 64 spectral intervals x 21 nodes: two pairs per block, the last
        # block holds one
        batch = _step_m_grid(p_grid, z, s, 0.5, chunk=3000)
        assert batch.shape == (7, 5)
        for i, j in [(0, 0), (3, 2), (6, 4), (2, 1)]:
            assert batch[i, j] == pytest.approx(
                step_m(p_grid, z[i, 0], s[0, j], 0.5), rel=1e-13, abs=1e-15
            )

    @given(st.floats(-5, 5), st.floats(-5, 5))
    @settings(max_examples=60, deadline=None)
    def test_odd_symmetries_for_even_potential(self, z, s):
        m0 = step_m(COSINE, z, s, 0.1)
        assert step_m(COSINE, -z, s, 0.1) == pytest.approx(-m0, abs=1e-12 * (1 + abs(m0)))
        assert step_m(COSINE, z, -s, 0.1) == pytest.approx(-m0, abs=1e-12 * (1 + abs(m0)))


class TestBounds:
    def test_m_bound_values(self):
        p = BandLimitedPotential(R=1.0, K=1.0)
        assert m_bound(p, 0.1) == pytest.approx(1.0 / (TWO_PI * 0.01), rel=1e-12)
        assert m_bound(COSINE, 0.1) == pytest.approx(100.0, rel=1e-12)
        assert m_bound(BandLimitedPotential.zero(), 0.1) == 0.0

    def test_m_bound_warns_for_large_gamma(self):
        with pytest.warns(UserWarning):
            m_bound(COSINE, 0.9)

    def test_sup_zero_potential(self):
        sup = m_sup_certified(BandLimitedPotential.zero(), 0.1)
        assert sup.value == 0.0 and sup.certified

    def test_sup_cosine_exceeds_leading_order(self):
        sup = m_sup_certified(COSINE, 0.1)
        assert sup.certified
        # exceeds the leading-order 100 by the O((gamma/q)^2) margin
        assert 100.0 < sup.value < 102.0
        assert sup.value == pytest.approx(101.73588140386153, rel=1e-9)

    def test_sup_matches_dense_grid_scan(self):
        sup = m_sup_certified(COSINE, 0.1).value
        zg = np.linspace(-math.pi, math.pi, 801)
        sg = np.linspace(0.0, 2.0, 4001)
        grid_max = np.max(np.abs(step_m(COSINE, zg[:, None], sg[None, :], 0.1)))
        assert grid_max <= sup * (1 + 1e-9)
        assert grid_max == pytest.approx(sup, rel=1e-4)

    def test_sup_two_lines_is_per_line_sum(self):
        p = BandLimitedPotential.from_lines([(1.0, 1.0, 0.0), (0.5, 1.0, 0.0)])
        sup = m_sup_certified(p, 0.1).value
        s1 = m_sup_certified(BandLimitedPotential.single_line(1.0, 1.0), 0.1).value
        s2 = m_sup_certified(BandLimitedPotential.single_line(1.0, 0.5), 0.1).value
        assert sup == pytest.approx(s1 + s2, rel=1e-12)

    def test_grid_falls_back_uncertified(self):
        x = np.linspace(-60, 60, 4001)
        p_grid, _ = band_limit(x, np.cos(x), R=2.0)
        sup = m_sup_certified(p_grid, 0.1)
        assert not sup.certified
        assert sup.value == pytest.approx(m_bound(p_grid, 0.1))

    @given(st.floats(-8, 8), st.floats(-8, 8))
    @settings(max_examples=100, deadline=None)
    def test_step_m_below_certified_sup(self, z, s):
        sup = m_sup_certified(COSINE, 0.1).value
        assert abs(step_m(COSINE, z, s, 0.1)) <= sup * (1 + 1e-12)


class TestThresholds:
    def test_closed_form_example(self):
        p = BandLimitedPotential(R=1.0, K=1.0)
        thr = positivity_threshold(p, 0.1)
        assert thr.lambda_paper == pytest.approx(TWO_PI * 0.01, rel=1e-12)

    def test_cosine_pair(self):
        thr = positivity_threshold(COSINE, 0.1)
        assert thr.lambda_paper == pytest.approx(0.01, rel=1e-12)
        assert thr.lambda_strict == pytest.approx(1.0 / 101.73588140386153, rel=1e-9)
        # the strict threshold sits below the leading-order one
        assert thr.lambda_strict < thr.lambda_paper

    def test_zero_potential_unconstrained(self):
        thr = positivity_threshold(BandLimitedPotential.zero(), 0.1)
        assert math.isinf(thr.lambda_paper) and math.isinf(thr.lambda_strict)

    @given(
        st.lists(
            st.tuples(
                st.floats(0.2, 2.0),
                st.floats(0.05, 1.0),
                st.sampled_from([-1.0, 1.0]),
                st.floats(0.0, TWO_PI),
            ),
            min_size=1,
            max_size=3,
        ),
        st.floats(0.05, 0.5),
    )
    @settings(max_examples=50, deadline=None)
    def test_nonnegative_at_strict_threshold(self, lines, gamma):
        # zero tolerance, as in acceptance criterion 1: no Q below 0 at
        # eps = lambda_strict on a (z, s) grid or at the witness
        p = BandLimitedPotential.from_lines([(q, sign * a, phi) for q, a, sign, phi in lines])
        eps = positivity_threshold(p, gamma).lambda_strict
        q_min = min(ln.q for ln in p.lines)
        s_max = p.R + 10.0 * gamma
        z = np.linspace(-np.pi / q_min, np.pi / q_min, 201)[:, None]
        s = np.linspace(-s_max, s_max, 201)[None, :]
        assert np.all(step_q_linear(p, z, s, eps, gamma) >= 0)
        z_w, s_w, _ = negative_step_witness(p, gamma)
        assert step_q_linear(p, z_w, s_w, eps, gamma) >= 0
        if len(p.lines) == 1:
            # one line attains its certified supremum, so twice the step is too long
            assert step_q_linear(p, z_w, s_w, 2.0 * eps, gamma) < 0


class TestStepQ:
    def test_free_closed_form(self):
        val = step_q_linear(BandLimitedPotential.zero(), 0.0, 0.0, 0.01, 0.1)
        assert val == pytest.approx((1 / (TWO_PI * 0.01)) * (0.2 / 0.01), rel=1e-12)

    def test_positive_below_threshold(self):
        assert step_q_linear(COSINE, math.pi / 2, 1.0, 0.005, 0.1) > 0

    def test_negative_above_threshold(self):
        assert step_q_linear(COSINE, -math.pi / 2, 1.0, 0.02, 0.1) < 0

    @given(
        st.lists(
            st.tuples(
                st.floats(0.2, 2.0),
                st.floats(-1.0, 1.0),
                st.floats(0.0, TWO_PI),
            ),
            min_size=1,
            max_size=3,
        ),
        st.floats(-5.0, 5.0),
        st.floats(0.05, 1.0),
        st.floats(0.01, 0.5),
    )
    @settings(max_examples=50, deadline=None)
    def test_integral_over_s(self, lines, z, gamma, eps):
        # int Q(z, s) ds = exp(-gamma |z|) / eps: the Lorentzian factor
        # integrates to 2 pi and M is odd in s.  Over s > 0 alone each line
        # adds 4 eps a sin(q z + phi) atan(q / gamma) to the 2 pi, which checks
        # M's size as well.  With s = gamma tan(theta), ds = (s^2 + gamma^2) /
        # gamma dtheta; M peaks at s = +-q, a width ~ gamma^2 / (q^2 + gamma^2)
        # in theta, so panels split there and shrink geometrically toward it.
        p = BandLimitedPotential.from_lines(lines)
        edges = [-np.pi / 2, 0.0, np.pi / 2]
        for q, _, _ in lines:
            peak, width = math.atan(q / gamma), gamma**2 / (q**2 + gamma**2)
            grading = width * 4.0 ** np.arange(-2, 10)
            for c in (-peak, peak):
                edges += [c, *(c - grading), *(c + grading)]
        edges = np.unique(np.clip(edges, -np.pi / 2, np.pi / 2))
        theta, w = weights._gauss_panels(edges, _GK_X, _GK_W[:, 0])
        s = gamma * np.tan(theta)
        f = w * step_q_linear(p, z, s, eps, gamma) * (s * s + gamma**2) / gamma
        scale = math.exp(-gamma * abs(z)) / eps
        assert np.sum(f) == pytest.approx(scale, rel=1e-12)
        lines_term = sum(a * math.sin(q * z + phi) * math.atan(q / gamma) for q, a, phi in lines)
        half = scale / TWO_PI * (np.pi + 4.0 * eps * lines_term)
        assert abs(np.sum(f[theta > 0]) - half) <= 1e-12 * scale

    def test_exponential_free_matches_closed_form(self):
        p = BandLimitedPotential.zero()
        for z, s in [(0.0, 0.0), (0.5, 0.7), (-1.0, 2.0)]:
            got = step_q_exponential(p, z, s, 0.01, 0.1)
            want = step_q_linear(p, z, s, 0.01, 0.1)
            assert got == pytest.approx(want, rel=1e-9)

    def test_exponential_imaginary_part_small(self):
        re, im = step_q_exponential(COSINE, 0.3, 0.7, 0.01, 0.1, return_imag=True)
        assert abs(im) <= 1e-9 * abs(re)

    def test_ratio_tends_to_one(self):
        ratios = []
        for eps in (0.04, 0.02, 0.01, 0.005):
            ratios.append(
                step_q_exponential(COSINE, 0.3, 0.7, eps, 0.1)
                / step_q_linear(COSINE, 0.3, 0.7, eps, 0.1)
            )
        devs = [abs(r - 1) for r in ratios]
        assert devs[0] > devs[-1]
        assert devs[-1] < 1e-3


class TestPathWeight:
    def test_free_straight_line_closed_form(self):
        cfg = LatticeConfig(0.0, 1.0, 4, 0.1, 0.0, 0.4)
        p = BandLimitedPotential.zero()
        ev = path_weight(p, straight_line(cfg), cfg)
        z_int = straight_line(cfg).z[1:-1]
        expected = cfg.n * np.prod(
            (1 / (TWO_PI * cfg.eps)) * np.exp(-0.1 * np.abs(z_int)) * (2 / 0.1)
        )
        assert ev.W == pytest.approx(expected, rel=1e-10)
        assert ev.sign == 1 and ev.positive

    def test_log_domain_consistency(self):
        cfg = LatticeConfig(0.0, 1.0, 5, 0.1, -0.3, 0.5)
        rng = np.random.default_rng(0)
        interior = rng.normal(size=4)
        ev = path_weight(COSINE, make_path(cfg, interior), cfg)
        direct = cfg.n * np.prod(ev.steps.Q)
        assert ev.W == pytest.approx(direct, rel=1e-10)

    def test_negative_witness_path(self):
        gamma = 0.1
        z_w, s_w, m_w = negative_step_witness(COSINE, gamma)
        assert m_w == pytest.approx(101.73588140386153, rel=1e-4)
        eps = 2.0 / m_w
        n = 4
        cfg = LatticeConfig(0.0, n * eps, n, gamma, 0.0, 0.0)
        # place the witness at interior index 1: z_1 = z_w and s_1 = s_w fix z_2
        z1 = z_w
        z2 = s_w * eps + 2 * z1 - cfg.z_a
        ev = path_weight(COSINE, make_path(cfg, [z1, z2, z2]), cfg)
        assert ev.steps.Q[0] < 0
        assert ev.W < 0 and not ev.positive

    def test_exponential_form_runs(self):
        cfg = LatticeConfig(0.0, 0.04, 4, 0.1, 0.0, 0.02)
        ev = path_weight(COSINE, straight_line(cfg), cfg, form="exponential")
        assert ev.sign == 1

    def test_batch_matches_single(self):
        # both routes evaluate the one Q definition and the one reduction,
        # so they agree exactly, for lines and for a grid spectrum
        x = np.linspace(-20.0, 20.0, 201)
        grid, _ = band_limit(x, 0.03 * np.cos(0.6 * x + 0.4) + 0.04 * np.cos(1.1 * x), R=1.5)
        cfg = LatticeConfig(0.0, 1.0, 4, 0.1, -0.2, 0.3)
        rng = np.random.default_rng(3)
        interiors = rng.normal(size=(5, 3))
        for p in (COSINE, grid):
            signs, log_abs, q_signs = batch_log_weights(p, interiors, cfg)
            for i in range(5):
                ev = path_weight(p, make_path(cfg, interiors[i]), cfg)
                assert signs[i] == ev.sign
                assert log_abs[i] == ev.log_abs_w
                assert np.array_equal(q_signs[i], np.sign(ev.steps.Q))

    def test_step_m_once_per_path(self, monkeypatch):
        calls = []

        def counting_step_m(*args):
            calls.append(args)
            return step_m(*args)

        monkeypatch.setattr(weights, "step_m", counting_step_m)
        cfg = LatticeConfig(0.0, 1.0, 5, 0.1, -0.3, 0.5)
        path_weight(COSINE, make_path(cfg, [0.1, -0.2, 0.4, 0.3]), cfg, form="linear")
        assert len(calls) == 1

    def test_report_schema(self):
        cfg = LatticeConfig(0.0, 1.0, 3, 0.1, 0.0, 0.4)
        rep = weight_report(path_weight(COSINE, straight_line(cfg), cfg))
        assert set(rep) == {
            "W",
            "sign",
            "logabsW",
            "lambda_paper",
            "lambda_strict",
            "positive",
            "per_step",
        }
        assert len(rep["per_step"]) == cfg.n - 1
        assert set(rep["per_step"][0]) == {"j", "s", "M", "Q"}
