"""The benchmark's four workloads.

Each workload has three parts:

* ``setup(seed, workdir, tiny)`` builds the inputs from the benchmark seed
  and writes any input files; the library receives only these inputs;
* ``solve(inputs)`` is one unit of work: one closed-loop request through the
  public API of ``pathprob``;
* ``check(inputs, outputs)`` returns a list of problems (empty when the
  outputs are correct).

``probe`` names the machine-speed probe of the same kind of work (see
``run.PROBE_REF_S``): "arrays" for work on large arrays, "calls" for work
made of many small calls.

The library is always called through its module attributes (for example
``analysis.convergence_sweep``) so that a traced run, which wraps those
attributes, sees every call.  ``tiny`` shrinks a workload for the self-test.

Reference values (derived by ``python3 benchmarks/reference.py``):

* ``ORACLE_PROB`` is the split-step oracle's |K|^2 for the weak cosine
  (a=0.1, q=1), z 0 -> 0.3, T=1, from ``oracle.kernel_estimate`` at its
  default grid (extrapolation residual 2.5e-5).  It is the continuum value
  that criterion 10 compares the n=6 quadrature against.
* ``MC_MEAN`` and ``MC_SD`` are the mean and the single-run standard
  deviation of ``estimate_transition_mc`` on the ``mc_bridge_n16`` problem
  over 40 independent sampler seeds (2**32 + k, k = 0..39, which no benchmark
  seed maps to) of ``MC_REF_SAMPLES`` samples each.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from pathprob import analysis, cli, lattice, montecarlo, oracle, potentials

ORACLE_PROB = 0.156587438056095
MC_MEAN = 0.10015849023523202
MC_SD = 8.153211470868713e-05
MC_REF_SAMPLES = 200_000

T = 1.0
WEAK_A, WEAK_Q = 0.1, 1.0


def derived_seed(seed: int, stream: int) -> int:
    """A 32-bit seed for one of a workload's random streams."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable
    solve: Callable
    check: Callable
    probe: str
    ess: Callable | None = None


def weak_cosine():
    return potentials.BandLimitedPotential.single_line(a=WEAK_A, q=WEAK_Q)


# -- quad_sweep_n6 -----------------------------------------------------------
# Criterion 10's problem as a gamma sweep.  Quadrature and weights.step_m do
# nearly all the work, so the transfer operator and the single Q kernel
# (ROADMAP items 3 and 2) show here.  Levels 3/6/12 points per dimension keep
# one solve near 0.3 s (770k integrand points); three gammas because
# extrapolate_gamma reports zero uncertainty for two.

QUAD_GAMMAS = (0.2, 0.1, 0.05)


def quad_setup(seed, workdir, tiny):
    del seed, workdir  # the problem is fixed: criterion 10's configuration
    return {
        "p": weak_cosine(),
        "cfg": lattice.LatticeConfig(0.0, T, 6, 0.1, 0.0, 0.3),
        "n": 4 if tiny else 6,
        "points_per_dim": 3,
    }


def quad_solve(inp):
    return analysis.convergence_sweep(
        inp["p"],
        inp["cfg"],
        [inp["n"]],
        QUAD_GAMMAS,
        method="quadrature",
        points_per_dim=inp["points_per_dim"],
    )


def quad_check(inp, res):
    problems = []
    by_gamma = {row["gamma"]: row["value"] for row in res.rows}
    value = by_gamma[min(QUAD_GAMMAS)]
    dev = abs(value - ORACLE_PROB) / ORACLE_PROB
    if not dev <= 0.20:
        problems.append(f"gamma=0.05 value {value:.6g} is {dev:.1%} from the oracle (>20%)")
    ext = res.summary["gamma_extrapolated"][inp["n"]]
    if not abs(ext["value"] - ORACLE_PROB) <= ext["uncertainty"]:
        problems.append(
            f"extrapolate {ext['value']:.6g} +- {ext['uncertainty']:.3g} "
            f"misses the oracle {ORACLE_PROB:.6g}"
        )
    return problems


# -- mc_bridge_n16 -----------------------------------------------------------
# n is past what quadrature can reach; time splits between sampling and
# weights.batch_log_weights, so proposal (ESS), weight-kernel and threading
# changes show here.


def mc_setup(seed, workdir, tiny):
    del workdir
    return {
        "p": weak_cosine(),
        "cfg": lattice.LatticeConfig(0.0, T, 16, 0.1, 0.0, 0.3),
        "sampler": montecarlo.SamplerConfig(
            n_samples=16_384 if tiny else MC_REF_SAMPLES,
            seed=derived_seed(seed, 1),
            threads=2,
        ),
    }


def mc_solve(inp):
    return montecarlo.estimate_transition_mc(inp["p"], inp["cfg"], inp["sampler"])


def mc_check(inp, est):
    # the single-run spread scales as 1/sqrt(samples); add the reference
    # mean's own error
    sd = MC_SD * math.sqrt(MC_REF_SAMPLES / inp["sampler"].n_samples)
    sigma = math.hypot(sd, MC_SD / math.sqrt(40))
    dev = (est.value - MC_MEAN) / sigma
    if not abs(dev) <= 4.0:
        return [f"MC value {est.value:.6g} is {dev:+.2f} sigma from the reference"]
    return []


# -- oracle_ck ---------------------------------------------------------------
# Criterion 6's composition checks and criterion 8's free-kernel check.  Only
# oracle and potentials.evaluate run, so FFT and time-step work (ROADMAP
# item 4) is isolated; this is the no-change control for weight and
# quadrature changes.  Grids at dx ~ 0.05, the coarsest that resolves the
# 0.2 source width, keep one solve near 1 s.

CK_ARGS = dict(z_a=-0.2, t_a=0.0, t_c=0.6, z_b=0.4, t_b=1.0, half_width=12.7, n_points=512)
FREE_ARGS = dict(z_a=-0.3, z_b=0.5, duration=1.0, half_width=19.1, n_points=768)


def oracle_setup(seed, workdir, tiny):
    del seed, workdir, tiny  # fixed configurations of criteria 6 and 8
    return {"p": potentials.BandLimitedPotential.single_line(a=0.5, q=1.0)}


def oracle_solve(inp):
    amp = oracle.ck_check(inp["p"], mode="amplitude", **CK_ARGS)
    prob = oracle.ck_check(inp["p"], mode="probability", **CK_ARGS)
    free = oracle.kernel_estimate(potentials.BandLimitedPotential.zero(), **FREE_ARGS)
    return amp, prob, free


def oracle_check(inp, out):
    amp, prob, free = out
    exact = oracle.free_kernel_exact(FREE_ARGS["z_a"], FREE_ARGS["z_b"], FREE_ARGS["duration"])
    kernel_dev = abs(free.amplitude - exact.amplitude) / abs(exact.amplitude)
    problems = []
    if not amp.residual <= 1e-6:
        problems.append(f"amplitude composition residual {amp.residual:.3g} > 1e-6")
    if not prob.residual >= 0.05:
        problems.append(f"probability composition residual {prob.residual:.3g} < 0.05")
    if not kernel_dev <= 1e-4:
        problems.append(f"free kernel deviates {kernel_dev:.3g} > 1e-4 from exact")
    return problems


# -- grid_cli ----------------------------------------------------------------
# The weights layer used differently: a tabulated potential in grid form goes
# through _step_m_grid's per-(z, s) loop in many small CLI calls, so a kernel
# change that trades per-call overhead for batch throughput shows here as a
# cost.  The only workload that measures cli and potentials.

GRID_Q = (0.6, 1.1)
GRID_R = 1.5
GRID_LATTICE = {"ta": 0.0, "tb": T, "n": 6, "gamma": 0.5, "za": 0.0, "zb": 0.2}


def grid_setup(seed, workdir, tiny):
    rng = np.random.default_rng(derived_seed(seed, 2))
    amps = rng.uniform(0.02, 0.05, size=2)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=2)
    x = np.linspace(-20.0, 20.0, 201)
    v = sum(a * np.cos(q * x + phi) for a, q, phi in zip(amps, GRID_Q, phases))
    lat = GRID_LATTICE
    cfg = lattice.LatticeConfig(lat["ta"], lat["tb"], lat["n"], lat["gamma"], lat["za"], lat["zb"])
    workdir = Path(workdir)
    paths = []
    for i in range(3 if tiny else 12):
        interior = rng.normal(0.0, 0.3, size=cfg.n - 1)
        fname = workdir / f"path{i:02d}.csv"
        lattice.write_path_csv(lattice.make_path(cfg, interior), cfg, fname)
        paths.append(fname)
    return {
        "x": x,
        "v": v,
        "workdir": workdir,
        "paths": paths,
        "sampler": {"n_samples": 64 if tiny else 256, "seed": derived_seed(seed, 3)},
    }


def grid_solve(inp):
    pot, _ = potentials.band_limit(inp["x"], inp["v"], GRID_R)
    workdir = inp["workdir"]
    config = workdir / "config.json"
    with open(config, "w") as fh:
        json.dump(
            {
                "potential": potentials.potential_to_dict(pot),
                "lattice": GRID_LATTICE,
                "sampler": inp["sampler"],
            },
            fh,
        )
    runs = []

    def run(*argv):
        out = workdir / f"out{len(runs):02d}.json"
        runs.append((argv[0], cli.run([*argv, "-c", str(config), "--out", str(out)]), out))

    run("positivity")
    for path in inp["paths"]:
        run("weight", "--path", str(path), "--expect-positive")
    run("transition", "--method", "mc")
    return runs


def grid_check(inp, runs):
    problems = []
    for command, code, out in runs:
        if code != 0:
            problems.append(f"{command} exited {code}")
            continue
        try:
            with open(out) as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            problems.append(f"{command} output does not parse: {exc}")
            continue
        if command == "positivity":
            eps = (GRID_LATTICE["tb"] - GRID_LATTICE["ta"]) / GRID_LATTICE["n"]
            if not eps <= float(payload["lambda_strict"]):
                problems.append(f"eps {eps:.4g} above the reported threshold")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "quad_sweep_n6",
            "criterion 10's n=6 gamma sweep; quadrature and weights.step_m do nearly all the work",
            quad_setup,
            quad_solve,
            quad_check,
            "arrays",
        ),
        Workload(
            "mc_bridge_n16",
            "n=16 Cauchy-bridge MC on 2 threads; sampling and batch_log_weights split the time, "
            "so ESS, weight-kernel and threading changes show",
            mc_setup,
            mc_solve,
            mc_check,
            "arrays",
            ess=lambda est: est.ess,
        ),
        Workload(
            "oracle_ck",
            "criteria 6 and 8 on the split-step oracle only; isolates FFT and time-step work "
            "and is the no-change control for weight and quadrature changes",
            oracle_setup,
            oracle_solve,
            oracle_check,
            "calls",
        ),
        Workload(
            "grid_cli",
            "seeded tabulated potential through band_limit and many small in-process CLI calls; "
            "grid step_m per-call overhead, cli and potentials",
            grid_setup,
            grid_solve,
            grid_check,
            "calls",
        ),
    )
}
