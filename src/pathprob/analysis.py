"""Quantitative experiments: classical limit, convergence, linearization order.

Each scan returns a small table (list of row dicts) wrapped with provenance —
the exact configs, seeds, and library versions that produced it — and can be
written out as a CSV table plus a JSON sidecar.
"""

from __future__ import annotations

import math
import platform
from dataclasses import replace

import numpy as np

from . import __version__
from .lattice import LatticeConfig
from .montecarlo import (
    SamplerConfig,
    _map_batches,
    estimate_transition_mc,
    sample_bridge_paths,
)
from .potentials import BandLimitedPotential, potential_to_dict
from .quadrature import extrapolate_gamma, transition_probability_quadrature
from .results import ScanResult
from .weights import _sign_log_ratio, step_q_exponential, step_q_linear

__all__ = [
    "ScanResult",
    "classical_concentration_scan",
    "convergence_sweep",
    "linearization_order_scan",
]


def _provenance(**extra) -> dict:
    return {
        "package_version": __version__,
        "numpy_version": np.__version__,
        "python_version": platform.python_version(),
        **extra,
    }


def classical_concentration_scan(
    cfg: LatticeConfig,
    gammas,
    delta: float,
    sampler: SamplerConfig = SamplerConfig(),
) -> ScanResult:
    """Weighted fraction of free-particle path mass with ``max_j |s_j| > delta``.

    As the regularization is removed the path measure concentrates on the
    uniform-velocity (classical) path, so the fraction carrying large velocity
    changes should shrink with gamma.  Paths are drawn by
    :func:`~pathprob.montecarlo.sample_bridge_paths` in the
    ``(seed, batch)``-keyed batches of the Monte Carlo estimator, on
    ``sampler.threads`` workers, and judged by the drawn velocity changes.
    """
    free = BandLimitedPotential.zero()
    rows = []
    for g in gammas:
        cfg_g = replace(cfg, gamma=g)

        def weigh(size, batch):
            interiors, s = sample_bridge_paths(cfg_g, sampler, size, batch)
            # the Monte Carlo importance ratio with M = 0, positive on every path
            _, log_w = _sign_log_ratio(free, interiors, s, cfg_g.eps, g)
            return log_w, np.max(np.abs(s), axis=1) > delta

        log_w, exceed = _map_batches(sampler, weigh)
        w = np.exp(log_w - np.max(log_w))
        fraction = float(np.sum(w[exceed]) / np.sum(w))
        rows.append({"gamma": g, "delta": delta, "fraction": fraction})
    prov = _provenance(
        lattice=vars(cfg) | {"gamma": "scanned"},
        gammas=list(gammas),
        delta=delta,
        n_samples=sampler.n_samples,
        seed=sampler.seed,
    )
    return ScanResult("classical_concentration", rows, prov)


def convergence_sweep(
    p: BandLimitedPotential,
    cfg: LatticeConfig,
    n_list,
    gamma_list,
    method: str = "quadrature",
    points_per_dim: int = 24,
    sampler: SamplerConfig = SamplerConfig(),
) -> ScanResult:
    """Transition-probability estimates over an ``(n, gamma)`` grid.

    The summary carries, per n, the gamma-extrapolated value and its
    uncertainty, exposing both the inner n-trend and the outer gamma-trend.
    """
    if method not in ("quadrature", "mc"):
        raise ValueError(f"unknown method {method!r}")
    gamma_list = sorted(set(gamma_list))
    rows = []
    extrapolated = {}
    for n in n_list:
        values = []
        for g in gamma_list:
            cfg_ng = replace(cfg, n=n, gamma=g)
            if method == "quadrature":
                est = transition_probability_quadrature(
                    p, cfg_ng, points_per_dim=points_per_dim
                )
            else:
                est = estimate_transition_mc(p, cfg_ng, sampler)
            values.append(est.value)
            rows.append(
                {
                    "n": n,
                    "gamma": g,
                    "value": est.value,
                    "std_error": est.std_error,
                    "method": est.method,
                }
            )
        if len(gamma_list) >= 2:
            p0, unc = extrapolate_gamma(gamma_list, values)
            extrapolated[n] = {"value": p0, "uncertainty": unc}
    prov = _provenance(
        potential=potential_to_dict(p),
        lattice=vars(cfg) | {"n": "scanned", "gamma": "scanned"},
        n_list=list(n_list),
        gamma_list=list(gamma_list),
        method=method,
        points_per_dim=points_per_dim,
        n_samples=sampler.n_samples,
        seed=sampler.seed,
    )
    return ScanResult(
        "convergence_sweep", rows, prov, summary={"gamma_extrapolated": extrapolated}
    )


def linearization_order_scan(
    p: BandLimitedPotential,
    points,
    gamma: float,
    eps_list,
) -> ScanResult:
    """Difference between the exponential and linearized step factors vs eps.

    For each ``(z, s)`` point the table reports the absolute and relative
    difference per eps; the fitted log-log slope of the relative difference
    isolates the quadratic remainder of the linearization (the step-factor
    prefactor itself carries one inverse power of eps, so the absolute
    difference scales one order lower).
    """
    eps_list = sorted(eps_list, reverse=True)
    rows = []
    slopes = {}
    for z, s in points:
        rel = []
        for eps in eps_list:
            q_lin = float(step_q_linear(p, z, s, eps, gamma))
            q_exp = float(step_q_exponential(p, z, s, eps, gamma))
            diff = abs(q_exp - q_lin)
            rel_diff = diff / abs(q_lin) if q_lin != 0 else math.nan
            rel.append(rel_diff)
            rows.append(
                {
                    "z": z,
                    "s": s,
                    "eps": eps,
                    "q_linear": q_lin,
                    "q_exponential": q_exp,
                    "abs_difference": diff,
                    "rel_difference": rel_diff,
                }
            )
        if len(eps_list) < 2 or p.is_zero or all(r == 0 or math.isnan(r) for r in rel):
            slopes[(z, s)] = None
            continue
        slopes[(z, s)] = float(np.polyfit(np.log(eps_list), np.log(rel), 1)[0])
    prov = _provenance(
        potential=potential_to_dict(p),
        points=[list(pt) for pt in points],
        gamma=gamma,
        eps_list=list(eps_list),
    )
    summary = {
        "slopes": [
            {"z": z, "s": s, "slope": sl} for (z, s), sl in slopes.items()
        ]
    }
    return ScanResult("linearization_order", rows, prov, summary=summary)
