"""Quantitative experiments: classical limit, convergence, linearization order.

Each scan returns a small table (list of row dicts) wrapped with provenance —
the exact configs, seeds, and library versions that produced it — and can be
written out as a CSV table plus a JSON sidecar.
"""

from __future__ import annotations

import csv
import json
import math
import platform
from dataclasses import dataclass, field

import numpy as np
import scipy

from . import __version__
from .lattice import LatticeConfig, velocity_changes
from .montecarlo import SamplerConfig, estimate_transition_mc, sample_bridge_paths
from .potentials import BandLimitedPotential, potential_to_dict
from .quadrature import (
    _Result,
    extrapolate_gamma,
    transition_probability_quadrature,
)
from .weights import step_q_exponential, step_q_linear

__all__ = [
    "ScanResult",
    "classical_concentration_scan",
    "convergence_sweep",
    "linearization_order_scan",
]


@dataclass(frozen=True)
class ScanResult(_Result):
    """Rows of a scan plus everything needed to reproduce them."""

    name: str
    rows: list
    provenance: dict
    summary: dict = field(default_factory=dict)

    @property
    def columns(self):
        return list(self.rows[0].keys()) if self.rows else []

    def write(self, out_prefix: str) -> tuple:
        """Write ``<prefix>.csv`` and ``<prefix>.provenance.json``."""
        csv_path = f"{out_prefix}.csv"
        json_path = f"{out_prefix}.provenance.json"
        with open(csv_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=self.columns)
            writer.writeheader()
            for row in self.rows:
                writer.writerow(row)
        sidecar = self.to_dict()
        sidecar.pop("rows", None)
        with open(json_path, "w") as fh:
            json.dump(sidecar, fh, indent=2)
        return csv_path, json_path


def _provenance(**extra) -> dict:
    return {
        "package_version": __version__,
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        "python_version": platform.python_version(),
        **extra,
    }


def classical_concentration_scan(
    cfg: LatticeConfig,
    gammas,
    delta: float,
    n_samples: int = 100_000,
    seed: int = 0,
) -> ScanResult:
    """Weighted fraction of free-particle path mass with ``max_j |s_j| > delta``.

    As the regularization is removed the path measure concentrates on the
    uniform-velocity (classical) path, so the fraction carrying large velocity
    changes should shrink with gamma.
    """
    rows = []
    for g in gammas:
        cfg_g = LatticeConfig(cfg.t_a, cfg.t_b, cfg.n, g, cfg.z_a, cfg.z_b)
        sampler = SamplerConfig(n_samples=n_samples, seed=seed)
        interiors, _ = sample_bridge_paths(cfg_g, sampler, n_samples, batch=0)
        s = velocity_changes(interiors, cfg_g)
        # free-particle importance ratio under the matched Cauchy proposal
        w = np.exp(-g * np.sum(np.abs(interiors), axis=1))
        exceed = np.max(np.abs(s), axis=1) > delta
        fraction = float(np.sum(w[exceed]) / np.sum(w))
        rows.append({"gamma": g, "delta": delta, "fraction": fraction})
    prov = _provenance(
        lattice=vars(cfg) | {"gamma": "scanned"},
        gammas=list(gammas),
        delta=delta,
        n_samples=n_samples,
        seed=seed,
    )
    return ScanResult("classical_concentration", rows, prov)


def convergence_sweep(
    p: BandLimitedPotential,
    cfg: LatticeConfig,
    n_list,
    gamma_list,
    method: str = "quadrature",
    points_per_dim: int = 24,
    n_samples: int = 200_000,
    seed: int = 0,
    threads: int = 1,
) -> ScanResult:
    """Transition-probability estimates over an ``(n, gamma)`` grid.

    The summary carries, per n, the gamma-extrapolated value and its
    uncertainty, exposing both the inner n-trend and the outer gamma-trend.
    """
    if method not in ("quadrature", "mc"):
        raise ValueError(f"unknown method {method!r}")
    gamma_list = sorted(gamma_list)
    rows = []
    extrapolated = {}
    for n in n_list:
        values = []
        for g in gamma_list:
            cfg_ng = LatticeConfig(cfg.t_a, cfg.t_b, n, g, cfg.z_a, cfg.z_b)
            if method == "quadrature":
                est = transition_probability_quadrature(
                    p, cfg_ng, points_per_dim=points_per_dim
                )
            else:
                est = estimate_transition_mc(
                    p,
                    cfg_ng,
                    SamplerConfig(n_samples=n_samples, seed=seed, threads=threads),
                )
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
        n_samples=n_samples,
        seed=seed,
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
    if p.grid is not None:
        raise ValueError("linearization scan needs a line potential")
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
        log_e = np.log(np.asarray(eps_list))
        log_r = np.log(np.asarray(rel))
        le = log_e - log_e.mean()
        slope = float(np.dot(le, log_r - log_r.mean()) / np.dot(le, le))
        slopes[(z, s)] = slope
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
