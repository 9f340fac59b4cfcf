"""Importance-sampled Monte Carlo estimation of transition probabilities.

Paths are generated as pinned bridges in velocity-change space.  The default
proposal draws each velocity change from a Cauchy distribution, which matches
the heavy tails of the step factors exactly, so the importance ratio for the
free particle reduces to a bounded product ``prod exp(-gamma |z_j|)``.

Sampling is deterministic given a seed: every batch owns a counter-based
random stream keyed by ``(seed, batch index)``, so results are independent of
the number of worker threads.

A batch's work is elementwise numpy plus a bridge solve that
:func:`~pathprob.lattice.interior_from_velocity_changes` runs as one-thread
dgemm blocks (up to n = 296), so BLAS starts no threads of its own and
``threads`` workers share the cores between them alone: on a 2-vCPU x86_64 VM,
65 536 paths at n = 16 take about 0.19 s with ``threads=1`` and 0.12 s with
``threads=2``.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .lattice import LatticeConfig, interior_from_velocity_changes
from .potentials import TWO_PI, BandLimitedPotential
from .quadrature import TransitionEstimate
from .weights import NonConvergenceError, batch_log_weights, positivity_threshold

__all__ = [
    "SamplerConfig",
    "sample_bridge_paths",
    "estimate_transition_mc",
    "effective_sample_size",
]

_BATCH = 4096
_N_BATCHES = 16  # batch means behind the standard error


@dataclass(frozen=True)
class SamplerConfig:
    """Proposal choice and sampling budget.

    ``gamma_prop`` defaults to the lattice gamma; ``method`` is "cauchy"
    (velocity-change increments, the robust default) or "gaussian" (a
    Brownian-bridge proposal with position scale ``sigma_prop``, useful to
    expose heavy-tail failure modes).
    """

    n_samples: int = 100_000
    method: str = "cauchy"
    seed: int = 0
    gamma_prop: float | None = None
    sigma_prop: float = 1.0
    threads: int = 1

    def __post_init__(self):
        if not self.n_samples >= _N_BATCHES:
            raise ValueError(f"need n_samples >= {_N_BATCHES}")
        if self.method not in ("cauchy", "gaussian"):
            raise ValueError(f"unknown sampler method {self.method!r}")
        if self.gamma_prop is not None and not self.gamma_prop > 0:
            raise ValueError("gamma_prop must be positive")
        if not self.sigma_prop > 0:
            raise ValueError("sigma_prop must be positive")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")


def _rng_for_batch(seed: int, batch: int) -> np.random.Generator:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, batch], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_bridge_paths(
    cfg: LatticeConfig, sampler: SamplerConfig, size: int, batch: int = 0
):
    """Draw ``size`` pinned paths; returns ``(interiors, log_density)``.

    ``log_density`` is the proposal density of each path in interior-position
    space, i.e. including the velocity-change Jacobian ``n / eps^(n-1)``
    for the Cauchy proposal.
    """
    rng = _rng_for_batch(sampler.seed, batch)
    n = cfg.n
    d = n - 1
    if sampler.method == "cauchy":
        gp = cfg.gamma if sampler.gamma_prop is None else sampler.gamma_prop
        s = gp * rng.standard_cauchy(size=(size, d))
        interiors = interior_from_velocity_changes(s, cfg)
        log_density = (
            np.sum(np.log(gp / np.pi) - np.log(s * s + gp * gp), axis=1)
            + math.log(n)
            - d * math.log(cfg.eps)
        )
        return interiors, log_density

    # Gaussian Brownian-bridge proposal, built step by step so the density
    # factorizes over the sequential conditionals.
    sig2 = sampler.sigma_prop**2 * cfg.eps
    interiors = np.empty((size, d))
    log_density = np.zeros(size)
    prev = np.full(size, cfg.z_a)
    for j in range(1, n):
        steps_left = n - j + 1
        mean = prev + (cfg.z_b - prev) / steps_left
        var = sig2 * (steps_left - 1) / steps_left
        z = mean + math.sqrt(var) * rng.standard_normal(size)
        log_density += -0.5 * (z - mean) ** 2 / var - 0.5 * math.log(TWO_PI * var)
        interiors[:, j - 1] = z
        prev = z
    return interiors, log_density


def effective_sample_size(weights: np.ndarray) -> float:
    """Kish effective sample size ``(sum |w|)^2 / sum w^2``."""
    w = np.abs(np.asarray(weights, dtype=float))
    denom = float(np.sum(w * w))
    if denom == 0.0:
        return 0.0
    return float(np.sum(w)) ** 2 / denom


def _batch_ratios(p, cfg, sampler, size, batch):
    interiors, log_density = sample_bridge_paths(cfg, sampler, size, batch)
    signs, log_abs, _ = batch_log_weights(p, interiors, cfg)
    return signs, log_abs - log_density


def estimate_transition_mc(
    p: BandLimitedPotential,
    cfg: LatticeConfig,
    sampler: SamplerConfig,
) -> TransitionEstimate:
    """Importance-sampling estimate of the transition probability.

    The estimator is ``(2 pi T)^(-1)`` times the mean importance ratio
    (signed path weight over proposal density).  The standard error comes
    from batch means over 16 groups; ``ess`` and the fraction of importance
    mass carried by negative-weight paths are attached for diagnostics.  Warns when eps exceeds the strict positivity
    threshold (the estimate then targets a signed measure).
    """
    thr = positivity_threshold(p, cfg.gamma)
    if math.isfinite(thr.lambda_strict) and cfg.eps > thr.lambda_strict:
        warnings.warn(
            f"eps={cfg.eps:.4g} exceeds lambda_strict={thr.lambda_strict:.4g}: "
            "weights may be negative; this is signed-measure estimation",
            stacklevel=2,
        )
    n_batches = int(math.ceil(sampler.n_samples / _BATCH))
    sizes = [
        min(_BATCH, sampler.n_samples - b * _BATCH) for b in range(n_batches)
    ]

    with ThreadPoolExecutor(max_workers=sampler.threads) as pool:
        parts = list(
            pool.map(
                lambda b: _batch_ratios(p, cfg, sampler, sizes[b], b),
                range(n_batches),
            )
        )

    signs = np.concatenate([s for s, _ in parts])
    log_ratio = np.concatenate([lr for _, lr in parts])

    # log-domain reduction: shift by the max so exp never overflows
    shift = float(np.max(log_ratio))
    r = signs * np.exp(log_ratio - shift)
    mean_r = float(np.mean(r))
    batch_means = np.array([np.mean(b) for b in np.array_split(r, _N_BATCHES)])
    std_r = float(np.std(batch_means, ddof=1)) / math.sqrt(_N_BATCHES)
    scale = math.exp(shift) / (TWO_PI * cfg.duration)

    ess = effective_sample_size(r)
    if ess < 10.0:
        raise NonConvergenceError(
            f"effective sample size {ess:.2f} < 10: the proposal is badly "
            "mismatched; retune gamma_prop/sigma_prop or switch method"
        )
    abs_mass = float(np.sum(np.abs(r)))
    neg_mass = float(np.sum(np.abs(r[signs < 0])))
    return TransitionEstimate(
        value=mean_r * scale,
        std_error=std_r * scale,
        method=f"mc-{sampler.method}",
        n=cfg.n,
        eps=cfg.eps,
        gamma=cfg.gamma,
        refinement=(),
        ess=ess,
        negative_mass_fraction=(neg_mass / abs_mass) if abs_mass > 0 else 0.0,
        seed=sampler.seed,
    )
