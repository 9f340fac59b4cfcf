"""Importance-sampled Monte Carlo estimation of transition probabilities.

Paths are generated as pinned bridges in velocity-change space.  The one
proposal draws each velocity change from the Lorentzian law that the step
factors carry, by its inverse CDF ``gamma * tan(pi (u - 1/2))`` of a uniform
``u`` (the tangent substitution of the tensor quadrature).  A path's
importance ratio is then ``prod_j exp(-gamma |z_j|) (1 - eps M_j)`` for any
potential (the cancellation is written out in :mod:`pathprob.weights`),
bounded by 1 for the free particle.  ``weights._sign_log_ratio`` reduces it
to a sign and a log per path: the product of the factors ``1 - eps M_j``,
accumulated in place, one ``log`` of it, and ``gamma sum_j |z_j|`` taken off
in the log domain.

Sampling is deterministic given a seed: every batch owns a counter-based
random stream keyed by ``(seed, batch index)``, so results are independent of
the number of worker threads.  This estimator and
:func:`~pathprob.analysis.classical_concentration_scan` draw through the same
batch loop.

A batch's work is elementwise numpy plus a bridge solve that
:func:`~pathprob.lattice.interior_from_velocity_changes` runs as one-thread
dgemm blocks (up to n = 296), so BLAS starts no threads of its own and
``threads`` workers share the cores between them alone: on a 2-vCPU x86_64 VM,
65 536 paths at n = 16 take 0.03-0.045 s with ``threads=1`` and 0.025-0.035 s
with ``threads=2``; the speed-up read 1.0x to 1.8x across runs.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .lattice import LatticeConfig, interior_from_velocity_changes
from .potentials import TWO_PI, BandLimitedPotential
from .results import TransitionEstimate
from .weights import NonConvergenceError, _sign_log_ratio, positivity_threshold

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
    """Sampling budget; the proposal is fixed by the lattice's ``gamma``."""

    n_samples: int = 100_000
    seed: int = 0
    threads: int = 1

    def __post_init__(self):
        if not self.n_samples >= _N_BATCHES:
            raise ValueError(f"need n_samples >= {_N_BATCHES}")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")


def sample_bridge_paths(
    cfg: LatticeConfig, sampler: SamplerConfig, size: int, batch: int = 0
):
    """Draw ``size`` pinned paths; returns ``(interiors, s)``.

    ``s`` holds each path's ``n - 1`` velocity changes,
    ``cfg.gamma * tan(pi (u - 1/2))`` on the ``random()`` block ``u`` of the
    ``(sampler.seed, batch)`` stream (Cauchy with scale ``cfg.gamma``), and
    ``interiors`` the bridge paths they pin.
    """
    key = np.array([sampler.seed & 0xFFFFFFFFFFFFFFFF, batch], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    # inverse CDF of Cauchy(0, gamma), in place on the one uniform block
    s = rng.random(size=(size, cfg.n - 1))
    s -= 0.5
    s *= math.pi
    np.tan(s, out=s)
    s *= cfg.gamma
    return interior_from_velocity_changes(s, cfg), s


def _map_batches(sampler: SamplerConfig, work) -> list:
    """``work(size, batch)`` over the batches of ``sampler.n_samples`` paths.

    Batches hold at most ``_BATCH`` paths and run on ``sampler.threads``
    workers.  ``work`` draws its batch and returns a tuple of per-path arrays,
    never the interiors; each is concatenated in batch order, so the result
    does not depend on the thread count.
    """
    sizes = [min(_BATCH, sampler.n_samples - a) for a in range(0, sampler.n_samples, _BATCH)]
    with ThreadPoolExecutor(max_workers=sampler.threads) as pool:
        parts = list(pool.map(work, sizes, range(len(sizes))))
    return [np.concatenate(column) for column in zip(*parts)]


def effective_sample_size(weights: np.ndarray) -> float:
    """Kish effective sample size ``(sum |w|)^2 / sum w^2``."""
    w = np.abs(np.asarray(weights, dtype=float))
    denom = float(np.sum(w * w))
    if denom == 0.0:
        return 0.0
    return float(np.sum(w)) ** 2 / denom


def estimate_transition_mc(
    p: BandLimitedPotential,
    cfg: LatticeConfig,
    sampler: SamplerConfig,
) -> TransitionEstimate:
    """Importance-sampling estimate of the transition probability.

    The estimator is ``(2 pi T)^(-1)`` times the mean importance ratio
    ``prod_j exp(-gamma |z_j|) (1 - eps M_j)`` of the drawn paths.  The
    standard error comes from batch means over 16 groups; ``ess`` and the
    fraction of importance mass carried by negative-ratio paths are attached
    for diagnostics.  Warns when eps exceeds the strict positivity threshold
    (the estimate then targets a signed measure).
    """
    thr = positivity_threshold(p, cfg.gamma)
    if math.isfinite(thr.lambda_strict) and cfg.eps > thr.lambda_strict:
        warnings.warn(
            f"eps={cfg.eps:.4g} exceeds lambda_strict={thr.lambda_strict:.4g}: "
            "weights may be negative; this is signed-measure estimation",
            stacklevel=2,
        )

    def ratios(size, batch):
        interiors, s = sample_bridge_paths(cfg, sampler, size, batch)
        return _sign_log_ratio(p, interiors, s, cfg.eps, cfg.gamma)

    signs, log_ratio = _map_batches(sampler, ratios)

    # log-domain reduction: shift by the max so exp never overflows; the
    # largest ratio itself underflows when the endpoints lie far from z = 0,
    # and then so does the estimate's scale exp(shift)
    shift = float(np.max(log_ratio))
    peak = math.exp(shift)
    if peak == 0.0:
        raise NonConvergenceError(
            "no drawn path carries weight in double precision: the largest "
            f"importance ratio, exp({shift:.4g}), underflows to 0 and so does "
            "the estimate; bring the endpoints nearer z = 0 or lower gamma"
        )
    r = signs * np.exp(log_ratio - shift)
    mean_r = float(np.mean(r))
    batch_means = np.array([np.mean(b) for b in np.array_split(r, _N_BATCHES)])
    std_r = float(np.std(batch_means, ddof=1)) / math.sqrt(_N_BATCHES)
    scale = peak / (TWO_PI * cfg.duration)

    ess = effective_sample_size(r)
    if not ess >= 10.0:  # NaN-safe
        raise NonConvergenceError(
            f"effective sample size {ess:.2f} < 10: the importance weights are "
            "too concentrated; lower gamma, eps or n, or draw more samples"
        )
    abs_mass = float(np.sum(np.abs(r)))
    neg_mass = float(np.sum(np.abs(r[signs < 0])))
    return TransitionEstimate(
        value=mean_r * scale,
        std_error=std_r * scale,
        method="mc-cauchy",
        n=cfg.n,
        eps=cfg.eps,
        gamma=cfg.gamma,
        ess=ess,
        negative_mass_fraction=(neg_mass / abs_mass) if abs_mass > 0 else 0.0,
        seed=sampler.seed,
    )
