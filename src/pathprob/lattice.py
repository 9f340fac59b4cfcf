"""Time lattice, discrete paths, and velocity-change variables.

A path is ``n+1`` positions ``z_0..z_n`` on a uniform time lattice with both
endpoints pinned; the motion inside each step is uniform, so the dynamics is
carried entirely by the per-step velocity changes
``s_j = (z_{j+1} - 2 z_j + z_{j-1}) / eps``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LatticeConfig",
    "Path",
    "StepQuantities",
    "second_differences",
    "velocity_changes",
    "interior_from_velocity_changes",
    "write_path_csv",
    "read_path_csv",
]


@dataclass(frozen=True)
class LatticeConfig:
    """Uniform time lattice plus regularization and endpoint data.

    ``eps`` is always derived from ``(t_a, t_b, n)`` so that ``n * eps``
    equals ``t_b - t_a`` exactly in floating point.
    """

    t_a: float
    t_b: float
    n: int
    gamma: float
    z_a: float
    z_b: float

    def __post_init__(self):
        names = ("t_a", "t_b", "gamma", "z_a", "z_b")
        bad = [f for f in names if not math.isfinite(getattr(self, f))]
        if bad:
            raise ValueError(f"lattice fields must be finite: {bad}")
        if self.n < 2:
            raise ValueError("need at least n = 2 time steps")
        if not self.t_b > self.t_a:
            raise ValueError("t_b must exceed t_a")
        if not self.gamma > 0:
            raise ValueError("regularization gamma must be positive")

    @property
    def eps(self) -> float:
        return (self.t_b - self.t_a) / self.n

    @property
    def duration(self) -> float:
        return self.t_b - self.t_a

    @property
    def times(self) -> np.ndarray:
        return self.t_a + self.eps * np.arange(self.n + 1)


@dataclass(frozen=True)
class Path:
    """Positions ``z_0..z_n``; endpoints are fixed by the lattice config."""

    z: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.z, dtype=float)
        if z.ndim != 1 or z.size < 3:
            raise ValueError("a path needs at least 3 points")
        object.__setattr__(self, "z", z)

    @property
    def n(self) -> int:
        return self.z.size - 1


@dataclass(frozen=True)
class StepQuantities:
    """Per-step velocity changes and weight factors, all of length n-1."""

    s: np.ndarray
    M: np.ndarray
    Q: np.ndarray

    def __post_init__(self):
        if not (len(self.s) == len(self.M) == len(self.Q)):
            raise ValueError("s, M, Q must have equal length")
        if not np.all(np.isfinite(self.Q)):
            raise ValueError("non-finite step factor Q")


def validate_path(path: Path, cfg: LatticeConfig) -> None:
    if path.n != cfg.n:
        raise ValueError(f"path has {path.n} steps, lattice expects {cfg.n}")
    if not (np.isclose(path.z[0], cfg.z_a, rtol=0, atol=1e-9)
            and np.isclose(path.z[-1], cfg.z_b, rtol=0, atol=1e-9)):
        raise ValueError("path endpoints do not match the lattice config")


def _stencil(z, eps: float):
    """``(z_{j+1} - 2 z_j + z_{j-1}) / eps`` along the last axis."""
    return (z[..., 2:] - 2.0 * z[..., 1:-1] + z[..., :-2]) / eps


def second_differences(path: Path, cfg: LatticeConfig) -> np.ndarray:
    """Velocity changes ``s_j = (z_{j+1} - 2 z_j + z_{j-1}) / eps``, j = 1..n-1."""
    validate_path(path, cfg)
    return _stencil(path.z, cfg.eps)


def velocity_changes(interiors, cfg: LatticeConfig) -> np.ndarray:
    """Velocity changes of the paths with interior points ``interiors``.

    ``interiors`` has shape (..., n-1); the endpoints are the lattice's.  The
    inverse of :func:`interior_from_velocity_changes`.
    """
    interiors = np.asarray(interiors, dtype=float)
    pin = interiors.shape[:-1] + (1,)
    z = np.concatenate(
        [np.full(pin, cfg.z_a), interiors, np.full(pin, cfg.z_b)], axis=-1
    )
    return _stencil(z, cfg.eps)


def second_difference_matrix(n: int) -> np.ndarray:
    """Interior second-difference matrix T (size n-1), ``T z_int`` stencil."""
    d = n - 1
    T = np.zeros((d, d))
    idx = np.arange(d)
    T[idx, idx] = -2.0
    T[idx[:-1], idx[:-1] + 1] = 1.0
    T[idx[1:], idx[1:] - 1] = 1.0
    return T


# OpenBLAS runs a dgemm on the calling thread when M*N*K <= 65536 *
# GEMM_MULTITHREAD_THRESHOLD = 2**18 (interface/gemm.c, threshold 4).  A
# larger product wakes its thread pool, whose threads spin after the call and
# take the cores away from the Monte Carlo worker threads.
_ONE_THREAD_GEMM = 2**18


def interior_from_velocity_changes(s, cfg: LatticeConfig) -> np.ndarray:
    """Interior positions of the unique path with given velocity changes.

    Solves the bridge problem: ``s_j`` fixed for j = 1..n-1 and both
    endpoints pinned.  ``s`` may be a single vector of length n-1 or a
    batch of shape (..., n-1).  A large batch is contracted in row blocks
    that OpenBLAS multiplies on the calling thread.
    """
    s = np.asarray(s, dtype=float)
    n = cfg.n
    d = n - 1
    if s.shape[-1] != d:
        raise ValueError("velocity-change vector must have length n-1")
    T = second_difference_matrix(n)
    b = np.zeros(d)
    b[0] += cfg.z_a
    b[-1] += cfg.z_b  # the same entry when n = 2
    Tinv = np.linalg.inv(T)
    line = Tinv @ (-b)
    block = _ONE_THREAD_GEMM // (d * d)
    m = s.size // d
    # near-equal blocks of at most `block` rows hold two or more rows once
    # block >= 3 (numpy hands a one-row product to gemv, whose sums may
    # differ from dgemm's in the last bit); past n = 296 it stays one product
    if s.ndim < 2 or block < 3 or m <= block:
        return line + cfg.eps * (s @ Tinv.T)
    rows = s.reshape(m, d)
    out = np.empty((m, d))
    k = -(-m // block)
    for i in range(k):
        lo, hi = i * m // k, (i + 1) * m // k
        np.matmul(rows[lo:hi], Tinv.T, out=out[lo:hi])
    out *= cfg.eps
    out += line
    return out.reshape(s.shape)


def make_path(cfg: LatticeConfig, interior) -> Path:
    interior = np.asarray(interior, dtype=float)
    if interior.size != cfg.n - 1:
        raise ValueError("interior must have n-1 points")
    return Path(np.concatenate([[cfg.z_a], interior, [cfg.z_b]]))


def write_path_csv(path: Path, cfg: LatticeConfig, fname) -> None:
    """Dump a path as CSV rows (j, t_j, z_j)."""
    validate_path(path, cfg)
    t = cfg.times
    with open(fname, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["j", "t", "z"])
        for j, (tj, zj) in enumerate(zip(t, path.z)):
            writer.writerow([j, repr(float(tj)), repr(float(zj))])


def read_path_csv(fname) -> Path:
    """Read a :func:`write_path_csv` file; a malformed one raises ``ValueError``."""
    with open(fname, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0][:3] != ["j", "t", "z"] or min(map(len, rows)) < 3:
        raise ValueError("need a j,t,z header and three columns in every row")
    return Path(np.asarray([row[2] for row in rows[1:]], dtype=float))
