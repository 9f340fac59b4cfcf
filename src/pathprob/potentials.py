"""One-dimensional potentials with band-limited (compactly supported) spectra.

A potential enters the positivity machinery only through its Fourier
transform ``Vt(q) = \\int V(x) exp(ixq) dx``, which must vanish for
``|q| > R`` and satisfy ``\\int |Vt| dq <= K``.  Every potential is a
finite cosine sum ``V(x) = sum_k a_k cos(q_k x + phi_k)``, whose transform
is a finite set of weighted delta pairs at ``+-q_k``, so the per-step kernel
is closed form.  A tabulated potential is projected onto ``|q| <= R``
(:func:`band_limit`) and a sampled spectrum becomes one line per positive
node (:meth:`BandLimitedPotential.from_grid`): its trapezoid node sum is the
potential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * np.pi

__all__ = [
    "SpectralLine",
    "BandLimitedPotential",
    "BandLimitReport",
    "band_limit",
    "DomainError",
]

# The numeric domain of the step kernel M(z, s) (weights), inside which every closed form holds
# in double precision.  Each bound is at least 10 times inside the edge measured on x86_64:
QG_MAX = 1e8  # a line's q / gamma: the cubic's s* keeps sup D within 1e-12 up to about 8e9
S_MAX = 1e76  # |s|: D's products overflow from about 1.16e77
GAMMA_MAX = 1e59  # the Monte Carlo's farthest draw, 1.63e16 gamma, overflows D from 7.1e60
Q_MIN = 1e-72  # at q / gamma = QG_MAX, D(s*) underflows and is 4e-9 off at q = 1e-75
Q_MAX = QG_MAX * GAMMA_MAX
Z_MAX = 1e240  # |z|: q |z| stays below 1e307 (overflow at 1.8e308)
K_MAX = 1e292  # K = 2 pi sum |a|: sup |M| = K (QG_MAX^2 + 2) / (2 pi) overflows from 1.1e293


class DomainError(ValueError):
    """An input outside the numeric domain (``QG_MAX``, ``S_MAX``, ... above)."""


def check_gamma(gamma: float, r: float = 0.0) -> None:
    """DomainError unless ``0 < gamma <= GAMMA_MAX`` and ``r / gamma <= QG_MAX`` (``r`` a
    largest line wavenumber)."""
    if not 0.0 < gamma <= GAMMA_MAX:
        raise DomainError(f"gamma must be positive and at most GAMMA_MAX = {GAMMA_MAX:g}, "
                          f"got {gamma}")
    if not r <= QG_MAX * gamma:
        raise DomainError(f"q / gamma = {r / gamma:.4g} is past QG_MAX = {QG_MAX:g}")


@dataclass(frozen=True)
class SpectralLine:
    """A single cosine component ``a * cos(q * x + phi)`` with ``Q_MIN <= q <= Q_MAX``."""

    q: float
    a: float
    phi: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.q, self.a, self.phi))):
            raise ValueError(f"line fields must be finite, got {self}")
        if not Q_MIN <= self.q <= Q_MAX:
            raise DomainError(f"line wavenumber needs Q_MIN = {Q_MIN:g} <= q <= Q_MAX = "
                              f"{Q_MAX:g}, got q={self.q}")


@dataclass(frozen=True)
class BandLimitedPotential:
    """Potential whose Fourier transform is supported on ``[-R, R]``.

    ``R`` (the largest line wavenumber) and ``K = 2*pi*sum|a_k|``, which is
    ``\\int |Vt|`` exactly, are derived from the lines; both are 0 with none.
    ``K <= K_MAX``, and ``R^2 K`` is positive where ``K`` is (DomainError).
    ``line_arrays`` is ``(q, a, phi)`` of the lines as read-only arrays, built
    once and left out of equality and hashing.
    """

    lines: tuple[SpectralLine, ...] = ()
    R: float = field(init=False)
    K: float = field(init=False)
    line_arrays: tuple[np.ndarray, np.ndarray, np.ndarray] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        object.__setattr__(self, "R", max((ln.q for ln in self.lines), default=0.0))
        object.__setattr__(self, "K", TWO_PI * sum(abs(ln.a) for ln in self.lines))
        if not self.K <= K_MAX:
            raise DomainError(f"K = {self.K:g} is past K_MAX = {K_MAX:g}")
        if self.K and not self.R**2 * self.K > 0.0:  # 2 pi gamma^2 / (R^2 K) divides by it
            raise DomainError(f"R^2 K underflows to 0 at R = {self.R:g}, K = {self.K:g}")
        cols = np.array([(ln.q, ln.a, ln.phi) for ln in self.lines], dtype=float).reshape(-1, 3)
        cols = np.ascontiguousarray(cols.T)
        cols.flags.writeable = False
        object.__setattr__(self, "line_arrays", tuple(cols))

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "BandLimitedPotential":
        return cls()

    @classmethod
    def from_lines(cls, lines) -> "BandLimitedPotential":
        return cls(
            tuple(ln if isinstance(ln, SpectralLine) else SpectralLine(*ln) for ln in lines)
        )

    @classmethod
    def single_line(cls, a: float, q: float, phi: float = 0.0) -> "BandLimitedPotential":
        return cls.from_lines([SpectralLine(q=q, a=a, phi=phi)])

    @classmethod
    def from_grid(cls, q, vt) -> "BandLimitedPotential":
        """The trapezoid node sum of a spectrum sampled on a symmetric grid.

        ``V(x) = (2 pi)^-1 sum_j w_j Vt(q_j) exp(-ixq_j)`` with trapezoid
        weights ``w_j`` is a cosine sum: each positive node whose ``b_j =
        (Vt(q_j) + conj Vt(-q_j)) / 2`` is nonzero gives the line ``a_j =
        w_j |b_j| / pi``, ``phi_j = -arg b_j``.  ``q`` must be uniform, odd in
        length (>= 3) and symmetric about 0, and ``vt`` Hermitian (``V``
        real) and zero at q = 0, which would be a constant offset; otherwise
        ValueError.
        """
        q = np.asarray(q, dtype=float)
        vt = np.asarray(vt, dtype=complex)
        if q.ndim != 1 or q.size < 3 or q.size % 2 == 0:
            raise ValueError("spectral grid needs an odd number (>=3) of q samples")
        dq = np.diff(q)
        if not np.allclose(dq, dq[0], rtol=1e-10, atol=1e-12):
            raise ValueError("spectral grid must be uniform")
        if abs(q[0] + q[-1]) > 1e-12 * max(1.0, abs(q[-1])):
            raise ValueError("spectral grid must be symmetric about q = 0")
        if vt.shape != q.shape:
            raise ValueError("q and vt shapes differ")
        # V real <=> Vt(-q) = conj(Vt(q))
        herm = np.max(np.abs(vt - np.conj(vt[::-1])))
        scale = max(np.max(np.abs(vt)), 1e-300)
        if herm > 1e-9 * scale:
            raise ValueError("spectrum violates Hermitian symmetry")
        mid = q.size // 2
        if vt[mid] != 0:
            raise ValueError("a nonzero spectrum at q = 0 is a constant offset")
        w = np.append(0.5 * (dq[mid:-1] + dq[mid + 1 :]), 0.5 * dq[-1])
        b = 0.5 * (vt[mid + 1 :] + np.conj(vt[mid - 1 :: -1]))
        a = w * np.abs(b) / np.pi
        return cls.from_lines(
            SpectralLine(float(qj), float(aj), float(-np.angle(bj)))
            for qj, aj, bj in zip(q[mid + 1 :], a, b)
            if aj != 0
        )

    # -- queries ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.lines

    def evaluate(self, x):
        """Evaluate ``V(x) = sum_k a_k cos(q_k x + phi_k)``.

        Accepts scalars or arrays.
        """
        x = np.asarray(x, dtype=float)
        v = np.zeros_like(x)
        for ln in self.lines:
            v = v + ln.a * np.cos(ln.q * x + ln.phi)
        return v if v.ndim else float(v)


@dataclass(frozen=True)
class BandLimitReport:
    """Diagnostics from projecting a tabulated potential onto a band limit."""

    linf_error: float
    rms_error: float


def band_limit(x_samples, v_samples, R: float):
    """Project tabulated samples of a real potential onto ``|q| <= R``.

    The sampled potential (mean-subtracted, fixing the zero of energy) is
    transformed with a trapezoid approximation of the Fourier integral on
    ``max(129, ceil(8 R X / pi) | 1)`` uniform nodes over ``[-R, R]``, ``X``
    the sample window's half-width, enough to resolve the sinc structure the
    window sets.  It is returned as the lines of
    :meth:`BandLimitedPotential.from_grid` together with a reconstruction-error
    report.

    Raises ValueError when ``R`` exceeds the sample grid's Nyquist wavenumber.
    """
    x = np.asarray(x_samples, dtype=float)
    v = np.asarray(v_samples, dtype=float)
    if x.ndim != 1 or x.shape != v.shape or x.size < 4:
        raise ValueError("need matching 1D sample arrays with at least 4 points")
    dx = np.diff(x)
    if not np.allclose(dx, dx[0], rtol=1e-9, atol=1e-12):
        raise ValueError("sample grid must be uniform")
    dx = float(dx[0])
    nyquist = np.pi / dx
    if R > nyquist:
        raise ValueError(f"R={R} exceeds the Nyquist wavenumber {nyquist:.6g}")
    if not R > 0:
        raise ValueError("R must be positive")

    v_centered = v - np.mean(v)  # drop the q=0 component
    half_width = 0.5 * (x[-1] - x[0])
    q = np.linspace(-R, R, max(129, int(np.ceil(8.0 * R * half_width / np.pi)) | 1))
    phase = np.exp(1j * np.multiply.outer(q, x))
    vt = dx * phase @ v_centered
    vt[np.abs(q) < 0.5 * (q[1] - q[0])] = 0.0

    pot = BandLimitedPotential.from_grid(q, vt)
    v_rec = pot.evaluate(x)
    err = v_rec - v_centered
    linf = float(np.max(np.abs(err)))
    rms = float(np.sqrt(np.mean(err**2)))
    return pot, BandLimitReport(linf_error=linf, rms_error=rms)


# -- JSON interchange -------------------------------------------------

def potential_to_dict(p: BandLimitedPotential) -> dict:
    return {
        "lines": [{"q": ln.q, "a": ln.a, "phi": ln.phi} for ln in p.lines],
        "R": p.R,
        "K": p.K,
    }


def potential_from_dict(d: dict) -> BandLimitedPotential:
    """Potential from its JSON form (see :func:`potential_to_dict`).

    The form is ``lines``, or a ``grid`` of ``[re, im]`` spectrum samples on
    ``[-qmax, qmax]`` that :meth:`BandLimitedPotential.from_grid` turns into
    lines.  ``R`` and ``K`` are computed from the lines: the largest line
    wavenumber (for a grid, the largest nonzero node) and ``2 pi sum|a_k|``
    (for a grid, the trapezoid ``\\int |Vt| dq`` over the nodes).  A declared
    ``R`` or ``K`` may be looser than these but not tighter: a line beyond
    ``R``, or a ``K`` below the computed value, raises ValueError.  A looser declaration is checked
    and then dropped, so it never changes the positivity thresholds.
    """
    if "grid" in d:
        g = d["grid"]
        vals = np.asarray(g["values"], dtype=float)
        if vals.ndim != 2 or vals.shape[1] != 2:
            raise ValueError(f"grid values must be [re, im] pairs, got shape {vals.shape}")
        vt = vals[:, 0] + 1j * vals[:, 1]
        q = np.linspace(-float(g["qmax"]), float(g["qmax"]), vt.size)
        p = BandLimitedPotential.from_grid(q, vt)
    else:
        lines = [
            SpectralLine(q=ln["q"], a=ln["a"], phi=ln.get("phi", 0.0))
            for ln in d.get("lines", [])
        ]
        p = BandLimitedPotential.from_lines(lines)
    if "K" in d and float(d["K"]) < p.K - 1e-10 * max(1.0, p.K):
        raise ValueError(f"declared K={d['K']} below the computed integral of |Vt|, {p.K}")
    if "R" in d and p.R > float(d["R"]) * (1 + 1e-12):
        raise ValueError(f"spectrum reaches q={p.R}, beyond the declared R={d['R']}")
    return p

