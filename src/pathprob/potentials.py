"""One-dimensional potentials with band-limited (compactly supported) spectra.

A potential enters the positivity machinery only through its Fourier
transform ``Vt(q) = \\int V(x) exp(ixq) dx``, which must vanish for
``|q| > R`` and satisfy ``\\int |Vt| dq <= K``.  Two representations are
supported:

* spectral lines: a finite cosine sum ``V(x) = sum_k a_k cos(q_k x + phi_k)``,
  whose transform is a finite set of weighted delta pairs at ``+-q_k``.
  This is the primary representation; the per-step kernel is closed form.
* a uniformly sampled complex spectrum on ``[-R, R]`` with Hermitian
  symmetry, used when projecting tabulated potentials into the admissible
  class (:func:`band_limit`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * np.pi

__all__ = [
    "SpectralLine",
    "SpectralGrid",
    "BandLimitedPotential",
    "BandLimitReport",
    "band_limit",
    "load_potential",
    "save_potential",
]


@dataclass(frozen=True)
class SpectralLine:
    """A single cosine component ``a * cos(q * x + phi)`` with ``q > 0``."""

    q: float
    a: float
    phi: float = 0.0

    def __post_init__(self):
        if not self.q > 0:
            raise ValueError(f"line wavenumber must be positive, got q={self.q}")


@dataclass(frozen=True)
class SpectralGrid:
    """Uniformly sampled spectrum ``Vt(q)`` on a symmetric grid over [-qmax, qmax]."""

    q: np.ndarray
    vt: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        vt = np.asarray(self.vt, dtype=complex)
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
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "vt", vt)

    @property
    def dq(self) -> float:
        return float(self.q[1] - self.q[0])

    def abs_integral(self) -> float:
        """Trapezoid estimate of ``\\int |Vt(q)| dq`` over the grid."""
        return float(np.trapezoid(np.abs(self.vt), self.q))


@dataclass(frozen=True)
class BandLimitedPotential:
    """Potential whose Fourier transform is supported on ``[-R, R]``.

    ``K`` is an upper bound on ``\\int |Vt|``; for the line representation it
    equals ``2*pi*sum|a_k|`` exactly.  ``K`` is stored, not recomputed, and is
    validated against the representation on construction.
    """

    R: float
    K: float
    lines: tuple[SpectralLine, ...] = ()
    grid: SpectralGrid | None = None

    def __post_init__(self):
        if self.R < 0:
            raise ValueError("support radius R must be >= 0")
        if self.K < 0:
            raise ValueError("K must be >= 0")
        if self.lines and self.grid is not None:
            raise ValueError("use either the line or the grid representation, not both")
        if self.lines:
            if any(ln.q > self.R * (1 + 1e-12) for ln in self.lines):
                raise ValueError("all line wavenumbers must lie in (0, R]")
            exact = TWO_PI * sum(abs(ln.a) for ln in self.lines)
            if not np.isclose(self.K, exact, rtol=1e-10, atol=1e-10):
                raise ValueError(
                    f"line representation requires K = 2*pi*sum|a_k| = {exact}, got {self.K}"
                )
        elif self.grid is not None:
            if self.grid.q[-1] > self.R * (1 + 1e-12):
                raise ValueError("grid extends beyond the declared support radius R")
            integral = self.grid.abs_integral()
            if self.K < integral - 1e-10 * max(1.0, integral):
                raise ValueError(
                    f"K={self.K} below the computed spectral integral {integral}"
                )

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "BandLimitedPotential":
        return cls(R=0.0, K=0.0)

    @classmethod
    def from_lines(cls, lines) -> "BandLimitedPotential":
        lines = tuple(
            ln if isinstance(ln, SpectralLine) else SpectralLine(*ln) for ln in lines
        )
        if not lines:
            return cls.zero()
        R = max(ln.q for ln in lines)
        K = TWO_PI * sum(abs(ln.a) for ln in lines)
        return cls(R=R, K=K, lines=lines)

    @classmethod
    def single_line(cls, a: float, q: float, phi: float = 0.0) -> "BandLimitedPotential":
        return cls.from_lines([SpectralLine(q=q, a=a, phi=phi)])

    @classmethod
    def from_grid(cls, q, vt) -> "BandLimitedPotential":
        grid = SpectralGrid(q=np.asarray(q, float), vt=np.asarray(vt, complex))
        return cls(R=float(grid.q[-1]), K=grid.abs_integral(), grid=grid)

    # -- queries ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.lines and self.grid is None

    def evaluate(self, x):
        """Evaluate ``V(x) = (1/2pi) \\int Vt(q) exp(-ixq) dq`` (real).

        Accepts scalars or arrays.
        """
        x = np.asarray(x, dtype=float)
        if self.lines:
            v = np.zeros_like(x)
            for ln in self.lines:
                v = v + ln.a * np.cos(ln.q * x + ln.phi)
        elif self.grid is not None:
            phase = np.exp(-1j * np.multiply.outer(x, self.grid.q))
            v_c = np.trapezoid(self.grid.vt * phase, self.grid.q, axis=-1) / TWO_PI
            v = np.real(v_c)
        else:
            v = np.zeros_like(x)
        return v if v.ndim else float(v)

    def force_bound(self) -> float:
        """Upper bound ``R*K/(2*pi)`` on ``sup_x |dV/dx|``."""
        return self.R * self.K / TWO_PI


@dataclass(frozen=True)
class BandLimitReport:
    """Diagnostics from projecting a tabulated potential onto a band limit."""

    linf_error: float
    rms_error: float
    peaks: tuple[tuple[float, float], ...] = field(default=())  # (q, amplitude)


def band_limit(x_samples, v_samples, R: float, n_q: int | None = None):
    """Project tabulated samples of a real potential onto ``|q| <= R``.

    The sampled potential (mean-subtracted, fixing the zero of energy) is
    transformed with a trapezoid approximation of the Fourier integral,
    truncated to ``|q| <= R``, and returned in grid representation together
    with a reconstruction-error report.

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
    if R <= 0:
        raise ValueError("R must be positive")

    v_centered = v - np.mean(v)  # drop the q=0 component
    half_width = 0.5 * (x[-1] - x[0])
    if n_q is None:
        # resolve the sinc structure set by the sample window
        n_q = int(np.ceil(8.0 * R * half_width / np.pi))
        n_q = max(129, n_q | 1)
    elif n_q % 2 == 0:
        n_q += 1
    q = np.linspace(-R, R, n_q)
    phase = np.exp(1j * np.multiply.outer(q, x))
    vt = dx * phase @ v_centered
    vt[np.abs(q) < 0.5 * (q[1] - q[0])] = 0.0

    pot = BandLimitedPotential.from_grid(q, vt)
    v_rec = pot.evaluate(x)
    err = v_rec - v_centered
    linf = float(np.max(np.abs(err)))
    rms = float(np.sqrt(np.mean(err**2)))

    # dominant spectral peaks, amplitude estimated from the window measure
    mag = np.abs(vt)
    peaks = []
    if mag.max() > 0:
        thresh = 0.1 * mag.max()
        for i in range(1, n_q - 1):
            if q[i] > 0 and mag[i] >= thresh and mag[i] >= mag[i - 1] and mag[i] > mag[i + 1]:
                peaks.append((float(q[i]), float(mag[i] / half_width)))
    report = BandLimitReport(linf_error=linf, rms_error=rms, peaks=tuple(peaks))
    return pot, report


# -- JSON interchange -------------------------------------------------

def potential_to_dict(p: BandLimitedPotential) -> dict:
    if p.lines:
        return {
            "lines": [{"q": ln.q, "a": ln.a, "phi": ln.phi} for ln in p.lines],
            "R": p.R,
            "K": p.K,
        }
    if p.grid is not None:
        return {
            "grid": {
                "qmax": float(p.grid.q[-1]),
                "values": [[float(c.real), float(c.imag)] for c in p.grid.vt],
            },
            "R": p.R,
            "K": p.K,
        }
    return {"lines": [], "R": 0.0, "K": 0.0}


def potential_from_dict(d: dict) -> BandLimitedPotential:
    """Potential from its JSON form (see :func:`potential_to_dict`).

    ``R`` and ``K`` are computed from the representation: the largest line
    wavenumber or grid node, and ``2 pi sum|a_k|`` for lines or the trapezoid
    ``\\int |Vt| dq`` over the grid nodes (which bounds the integral of the
    interpolated spectrum).  A declared ``R`` or ``K`` may be looser than
    these but not tighter: a line or grid node beyond ``R``, or a ``K`` below
    the computed value, raises ValueError.  A looser declaration is checked
    and then dropped, so it never changes the positivity thresholds.
    """
    if "grid" in d:
        g = d["grid"]
        vals = np.asarray(g["values"], dtype=float)
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


def save_potential(p: BandLimitedPotential, path) -> None:
    with open(path, "w") as fh:
        json.dump(potential_to_dict(p), fh, indent=2)


def load_potential(path) -> BandLimitedPotential:
    with open(path) as fh:
        return potential_from_dict(json.load(fh))
