"""Independent ground truth: direct wavefunction propagation and kernels.

The propagator here never touches path weights: it evolves wavefunctions
under ``H = -1/2 d^2/dx^2 + V`` with a second-order split-step spectral
scheme on a periodic grid (units hbar = m = 1), and extracts transition
amplitudes by propagating narrow Gaussians and extrapolating their width to
zero.  Everything downstream (positivity, path-weight probabilities) is
validated against these numbers.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .potentials import TWO_PI, BandLimitedPotential
from .quadrature import KernelEstimate

__all__ = [
    "WavefunctionGrid",
    "make_grid",
    "gaussian_packet",
    "propagate",
    "free_kernel_exact",
    "kernel_estimate",
    "ck_check",
    "CKResult",
    "write_wavefunction_csv",
]


@dataclass(frozen=True)
class WavefunctionGrid:
    """One wavefunction, or a stack along leading axes, on a uniform periodic grid."""

    x: np.ndarray
    psi: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        psi = np.asarray(self.psi, dtype=complex)
        if x.ndim != 1 or psi.shape[-1:] != x.shape:
            raise ValueError("x must be 1D and match the last axis of psi")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "psi", psi)

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])

    def norm(self):
        """Squared norm of each wavefunction (one per leading index)."""
        return np.sum(np.abs(self.psi) ** 2, axis=-1) * self.dx


def make_grid(half_width: float, n_points: int) -> np.ndarray:
    """Uniform periodic grid on [-X, X) with n_points samples."""
    return -half_width + (2.0 * half_width / n_points) * np.arange(n_points)


def gaussian_packet(
    x: np.ndarray,
    center: float,
    sigma: float,
    momentum: float = 0.0,
    amplitude_normalized: bool = False,
) -> WavefunctionGrid:
    """Gaussian wave packet.

    With ``amplitude_normalized`` the packet integrates to one (a delta
    approximation); otherwise ``|psi|^2`` is a normalized density with
    position spread ``sigma``.
    """
    if amplitude_normalized:
        psi = np.exp(-((x - center) ** 2) / (2.0 * sigma**2)) / (
            math.sqrt(TWO_PI) * sigma
        )
    else:
        psi = np.exp(-((x - center) ** 2) / (4.0 * sigma**2)) / (
            (TWO_PI * sigma**2) ** 0.25
        )
    psi = psi * np.exp(1j * momentum * x)
    return WavefunctionGrid(x=x, psi=psi, time=0.0)


def _check_guards(p: BandLimitedPotential, x: np.ndarray, v: np.ndarray, dt: float):
    dx = float(x[1] - x[0])
    if p.R > 0 and dx * p.R > 0.5:
        raise ValueError(
            f"grid too coarse for the potential band: dx*R = {dx * p.R:.3g} > 0.5"
        )
    vmax = float(np.max(np.abs(v)))
    if vmax > 0 and dt * vmax > 0.1:
        raise ValueError(
            f"dt too large for the potential: dt*max|V| = {dt * vmax:.3g} > 0.1; "
            f"use dt <= {0.1 / vmax:.3g}"
        )
    k_phase = dt * (np.pi / dx) ** 2 / 2.0
    if k_phase > 0.5:
        raise ValueError(
            f"dt too large for the grid: dt*(pi/dx)^2/2 = {k_phase:.3g} > 0.5; "
            f"use dt <= {dx**2 / np.pi**2:.3g}"
        )


def propagate(
    psi0: WavefunctionGrid,
    p: BandLimitedPotential,
    duration: float,
    dt: float,
) -> WavefunctionGrid:
    """Strang-split spectral evolution over ``duration`` (periodic boundary), row by row."""
    if duration < 0:
        raise ValueError("duration must be >= 0")
    if duration == 0.0:
        return psi0
    x = psi0.x
    v = p.evaluate(x) if not p.is_zero else np.zeros_like(x)
    _check_guards(p, x, v, dt)
    n_steps = max(1, int(math.ceil(duration / dt)))
    step = duration / n_steps
    k = TWO_PI * np.fft.fftfreq(x.size, d=psi0.dx)
    kinetic = np.exp(-0.5j * step * k**2)
    half_pot = np.exp(-0.5j * step * v)
    psi = psi0.psi * half_pot
    for _ in range(n_steps - 1):
        psi = np.fft.ifft(kinetic * np.fft.fft(psi)) * half_pot * half_pot
    psi = np.fft.ifft(kinetic * np.fft.fft(psi)) * half_pot
    return WavefunctionGrid(x=x, psi=psi, time=psi0.time + duration)


def free_kernel_amplitudes(x, z_a: float, duration: float):
    """Closed-form free propagator ``(2 pi i T)^(-1/2) exp(i (x-za)^2 / 2T)`` at each ``x``."""
    pref = (TWO_PI * duration) ** -0.5 * np.exp(-1j * np.pi / 4.0)
    return pref * np.exp(0.5j * (np.asarray(x) - z_a) ** 2 / duration)


def free_kernel_exact(z_a: float, z_b: float, duration: float) -> KernelEstimate:
    """Closed-form free propagator from ``z_a`` to ``z_b``."""
    if duration <= 0:
        raise ValueError("duration must be positive")
    return KernelEstimate(amplitude=complex(free_kernel_amplitudes(z_b, z_a, duration)))


def _smeared_free_kernel(x, z_a: float, duration: float, sigma: float):
    """Free kernel from a unit-mass Gaussian source of width sigma (exact)."""
    var = 1j * duration + sigma**2
    return (TWO_PI * var) ** -0.5 * np.exp(-((x - z_a) ** 2) / (2.0 * var))


def _grid(half_width: float, n_points: int | None):
    """Grid ``x``, its ``dx`` and the safe step ``dt = 0.999 dx^2 / pi^2``.

    ``n_points`` defaults to the smallest power of two >= 1024 with dx <= 0.04.
    """
    if n_points is None:
        n_points = 1 << max(10, int(math.ceil(math.log2(half_width / 0.02))))
    x = make_grid(half_width, n_points)
    dx = x[1] - x[0]
    return x, dx, 0.999 * dx**2 / np.pi**2


SOURCE_SIGMAS = (0.4, 0.3, 0.2)  # kernel_estimate's unit-mass sources, widest first
CK_SOURCE_SIGMA = 0.15  # ck_check's sources at both ends


def kernel_estimate(
    p: BandLimitedPotential,
    z_a: float,
    z_b: float,
    duration: float,
    half_width: float | None = None,
    n_points: int | None = None,
    dt: float | None = None,
) -> KernelEstimate:
    """Transition amplitude from narrow-source propagation.

    Unit-mass Gaussians of the widths ``SOURCE_SIGMAS`` are propagated
    together from ``z_a``; the value at ``z_b`` is corrected by the exact
    free-propagation smearing factor and the remaining potential-induced
    bias is extrapolated to zero source width, linearly in ``sigma^2``.  The
    extrapolation residual is attached to the returned estimate.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    if half_width is None:
        half_width = max(abs(z_a), abs(z_b)) + 6.0 + 5.0 * math.sqrt(duration)
    x, dx, safe_dt = _grid(half_width, n_points)
    if SOURCE_SIGMAS[-1] < 4.0 * dx:
        raise ValueError("smallest source width is not resolvable on the grid")
    if dt is None:
        dt = safe_dt

    sources = [gaussian_packet(x, z_a, s, amplitude_normalized=True).psi for s in SOURCE_SIGMAS]
    out = propagate(WavefunctionGrid(x=x, psi=sources), p, duration, dt).psi
    free_exact = free_kernel_exact(z_a, z_b, duration).amplitude
    amps = []
    for sigma, psi in zip(SOURCE_SIGMAS, out):
        measured = complex(np.interp(z_b, x, psi.real) + 1j * np.interp(z_b, x, psi.imag))
        free_smeared = complex(_smeared_free_kernel(np.array([z_b]), z_a, duration, sigma)[0])
        amps.append(measured * free_exact / free_smeared)
    amps = np.asarray(amps)
    s2 = np.asarray([s**2 for s in SOURCE_SIGMAS])
    coeff_r = np.polyfit(s2, amps.real, 1)
    coeff_i = np.polyfit(s2, amps.imag, 1)
    a0 = complex(coeff_r[1], coeff_i[1])
    fit = np.polyval(coeff_r, s2) + 1j * np.polyval(coeff_i, s2)
    residual = float(np.max(np.abs(fit - amps)))
    return KernelEstimate(amplitude=a0, extrapolation_residual=residual)


@dataclass(frozen=True)
class CKResult:
    """Both sides of a composition identity plus its relative residual."""

    lhs: complex
    rhs: complex
    residual: float
    mode: str
    converged: bool
    window: float


def ck_check(
    p: BandLimitedPotential,
    z_a: float,
    t_a: float,
    t_c: float,
    z_b: float,
    t_b: float,
    mode: str = "probability",
    half_width: float | None = None,
    n_points: int | None = None,
) -> CKResult:
    """Test the composition law over the intermediate time ``t_c``.

    ``mode="amplitude"`` composes complex kernels (expected to close, the
    control case); ``mode="probability"`` composes squared moduli, the
    quantity that fails for this process.  Both legs start from sources of
    width ``CK_SOURCE_SIGMA``.  The intermediate integral runs over
    ``|z_c| <= half_width - 4`` (reported as ``window``); a widened window
    probes convergence, and a diverging probability integral is reported
    with ``converged=False`` rather than raised.
    """
    if mode not in ("amplitude", "probability"):
        raise ValueError(f"unknown mode {mode!r}")
    if not (t_a < t_c < t_b):
        raise ValueError("need t_a < t_c < t_b")
    t1 = t_c - t_a
    t2 = t_b - t_c
    if half_width is None:
        half_width = max(abs(z_a), abs(z_b)) + 10.0 + 5.0 * math.sqrt(t_b - t_a)
    x, dx, dt = _grid(half_width, n_points)
    window = half_width - 4.0

    # forward leg from z_a and (time-symmetric kernel) leg from z_b
    src_a = gaussian_packet(x, z_a, CK_SOURCE_SIGMA, amplitude_normalized=True)
    src_b = gaussian_packet(x, z_b, CK_SOURCE_SIGMA, amplitude_normalized=True)
    leg_a = propagate(src_a, p, t1, dt).psi
    leg_b = propagate(src_b, p, t2, dt).psi

    if mode == "amplitude":
        full = propagate(src_a, p, t_b - t_a, dt).psi
        lhs = complex(np.sum(leg_a * leg_b) * dx)
        rhs = complex(np.sum(full * src_b.psi) * dx)
        residual = abs(lhs - rhs) / max(abs(rhs), 1e-300)
        return CKResult(lhs, rhs, residual, mode, True, window)

    corr_a = free_kernel_amplitudes(x, z_a, t1) / _smeared_free_kernel(x, z_a, t1, CK_SOURCE_SIGMA)
    corr_b = free_kernel_amplitudes(x, z_b, t2) / _smeared_free_kernel(x, z_b, t2, CK_SOURCE_SIGMA)
    integrand = np.abs(leg_a * corr_a) ** 2 * np.abs(leg_b * corr_b) ** 2
    rhs = kernel_estimate(
        p, z_a, z_b, t_b - t_a, half_width=half_width, n_points=n_points
    ).modulus_squared

    def lhs_over(wdw):
        mask = np.abs(x) <= wdw
        return float(np.sum(integrand[mask]) * dx)

    lhs = lhs_over(window)
    lhs_wide = lhs_over(min(window * 1.5, half_width - 1.0))
    tail = abs(lhs_wide - lhs) / max(abs(lhs), 1e-300)
    converged = tail <= 1e-3
    residual = abs(lhs - rhs) / max(abs(rhs), 1e-300)
    return CKResult(lhs, rhs, residual, mode, converged, window)


def write_wavefunction_csv(w: WavefunctionGrid, fname) -> None:
    """Snapshot rows (x, Re psi, Im psi)."""
    with open(fname, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "re_psi", "im_psi"])
        for xv, pv in zip(w.x, w.psi):
            writer.writerow([repr(float(xv)), repr(float(pv.real)), repr(float(pv.imag))])
