"""Independent ground truth: direct wavefunction propagation and kernels.

The propagator here never touches path weights: it evolves wavefunctions
under ``H = -1/2 d^2/dx^2 + V`` on a periodic grid with a spectral (FFT)
kinetic operator (units hbar = m = 1), and extracts transition amplitudes by
propagating narrow Gaussians and extrapolating their width to zero.
Everything downstream (positivity, path-weight probabilities) is validated
against these numbers.

Which integrator runs is set by ``propagate``'s ``dt``:

* ``dt`` given: second-order Strang splitting with (at most) that step.
* ``dt=None`` and ``V = 0``: one exact kinetic factor ``exp(-i T k^2/2)``.
* ``dt=None`` otherwise: the Chebyshev expansion of ``exp(-iHT)``
  (Tal-Ezer and Kosloff 1984), exact in time up to a Bessel tail held
  below ``CHEB_TOL``.

``kernel_estimate`` and ``ck_check`` always use ``dt=None``; the Strang route
is the step-refinable reference that the exact route is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import next_fast_len
from scipy.special import jv

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


def _check_guards(p: BandLimitedPotential, x: np.ndarray, v: np.ndarray, dt: float | None):
    dx = float(x[1] - x[0])
    if p.R > 0 and dx * p.R > 0.5:
        raise ValueError(
            f"grid too coarse for the potential band: dx*R = {dx * p.R:.3g} > 0.5"
        )
    if dt is None:
        return
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


CHEB_TOL = 1e-13  # bound on the dropped Chebyshev terms, relative to the norm


def _chebyshev_coefficients(a: float) -> np.ndarray:
    """Coefficients ``(2 - delta_k0) (-i)^k J_k(a)`` of ``exp(-i a y)`` in ``T_k(y)``.

    By the Jacobi-Anger expansion ``exp(-i a y) = sum_k c_k T_k(y)`` on
    ``[-1, 1]``, where ``|T_k| <= 1``.  Applied to a Hermitian operator with
    its spectrum in ``[-1, 1]``, every ``T_k`` has operator norm at most 1, so
    dropping the orders ``k >= K`` changes the result by at most
    ``2 sum_{k>=K} |J_k(a)|`` times the norm.  The fewest ``K`` that holds this
    below ``CHEB_TOL`` is kept.

    The sum is taken over computed ``J_k`` up to an order ``M > a``.  Past
    it, Kapteyn's inequality (Watson, *Bessel Functions*, 8.7) gives
    ``|J_k(a)| <= exp(-g(k))`` with ``g(k) = k arccosh(k/a) - sqrt(k^2 - a^2)``;
    since ``g'(k) = arccosh(k/a)`` grows with ``k``, the bound falls by a
    factor ``rho = exp(-arccosh(M/a)) < 1`` or more per order, and the orders
    ``k >= M`` add at most ``exp(-g(M)) / (1 - rho)``.  ``M`` is chosen to
    hold that below ``CHEB_TOL / 4``.
    """

    def rest(m):  # bound on sum_{k>=m} |J_k(a)|, for m > a
        g = m * math.acosh(m / a) - math.sqrt(m * m - a * a)
        return math.exp(-g) / (1.0 - math.exp(-math.acosh(m / a)))

    m = int(a) + 1
    while rest(m) > CHEB_TOL / 4.0:
        m += 8
    orders = np.arange(m)
    j = jv(orders, a)
    # tail[K] bounds 2 sum_{k>=K} |J_k(a)|; tail[m] <= CHEB_TOL / 2 by the choice of m
    tail = 2.0 * (np.append(np.cumsum(np.abs(j[::-1]))[::-1], 0.0) + rest(m))
    n_terms = max(2, int(np.argmax(tail <= CHEB_TOL)))
    coeff = (-1j) ** orders[:n_terms] * j[:n_terms]
    coeff[1:] *= 2.0
    return coeff


def _chebyshev_propagate(psi, kinetic, v, duration):
    """``exp(-i H T) psi`` for ``H = ifft(kinetic * fft(.)) + v``, by Chebyshev series.

    The spectrum of the grid ``H`` lies in ``[min v, max kinetic + max v]``
    (Weyl's inequality: both terms are Hermitian, the kinetic one with
    eigenvalues ``kinetic`` and the potential one diagonal), so
    ``Ht = (H - c) / r`` with that interval's centre ``c`` and half-width
    ``r`` has its spectrum in ``[-1, 1]``.  The series in ``T_k(Ht) psi`` runs
    by the three-term recurrence ``T_{k+1} = 2 Ht T_k - T_{k-1}``; FFTs act on
    the last axis, so a stack propagates row by row.
    """
    e_min, e_max = float(np.min(v)), float(np.max(kinetic) + np.max(v))
    c, r = 0.5 * (e_max + e_min), 0.5 * (e_max - e_min)
    coeff = _chebyshev_coefficients(r * duration) * np.exp(-1j * c * duration)
    kin2, v2 = 2.0 * kinetic / r, 2.0 * (v - c) / r

    def two_ht(phi):
        return np.fft.ifft(kin2 * np.fft.fft(phi)) + v2 * phi

    prev, cur = psi, 0.5 * two_ht(psi)
    out = coeff[0] * prev + coeff[1] * cur
    for ck in coeff[2:]:
        prev, cur = cur, two_ht(cur) - prev
        out += ck * cur
    return out


def propagate(
    psi0: WavefunctionGrid,
    p: BandLimitedPotential,
    duration: float,
    dt: float | None = None,
) -> WavefunctionGrid:
    """Spectral evolution over ``duration`` (periodic boundary), row by row.

    With ``dt`` given, Strang splitting with the largest step ``<= dt`` that
    divides ``duration``; the guards ``dt max|V| <= 0.1`` and
    ``dt (pi/dx)^2 / 2 <= 0.5`` apply.  With ``dt=None`` the evolution is
    exact in time: one kinetic factor for ``V = 0``, else a Chebyshev series
    whose dropped terms are bounded by ``CHEB_TOL`` of the norm.  The grid
    must resolve the potential band, ``dx R <= 0.5``, on both routes.
    """
    if duration < 0:
        raise ValueError("duration must be >= 0")
    if duration == 0.0:
        return psi0
    x = psi0.x
    v = p.evaluate(x) if not p.is_zero else np.zeros_like(x)
    _check_guards(p, x, v, dt)
    k = TWO_PI * np.fft.fftfreq(x.size, d=psi0.dx)
    if dt is None:
        if p.is_zero:
            psi = np.fft.ifft(np.exp(-0.5j * duration * k**2) * np.fft.fft(psi0.psi))
        else:
            psi = _chebyshev_propagate(psi0.psi, 0.5 * k**2, v, duration)
        return WavefunctionGrid(x=x, psi=psi, time=psi0.time + duration)
    n_steps = max(1, int(math.ceil(duration / dt)))
    step = duration / n_steps
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


def _smeared_free_kernel(x, z_a: float, duration: float, sigma):
    """Free kernel from a unit-mass Gaussian source of width sigma (exact; broadcasts)."""
    var = 1j * duration + sigma**2
    return (TWO_PI * var) ** -0.5 * np.exp(-((x - z_a) ** 2) / (2.0 * var))


def _grid(half_width: float, n_points: int | None):
    """Grid ``x`` and its ``dx``.

    ``n_points`` defaults to the smallest FFT-friendly size (``next_fast_len``)
    >= 1024 with dx <= 0.04.  A power of two would waste up to twice the
    points and, since the Chebyshev term count grows as ``dx^-2``, up to
    eight times the work on wide grids.
    """
    if n_points is None:
        n_points = next_fast_len(max(1024, int(math.ceil(half_width / 0.02))))
    x = make_grid(half_width, n_points)
    return x, x[1] - x[0]


def _spectral_value(psi: np.ndarray, x: np.ndarray, z: float):
    """Trigonometric interpolant of each row of ``psi`` at ``z``.

    ``(1/N) sum_k psihat_k exp(i k (z - x_0))`` over the grid wavenumbers,
    with the Nyquist term (even ``N``) taken as its cosine, so the
    interpolant is real for real data; exact for the grid's band-limited
    function.
    """
    n = x.size
    k = TWO_PI * np.fft.fftfreq(n, d=x[1] - x[0])
    phase = np.exp(1j * k * (z - x[0]))
    if n % 2 == 0:
        phase[n // 2] = np.cos(k[n // 2] * (z - x[0]))
    return np.fft.fft(psi) @ phase / n


SOURCE_SIGMAS = (0.4, 0.3, 0.2)  # kernel_estimate's unit-mass sources, widest first
CK_SOURCE_SIGMA = 0.15  # ck_check's sources at both ends
IMAGE_TOL = 1e-12  # bound on a source's periodic image at z_b, default half-width


def _image_safe_half_width(z_a: float, z_b: float, duration: float) -> float:
    """Smallest half-width at which every source's periodic image at ``z_b`` is small.

    A unit-mass Gaussian of width ``sigma`` evolved freely for ``T`` falls
    off from ``z_a`` like ``exp(-sigma^2 d^2 / (2 (T^2 + sigma^4)))`` relative
    to its peak; its nearest image is ``d = 2X - |z_b - z_a|`` from ``z_b``.
    The half-width holds that below ``IMAGE_TOL`` for each of
    ``SOURCE_SIGMAS``, and is never below ``max(|z_a|, |z_b|) + 6 + 5 sqrt(T)``
    so both endpoints sit well inside the grid.
    """
    log_tol = -math.log(IMAGE_TOL)
    d = max(math.sqrt(2.0 * (duration**2 + s**4) * log_tol) / s for s in SOURCE_SIGMAS)
    inside = max(abs(z_a), abs(z_b)) + 6.0 + 5.0 * math.sqrt(duration)
    return max(inside, 0.5 * (d + abs(z_b - z_a)))


def kernel_estimate(
    p: BandLimitedPotential,
    z_a: float,
    z_b: float,
    duration: float,
    half_width: float | None = None,
    n_points: int | None = None,
) -> KernelEstimate:
    """Transition amplitude from narrow-source propagation.

    Unit-mass Gaussians of the widths ``SOURCE_SIGMAS`` are propagated
    together from ``z_a``, exact in time (``propagate`` with ``dt=None``),
    and read at ``z_b`` by trigonometric interpolation; each
    value is corrected by the exact free-propagation smearing factor and the
    remaining potential-induced bias is extrapolated to zero source width,
    linearly in ``sigma^2``.  The extrapolation residual is attached to the
    returned estimate.  The default ``half_width`` keeps the sources'
    periodic images at ``z_b`` below ``IMAGE_TOL``; it grows about as
    ``18.6 T``, so at the default grid's ``dx`` near 0.04 the work grows
    about as ``T^2``.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    if half_width is None:
        half_width = _image_safe_half_width(z_a, z_b, duration)
    x, dx = _grid(half_width, n_points)
    if SOURCE_SIGMAS[-1] < 4.0 * dx:
        raise ValueError(
            f"smallest source width {SOURCE_SIGMAS[-1]} is not resolvable on the grid: "
            f"X = {half_width:.4g} with L = {x.size} points gives dx = {dx:.3g} > "
            f"{SOURCE_SIGMAS[-1] / 4.0:.3g}; use L >= "
            f"{math.ceil(8.0 * half_width / SOURCE_SIGMAS[-1])} or a smaller X"
        )

    sources = [gaussian_packet(x, z_a, s, amplitude_normalized=True).psi for s in SOURCE_SIGMAS]
    out = propagate(WavefunctionGrid(x=x, psi=sources), p, duration).psi
    measured = _spectral_value(out, x, z_b)
    free_exact = free_kernel_exact(z_a, z_b, duration).amplitude
    sigmas = np.asarray(SOURCE_SIGMAS)
    amps = measured * free_exact / _smeared_free_kernel(z_b, z_a, duration, sigmas)
    s2 = sigmas**2
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
    width ``CK_SOURCE_SIGMA`` and are propagated exact in time
    (``propagate`` with ``dt=None``).  The intermediate integral runs over
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
    x, dx = _grid(half_width, n_points)
    window = half_width - 4.0

    # forward leg from z_a and (time-symmetric kernel) leg from z_b
    src_a = gaussian_packet(x, z_a, CK_SOURCE_SIGMA, amplitude_normalized=True)
    src_b = gaussian_packet(x, z_b, CK_SOURCE_SIGMA, amplitude_normalized=True)
    leg_a = propagate(src_a, p, t1).psi
    leg_b = propagate(src_b, p, t2).psi

    if mode == "amplitude":
        full = propagate(src_a, p, t_b - t_a).psi
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
