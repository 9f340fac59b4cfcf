"""Independent ground truth: direct wavefunction propagation and kernels.

The propagator here never touches path weights: it evolves wavefunctions
under ``H = -1/2 d^2/dx^2 + V`` on a periodic grid with a spectral (FFT)
kinetic operator (units hbar = m = 1), and extracts transition amplitudes
from narrow Gaussian sources, extrapolating their width to zero.
Everything downstream (positivity, path-weight probabilities) is validated
against these numbers.

``propagate`` is exact in time: for ``V = 0`` it applies one kinetic factor
``exp(-i T k^2/2)``, otherwise the Chebyshev expansion of ``exp(-iHT)``
(Tal-Ezer and Kosloff 1984), whose dropped terms are bounded by ``CHEB_TOL``
of the norm; its Bessel coefficients come from Miller's backward recurrence
(Gautschi 1967).  There is no time step to choose.  The grid ``H`` is real,
so the recurrence runs on the real and imaginary parts as real rows; each
row stops at its own longest duration's last term, and its terms enter its
sums ``CHEB_BLOCK`` at a time.  ``H`` is symmetric, so a kernel propagates
one row, the read-out at ``z_b``, for all sources, and ``ck_check`` gets
both legs and the direct amplitude or kernel from one recurrence.  Default
grids have an 11-smooth length, which numpy's FFT factors into its fastest
radices.  ``_bessel_orders`` is the library's one Bessel truncation rule (no
scipy), for the Chebyshev coefficients and, through
``weights._jacobi_anger``, the exponential step factor and the product form.
From the package this module imports only ``potentials`` and ``results``, so
no path-weight route reaches it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .potentials import TWO_PI, BandLimitedPotential
from .results import CKResult, KernelEstimate

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
    x: np.ndarray, center: float, sigma: float, momentum: float = 0.0
) -> WavefunctionGrid:
    """Gaussian wave packet: ``|psi|^2`` is a normalized density with position spread ``sigma``."""
    psi = np.exp(-((x - center) ** 2) / (4.0 * sigma**2)) / ((TWO_PI * sigma**2) ** 0.25)
    psi = psi * np.exp(1j * momentum * x)
    return WavefunctionGrid(x=x, psi=psi)


CHEB_TOL = 1e-13  # bound on the dropped Chebyshev terms, relative to the norm


def _bessel_j(a: float, top: int) -> np.ndarray:
    """``J_0(a) .. J_top(a)`` for ``0 < a < top`` by Miller's backward recurrence.

    ``J_{k-1} = (2k/a) J_k - J_{k+1}``, run down from ``0`` at ``top + 1``
    and ``1`` at ``top``, gives ``c (J_k - e Y_k)`` with
    ``e = J_{top+1}(a) / Y_{top+1}(a)``, since ``Y`` is the recurrence's other
    solution (Gautschi 1967).  By Nicholson's formula ``J_k^2 + Y_k^2`` grows
    with the order, so ``|e Y_k| <= sqrt(2) |J_{top+1}(a)|`` for ``k <= top``.
    The sum ``J_0 + 2 sum_k J_{2k} = 1`` fixes ``c``; with ``e`` it is off by
    about ``top |J_{top+1}(a)|`` relative at most.  The values are rescaled by
    1e-250 whenever one exceeds 1e250, which small ``a`` needs.
    """
    hi, lo = 1.0, 0.0  # J_k and J_{k+1} up to a common factor, from k = top down
    j = [hi] * (top + 1)  # J_top .. J_0
    for i, f in enumerate((2.0 * np.arange(top, 0, -1) / a).tolist(), 1):
        hi, lo = f * hi - lo, hi
        if not -1e250 <= hi <= 1e250:
            j, hi, lo = [v * 1e-250 for v in j], hi * 1e-250, lo * 1e-250
        j[i] = hi
    out = np.array(j[::-1])
    return out / (out[0] + 2.0 * np.sum(out[2::2]))


def _kapteyn_tail(a: float, m: int) -> float:
    """Bound on ``sum_{k>=m} |J_k(a)|`` for ``m > a`` (``_bessel_orders`` derives it)."""
    g = m * math.acosh(m / a) - math.sqrt(m * m - a * a)
    return math.exp(-g) / (1.0 - math.exp(-math.acosh(m / a)))


def _bessel_orders(a: float, tol: float, least: int):
    """``J_0(a) .. J_{K-1}(a)``, ``a >= 0``, and a bound ``<= tol`` on ``sum_{k>=K} |J_k(a)|``.

    Kapteyn's inequality (Watson, *Bessel Functions*, 8.7) gives ``|J_k(a)| <= exp(-g(k))``,
    ``g(k) = k arccosh(k/a) - sqrt(k^2 - a^2)``, for ``k > a``.  ``g'(k) = arccosh(k/a)`` grows
    with ``k``, so the orders ``k >= M`` add at most ``exp(-g(M)) / (1 - exp(-arccosh(M/a)))``
    (``_kapteyn_tail``).  ``M``, from ``max(least, floor(a) + 1)`` in steps of 8, is the first
    with that below ``tol / 2``; ``_bessel_j`` gives the orders below it, started at the first
    ``M + 8 i`` with it below ``CHEB_TOL^2``, where its error is far below rounding.  ``K >=
    least`` is the fewest orders whose dropped ``|J_k|``, summed from the top, and the bound at
    ``M`` add up to ``tol`` at most.  An ``a`` below 1e-50, where the recurrence would overflow,
    is taken as 1e-50, which moves each ``J_k`` by 1e-50 at most (``|J_k'| <= 1``).
    """
    a = max(a, 1e-50)
    m = max(least, int(a) + 1)
    while _kapteyn_tail(a, m) > tol / 2.0:
        m += 8
    top = m
    while _kapteyn_tail(a, top) > CHEB_TOL**2:
        top += 8
    j = _bessel_j(a, top)[:m]
    kapteyn, dropped, k = _kapteyn_tail(a, m), 0.0, m
    while k > least and dropped + abs(j[k - 1]) + kapteyn <= tol:
        k -= 1
        dropped += abs(j[k])
    return j[:k], float(dropped + kapteyn)


def _chebyshev_coefficients(a: float) -> np.ndarray:
    """Coefficients ``(2 - delta_k0) (-i)^k J_k(a)`` of ``exp(-i a y)`` in ``T_k(y)``.

    By the Jacobi-Anger expansion ``exp(-i a y) = sum_k c_k T_k(y)`` on ``[-1, 1]``, where
    ``|T_k| <= 1``.  Applied to a Hermitian operator with its spectrum in ``[-1, 1]``, every
    ``T_k`` has operator norm at most 1, so dropping the orders ``k >= K`` changes the result by
    at most ``2 sum_{k>=K} |J_k(a)|`` times the norm.  ``_bessel_orders`` keeps the fewest ``K``
    that holds this below ``CHEB_TOL``, and the two terms the recurrence starts from at least.
    """
    j, _ = _bessel_orders(a, CHEB_TOL / 2.0, 2)
    coeff = (-1j) ** np.arange(j.size) * j
    coeff[1:] *= 2.0
    return coeff


CHEB_BLOCK = 64  # recurrence terms held at once; a block enters a row's sums as one matrix product


def _chebyshev_propagate(rows, kinetic, v, durations):
    """``exp(-i H T) rows[i]`` for each ``T`` in ``durations[i]``, from one Chebyshev recurrence.

    ``H = irfft(kinetic * rfft(.)) + v``, with ``kinetic`` on the ``rfft`` wavenumbers.  The
    spectrum of the grid ``H`` lies in ``[min v, max kinetic + max v]`` (Weyl's inequality: both
    terms are Hermitian, the kinetic one with eigenvalues ``kinetic`` and the potential one
    diagonal), so ``Ht = (H - c) / r`` with that interval's centre ``c`` and half-width ``r`` has
    its spectrum in ``[-1, 1]``.  The terms ``T_k(Ht) psi`` run by the three-term recurrence
    ``T_{k+1} = 2 Ht T_k - T_{k-1}``.

    ``H`` is real (``k^2/2`` is even in ``k`` and ``v`` is real), so the recurrence runs on real
    rows: each row's real part and, when it is nonzero, its imaginary part.  A real row takes the
    terms of its row's longest duration, which hold the shorter ones' series, each with its own
    coefficients from ``_chebyshev_coefficients``.  The real rows run longest first, so those
    still running are a leading slice of the buffers.  The terms are held ``CHEB_BLOCK`` at a
    time, and a block enters each real row's sums as one matrix product over the terms that row
    computed.  Returns row ``i``'s results as shape ``(len(durations[i]), n)``.
    """
    e_min, e_max = float(np.min(v)), float(np.max(kinetic) + np.max(v))
    c, r = 0.5 * (e_max + e_min), 0.5 * (e_max - e_min)
    cf = {t: _chebyshev_coefficients(r * t) * np.exp(-1j * c * t) for t in set().union(*durations)}
    kin2, v2 = 2.0 * kinetic / r, 2.0 * (v - c) / r

    parts = []  # (row, real then imaginary coefficients zero-padded to its longest, real row)
    for i, (row, ts) in enumerate(zip(rows, durations)):
        coeff = np.array([np.pad(cf[t], (0, max(cf[u].size for u in ts) - cf[t].size)) for t in ts])
        parts.append((i, np.concatenate([coeff.real, coeff.imag]), row.real))
        if np.any(row.imag):  # psi = a + i b, and i coeff = -coeff.imag + i coeff.real
            parts.append((i, np.concatenate([-coeff.imag, coeff.real]), row.imag))
    parts.sort(key=lambda part: -part[1].shape[1])
    counts = [w.shape[1] for _, w, _ in parts]
    live = np.searchsorted(-np.array(counts), -np.arange(counts[0])).tolist()  # counts > k
    n, block = rows.shape[-1], min(CHEB_BLOCK, counts[0])
    terms = np.empty((block, len(parts), n))
    sums = [np.zeros((2 * len(ts), n)) for ts in durations]
    spec, pot = np.empty((len(parts), kinetic.size), complex), np.empty((len(parts), n))

    def two_ht(src, dst):  # dst = 2 Ht src, on the leading len(src) rows
        f = spec[: len(src)]
        np.fft.irfft(np.multiply(kin2, np.fft.rfft(src, out=f), out=f), n, out=dst)
        dst += np.multiply(v2, src, out=pot[: len(src)])

    def add_block(k0):  # the terms from k0 in the block, as far as each real row computed them
        for q, (i, w, _) in enumerate(parts[: live[k0]]):
            m = min(block, counts[q] - k0)
            sums[i] += w[:, k0 : k0 + m] @ terms[:m, q]

    terms[0] = [part for _, _, part in parts]
    two_ht(terms[0], terms[1])
    terms[1] *= 0.5
    for k in range(2, counts[0]):
        j = k % block
        if j == 0:
            add_block(k - block)
        two_ht(terms[j - 1, : live[k]], terms[j, : live[k]])
        terms[j, : live[k]] -= terms[j - 2, : live[k]]
    add_block((counts[0] - 1) // block * block)
    return [re + 1j * im for re, im in (s.reshape(2, -1, n) for s in sums)]


def _propagate_rows(psi0: WavefunctionGrid, p: BandLimitedPotential, durations) -> list:
    """``exp(-i H T)`` on row ``i`` of ``psi0.psi`` (as 2D), for each ``T`` in ``durations[i]``.

    Row ``i``'s results have shape ``(len(durations[i]), n)``.  One kinetic
    factor per duration for ``V = 0``, else one Chebyshev recurrence.  The
    grid must resolve the potential band, ``dx R <= 0.5``.
    """
    x, dx = psi0.x, psi0.dx
    if p.R > 0 and dx * p.R > 0.5:
        raise ValueError(f"grid too coarse for the potential band: dx*R = {dx * p.R:.3g} > 0.5")
    rows = psi0.psi.reshape(-1, x.size)
    if p.is_zero:
        k = TWO_PI * np.fft.fftfreq(x.size, d=dx)
        phases = (np.exp(-0.5j * np.multiply.outer(ts, k**2)) for ts in durations)
        return [np.fft.ifft(ph * spec) for ph, spec in zip(phases, np.fft.fft(rows))]
    k = TWO_PI * np.fft.rfftfreq(x.size, d=dx)
    return _chebyshev_propagate(rows, 0.5 * k**2, p.evaluate(x), durations)


def _check_args(z_a: float, z_b: float, duration: float) -> None:
    """Reject non-finite endpoints and a duration not finite and positive, by name."""
    for name, z in (("z_a", z_a), ("z_b", z_b)):
        if not math.isfinite(z):
            raise ValueError(f"{name} must be finite, got {z}")
    if not 0 < duration < math.inf:
        raise ValueError(f"duration must be finite and positive, got {duration}")


def propagate(psi0: WavefunctionGrid, p: BandLimitedPotential, duration: float) -> WavefunctionGrid:
    """Spectral evolution over ``duration`` (periodic boundary), exact in time, row by row.

    One kinetic factor for ``V = 0``, else a Chebyshev series whose dropped
    terms are bounded by ``CHEB_TOL`` of the norm.  The grid must resolve
    the potential band, ``dx R <= 0.5``.
    """
    if not 0 <= duration < math.inf:
        raise ValueError(f"duration must be finite and >= 0, got {duration}")
    if duration == 0.0 or psi0.psi.size == 0:
        return psi0
    rows = _propagate_rows(psi0, p, [(duration,)] * (psi0.psi.size // psi0.x.size))
    return WavefunctionGrid(x=psi0.x, psi=np.reshape(rows, psi0.psi.shape))


def free_kernel_exact(z_a: float, z_b: float, duration: float) -> KernelEstimate:
    """Closed-form free propagator from ``z_a`` to ``z_b``."""
    _check_args(z_a, z_b, duration)
    return KernelEstimate(amplitude=complex(_smeared_free_kernel(z_b, z_a, duration, 0.0)))


def _smeared_free_kernel(x, z_a: float, duration: float, sigma):
    """Free evolution over ``duration`` of a unit-mass Gaussian source of width sigma at ``z_a``.

    Exact, and broadcasts.  At ``sigma = 0`` it is the free propagator
    ``(2 pi i T)^(-1/2) exp(i (x - z_a)^2 / 2T)``; at ``duration = 0`` it is
    the source itself.
    """
    var = 1j * duration + sigma**2
    return (TWO_PI * var) ** -0.5 * np.exp(-((x - z_a) ** 2) / (2.0 * var))


def _next_fast_len(n: int) -> int:
    """Smallest ``2^a 3^b 5^c 7^d 11^e >= n``: the FFT lengths pocketfft runs fastest."""
    while pow(2310, n.bit_length(), n):  # 11-smooth iff it divides 2310^(log2 n)
        n += 1
    return n


MAX_GRID_POINTS = 2**24  # _grid's largest size: 16 M points, 256 MB per complex row


def _grid(half_width: float, n_points: int | None):
    """Grid ``x`` and its ``dx``.

    ``n_points`` defaults to the smallest 11-smooth size (``_next_fast_len``)
    >= 1024 with dx <= 0.04.  A power of two would waste up to twice the
    points and, since the Chebyshev term count grows as ``dx^-2``, up to
    eight times the work on wide grids.  A grid below 2 points or above
    ``MAX_GRID_POINTS`` is rejected before its size is searched, and so is a
    given ``n_points`` that is not a finite whole number.
    """
    if n_points is not None and not (math.isfinite(n_points) and n_points == int(n_points)):
        raise ValueError(f"an oracle grid needs a whole number of points L, got L = {n_points}")
    size = half_width / 0.02 if n_points is None else n_points
    if not size <= MAX_GRID_POINTS:
        raise ValueError(
            f"oracle grid too large: X = {half_width:.4g} asks for {size:.4g} points "
            f"(at most {MAX_GRID_POINTS}); reduce X or L"
        )
    if n_points is None:
        n_points = _next_fast_len(max(1024, int(math.ceil(size))))
    elif n_points < 2:
        raise ValueError(f"an oracle grid needs L >= 2 points, got L = {n_points}")
    x = make_grid(half_width, int(n_points))
    return x, x[1] - x[0]


def _check_half_width(half_width: float, z_a: float, z_b: float) -> None:
    """Reject a half-width that is not finite, or at which ``ck_check``'s window ``half_width -
    4`` misses an endpoint."""
    if not math.isfinite(half_width):
        raise ValueError(f"grid half-width X must be finite, got X = {half_width}")
    reach = max(abs(z_a), abs(z_b)) + 4.0
    if not half_width > reach:
        raise ValueError(
            f"grid half-width X = {half_width:.4g} does not hold the endpoints: "
            f"need X > max(|za|, |zb|) + 4 = {reach:.4g}"
        )


def _readout(x: np.ndarray, z: float) -> np.ndarray:
    """Real weights ``w`` with ``psi @ w`` the trigonometric interpolant of each row at ``z``.

    ``(1/N) sum_k psihat_k exp(i k (z - x_0))`` over the grid wavenumbers,
    with the Nyquist term (even ``N``) taken as its cosine, so the
    interpolant is real for real data; exact for the grid's band-limited
    function.  ``w`` is the ``irfft`` of the phases ``exp(-i k (z - x_j))``,
    which takes the Nyquist phase's real part, rolled by ``j``: from the
    nearest node ``x_j`` the phases' rounding stays that of ``z - x_j``,
    where from ``x_0`` it grew with the grid.
    """
    j = int(np.abs(x - z).argmin())
    k = TWO_PI * np.fft.rfftfreq(x.size, d=x[1] - x[0])
    return np.roll(np.fft.irfft(np.exp(-1j * k * (z - x[j])), x.size), j)


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


def _check_resolvable(half_width: float, x: np.ndarray) -> None:
    """Reject a grid whose ``dx`` exceeds a quarter of the narrowest of ``SOURCE_SIGMAS``."""
    dx = x[1] - x[0]
    if SOURCE_SIGMAS[-1] < 4.0 * dx:
        raise ValueError(
            f"smallest source width {SOURCE_SIGMAS[-1]} is not resolvable on the grid: "
            f"X = {half_width:.4g} with L = {x.size} points gives dx = {dx:.3g} > "
            f"{SOURCE_SIGMAS[-1] / 4.0:.3g}; use L >= "
            f"{math.ceil(8.0 * half_width / SOURCE_SIGMAS[-1])} or a smaller X"
        )


def _source_amplitudes(u, x, z_a: float, z_b: float, duration: float) -> np.ndarray:
    """Unit-mass Gaussians of the widths ``SOURCE_SIGMAS`` at ``z_a``, evolved, read at ``z_b``.

    ``u`` is ``_readout(x, z_b)`` propagated over ``duration``: ``H`` is real
    symmetric, so is ``exp(-iHT)``, and a source ``g`` reads ``g @ u``.  Each
    value is corrected by the exact free-propagation smearing factor of its
    width; what remains is the potential-induced bias, smooth in ``sigma^2``.
    """
    sigmas = np.asarray(SOURCE_SIGMAS)
    smeared = _smeared_free_kernel(z_b, z_a, duration, sigmas)
    free = free_kernel_exact(z_a, z_b, duration).amplitude
    return _smeared_free_kernel(x, z_a, 0.0, sigmas[:, None]) @ u * free / smeared


def _sigma2_intercept(amps: np.ndarray, deg: int) -> complex:
    """Value at ``sigma = 0`` of the degree-``deg`` least-squares polynomial in ``sigma^2``."""
    s2 = np.asarray(SOURCE_SIGMAS) ** 2
    return complex(np.polyfit(s2, amps.real, deg)[-1], np.polyfit(s2, amps.imag, deg)[-1])


def _kernel_from_readout(u, x, z_a: float, z_b: float, duration: float) -> KernelEstimate:
    """Kernel estimate from ``_readout(x, z_b)`` propagated over ``duration``.

    The ``_source_amplitudes`` are extrapolated to zero source width by the
    quadratic in ``sigma^2`` through all three.  Its distance from the
    least-squares line's intercept is the reported
    ``extrapolation_residual``; against finer references (eight widths,
    dx = 0.02) it exceeded the quadratic's actual error 10-16 times.
    """
    amps = _source_amplitudes(u, x, z_a, z_b, duration)
    quadratic, linear = _sigma2_intercept(amps, 2), _sigma2_intercept(amps, 1)
    return KernelEstimate(amplitude=quadratic, extrapolation_residual=abs(quadratic - linear))


def kernel_estimate(
    p: BandLimitedPotential,
    z_a: float,
    z_b: float,
    duration: float,
    half_width: float | None = None,
    n_points: int | None = None,
) -> KernelEstimate:
    """Transition amplitude from narrow-source propagation.

    One row, the read-out at ``z_b``, is propagated by ``propagate``, exact
    in time, and ``_kernel_from_readout`` reads the sources from ``z_a`` off
    it.  The default ``half_width`` keeps the sources' periodic images at
    ``z_b`` below ``IMAGE_TOL``; it grows about as ``18.6 T``, so at the
    default grid's ``dx`` near 0.04 the work grows about as ``T^2``.  A given
    one must exceed ``max(|z_a|, |z_b|) + 4``.  Non-finite arguments raise.
    """
    _check_args(z_a, z_b, duration)
    if half_width is None:
        half_width = _image_safe_half_width(z_a, z_b, duration)
    _check_half_width(half_width, z_a, z_b)
    x, _ = _grid(half_width, n_points)
    _check_resolvable(half_width, x)
    u = propagate(WavefunctionGrid(x=x, psi=[_readout(x, z_b)]), p, duration).psi[0]
    return _kernel_from_readout(u, x, z_a, z_b, duration)


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
    width ``CK_SOURCE_SIGMA``.  One pass, exact in time, propagates each row to
    its own durations: the source at ``z_a`` to ``t_c - t_a`` (amplitude mode:
    also ``t_b - t_a``), the one at ``z_b`` to ``t_b - t_c`` (the kernel is
    symmetric) and in probability mode ``kernel_estimate``'s read-out at
    ``z_b`` to ``t_b - t_a``.  The intermediate integral runs over
    ``|z_c| <= half_width - 4`` (reported as ``window``);
    a widened window probes convergence, and a diverging probability
    integral is reported with ``converged=False`` rather than raised.  Non-finite
    endpoints or times, a ``half_width`` at or below ``max(|z_a|, |z_b|) + 4``,
    and in probability mode a grid that cannot resolve ``SOURCE_SIGMAS``, are
    rejected before any propagation.
    """
    if mode not in ("amplitude", "probability"):
        raise ValueError(f"unknown mode {mode!r}")
    if not -math.inf < t_a < t_c < t_b < math.inf:
        raise ValueError(f"need finite t_a < t_c < t_b, got {t_a}, {t_c}, {t_b}")
    _check_args(z_a, z_b, t_b - t_a)
    t1, t2 = t_c - t_a, t_b - t_c
    if half_width is None:
        half_width = max(abs(z_a), abs(z_b)) + 10.0 + 5.0 * math.sqrt(t_b - t_a)
    _check_half_width(half_width, z_a, z_b)
    x, dx = _grid(half_width, n_points)
    window = half_width - 4.0

    src_a, src_b = (_smeared_free_kernel(x, z, 0.0, CK_SOURCE_SIGMA) for z in (z_a, z_b))
    rows, durations = [src_a, src_b], ((t1, t_b - t_a), (t2,))
    if mode == "probability":
        _check_resolvable(half_width, x)
        rows, durations = rows + [_readout(x, z_b)], ((t1,), (t2,), (t_b - t_a,))
    out = _propagate_rows(WavefunctionGrid(x=x, psi=rows), p, durations)
    leg_a, leg_b = out[0][0], out[1][0]

    if mode == "amplitude":
        lhs = complex(np.sum(leg_a * leg_b) * dx)
        rhs = complex(np.sum(out[0][1] * src_b) * dx)
        residual = abs(lhs - rhs) / max(abs(rhs), 1e-300)
        return CKResult(lhs, rhs, residual, mode, True, window)

    corr_a, corr_b = (
        _smeared_free_kernel(x, z, t, 0.0) / _smeared_free_kernel(x, z, t, CK_SOURCE_SIGMA)
        for z, t in ((z_a, t1), (z_b, t2))
    )
    integrand = np.abs(leg_a * corr_a) ** 2 * np.abs(leg_b * corr_b) ** 2
    rhs = _kernel_from_readout(out[2][0], x, z_a, z_b, t_b - t_a).modulus_squared

    def lhs_over(wdw):
        mask = np.abs(x) <= wdw
        return float(np.sum(integrand[mask]) * dx)

    lhs = lhs_over(window)
    lhs_wide = lhs_over(min(window * 1.5, half_width - 1.0))
    tail = abs(lhs_wide - lhs) / max(abs(lhs), 1e-300)
    converged = tail <= 1e-3
    residual = abs(lhs - rhs) / max(abs(rhs), 1e-300)
    return CKResult(lhs, rhs, residual, mode, converged, window)
