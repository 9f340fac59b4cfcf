"""Per-step factors, nonlocal kernel, path weights, and positivity thresholds.

Each step factor is written ``Q(z, s) = exp(-gamma |z|) * g * h``, with ``g``
carrying the sign and ``h > 0``.  The linearized form has

    g = 1 - eps * M(z, s),    h = 2 gamma / (2 pi eps (s^2 + gamma^2)),

with the nonlocal kernel, for a line potential ``sum_k a_k cos(q_k x + phi_k)``,

    M(z, s) = - sum_k a_k sin(q_k z + phi_k) * D(s, q_k),
    D(s, q) = (s^2 + gamma^2) / ((s - k)^2 + gamma^2) - (s^2 + gamma^2) / ((s + k)^2 + gamma^2),

with ``k = _shift(q)``, today ``q``, which the exponential series' centres take too.  The
product form shifts by ``q / 2``; ROADMAP item 1 measures the coupling here at twice the oracle's.

The full exponential form has ``h = 1 / (2 pi eps)`` and ``g = int exp(-gamma
|u| - i u s + i eps (V(z - u) - V(z + u))) du``, which is real.  With ``x_k =
2 eps a_k sin(q_k z + phi_k)`` and ``exp(i x sin(q u)) = sum_m J_m(x) exp(i m q
u)`` (Jacobi-Anger) it is ``sum_nu c_nu L(s - nu)``, ``L(w) = 2 gamma / (w^2 +
gamma^2)``, over sums ``nu`` of ``m_k k_k`` (``_u_series``); cut at ``|m| <= 1``
with ``J_0 -> 1`` and ``J_{+-1}(x) -> +-x / 2``, the linearized ``2 pi eps g h``.
``_split_q`` returns ``(M, g, h)`` for either form, and every step factor and
path weight goes through it.  ``W = n prod_j Q_j`` has no bound, so
``_path_sign_log`` reduces the split rather than ``Q``: the sign of ``prod g``
and ``sum log|g| + log n + sum (log h - gamma |z|)``, step by step
(``_sign_log_abs``).  A far path keeps its sign and a finite log in both forms
where ``exp(-gamma |z|)`` and so ``Q`` underflow to 0.

``_add_m`` is the one evaluation of ``M``: it adds the line terms to an
array in place, so ``step_m`` sums them into zeros and the Monte Carlo's
``1 - eps M`` into ones.  It takes the lines a group at a time, the group
a leading array axis sized to the array, so a small array costs a few
numpy calls per group rather than per line, and the sum stays bit for bit
the per-line sum in line order.  With ``f = exp(-gamma |z|) (1 - eps M)`` the
linearized step factor is ``Q = f rho(s) / eps``, with ``rho(s) = gamma /
(pi (s^2 + gamma^2))`` the Cauchy law of a velocity change.
Paths whose ``n - 1`` velocity changes are drawn from ``rho`` have density
``(n / eps^(n-1)) prod rho(s_j)`` in interior-point space, so the weight
``W = n prod Q_j`` over that density is ``prod f_j``: the Lorentzian
factors cancel, and the Monte Carlo estimator reduces ``prod f`` on the
drawn ``s`` without forming ``Q`` or the density.  ``_sign_log_ratio``
does that with one ``log`` per path: the factors ``1 - eps M`` are bounded
by ``1 + eps sup|M|``, so their product is taken directly, and ``gamma
sum |z|`` is subtracted in the log domain.  The tensor-grid quadrature
integrates the same ``prod f`` after ``s = gamma tan theta``, which puts
``rho`` into the measure.  It does not call ``step_m``: on its grid
each ``z`` is affine in the node indices, so ``sin(q z + phi)`` is the
imaginary part of a product of per-axis phase tables, and ``1 - eps M``
costs a matrix product per block instead of a ``sin`` per point, which was
most of the quadrature's time.
``step_m`` stays the pointwise definition of ``M``: the quadrature's tests
compare the table form against it.

A path's weight is nonnegative for every path once ``eps`` is at or below a
threshold.  Two thresholds are exposed:
the closed-form leading-order one, ``2 pi gamma^2 / (R^2 K)``, and a strict
one, ``1 / sup_{z,s} |M|``, with the supremum certified in closed form.  The
strict threshold is the one the zero-tolerance positivity guarantees are
stated against: the leading-order formula undercounts the true supremum of
``D`` by an O((gamma/q)^2) relative margin.  A tabulated potential is a
cosine sum too (:meth:`BandLimitedPotential.from_grid`), so every threshold
is certified.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .lattice import LatticeConfig, Path, StepQuantities, second_differences, velocity_changes
from .oracle import _bessel_orders
from .potentials import TWO_PI, BandLimitedPotential

__all__ = [
    "step_m",
    "m_bound",
    "m_sup_certified",
    "step_q_linear",
    "step_q_exponential",
    "path_weight",
    "batch_log_weights",
    "positivity_threshold",
    "negative_step_witness",
    "WeightEvaluation",
    "ThresholdPair",
    "CertifiedSup",
    "weight_report",
]


class NonConvergenceError(RuntimeError):
    """A numeric evaluation failed to meet its tolerance."""


def _shift(q):
    """Shift ``k`` of ``D(s, q)``'s Lorentzians and the series' centres: ``q`` (ROADMAP item 1)."""
    return q


@np.errstate(over="ignore")
def _pair_into(s, q, g2: float, s2g, d: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``D(s, q)`` into ``d``, with ``u`` scratch of its shape and ``s2g = s^2 + g2``.

    Over one denominator, ``4 k s s2g / (((s - k)^2 + g2)((s + k)^2 + g2))``, ``k =
    _shift(q)``: the difference of the two reciprocals would cancel at small ``|s|``.  A square
    past about 1e154 overflows to inf and ``D`` to its limit 0; where the numerator overflows
    too (``|s|`` past about 3.5e102 at ``k = 1``, or ``|s|`` and ``k`` both past about 1e77)
    ``D`` is inf or nan, and :func:`lorentzian_pair` mends the nan.
    """
    k = _shift(q)
    np.add(s, k, out=d)
    np.square(d, out=d)
    d += g2
    np.subtract(s, k, out=u)
    np.square(u, out=u)
    u += g2
    u *= d
    np.multiply(s, 4.0 * k, out=d)
    d *= s2g
    d /= u
    return d


def lorentzian_pair(s, q, gamma):
    """``D(s, q)``: difference of Lorentzians shifted by ``_shift(q)``, scaled by s^2 + gamma^2
    (:func:`_pair_into`).  ``D`` is homogeneous of degree 0 in ``(s, k, gamma)``, so where
    :func:`_pair_into` gives nan it is taken at ``(s, k, gamma) / max(|s|, k)``, whose
    products do not overflow; an inf stays."""
    s = np.asarray(s, dtype=float)
    shape = np.broadcast_shapes(s.shape, np.shape(q))
    g2 = gamma * gamma
    with np.errstate(over="ignore", invalid="ignore"):
        d = _pair_into(s, q, g2, s * s + g2, np.empty(shape), np.empty(shape))
    lost = np.isnan(d)
    if lost.any():
        s, q = (np.broadcast_to(v, shape)[lost] for v in (s, q))
        c = np.maximum(np.abs(s), _shift(q))  # _shift is linear: _shift(q / c) = k / c
        s, g2 = s / c, (gamma / c) ** 2
        with np.errstate(divide="ignore"):  # (gamma / c)^2 is 0 and s = k: D's limit inf
            d[lost] = _pair_into(s, q / c, g2, s * s + g2, np.empty(s.shape), np.empty(s.shape))
    return d if d.ndim else d[()]


# elements in a group's buffer of line terms in _add_m: a group of lines is
# as many as fit, at least one
_M_CAP = 2**13


def _add_m(p: BandLimitedPotential, z, s, gamma: float, out: np.ndarray, scale: float = 1.0):
    """Add ``scale * M(z, s)`` to ``out`` in place, a group of lines at a time.

    ``out`` has the broadcast shape of ``z`` and ``s``.  A group of ``G =
    max(1, _M_CAP // out.size)`` lines is a leading axis: its ``D(s, q)`` is
    formed in shape ``(G,) + s.shape`` and its ``a sin(q z + phi)`` in ``(G,)
    + z.shape``, so a grid of ``z`` against ``s`` costs one of each per row or
    column and line, and the numpy calls are per group, not per line.  The
    group's terms are written below a copy of ``out`` in one buffer, and one
    ``np.subtract.reduce`` along the group axis subtracts them in line order:
    it is sequential at every shape, where ``np.add.reduce`` would sum a
    one-dimensional axis pairwise.  A group of one line (a large ``out``) has
    no leading axis and subtracts its term directly.  The scratch arrays
    serve every group, and for ``z`` and ``s`` of ``out``'s shape they are
    two, plus ``s^2 + gamma^2``.  ``D`` is :func:`_pair_into` in them, so at
    ``scale = 1`` the sum is bit for bit the sum of :func:`lorentzian_pair`'s terms.
    """
    q, a, phi = p.line_arrays
    n_lines = q.size
    size = max(1, min(n_lines, _M_CAP // max(out.size, 1)))
    if size > 1:
        # the group axis leads, so z and s take out's number of axes
        z = z.reshape((1,) * (out.ndim - z.ndim) + z.shape)
        s = s.reshape((1,) * (out.ndim - s.ndim) + s.shape)
        q, a, phi = (v.reshape((-1,) + (1,) * out.ndim) for v in (q, a, phi))
        sa = scale * a
    else:  # one line at a time, its parameters floats
        q, a, phi = q.tolist(), a.tolist(), phi.tolist()
        sa = [scale * v for v in a]
    lead = (size,) if size > 1 else ()
    g2 = gamma * gamma
    s2g = s * s
    s2g += g2
    # d before the term buffer: the other order took about 110 more minor
    # page faults per call on a 4096 x 15 Monte Carlo batch, and 8% longer
    d = np.empty(lead + s.shape)
    acc = np.empty((size + 1,) + out.shape) if size > 1 else None
    t = np.empty(out.shape) if acc is None else acc[1:]
    w = t if z.shape == out.shape else np.empty(lead + z.shape)
    u = w if z.shape == s.shape else np.empty(lead + s.shape)
    for lo in range(0, n_lines, size):
        k = lo if acc is None else slice(lo, lo + size)
        if acc is not None and lo + size > n_lines:  # a short last group
            n = n_lines - lo
            d, u, w, t, acc = d[:n], u[:n], w[:n], t[:n], acc[: n + 1]
        _pair_into(s, q[k], g2, s2g, d, u)
        np.multiply(z, q[k], out=w)
        w += phi[k]
        np.sin(w, out=w)
        w *= sa[k]
        np.multiply(w, d, out=t)
        if acc is None:
            out -= t
        else:
            acc[0] = out
            np.subtract.reduce(acc, axis=0, out=out)
    return out


def step_m(p: BandLimitedPotential, z, s, gamma: float):
    """Nonlocal kernel M(z, s).  Accepts scalar or array z, s (broadcast); a
    non-finite ``z`` or ``s`` raises ValueError.  Where :func:`_add_m` gives
    nan, ``M`` is summed again from :func:`lorentzian_pair`'s terms, which
    mend ``D``'s nan past overflow; a nan from elsewhere warns there."""
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    z = np.asarray(z, dtype=float)
    s = np.asarray(s, dtype=float)
    if not (np.isfinite(z).all() and np.isfinite(s).all()):
        raise ValueError("step factors need finite z and s")
    with np.errstate(over="ignore", invalid="ignore"):  # D's inf / inf, summed again below
        out = _add_m(p, z, s, gamma, np.zeros(np.broadcast(z, s).shape))
    lost = np.isnan(out)
    if lost.any():
        z, s = (np.broadcast_to(v, out.shape)[lost] for v in (z, s))
        q, a, phi = (v[:, None] for v in p.line_arrays)
        out[lost] = -np.sum(a * np.sin(q * z + phi) * lorentzian_pair(s, q, gamma), axis=0)
    return out if out.ndim else float(out)


def m_bound(p: BandLimitedPotential, gamma: float) -> float:
    """Leading-order bound ``R^2 K / (2 pi gamma^2)`` on |M|."""
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    r = _shift(p.R)
    if r > 0 and gamma > 0.5 * r:
        warnings.warn(
            "m_bound assumes gamma << R; the leading-order bound is loose here",
            stacklevel=2,
        )
    return _square(r) * p.K / (TWO_PI * gamma**2)


def _square(x: float) -> float:
    """``x**2``, inf where ``**`` raises OverflowError (``x * x`` rounds differently)."""
    try:
        return x**2
    except OverflowError:
        return math.inf


class CertifiedSup(NamedTuple):
    value: float
    certified: bool


def _sup_lorentzian_pair(q, gamma: float):
    """``(sup_s D(s, q), s*)`` at each of an array of ``q > 0``.

    D is odd in s and is largest at ``s* = gamma sqrt(v)``, where ``v`` is the one
    positive root of ``v^3 + (1 + 2r^2) v^2 - (3(1 + r^2)^2 - 2(1 - r^2)) v -
    (1 + r^2)^2``, ``r = _shift(q) / gamma``: the condition ``dD/ds = 0`` in ``u =
    s^2 = gamma^2 v``.  Its other two roots are negative and all three are
    real, so ``v`` is the largest, from the trigonometric form of the roots.

    The rounding of ``s*`` is about ``2^-52 r`` of the peak's width ``gamma`` and lowers
    ``D(s*)`` by about its square, past :func:`m_sup_certified`'s 1e-12 margin from ``r ~
    1e10``.  From ``r = 1e8``, where ``D(k) >= r^2`` and ``D <= r^2 + 2`` (the maximum of ``D``'s
    first ratio is ``(r^2 + 2 + r sqrt(r^2 + 4)) / 2``), the supremum is taken as ``r^2``, inf
    where that overflows, and ``s*`` as ``k``, which is ``gamma sqrt(v)`` to rounding there.
    """
    q = np.asarray(q, dtype=float)
    k = _shift(q)
    with np.errstate(over="ignore"):
        d_max = (k / gamma) ** 2
    s, near = k.copy(), d_max < 1e16
    r2 = d_max[near]
    a = 1.0 + 2.0 * r2
    b = 2.0 * (1.0 - r2) - 3.0 * (1.0 + r2) ** 2
    c = -((1.0 + r2) ** 2)
    # v = t - a / 3 leaves t^3 + pt + h = 0 with p < 0
    p = b - a * a / 3.0
    h = 2.0 * a**3 / 27.0 - a * b / 3.0 + c
    m = np.sqrt(-p / 3.0)
    theta = np.arccos(np.clip(1.5 * h / (p * m), -1.0, 1.0))
    s[near] = gamma * np.sqrt(2.0 * m * np.cos(theta / 3.0) - a / 3.0)
    d_max[near] = lorentzian_pair(s[near], q[near], gamma)
    return d_max, s


def m_sup_certified(p: BandLimitedPotential, gamma: float) -> CertifiedSup:
    """Certified ``sup_{z,s} |M|``.

    Per line ``|sin| <= 1`` and ``|D(s, q_k)| <= D(s*_k, q_k)`` at the closed
    form maximizer of :func:`_sup_lorentzian_pair`, so the per-line suprema
    sum to a rigorous bound, attained for a single line (and approached
    wherever z aligns every line's phase).  The sum carries a 1e-12 relative
    margin for the rounding of ``s*`` and ``D``.
    """
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    q, a, _ = p.line_arrays
    d_max, _ = _sup_lorentzian_pair(q, gamma)
    d_max[a == 0.0] = 0.0  # an overflowed supremum is inf, and 0 inf nan
    return CertifiedSup(float(np.abs(a) @ d_max) * (1.0 + 1e-12), True)


class ThresholdPair(NamedTuple):
    lambda_paper: float
    lambda_strict: float


def positivity_threshold(p: BandLimitedPotential, gamma: float) -> ThresholdPair:
    """Largest step sizes guaranteeing nonnegative step factors.

    ``lambda_paper`` is the closed-form ``2 pi gamma^2 / (R^2 K)``;
    ``lambda_strict`` is ``1 / m_sup_certified``.  Both are ``inf`` for the
    zero potential (every eps is admissible).
    """
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    if p.K == 0.0 or p.R == 0.0:
        return ThresholdPair(math.inf, math.inf)
    lam_paper = TWO_PI * gamma**2 / (_square(_shift(p.R)) * p.K)
    sup = m_sup_certified(p, gamma)
    lam_strict = math.inf if sup.value == 0.0 else 1.0 / sup.value
    return ThresholdPair(float(lam_paper), float(lam_strict))


def _sign_log_abs(q, n: int):
    """Sign and ``log|n prod q|`` of the product of factors along the last axis.

    A zero factor makes the sign 0 and the log ``-inf``.
    """
    sign = np.prod(np.sign(q), axis=-1)
    with np.errstate(divide="ignore"):
        log_abs = np.sum(np.log(np.abs(q)), axis=-1) + math.log(n)
    return sign, log_abs


SERIES_TOL = 1e-19  # coefficient mass _u_series drops per line by truncation, and by pruning
# most products _u_series forms at one line (about 100 MB of scratch): incommensurate lines
# multiply the count by 2M + 1 each, and past it the series raises NonConvergenceError
SERIES_TERMS = 2**20


def _jacobi_anger(x: float, tol: float = SERIES_TOL / 2):
    """``J_m(x)``, ``m = -M .. M``, and a bound ``<= 2 tol`` on ``sum_{|m| > M} |J_m(x)|``."""
    j, tail = _bessel_orders(abs(x), tol, 1)
    c = np.concatenate([j[:0:-1] * (-1.0) ** np.arange(j.size - 1, 0, -1), j])  # J_-m = (-1)^m J_m
    return (c if x >= 0 else c[::-1]), 2.0 * tail  # J_m(-x) = J_-m(x)


def _u_series(p: BandLimitedPotential, z: float, s: float, eps: float, gamma: float) -> float:
    """``g`` of the exponential form (module docstring), the lines multiplied out one at a
    time: products below ``SERIES_TOL`` over their count and ``grow`` are pruned, and
    frequencies within rounding of each other (as on a lattice) merge at the lowest.  The bound
    counts a dropped mass ``d`` as ``d max L = 2 d / gamma``, its moved mass ``w`` at ``max|L'| <
    0.65 max L / gamma``, and a kept term's ``w`` at ``|L'(v)| = |v| L(v)^2 / gamma``, ``v = s -
    nu``, plus ``4 / gamma^3`` per unit of the summed merge distances ``delta``.  Rounding is
    estimated to first order: ``sum_nu b_nu L``, ``b`` the absolute mass of the products merged
    at ``nu``, times machine epsilon per rounding a product meets (per line 2 for ``J_m``, 1 for
    the product and ``2M + 1`` for the merge; 4 for ``L``, 1 for ``c L`` and 1 for the sum).
    Raises NonConvergenceError where the bound exceeds ``1e-9 |g| + 1e-13`` or is not finite,
    and before a line's products, or its own orders, pass ``SERIES_TERMS``."""
    q, a, phi = p.line_arrays
    xs = (2.0 * eps * a * np.sin(q * z + phi)).tolist()
    for k, x in enumerate(xs):
        # a line keeps 2 floor|x| + 1 orders at least: J_n(|x|), n = floor|x|, lies before J_n's
        # first zero and is of order n^(-1/3) (J_n(n) ~ 0.447 n^(-1/3)), far above SERIES_TOL
        if not abs(x) < (SERIES_TERMS + 1) // 2:  # 2 floor|x| + 1 > SERIES_TERMS, or x not finite
            raise NonConvergenceError(f"Jacobi-Anger series of g at z = {z:.6g}: line {k + 1} "
                                      f"of {len(xs)} needs more than SERIES_TERMS = {SERIES_TERMS}")
    lines = [_jacobi_anger(x) for x in xs]
    grow = math.prod(float(np.abs(c).sum()) + r for c, r in lines)  # bounds products' l1
    if not grow < math.inf:
        raise NonConvergenceError(f"Jacobi-Anger series of g at z = {z:.6g}: l1 not finite")
    nu, c, b, w, lost, delta = np.zeros(1), np.ones(1), np.ones(1), np.zeros(1), 0.0, 0.0
    for k, (qk, (ck, tail)) in enumerate(zip(q.tolist(), lines)):
        if ck.size * c.size > SERIES_TERMS:
            raise NonConvergenceError(
                f"Jacobi-Anger series of g at z = {z:.6g}: line {k + 1} of {len(lines)} would "
                f"make {ck.size * c.size} terms, more than SERIES_TERMS = {SERIES_TERMS}"
            )
        lost += (np.abs(c).sum() + 0.65 * w.sum() / gamma) * tail * grow
        # 2M + 1 shifted copies of the sorted nu, which a stable sort merges as runs
        nu = np.add.outer(_shift(qk) * np.arange(-(ck.size // 2), ck.size // 2 + 1), nu).ravel()
        c, b = np.multiply.outer(ck, c).ravel(), np.multiply.outer(np.abs(ck), b).ravel()
        w = np.multiply.outer(np.abs(ck), w).ravel()
        keep = np.abs(c) >= SERIES_TOL / (grow * c.size)
        lost += (np.abs(c[~keep]).sum() + 0.65 * w[~keep].sum() / gamma) * grow
        order = np.flatnonzero(keep)[np.argsort(nu[keep], kind="stable")]
        nu, c, b, w = nu[order], c[order], b[order], w[order]
        new = np.diff(nu, prepend=-math.inf) > 1e-12 * max(1.0, -nu[0], nu[-1])
        starts = np.flatnonzero(new)
        off = nu - nu[starts][np.cumsum(new) - 1]
        delta += off.max()
        w = np.add.reduceat(w + np.abs(c) * off, starts)
        nu, c, b = nu[starts], np.add.reduceat(c, starts), np.add.reduceat(b, starts)
    with np.errstate(over="ignore"):  # a square past about 1e154 is inf and L its limit 0
        lor = 2.0 * gamma / ((s - nu) ** 2 + gamma * gamma)
    g = math.fsum((lor * c).tolist())  # correctly rounded, whatever the number of terms
    bound = 2.0 * lost / gamma + w @ (np.abs(s - nu) * lor * lor / gamma + 4.0 * delta / gamma**3)
    roundings = sum(ck.size + 3 for ck, _ in lines) + 6
    bound += roundings * np.finfo(float).eps * float(lor @ b)
    if not bound <= 1e-9 * abs(g) + 1e-13:
        raise NonConvergenceError(f"Jacobi-Anger series of g at z = {z:.6g}: bound {bound:.3g}")
    return g


def _split_q(p: BandLimitedPotential, z, s, eps: float, gamma: float, form: str = "linear"):
    """``(M, g, h)`` at broadcast ``z, s``, with ``Q = exp(-gamma |z|) g h``, ``g``
    carrying the sign and ``h > 0``: both forms' one definition (module docstring).
    A non-finite ``z`` or ``s`` raises ValueError (:func:`step_m` checks, before
    either form's ``g``)."""
    if not (eps > 0 and gamma > 0):
        raise ValueError("eps and gamma must be positive")
    z = np.asarray(z, dtype=float)
    s = np.asarray(s, dtype=float)
    m = step_m(p, z, s, gamma)
    if form == "exponential":
        zs = np.broadcast(z, s)
        g = np.reshape([_u_series(p, zj, sj, eps, gamma) for zj, sj in zs], zs.shape)
        return m, g, 1.0 / (TWO_PI * eps)
    if form != "linear":
        raise ValueError(f"unknown step-factor form {form!r}")
    return m, 1.0 - eps * m, 2.0 * gamma / (TWO_PI * eps * (s * s + gamma * gamma))


def _path_sign_log(z, g, h, gamma: float, n: int):
    """Sign and ``log|n prod Q|`` along the last axis, from the split of ``Q``:
    ``sum log|g| + log n + sum (log h - gamma |z|)``, finite where ``Q``
    underflows to 0 (``gamma |z|`` past about 745)."""
    sign, log_abs = _sign_log_abs(g, n)
    with np.errstate(divide="ignore"):
        return sign, log_abs + np.sum(np.log(h) - gamma * np.abs(z), axis=-1)


def _sign_log_ratio(p: BandLimitedPotential, z, s, eps: float, gamma: float):
    """Sign and ``log|prod_j f_j|`` of ``f = exp(-gamma |z|) (1 - eps M)`` along each row.

    The reduction ``_sign_log_abs(f, 1)`` without forming ``f``: ``log|prod
    f| = log|prod (1 - eps M)| - gamma sum |z|``, with one ``log`` per row and
    no ``exp``, so a far path keeps a finite log where ``exp(-gamma |z|)``
    underflows.  ``|1 - eps M| <= 1 + eps sup|M|``, so a row's product leaves
    the normal range of a double only through a zero factor or through many
    factors far from 1 (``eps`` far above the positivity threshold, or near
    it); such rows are reduced step by step.  ``z`` and ``s`` have shape (N,
    n-1).
    """
    fac = _add_m(p, z, s, gamma, np.ones(z.shape), scale=-eps)
    with np.errstate(over="ignore", divide="ignore"):
        # column by column: numpy reduces along a short last axis row by
        # row, at about three times the cost
        prod = fac[:, 0].copy()
        for col in fac.T[1:]:
            prod *= col
        sign, mag = np.sign(prod), np.abs(prod)
        log_abs = np.log(mag)
    lost = ~((mag >= np.finfo(float).tiny) & (mag < math.inf))
    if lost.any():
        sign[lost], log_abs[lost] = _sign_log_abs(fac[lost], 1)
    log_abs -= gamma * (np.abs(z, out=fac) @ np.ones(z.shape[1]))
    return sign, log_abs


def _step_q(p: BandLimitedPotential, z, s, eps: float, gamma: float, form: str):
    """``Q = exp(-gamma |z|) g h`` from :func:`_split_q`; a float at scalar ``z, s``."""
    _, g, h = _split_q(p, z, s, eps, gamma, form)
    q = np.exp(-gamma * np.abs(z)) * g * h
    return q if np.ndim(q) else float(q)


def step_q_linear(p: BandLimitedPotential, z, s, eps: float, gamma: float):
    """Linearized step factor; the form certified nonnegative for eps below threshold.

    A non-finite ``z`` or ``s`` raises ValueError.
    """
    return _step_q(p, z, s, eps, gamma, "linear")


def step_q_exponential(p: BandLimitedPotential, z, s, eps: float, gamma: float):
    """Step factor with the full exponential of the potential difference.

    ``g`` is the Jacobi-Anger series :func:`_u_series`, which raises NonConvergenceError
    where its bound exceeds ``1e-9 |g| + 1e-13`` and where the lines' products would pass
    ``SERIES_TERMS`` (five incommensurate lines at ``2 eps |a| ~ 1``, or seven at ``0.05``);
    a non-finite ``z`` or ``s`` raises ValueError.
    """
    return _step_q(p, z, s, eps, gamma, "exponential")


@dataclass(frozen=True)
class WeightEvaluation:
    """Weight of one path plus the positivity context it was judged against."""

    W: float
    sign: int
    log_abs_w: float
    steps: StepQuantities
    lambda_paper: float
    lambda_strict: float
    positive: bool


def batch_log_weights(p: BandLimitedPotential, interiors: np.ndarray, cfg: LatticeConfig):
    """Log-domain weights for a batch of paths given by interior points.

    ``interiors`` has shape (N, n-1).  Returns ``(signs, log_abs, q_signs)``
    where ``q_signs`` is the per-step sign matrix (N, n-1), the sign of ``g``.
    A non-finite interior point raises ValueError.
    """
    interiors = np.atleast_2d(np.asarray(interiors, dtype=float))
    s = velocity_changes(interiors, cfg)
    _, g, h = _split_q(p, interiors, s, cfg.eps, cfg.gamma)
    signs, log_abs = _path_sign_log(interiors, g, h, cfg.gamma, cfg.n)
    return signs.astype(int), log_abs, np.sign(g).astype(int)


def path_weight(
    p: BandLimitedPotential,
    path: Path,
    cfg: LatticeConfig,
    form: str = "linear",
) -> WeightEvaluation:
    """Weight ``W = n * prod Q_j`` of a path, accumulated in log magnitude.

    ``form`` selects the linearized ("linear", default: the form the
    positivity theorem certifies) or the full exponential ("exponential")
    step factor.  ``W`` is ``sign * exp(log|W|)``, infinite only where that
    overflows a double.
    """
    s = second_differences(path, cfg)
    z = path.z[1:-1]
    m, g, h = _split_q(p, z, s, cfg.eps, cfg.gamma, form)
    sign, log_abs = _path_sign_log(z, g, h, cfg.gamma, cfg.n)
    steps = StepQuantities(s=s, M=m, Q=np.exp(-cfg.gamma * np.abs(z)) * g * h)
    sign, log_abs = int(sign), float(log_abs)
    try:
        w = sign * math.exp(log_abs) if sign else 0.0
    except OverflowError:
        w = sign * math.inf
    lam_paper, lam_strict = positivity_threshold(p, cfg.gamma)
    return WeightEvaluation(
        W=w,
        sign=sign,
        log_abs_w=log_abs,
        steps=steps,
        lambda_paper=lam_paper,
        lambda_strict=lam_strict,
        positive=bool(w >= 0),
    )


def negative_step_witness(p: BandLimitedPotential, gamma: float):
    """A point (z, s) with M(z, s) close to its certified supremum.

    Used to construct paths whose weight turns negative once eps exceeds the
    strict threshold.  Line k's term ``-a_k sin(q_k z + phi_k) D(s, q_k)``
    reaches ``+|a_k| D(s*_k, q_k)`` at its maximizer ``s*_k`` and at ``z*_k``
    with ``sin(q_k z*_k + phi_k) = -sign a_k``.  Of these points the one with
    the largest M is refined on a 41 x 41 grid around it.  Raises ValueError
    where that M is not finite (``D(s*, q)`` overflows from ``q`` about 1e77).
    """
    if not p.lines:
        raise ValueError("witness construction needs a nonzero potential")
    q, a, phi = p.line_arrays
    _, s_star = _sup_lorentzian_pair(q, gamma)
    z_star = (-np.copysign(0.5 * np.pi, a) - phi) / q
    offsets = np.linspace(-1.0, 1.0, 41)
    with np.errstate(invalid="ignore"):  # 0 inf, a zero sin times D's inf
        k = int(np.argmax(step_m(p, z_star, s_star, gamma)))
        zg = z_star[k] + offsets[:, None] * (0.5 * np.pi / p.R)
        sg = s_star[k] + offsets[None, :] * gamma
        mm = step_m(p, zg, sg, gamma)
    i, j = np.unravel_index(np.argmax(mm), mm.shape)
    if not math.isfinite(mm[i, j]):
        raise ValueError(f"no witness in double precision: M is {mm[i, j]} at s = {sg[0, j]:.4g}")
    return float(zg[i, 0]), float(sg[0, j]), float(mm[i, j])


def weight_report(ev: WeightEvaluation) -> dict:
    """JSON-ready weight report with per-step quantities."""
    return {
        "W": ev.W,
        "sign": ev.sign,
        "logabsW": ev.log_abs_w,
        "lambda_paper": ev.lambda_paper,
        "lambda_strict": ev.lambda_strict,
        "positive": ev.positive,
        "per_step": [
            {"j": j + 1, "s": float(s), "M": float(m), "Q": float(q)}
            for j, (s, m, q) in enumerate(zip(ev.steps.s, ev.steps.M, ev.steps.Q))
        ],
    }
