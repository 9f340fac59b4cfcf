"""Per-step factors, nonlocal kernel, path weights, and positivity thresholds.

The step factor in its linearized form is

    Q(z, s) = (2 pi eps)^-1 * exp(-gamma |z|) * 2 gamma / (s^2 + gamma^2)
              * (1 - eps * M(z, s))

with the nonlocal kernel, for a line potential ``sum_k a_k cos(q_k x + phi_k)``,

    M(z, s) = - sum_k a_k sin(q_k z + phi_k) * D(s, q_k),
    D(s, q) = (s^2 + g^2) / ((s - q)^2 + g^2) - (s^2 + g^2) / ((s + q)^2 + g^2).

For a grid-represented spectrum, M is the quadrature
``pi^-1 \\int_0^R Im[Vt(q) exp(-izq)] D(s, q) dq``.

This module holds the one definition of the linearized ``Q`` (``_m_and_q``,
which returns ``M`` with it) and the one reduction of a product of step
factors to a sign and ``log|n prod Q|`` (``_sign_log_abs``); the single-step,
batch and single-path routes all go through them.  The tensor-grid
quadrature is the exception: after ``s = gamma tan theta`` it integrates
``exp(-gamma sum|z|) prod (1 - eps M)``, which is ``prod Q`` divided by the
Lorentzian factors ``(2 pi eps)^-1 2 gamma / (s^2 + gamma^2)`` that the
substitution absorbs into the measure.  Routing it through ``Q`` would
multiply each integrand point by those factors and divide them out again,
at a cost and with a change in the last digits.  For line potentials it
does not call ``step_m`` either: on its grid each ``z`` is affine in the
node indices, so ``sin(q z + phi)`` is the imaginary part of a product of
per-axis phase tables, and ``1 - eps M`` costs a matrix product per block
instead of a ``sin`` per point, which was most of the quadrature's time.
``step_m`` stays the pointwise definition of ``M``: the quadrature's tests
compare the table form against it, and grid potentials use it directly.

The weight of a path is ``W = n * prod_j Q_j``; it is nonnegative for every
path once ``eps`` is at or below a threshold.  Two thresholds are exposed:
the closed-form leading-order one, ``2 pi gamma^2 / (R^2 K)``, and a strict
one, ``1 / sup_{z,s} |M|``, with the supremum certified numerically.  The
strict threshold is the one the zero-tolerance positivity guarantees are
stated against: the leading-order formula undercounts the true supremum of
``D`` by an O((gamma/q)^2) relative margin.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.optimize import minimize_scalar

from .lattice import LatticeConfig, Path, StepQuantities, second_differences, velocity_changes
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


def lorentzian_pair(s, q, gamma):
    """``D(s, q)``: difference of shifted Lorentzians scaled by s^2 + gamma^2."""
    s = np.asarray(s, dtype=float)
    g2 = gamma * gamma
    return (s * s + g2) * (1.0 / ((s - q) ** 2 + g2) - 1.0 / ((s + q) ** 2 + g2))


def step_m(p: BandLimitedPotential, z, s, gamma: float):
    """Nonlocal kernel M(z, s).  Accepts scalar or array z, s (broadcast)."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    z = np.asarray(z, dtype=float)
    s = np.asarray(s, dtype=float)
    if p.lines:
        out = np.zeros(np.broadcast(z, s).shape)
        for ln in p.lines:
            out = out - ln.a * np.sin(ln.q * z + ln.phi) * lorentzian_pair(s, ln.q, gamma)
        return out if out.ndim else float(out)
    if p.grid is not None:
        return _step_m_grid(p, z, s, gamma)
    out = np.zeros(np.broadcast(z, s).shape)
    return out if out.ndim else 0.0


# QUADPACK qk21: the 21-point Kronrod rule on [-1, 1] and its embedded
# 10-point Gauss rule.  Nodes x >= 0 in decreasing order; every second node,
# from the second on, is a Gauss node, and the last is 0.
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208980223607, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
# both rules over the 21 nodes -x..., 0, ...x: column 0 Kronrod, column 1 Gauss
_GK_X = np.concatenate([-_XGK, _XGK[-2::-1]])
_GK_W = np.zeros((21, 2))
_GK_W[:, 0] = np.concatenate([_WGK, _WGK[-2::-1]])
_GK_W[1:10:2, 1] = _WG
_GK_W[19:10:-2, 1] = _WG


def _gauss_panels(edges, x, w):
    """A rule with nodes ``x`` on [-1, 1] repeated on each panel between ``edges``.

    ``w`` holds one weight per node, or one column of weights per rule on the
    same nodes; the panel weights keep that shape with the panels stacked.
    """
    lo, hi = edges[:-1], edges[1:]
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half.reshape((-1,) + (1,) * w.ndim) * w).reshape((-1,) + w.shape[1:])
    return nodes, weights


def _step_m_grid(p: BandLimitedPotential, z, s, gamma, chunk: int = 2**16):
    # The interpolated spectrum is smooth between its grid nodes, so each grid
    # interval is split into panels no wider than gamma / 2 (at most 16), on
    # which the Lorentzian pair is smooth too.  Every panel carries a
    # Gauss-Kronrod 10/21 pair: the 21-point value is returned and its
    # difference from the embedded 10-point value is the refinement check.
    # M reaches the step factor only as exp(-gamma|z|) (1 - eps M), so both
    # the difference and the scale it is held to are weighted by the decay:
    # a far pair whose phase the panels cannot follow, but whose decay has
    # put it below every near pair, does not fail the batch.
    qg = p.grid.q
    pos = qg >= 0
    qp, vtp = qg[pos], p.grid.vt[pos]
    k = max(1, min(16, math.ceil(p.grid.dq / (0.5 * gamma))))
    edges = np.linspace(qp[0], qp[-1], (qp.size - 1) * k + 1)
    qx, wx = _gauss_panels(edges, _GK_X, _GK_W)
    wx = wx / np.pi
    vt_re = np.interp(qx, qp, vtp.real)
    vt_im = np.interp(qx, qp, vtp.imag)

    zb, sb = np.broadcast_arrays(np.asarray(z, float), np.asarray(s, float))
    zf, sf = zb.ravel(), sb.ravel()
    # Im[Vt(q) exp(-izq)] D(s, q) on (pairs x nodes) blocks of <= chunk
    # elements; a block holds several such temporaries at once, so the cap
    # bounds the kernel's peak memory
    both = np.empty((zf.size, 2))
    rows = max(1, chunk // qx.size)
    for st in range(0, zf.size, rows):
        sl = slice(st, st + rows)
        phase = np.multiply.outer(zf[sl], qx)
        vals = (vt_im * np.cos(phase) - vt_re * np.sin(phase)) * lorentzian_pair(
            sf[sl, None], qx, gamma
        )
        both[sl] = vals @ wx
    kronrod, gauss = both[:, 0], both[:, 1]
    decay = np.exp(-gamma * np.abs(zf))
    err = float(np.max(decay * np.abs(kronrod - gauss), initial=0.0))
    if err > 1e-8 * max(1.0, float(np.max(decay * np.abs(kronrod), initial=0.0))):
        raise NonConvergenceError(f"grid M quadrature refinement delta {err:.3g}")
    out = kronrod.reshape(zb.shape)
    return out if out.ndim else float(out)


def m_bound(p: BandLimitedPotential, gamma: float) -> float:
    """Leading-order bound ``R^2 K / (2 pi gamma^2)`` on |M|."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if p.R > 0 and gamma > 0.5 * p.R:
        warnings.warn(
            "m_bound assumes gamma << R; the leading-order bound is loose here",
            stacklevel=2,
        )
    return p.R**2 * p.K / (TWO_PI * gamma**2)


class CertifiedSup(NamedTuple):
    value: float
    certified: bool


def _sup_lorentzian_pair(q: float, gamma: float) -> float:
    """sup over s of D(s, q) at fixed q, gamma (D is odd in s, peak at s > 0)."""
    hi = q + 10.0 * gamma
    grid = np.linspace(0.0, hi, 4001)
    vals = lorentzian_pair(grid, q, gamma)
    i = int(np.argmax(vals))
    lo_b = grid[max(i - 1, 0)]
    hi_b = grid[min(i + 1, grid.size - 1)]
    res = minimize_scalar(
        lambda sv: -lorentzian_pair(sv, q, gamma),
        bounds=(lo_b, hi_b),
        method="bounded",
        options={"xatol": 1e-12},
    )
    return float(max(-res.fun, vals[i]))


def m_sup_certified(p: BandLimitedPotential, gamma: float) -> CertifiedSup:
    """Numerically certified ``sup_{z,s} |M|``.

    Line representation only: per line ``|sin| <= 1`` and the s-maximum of
    ``D(s, q_k)`` is located by bracketed 1D maximization, so the per-line
    suprema sum to a rigorous bound that is also attained (z can align every
    line's phase arbitrarily closely in the single-line case and bounds the
    multi-line case).  Grid representations fall back to the closed-form
    bound, flagged as uncertified.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if p.K == 0.0 or p.R == 0.0:
        return CertifiedSup(0.0, True)
    if not p.lines:
        return CertifiedSup(m_bound(p, gamma), False)
    total = sum(abs(ln.a) * _sup_lorentzian_pair(ln.q, gamma) for ln in p.lines)
    return CertifiedSup(float(total), True)


class ThresholdPair(NamedTuple):
    lambda_paper: float
    lambda_strict: float


def positivity_threshold(p: BandLimitedPotential, gamma: float) -> ThresholdPair:
    """Largest step sizes guaranteeing nonnegative step factors.

    ``lambda_paper`` is the closed-form ``2 pi gamma^2 / (R^2 K)``;
    ``lambda_strict`` is ``1 / m_sup_certified``.  Both are ``inf`` for the
    zero potential (every eps is admissible).
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if p.K == 0.0 or p.R == 0.0:
        return ThresholdPair(math.inf, math.inf)
    lam_paper = TWO_PI * gamma**2 / (p.R**2 * p.K)
    sup = m_sup_certified(p, gamma)
    lam_strict = math.inf if sup.value == 0.0 else 1.0 / sup.value
    return ThresholdPair(float(lam_paper), float(lam_strict))


def _m_and_q(p: BandLimitedPotential, z, s, eps: float, gamma: float):
    """``(M, Q)`` at broadcast ``z, s``: the one evaluation of the linearized Q."""
    z = np.asarray(z, dtype=float)
    s = np.asarray(s, dtype=float)
    m = step_m(p, z, s, gamma)
    q = (
        (1.0 / (TWO_PI * eps))
        * np.exp(-gamma * np.abs(z))
        * (2.0 * gamma / (s * s + gamma * gamma))
        * (1.0 - eps * m)
    )
    return m, q


def _sign_log_abs(q, n: int):
    """Sign and ``log|n prod Q|`` of the step-factor product along the last axis.

    A zero factor makes the sign 0 and the log ``-inf``.
    """
    sign = np.prod(np.sign(q), axis=-1)
    with np.errstate(divide="ignore"):
        log_abs = np.sum(np.log(np.abs(q)), axis=-1) + math.log(n)
    return sign, log_abs


def step_q_linear(p: BandLimitedPotential, z, s, eps: float, gamma: float):
    """Linearized step factor; the form certified nonnegative for eps below threshold."""
    if eps <= 0 or gamma <= 0:
        raise ValueError("eps and gamma must be positive")
    _, q = _m_and_q(p, z, s, eps, gamma)
    return q if np.ndim(q) else float(q)


def _pair_difference(p: BandLimitedPotential, z: float, u):
    """Potential difference across the symmetric pair of displaced points."""
    return p.evaluate(z - u) - p.evaluate(z + u)


def step_q_exponential(
    p: BandLimitedPotential,
    z: float,
    s: float,
    eps: float,
    gamma: float,
    tol: float = 1e-12,
    return_imag: bool = False,
):
    """Step factor with the full exponential of the potential difference.

    Evaluated by truncated fine-grid quadrature of the u-integral; the
    truncation point and sampling density are set from ``tol`` and the
    oscillation content ``|s| + sum_k q_k + gamma``.  Raises
    NonConvergenceError when a refinement check fails.
    """
    if eps <= 0 or gamma <= 0:
        raise ValueError("eps and gamma must be positive")
    u_max = -math.log(tol) / gamma
    q_sum = sum(ln.q for ln in p.lines) if p.lines else max(p.R, 1.0)
    freq = abs(s) + q_sum + gamma

    def evaluate(h: float) -> complex:
        # composite Gauss-Legendre panels, mirrored so a panel edge sits on
        # the |u| kink at u = 0
        nodes, wts = np.polynomial.legendre.leggauss(10)
        edges = np.arange(0.0, u_max + h, h)
        edges[-1] = u_max
        u_pos, w_pos = _gauss_panels(edges, nodes, wts)
        u = np.concatenate([-u_pos, u_pos])
        w = np.concatenate([w_pos, w_pos])
        integrand = np.exp(
            -gamma * np.abs(u) - 1j * u * s + 1j * eps * _pair_difference(p, z, u)
        )
        return complex(np.sum(w * integrand))

    h0 = min(np.pi / (2.0 * freq), u_max / 8.0)
    val = evaluate(h0)
    ref = evaluate(0.5 * h0)
    scale = max(abs(ref), 1e-300)
    if abs(val - ref) > 1e-9 * scale + 1e-13:
        raise NonConvergenceError(
            f"u-quadrature not converged: |delta|={abs(val - ref):.3g} "
            f"with panel width {h0:.3g} (u_max={u_max:.3g}, freq={freq:.3g})"
        )
    pref = (1.0 / (TWO_PI * eps)) * math.exp(-gamma * abs(z))
    if return_imag:
        return pref * ref.real, pref * ref.imag
    return pref * ref.real


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
    where ``q_signs`` is the per-step sign matrix (N, n-1).
    """
    interiors = np.atleast_2d(np.asarray(interiors, dtype=float))
    s = velocity_changes(interiors, cfg)
    _, q = _m_and_q(p, interiors, s, cfg.eps, cfg.gamma)
    signs, log_abs = _sign_log_abs(q, cfg.n)
    return signs.astype(int), log_abs, np.sign(q).astype(int)


def path_weight(
    p: BandLimitedPotential,
    path: Path,
    cfg: LatticeConfig,
    form: str = "linear",
) -> WeightEvaluation:
    """Weight ``W = n * prod Q_j`` of a path, accumulated in log magnitude.

    ``form`` selects the linearized ("linear", default: the form the
    positivity theorem certifies) or the full exponential ("exponential")
    step factor.
    """
    s = second_differences(path, cfg)
    z = path.z[1:-1]
    if form == "linear":
        m, q = _m_and_q(p, z, s, cfg.eps, cfg.gamma)
    elif form == "exponential":
        m = step_m(p, z, s, cfg.gamma)
        q = np.array(
            [step_q_exponential(p, zj, sj, cfg.eps, cfg.gamma) for zj, sj in zip(z, s)]
        )
    else:
        raise ValueError(f"unknown step-factor form {form!r}")
    steps = StepQuantities(s=s, M=m, Q=q)
    sign, log_abs = _sign_log_abs(q, cfg.n)
    sign, log_abs = int(sign), float(log_abs)
    if sign == 0:
        w = 0.0
    else:
        w = sign * (math.exp(log_abs) if log_abs < 700 else math.inf)
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
    strict threshold.  Line representation only.
    """
    if not p.lines:
        raise ValueError("witness construction needs the line representation")
    zs = np.linspace(-np.pi / min(ln.q for ln in p.lines), np.pi / min(ln.q for ln in p.lines), 2001)
    best = (0.0, 0.0, -np.inf)
    for ln in p.lines:
        s_star_grid = np.linspace(0.0, ln.q + 10 * gamma, 2001)
        for z0 in zs[:: 40]:
            m_vals = step_m(p, z0, s_star_grid, gamma)
            i = int(np.argmax(m_vals))
            if m_vals[i] > best[2]:
                best = (float(z0), float(s_star_grid[i]), float(m_vals[i]))
    # local refinement around the best grid point
    z0, s0, _ = best
    zg = np.linspace(z0 - 0.1, z0 + 0.1, 401)
    sg = np.linspace(max(s0 - 0.2, 0.0), s0 + 0.2, 401)
    mm = step_m(p, zg[:, None], sg[None, :], gamma)
    i, j = np.unravel_index(np.argmax(mm), mm.shape)
    return float(zg[i]), float(sg[j]), float(mm[i, j])


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
