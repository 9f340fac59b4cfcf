"""Deterministic small-n evaluation of transition probabilities and amplitudes.

Three routes are provided:

* :func:`transition_probability_quadrature` integrates the step-factor
  product over the interior points.  The integration is carried out in the
  velocity-change coordinates (an exact affine change of variables with
  constant Jacobian ``eps^(n-1) / n``) with the Lorentzian factors absorbed
  by the tangent substitution ``s = gamma tan(theta)``; a direct tensor grid
  over positions cannot resolve the oblique Lorentzian ridges at small
  gamma at any sane point count.  The grid is split into rows (its leading
  axes) and columns (the others), and a point's weight, positions and line
  phases are a row share combined with a column share.  Every potential is
  a cosine sum (a tabulated one included), so on a block of rows against
  all columns ``1 - eps M`` is one matrix product of row and column phase
  tables, not a ``sin`` per point.  A block whose row and column shares of
  each ``|z_i|`` add up to at most the window is certified inside it once,
  and skips the per-point boundary-mass check (see :func:`_tensor_sum`).
* :func:`amplitude_discrete` evaluates the discretized complex amplitude by
  nested oscillatory quadrature, each interior point damped by the step
  factor's ``exp(-gamma |x|)``, for cross-checks of ``|A|^2``.
* :func:`probability_product_form` evaluates the squared amplitude written
  as a product of one-dimensional pair-separation integrals, with the
  integrand kept literally identical to the squared amplitude's (same
  damping, half-separation potential difference) so that the two agree
  to quadrature accuracy at any finite n.  Its Bessel coefficients are the
  exponential step factor's, from ``weights._jacobi_anger``.

The result types live in :mod:`pathprob.results`.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce

import numpy as np

from .lattice import LatticeConfig, _bridge_solve
from .potentials import TWO_PI, BandLimitedPotential
from .results import KernelEstimate, TransitionEstimate
from .weights import NonConvergenceError, _jacobi_anger, lorentzian_pair

__all__ = [
    "TransitionEstimate",
    "KernelEstimate",
    "transition_probability_quadrature",
    "amplitude_discrete",
    "probability_product_form",
    "extrapolate_gamma",
]

MAX_QUADRATURE_N = 6
MAX_AMPLITUDE_N = 4
AMPLITUDE_TAIL = 1e-10  # amplitude_discrete's cut-off of exp(-gamma |x|)
AMPLITUDE_DENSITY = 6.0  # its nodes per local period, checked against 1.6 times as many
AMPLITUDE_TOL = 1e-6  # the relative gap it allows between the two
PRODUCT_POINTS = 1200  # Gauss-Legendre nodes per position in probability_product_form


@lru_cache
def _gauss_legendre(n: int):
    """``leggauss(n)``, computed once per ``n`` and shared by every caller,
    so both arrays are read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _gauss_panels(edges, n: int):
    """The ``n``-node Gauss-Legendre rule repeated on each panel between ``edges``."""
    x, w = _gauss_legendre(n)
    lo, hi = edges[:-1], edges[1:]
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()


def _line_tables(p: BandLimitedPotential, cfg: LatticeConfig, line, shift, s):
    """Per-line phase tables from which the tensor sum builds ``1 - eps M``.

    For a line ``a cos(q x + phi)``, ``-eps M(z_i, s_i) = eps a D(s_i, q)
    Im exp(i(q z_i + phi))``.  With ``z_i = line_i + sum_j shift[i, j, k_j]``
    the exponential is ``base[i] * prod_j ph[i, j, k_j]``, and ``D(s_i, q)``
    depends on axis ``i``'s node alone, so ``eps a D`` is folded into
    ``ph[i, i]``.  Returns ``base`` and ``ph`` stacked over the lines.
    """
    diag = np.arange(cfg.n - 1)
    q, a, phi = (v[:, None] for v in p.line_arrays)
    base = np.exp(1j * (q * line + phi))
    ph = 1j * q[:, :, None, None] * shift
    np.exp(ph, out=ph)
    ph[:, diag, diag] *= (cfg.eps * a * lorentzian_pair(s, q, cfg.gamma))[:, None]
    return base, ph


def _tensor_sum(
    p: BandLimitedPotential,
    cfg: LatticeConfig,
    window: float,
    nodes: np.ndarray,
    weights: np.ndarray,
    cap: int = 2**18,
):
    """Integrand sum over the tensor grid ``nodes^d`` of tangent angles.

    Returns ``(sum, out_mass, tot_mass)``: the weighted integrand sum, and the
    unweighted ``|integrand|`` summed over the points with some ``|z_i|``
    beyond ``window`` and over all points.

    A grid point is a row (its nodes on the first ``r`` axes) and a column
    (the others).  ``r >= 1`` is the fewest that leave at most
    ``cap / (2L + 1)`` columns for ``L`` lines, so the column phase tables
    hold at most ``cap`` doubles per interior point (``r = d`` if none does).
    Its weight, ``z_i`` and line phases ``exp(i(q z_i + phi))`` are a row
    share times, plus or times a column share.  So a block of rows against
    all columns takes ``1 - eps M = 1 + sum_lines Im(row * col)`` as one
    matrix product per interior point, instead of a ``sin`` per point.  The
    column shares are outer products over the column axes.  A block's row
    shares are gathered from the per-axis tables by node index, one interior
    point at a time, so the rows take memory in proportion to the block.

    ``out_mass`` is the only output the window moves.  Each block is first
    checked against it: if for every interior point ``i`` the largest
    ``|row share of z_i|`` in the block plus the largest ``|column share|``
    is at most ``window``, no point of the block lies outside, and the block
    skips the per-point maximum of ``|z_i|`` and its mask.  The certificate
    is exact in floating point, since rounding is monotone: ``|fl(r + c)| <=
    fl(|r| + |c|) <= fl(row_max + col_max)``.  A block that fails it takes
    the per-point maximum and adds up the mass of its points outside.
    """
    d = cfg.n - 1
    line, Tinv = _bridge_solve(cfg)
    s = cfg.gamma * np.tan(nodes)
    # shift[i, j, k]: the change of z_i from node k on axis j
    shift = cfg.eps * Tinv[:, :, None] * s[None, None, :]
    base, ph = _line_tables(p, cfg, line, shift, s)
    n_lines = len(p.lines)
    width = 2 * n_lines + 1  # a column's table entries per interior point
    r = next((k for k in range(1, d) if width * nodes.size ** (d - k) <= cap), d)

    # per interior point, a column's share of z_i and the Re rows, Im rows
    # and a row of ones of its lines' phase shares
    w_col = np.ravel(reduce(np.multiply.outer, [weights] * (d - r), [1.0]))
    z_col, col_tab = [], []
    for i in range(d):
        z_col.append(np.ravel(reduce(np.add.outer, shift[i, r:], [line[i]])))
        col = [np.ravel(reduce(np.multiply.outer, t[i, r:], [b[i]])) for b, t in zip(base, ph)]
        col_tab.append(
            np.stack([x.real for x in col] + [x.imag for x in col] + [np.ones_like(w_col)])
        )
    col_max = [float(np.max(np.abs(zc))) for zc in z_col]

    n_rows = nodes.size**r
    step = max(1, cap // w_col.size)
    # the block-sized work reuses these buffers: fresh block-sized
    # temporaries cost page faults and raise the peak memory
    bufs = np.empty((5, min(step, n_rows), w_col.size))
    # a block's row table: rows Im, Re, 1 against columns Re, Im, 1 give
    # 1 + sum_lines Im(row * col); row-major, since matmul takes BLAS only on
    # contiguous blocks
    row_bufs = np.empty((min(step, n_rows), width))
    row_bufs[:, -1] = 1.0

    def gather(op, one, per_axis, idx):
        """``one`` combined by ``op`` with row axis j's table at the nodes ``idx[j]``."""
        return reduce(op, (t[..., k] for t, k in zip(per_axis, idx)), one)

    acc = out_mass = tot_mass = 0.0
    for start in range(0, n_rows, step):
        # the block's node index on each row axis, first axis slowest
        idx = np.unravel_index(np.arange(start, min(start + step, n_rows)), (nodes.size,) * r)
        z, fac, prod, abs_sum, zmax = bufs[:, : idx[0].size]
        row_tab = row_bufs[: idx[0].size]
        z_row = [gather(np.add, 0.0, shift[i], idx) for i in range(d)]
        # the block certificate: no |z_i| in the block exceeds the window
        inside = all(
            float(np.max(np.abs(zr))) + cm <= window for zr, cm in zip(z_row, col_max)
        )
        if not inside:
            zmax.fill(0.0)
        for i in range(d):
            row_ph = gather(np.multiply, 1.0, ph[:, i].swapaxes(0, 1), idx)
            row_tab[:, :n_lines] = row_ph.imag.T
            row_tab[:, n_lines:-1] = row_ph.real.T
            np.matmul(row_tab, col_tab[i], out=prod if i == 0 else fac)
            # |z_0| goes straight into abs_sum, the later |z_i| through z
            term = z if i else abs_sum
            np.add(z_row[i][:, None], z_col[i], out=term)
            np.abs(term, out=term)
            if i:
                prod *= fac
                abs_sum += z
            if not inside:
                np.maximum(zmax, term, out=zmax)
        np.multiply(abs_sum, -cfg.gamma, out=abs_sum)
        vals = np.exp(abs_sum, out=abs_sum)
        vals *= prod
        acc += float(gather(np.multiply, 1.0, [weights] * r, idx) @ (vals @ w_col))
        mass = np.abs(vals, out=z)
        tot_mass += float(np.sum(mass))
        if not inside:
            out_mass += float(np.sum(mass[zmax > window]))
    return acc, out_mass, tot_mass


def transition_probability_quadrature(
    p: BandLimitedPotential,
    cfg: LatticeConfig,
    window: float | None = None,
    points_per_dim: int = 24,
    doublings: int = 2,
) -> TransitionEstimate:
    """Tensor-grid integral of the path-weight product over interior points.

    ``window`` is the half-width in position within which the integrand mass
    must live, positive and finite; the run aborts if more than 1e-4 of the
    sampled mass sits outside.  The value is refined through ``doublings``
    point doublings; the successive changes are reported, and the size of
    the last is the error.
    """
    n = cfg.n
    if n > MAX_QUADRATURE_N:
        raise ValueError(f"tensor-grid quadrature is limited to n <= {MAX_QUADRATURE_N}")
    d = n - 1
    eps = cfg.eps
    gamma = cfg.gamma
    if window is None:
        window = max(abs(cfg.z_a), abs(cfg.z_b)) + 14.0 / gamma
    if not 0.0 < window < math.inf:
        raise ValueError(f"window must be positive and finite, got {window!r}")

    prefactor = 1.0 / (TWO_PI * cfg.duration * np.pi ** d)

    if doublings < 1:
        raise ValueError("need doublings >= 1: the last refinement is the error")
    if points_per_dim ** d * 2 ** (doublings * d) > 3e8:
        raise ValueError("tensor grid too large; reduce points_per_dim or doublings")
    results = []
    ppd = points_per_dim
    for _ in range(doublings + 1):
        x, w = _gauss_legendre(ppd)
        nodes = 0.5 * np.pi * x
        wts = 0.5 * np.pi * w
        acc, out_mass, tot_mass = _tensor_sum(p, cfg, window, nodes, wts)
        results.append(prefactor * acc)
        ppd *= 2
    if tot_mass > 0 and out_mass > 1e-4 * tot_mass:
        raise NonConvergenceError(
            f"window half-width {window:.3g} too small: boundary mass fraction "
            f"{out_mass / tot_mass:.3g} exceeds 1e-4"
        )
    deltas = tuple(results[i + 1] - results[i] for i in range(len(results) - 1))
    return TransitionEstimate(
        value=results[-1],
        std_error=abs(deltas[-1]),
        method="quadrature",
        n=n,
        eps=eps,
        gamma=gamma,
        refinement=deltas,
    )


# -- discrete amplitudes ----------------------------------------------

def _oscillatory_nodes(u_max: float, eps: float, extra_freq: float, density: float):
    """Panelized Gauss-Legendre nodes over [-u_max, u_max].

    Panel widths shrink where the kernel phase ``(x - x')^2 / 2 eps``
    oscillates fast; ``density`` nodes per local period with 12-node panels.
    """
    edges = [0.0]
    while edges[-1] < u_max:
        x = edges[-1]
        freq = (x + u_max) / eps + extra_freq  # worst-case local frequency
        h = min(TWO_PI / freq * 12.0 / density, u_max / 8.0)
        edges.append(min(x + h, u_max))
    xs, ws = _gauss_panels(np.asarray(edges), 12)
    return np.concatenate([-xs[::-1], xs]), np.concatenate([ws[::-1], ws])


def _amplitude_value(p, cfg, density):
    n = cfg.n
    eps = cfg.eps
    gamma = cfg.gamma
    u_max = -math.log(AMPLITUDE_TAIL) / gamma
    extra = sum(abs(ln.a) * ln.q for ln in p.lines) * eps + gamma
    x, w = _oscillatory_nodes(u_max, eps, extra, density)
    v = p.evaluate(x)
    layer = np.exp(-gamma * np.abs(x)) * np.exp(-1j * eps * v)
    psi = np.exp(0.5j * (x - cfg.z_a) ** 2 / eps) * layer
    for _ in range(n - 2):
        new = np.empty_like(psi)
        chunk = max(1, int(4e6 // x.size))
        for st in range(0, x.size, chunk):
            sl = slice(st, st + chunk)
            kern = np.exp(0.5j * (x[sl, None] - x[None, :]) ** 2 / eps)
            new[sl] = kern @ (w * psi)
        psi = new * layer
    amp = np.sum(w * psi * np.exp(0.5j * (cfg.z_b - x) ** 2 / eps))
    pref = (TWO_PI * eps) ** (-n / 2.0) * np.exp(-1j * np.pi * n / 4.0)
    return complex(pref * amp)


def amplitude_discrete(p: BandLimitedPotential, cfg: LatticeConfig) -> KernelEstimate:
    """Brute-force discretized transition amplitude at small n.

    Nested oscillatory quadrature over the n-1 intermediate positions, each
    damped by the step factor's ``exp(-gamma |x|)``, the damping for which
    ``|A|^2`` is :func:`probability_product_form`'s integral.
    The result is verified against a refined node set; failing the
    ``AMPLITUDE_TOL`` comparison raises with panel diagnostics.
    """
    if cfg.n > MAX_AMPLITUDE_N:
        raise ValueError(f"discrete amplitudes are limited to n <= {MAX_AMPLITUDE_N}")
    density = AMPLITUDE_DENSITY
    a0 = _amplitude_value(p, cfg, density)
    a1 = _amplitude_value(p, cfg, density * 1.6)
    if abs(a1 - a0) > AMPLITUDE_TOL * max(abs(a1), 1e-300):
        raise NonConvergenceError(
            f"oscillatory quadrature not converged: |delta|={abs(a1 - a0):.3g} at node "
            f"density {density} vs {density * 1.6} per period (rel tol {AMPLITUDE_TOL})"
        )
    return KernelEstimate(amplitude=a1)


# -- squared amplitude in product form --------------------------------

def _pair_integral_line(z, s, a, q, phi, eps, gamma):
    """Closed-form pair-separation integral for a single-line potential.

    ``int du exp(-2 gamma max(|z|, |u|/2)) exp(-ius) exp(i eps [V(z - u/2)
    - V(z + u/2)])`` via the Bessel expansion of the oscillating phase in
    ``beta = 2 a eps sin(qz + phi)``: each node's coefficients ``J_m(beta)``
    come from ``weights._jacobi_anger``, whose dropped orders add at most 2e-17,
    zero-padded to the longest.  Vectorized over arrays z, s that broadcast.
    """
    beta = 2.0 * a * eps * np.sin(q * z + phi)
    series = [_jacobi_anger(b, 1e-17)[0] for b in beta.ravel().tolist()]
    m_terms = max(c.size for c in series) // 2
    j = np.zeros((len(series), 2 * m_terms + 1))
    for row, c in zip(j, series):  # J_-M .. J_M centred on order 0
        row[m_terms - c.size // 2 :][: c.size] = c
    j = j.reshape(beta.shape + (-1,))
    out = np.zeros_like(np.asarray(z, dtype=float))
    az2 = 2.0 * np.abs(z)
    decay = np.exp(-gamma * az2)
    for m in range(-m_terms, m_terms + 1):
        omega = s - 0.5 * m * q
        denom = gamma * gamma + omega * omega
        # stable combination of the flat-core and exponential-tail pieces
        g_val = 2.0 * decay * (
            gamma**2 * az2 * np.sinc(az2 * omega / np.pi) / denom
            + gamma * np.cos(az2 * omega) / denom
        )
        out = out + j[..., m + m_terms] * g_val
    return out


def probability_product_form(
    p: BandLimitedPotential,
    cfg: LatticeConfig,
) -> float:
    """Squared amplitude as a product of per-step pair-separation integrals.

    Integrand-identical to ``|amplitude_discrete(p, cfg)|^2`` after
    the exact linear change from the two path copies to mean positions and
    pair separations: same damping ``exp(-gamma |x|)`` (which becomes
    ``exp(-2 gamma max(|z|, |u|/2))``), potential difference at half the
    pair separation.  ``PRODUCT_POINTS`` Gauss-Legendre nodes per position.
    Single-line potentials only (the separation integral is closed form
    there); n <= 3.
    """
    if len(p.lines) > 1:
        raise ValueError("product form needs a single-line or zero potential")
    if cfg.n > 3:
        raise ValueError("product form is implemented for n <= 3")
    n = cfg.n
    d = n - 1
    eps = cfg.eps
    gamma = cfg.gamma
    if p.lines:
        a, q, phi = p.lines[0].a, p.lines[0].q, p.lines[0].phi
    else:
        a, q, phi = 0.0, 1.0, 0.0
    z_window = max(abs(cfg.z_a), abs(cfg.z_b)) + math.log(1e14) / (2.0 * gamma)

    x, w = _gauss_legendre(PRODUCT_POINTS)
    nodes = z_window * x
    wts = z_window * w
    pref = (TWO_PI * eps) ** (-n)

    # z[j] for j = 1..d on axis j - 1 of the d node axes, the endpoints pinned
    z = [cfg.z_a] + [nodes.reshape((-1,) + (1,) * (d - j)) for j in range(1, n)] + [cfg.z_b]
    stencil = [(z[j + 1] - 2.0 * z[j] + z[j - 1]) / eps for j in range(1, n)]
    vals = reduce(
        np.multiply,
        [_pair_integral_line(z[j], s, a, q, phi, eps, gamma) for j, s in enumerate(stencil, 1)],
    )
    for _ in range(d):
        vals = wts @ vals
    return float(pref * vals)


def extrapolate_gamma(gammas, values):
    """Extrapolate ``value(gamma)`` to gamma = 0; returns (P0, uncertainty).

    ``P0`` comes from the default linear fit ``P0 + c * gamma``.  No
    convergence rate in gamma is available a priori, and empirically the
    free-particle value approaches its limit like ``gamma * log(gamma)``, for
    which the linear fit's own residual undercovers the extrapolation error
    by several times.  The reported uncertainty is therefore the larger of
    the fit residual and the spread of the intercepts obtained from the
    alternative quadratic and ``gamma log gamma`` models, fitted from three
    distinct gammas on; fewer than two distinct gammas raise ``ValueError``.
    """
    gammas = np.asarray(gammas, dtype=float)
    values = np.asarray(values, dtype=float)
    distinct = np.unique(gammas).size
    if distinct < 2:
        raise ValueError("need at least two distinct gamma values to extrapolate")
    coeffs = np.polyfit(gammas, values, 1)
    p_lin = float(coeffs[1])
    residual = float(np.max(np.abs(np.polyval(coeffs, gammas) - values)))
    spread = residual
    if distinct >= 3:
        p_quad = float(np.polyfit(gammas, values, 2)[-1])
        design = np.column_stack([np.ones_like(gammas), gammas, gammas * np.log(gammas)])
        coef, *_ = np.linalg.lstsq(design, values, rcond=None)
        p_log = float(coef[0])
        spread = max(residual, abs(p_lin - p_quad), abs(p_lin - p_log))
    return p_lin, spread
