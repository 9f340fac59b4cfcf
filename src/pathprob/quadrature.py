"""Deterministic small-n evaluation of transition probabilities and amplitudes.

Three routes are provided:

* :func:`transition_probability_quadrature` integrates the step-factor
  product over the interior points.  The integration is carried out in the
  velocity-change coordinates (an exact affine change of variables with
  constant Jacobian ``eps^(n-1) / n``) with the Lorentzian factors absorbed
  by the tangent substitution ``s = gamma tan(theta)``; a direct tensor grid
  over positions cannot resolve the oblique Lorentzian ridges at small
  gamma at any sane point count.
* :func:`amplitude_discrete` evaluates the discretized complex amplitude by
  nested oscillatory quadrature, for cross-checks of ``|A|^2``.
* :func:`probability_product_form` evaluates the squared amplitude written
  as a product of one-dimensional pair-separation integrals, with the
  integrand kept literally identical to the squared amplitude's (same
  regularizer, half-separation potential difference) so that the two agree
  to quadrature accuracy at any finite n.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields

import numpy as np
from scipy.special import jv

from .lattice import LatticeConfig, interior_from_velocity_changes, second_difference_matrix
from .potentials import TWO_PI, BandLimitedPotential
from .weights import NonConvergenceError, _gauss_panels, lorentzian_pair, step_m

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
AMPLITUDE_TAIL = 1e-10  # amplitude_discrete's regularizer cut-off
AMPLITUDE_DENSITY = 6.0  # its nodes per local period, checked against 1.6 times as many
AMPLITUDE_TOL = 1e-6  # the relative gap it allows between the two
PRODUCT_POINTS = 1200  # Gauss-Legendre nodes per position in probability_product_form


def _jsonable(obj):
    """Make a structure JSON-safe: inf/nan become strings, tuples lists."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
        return obj
    if hasattr(obj, "item"):
        return _jsonable(obj.item())
    return obj


@dataclass(frozen=True)
class _Result:
    """Base of the result types: their one JSON-ready form."""

    def to_dict(self) -> dict:
        """The fields in order, without ``None`` and ``()``; a field annotated
        ``complex`` becomes ``<name>_re`` and ``<name>_im`` whatever its value's type."""
        d = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if v is None or (isinstance(v, tuple) and not v):
                continue
            if f.type in ("complex", complex):
                d[f"{f.name}_re"], d[f"{f.name}_im"] = v.real, v.imag
            else:
                d[f.name] = v
        return _jsonable(d)


@dataclass(frozen=True)
class TransitionEstimate(_Result):
    """Relative transition probability (per squared length) with uncertainty."""

    value: float
    std_error: float
    method: str
    n: int
    eps: float
    gamma: float
    refinement: tuple = field(default=())
    ess: float | None = None
    negative_mass_fraction: float | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.std_error < 0:
            raise ValueError("std_error must be >= 0")


@dataclass(frozen=True)
class KernelEstimate(_Result):
    """Complex transition amplitude and its squared modulus."""

    amplitude: complex
    extrapolation_residual: float | None = None

    @property
    def modulus_squared(self) -> float:
        return float(abs(self.amplitude) ** 2)


def _line_tables(p: BandLimitedPotential, cfg: LatticeConfig, line, shift, s):
    """Per-line phase tables from which the tensor sum builds ``1 - eps M``.

    For a line ``a cos(q x + phi)``, ``-eps M(z_i, s_i) = eps a D(s_i, q)
    Im exp(i(q z_i + phi))``.  With ``z_i = line_i + sum_j shift[i, j, k_j]``
    the exponential is ``base[i] * prod_j ph[i, j, k_j]``, and ``D(s_i, q)``
    depends on axis ``i``'s node alone, so ``eps a D`` is folded into
    ``ph[i, i]``.  Returns one ``(base, ph)`` pair per line.
    """
    diag = np.arange(cfg.n - 1)
    tables = []
    for ln in p.lines:
        base = np.exp(1j * (ln.q * line + ln.phi))
        ph = np.exp(1j * ln.q * shift)
        ph[diag, diag] *= cfg.eps * ln.a * lorentzian_pair(s, ln.q, cfg.gamma)
        tables.append((base, ph))
    return tables


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

    The grid is evaluated in blocks of at most ``cap`` points.  The leading
    axes are enumerated one node at a time, as few as the cap needs; the next
    axis is taken in slices and the trailing axes whole, so every quantity
    that depends on one axis's node (``s = gamma tan theta``, its weight, the
    Lorentzian pairs) is evaluated on the 1-D node table and broadcast, and
    what depends on the trailing axes alone is built once for all blocks.

    For line (and zero) potentials, ``1 - eps M`` comes from the phase tables
    of :func:`_line_tables` instead of ``step_m``: on a block it is
    ``1 + sum_lines Im(tab * last)``, with ``tab`` the product over the
    trailing axes and ``last`` over the others, which is one matrix product
    of a per-row and a per-column table.  Evaluating ``sin`` at every point
    was most of the quadrature's time.  ``step_m`` stays the definition of
    ``M`` that this form is tested against, and grid potentials go through
    it.
    """
    d = cfg.n - 1
    eps, gamma = cfg.eps, cfg.gamma
    Tinv = np.linalg.inv(second_difference_matrix(cfg.n))
    line = interior_from_velocity_changes(np.zeros(d), cfg)  # the straight path
    m = nodes.size
    s = gamma * np.tan(nodes)
    # shift[i, j, k]: the change of z_i from node k on axis j
    shift = eps * Tinv[:, :, None] * s[None, None, :]
    tables = _line_tables(p, cfg, line, shift, s)

    lead = 0
    while m ** (d - 1 - lead) > cap:
        lead += 1
    step = max(1, cap // m ** (d - 1 - lead))
    trail = (m,) * (d - 1 - lead)

    def on_axis(table, j):
        """A 1-D table along block axis ``j`` (``j >= lead``)."""
        return table.reshape((-1,) + (1,) * (d - 1 - j))

    # per interior point, the sums and products over the trailing axes, the
    # smallest tables first: z_i, and for the table route the rows Re tab,
    # Im tab per line and a row of ones
    z_trail, ph_trail = [], []
    for i in range(d):
        zi, tabs = line[i], [base[i] for base, _ in tables]
        for j in range(d - 1, lead, -1):
            zi = zi + on_axis(shift[i, j], j)
            tabs = [tab * on_axis(ph[i, j], j) for tab, (_, ph) in zip(tabs, tables)]
        z_trail.append(zi)
        parts = [r for tab in tabs for r in (tab.real, tab.imag)] + [1.0]
        ph_trail.append(np.stack([np.broadcast_to(r, trail).ravel() for r in parts]))

    # the block-sized work reuses these buffers: fresh block-sized
    # temporaries cost page faults and raise the peak memory
    bufs = np.empty((5, min(step, m)) + trail)
    acc = out_mass = tot_mass = 0.0
    for idx in itertools.product(range(m), repeat=lead):
        w_lead = float(np.prod(weights[list(idx)]))
        for start in range(0, m, step):
            part = slice(start, start + step)
            rows = min(step, m - start)
            z, fac, prod, abs_sum, zmax = bufs[:, :rows]
            abs_sum.fill(0.0)
            zmax.fill(0.0)
            for i in range(d):
                z_lead = sum(shift[i, j, k] for j, k in enumerate(idx))
                np.add(z_trail[i], z_lead + on_axis(shift[i, lead, part], lead), out=z)
                out = prod if i == 0 else fac
                if p.grid is not None:
                    if i < lead:
                        si = s[idx[i]]
                    else:
                        si = on_axis(s[part] if i == lead else s, i)
                    np.subtract(1.0, eps * step_m(p, z, si, gamma), out=out)
                else:
                    # the columns Im last, Re last per line and a column of
                    # ones, against ph_trail's rows
                    cols = []
                    for _, ph in tables:
                        last = math.prod(
                            (ph[i, j, k] for j, k in enumerate(idx)), start=ph[i, lead, part]
                        )
                        cols += [last.imag, last.real]
                    cols.append(np.ones(rows))
                    np.matmul(np.stack(cols, axis=1), ph_trail[i], out=out.reshape(rows, -1))
                if i:
                    prod *= fac
                np.abs(z, out=z)
                abs_sum += z
                np.maximum(zmax, z, out=zmax)
            np.multiply(abs_sum, -gamma, out=abs_sum)
            vals = np.exp(abs_sum, out=abs_sum)
            vals *= prod
            # contract the weights axis by axis, last axis first
            wsum = vals.ravel()
            for _ in range(d - 1 - lead):
                wsum = wsum.reshape(-1, m) @ weights
            acc += w_lead * float(wsum @ weights[part])
            mass = np.abs(vals, out=z)
            tot_mass += float(np.sum(mass))
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
    must live; the run aborts if more than 1e-4 of the sampled mass sits
    outside.  The value is refined through ``doublings`` point doublings; the
    successive changes are reported, and the size of the last is the error.
    """
    n = cfg.n
    if n > MAX_QUADRATURE_N:
        raise ValueError(f"tensor-grid quadrature is limited to n <= {MAX_QUADRATURE_N}")
    d = n - 1
    eps = cfg.eps
    gamma = cfg.gamma
    if window is None:
        window = max(abs(cfg.z_a), abs(cfg.z_b)) + 14.0 / gamma

    prefactor = 1.0 / (TWO_PI * cfg.duration * np.pi ** d)

    if doublings < 1:
        raise ValueError("need doublings >= 1: the last refinement is the error")
    if points_per_dim ** d * 2 ** (doublings * d) > 3e8:
        raise ValueError("tensor grid too large; reduce points_per_dim or doublings")
    results = []
    ppd = points_per_dim
    for _ in range(doublings + 1):
        x, w = np.polynomial.legendre.leggauss(ppd)
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
    gl_x, gl_w = np.polynomial.legendre.leggauss(12)
    edges = [0.0]
    while edges[-1] < u_max:
        x = edges[-1]
        freq = (x + u_max) / eps + extra_freq  # worst-case local frequency
        h = min(TWO_PI / freq * 12.0 / density, u_max / 8.0)
        edges.append(min(x + h, u_max))
    xs, ws = _gauss_panels(np.asarray(edges), gl_x, gl_w)
    return np.concatenate([-xs[::-1], xs]), np.concatenate([ws[::-1], ws])


def _amplitude_value(p, cfg, regularizer, density):
    n = cfg.n
    eps = cfg.eps
    gamma = cfg.gamma
    if regularizer == "laplace":
        u_max = -math.log(AMPLITUDE_TAIL) / gamma

        def reg(x):
            return np.exp(-gamma * np.abs(x))
    elif regularizer == "gaussian":
        u_max = math.sqrt(-math.log(AMPLITUDE_TAIL) / gamma)

        def reg(x):
            return np.exp(-gamma * x * x)
    else:
        raise ValueError(f"unknown regularizer {regularizer!r}")
    extra = sum(abs(ln.a) * ln.q for ln in p.lines) * eps + gamma if p.lines else gamma
    x, w = _oscillatory_nodes(u_max, eps, extra, density)
    v = p.evaluate(x)
    layer = reg(x) * np.exp(-1j * eps * v)
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


def amplitude_discrete(
    p: BandLimitedPotential,
    cfg: LatticeConfig,
    regularizer: str = "gaussian",
) -> KernelEstimate:
    """Brute-force discretized transition amplitude at small n.

    Nested oscillatory quadrature over the n-1 intermediate positions with a
    per-interior-point regularizer ("gaussian" or "laplace").  The result is
    verified against a refined node set; failing the ``AMPLITUDE_TOL``
    comparison raises with panel diagnostics.
    """
    if cfg.n > MAX_AMPLITUDE_N:
        raise ValueError(f"discrete amplitudes are limited to n <= {MAX_AMPLITUDE_N}")
    density = AMPLITUDE_DENSITY
    a0 = _amplitude_value(p, cfg, regularizer, density)
    a1 = _amplitude_value(p, cfg, regularizer, density * 1.6)
    if abs(a1 - a0) > AMPLITUDE_TOL * max(abs(a1), 1e-300):
        raise NonConvergenceError(
            f"oscillatory quadrature not converged: |delta|={abs(a1 - a0):.3g} at node "
            f"density {density} vs {density * 1.6} per period (rel tol {AMPLITUDE_TOL})"
        )
    return KernelEstimate(amplitude=a1)


# -- squared amplitude in product form --------------------------------

def _bessel_terms(beta_max: float) -> int:
    """Order ``M`` past which ``|J_m(beta)| <= 1e-17`` for all ``|beta| <= beta_max``.

    For ``m > beta_max``, ``|J_m(beta)|`` grows with ``|beta|`` up to
    ``beta_max`` and falls off faster than geometrically in ``m``, so the
    omitted orders ``|m| > M`` sum to about ``2 |J_{M+1}(beta_max)|``.  At
    least 12 orders are kept.
    """
    m = max(12, math.ceil(beta_max))
    while abs(jv(m + 1, beta_max)) > 1e-17:
        m += 1
    return m


def _pair_integral_line(z, s, a, q, phi, eps, gamma):
    """Closed-form pair-separation integral for a single-line potential.

    ``int du exp(-2 gamma max(|z|, |u|/2)) exp(-ius) exp(i eps [V(z - u/2)
    - V(z + u/2)])`` via the Bessel expansion of the oscillating phase,
    summed over the orders that ``beta = 2 a eps sin(qz + phi)`` needs.
    Vectorized over matching-shape arrays z, s.
    """
    beta = 2.0 * a * eps * np.sin(q * z + phi)
    m_terms = _bessel_terms(float(np.max(np.abs(beta), initial=0.0)))
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
        out = out + jv(m, beta) * g_val
    return out


def probability_product_form(
    p: BandLimitedPotential,
    cfg: LatticeConfig,
) -> float:
    """Squared amplitude as a product of per-step pair-separation integrals.

    Integrand-identical to ``|amplitude_discrete(..., "laplace")|^2`` after
    the exact linear change from the two path copies to mean positions and
    pair separations: same Laplace regularizer (which becomes
    ``exp(-2 gamma max(|z|, |u|/2))``), potential difference at half the
    pair separation.  ``PRODUCT_POINTS`` Gauss-Legendre nodes per position.
    Single-line potentials only (the separation integral is closed form
    there); n <= 3.
    """
    if len(p.lines) > 1 or p.grid is not None:
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

    x, w = np.polynomial.legendre.leggauss(PRODUCT_POINTS)
    nodes = z_window * x
    wts = z_window * w
    pref = (TWO_PI * eps) ** (-n)

    if d == 1:
        s1 = (cfg.z_b - 2.0 * nodes + cfg.z_a) / eps
        vals = _pair_integral_line(nodes, s1, a, q, phi, eps, gamma)
        return float(pref * np.sum(wts * vals))

    z1 = nodes[:, None]
    z2 = nodes[None, :]
    s1 = (z2 - 2.0 * z1 + cfg.z_a) / eps
    s2 = (cfg.z_b - 2.0 * z2 + z1) / eps
    vals = _pair_integral_line(z1, s1, a, q, phi, eps, gamma) * _pair_integral_line(
        z2, s2, a, q, phi, eps, gamma
    )
    return float(pref * (wts @ vals @ wts))


def extrapolate_gamma(gammas, values):
    """Extrapolate ``value(gamma)`` to gamma = 0; returns (P0, uncertainty).

    ``P0`` comes from the default linear fit ``P0 + c * gamma``.  No
    convergence rate in gamma is available a priori, and empirically the
    free-particle value approaches its limit like ``gamma * log(gamma)``, for
    which the linear fit's own residual undercovers the extrapolation error
    by several times.  The reported uncertainty is therefore the larger of
    the fit residual and the spread of the intercepts obtained from the
    alternative quadratic and ``gamma log gamma`` models.
    """
    gammas = np.asarray(gammas, dtype=float)
    values = np.asarray(values, dtype=float)
    if gammas.size < 2:
        raise ValueError("need at least two gamma values to extrapolate")
    coeffs = np.polyfit(gammas, values, 1)
    p_lin = float(coeffs[1])
    residual = float(np.max(np.abs(np.polyval(coeffs, gammas) - values)))
    spread = residual
    if gammas.size >= 3:
        p_quad = float(np.polyfit(gammas, values, 2)[-1])
        design = np.column_stack([np.ones_like(gammas), gammas, gammas * np.log(gammas)])
        coef, *_ = np.linalg.lstsq(design, values, rcond=None)
        p_log = float(coef[0])
        spread = max(residual, abs(p_lin - p_quad), abs(p_lin - p_log))
    return p_lin, spread
