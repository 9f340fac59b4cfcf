import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize_scalar
from scipy.special import j0

from pathprob import quadrature, weights
from pathprob.lattice import LatticeConfig, interior_from_velocity_changes, make_path
from pathprob.montecarlo import SamplerConfig, estimate_transition_mc, sample_bridge_paths
from pathprob.potentials import (
    GAMMA_MAX,
    K_MAX,
    Q_MAX,
    Q_MIN,
    QG_MAX,
    S_MAX,
    Z_MAX,
    BandLimitedPotential,
    DomainError,
    band_limit,
    potential_from_dict,
)
from pathprob.quadrature import transition_probability_quadrature
from pathprob.results import WeightResult
from pathprob.weights import (
    _sup_lorentzian_pair,
    batch_log_weights,
    lorentzian_pair,
    m_bound,
    m_sup_certified,
    negative_step_witness,
    path_weight,
    positivity_threshold,
    positivity_witness,
    step_m,
    step_q_exponential,
    step_q_linear,
)

TWO_PI = 2.0 * math.pi

COSINE = BandLimitedPotential.single_line(a=1.0, q=1.0, phi=0.0)


def straight_line(cfg):
    """The path with every velocity change zero."""
    return make_path(cfg, interior_from_velocity_changes(np.zeros(cfg.n - 1), cfg))


def mollified_m(p, z, s, gamma, width=1e-3):
    """Independent evaluation of M from its defining band integral.

    The line spectrum's delta pairs are replaced by narrow Gaussians and the
    integral over the positive band is done by adaptive quadrature.  This
    shares no code path with the closed-form line reduction.
    """

    def vt(qv):
        out = 0.0 + 0.0j
        for ln in p.lines:
            g_plus = math.exp(-0.5 * ((qv - ln.q) / width) ** 2) / (
                math.sqrt(TWO_PI) * width
            )
            out += math.pi * ln.a * np.exp(-1j * ln.phi) * g_plus
        return out

    def integrand(qv):
        return np.imag(vt(qv) * np.exp(-1j * z * qv)) * lorentzian_pair(s, qv, gamma)

    hi = max(ln.q for ln in p.lines) + 8 * width
    val, _ = quad(integrand, 0.0, hi, epsabs=1e-10, epsrel=1e-10, limit=400)
    return val / math.pi


def bracketed_sup(q, gamma):
    """``sup_s D(s, q)`` by bracketed 1D maximization: a dense scan on
    ``[0, q + 10 gamma]``, then ``minimize_scalar`` between the scan points
    beside its best one.  The reference for the closed-form maximizer."""
    grid = np.linspace(0.0, q + 10.0 * gamma, 4001)
    vals = lorentzian_pair(grid, q, gamma)
    i = int(np.argmax(vals))
    res = minimize_scalar(
        lambda sv: -lorentzian_pair(sv, q, gamma),
        bounds=(grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]),
        method="bounded",
        options={"xatol": 1e-12},
    )
    return float(max(-res.fun, vals[i]))


REFERENCE_TAIL = 1e-12  # exponential_reference's cut-off of the regularizer exp(-gamma |u|)


def exponential_reference(p, z, s, eps, gamma):
    """The u-integral of the exponential step factor by brute-force quadrature:
    the complex sum over mirrored nodes on [-u_max, u_max], ``u_max`` where
    ``exp(-gamma u)`` falls to ``REFERENCE_TAIL``, with ``V`` evaluated at ``z -
    u`` and ``z + u`` and 10 Gauss-Legendre nodes per period of ``|s| + max(R,
    1) + gamma`` plus the phase's own rate ``2 eps sum |a_k| q_k``.  The cut
    leaves it about 1e-10 from the integral."""
    u_max = -math.log(REFERENCE_TAIL) / gamma
    q, a, _ = p.line_arrays
    rate = abs(s) + max(p.R, 1.0) + gamma + 2.0 * eps * float(np.abs(a) @ q)
    edges = np.append(np.arange(0.0, u_max, TWO_PI / rate), u_max)
    u_pos, w_pos = quadrature._gauss_panels(edges, 10)
    u = np.concatenate([-u_pos, u_pos])
    w = np.concatenate([w_pos, w_pos])
    dv = p.evaluate(z - u) - p.evaluate(z + u)
    return complex(np.sum(w * np.exp(-gamma * np.abs(u) - 1j * u * s + 1j * eps * dv)))


X_GRID = np.linspace(-20.0, 20.0, 201)
EXPONENTIAL_POTENTIALS = {
    "weak": BandLimitedPotential.single_line(a=0.1, q=1.0),
    "cosine": COSINE,
    "strong": BandLimitedPotential.single_line(a=2.0, q=1.0, phi=0.3),
    "two_lines": BandLimitedPotential.from_lines([(1.0, 0.8, 0.4), (0.7, -0.3, 1.1)]),
    "pair": BandLimitedPotential.from_lines([(1.0, 0.5, 0.2), (math.sqrt(2.0), -0.4, 1.1)]),
    "tabulated": band_limit(
        X_GRID, 0.04 * np.cos(0.6 * X_GRID + 0.3) + 0.03 * np.cos(X_GRID), R=1.5
    )[0],
    "band64": band_limit(
        X_GRID, 0.04 * np.cos(0.6 * X_GRID + 0.3) + 0.03 * np.cos(1.1 * X_GRID + 1.0), R=1.5
    )[0],
}
# (potential, z, s, eps, gamma, g): g of the exponential step factor, its
# Jacobi-Anger series summed in 50-digit arithmetic (mpmath) and rounded to a
# double.  Away from the far step, a 25-digit quadrature of the u-integral
# agrees to 1e-22 (to 18 digits for band64).  The first three are the far path's
# steps (z = 1600, s from the path), where g ~ 2 gamma / s^2.
EXPONENTIAL_PINS = [
    ("weak", 1600.0, -6400.0, 0.25, 0.5, 2.441436799687121e-08),
    ("weak", 1600.0, 0.0, 0.25, 0.5, 3.9984896523157007),
    ("weak", 1600.0, -6399.200000000001, 0.25, 0.5, 2.4420472771667848e-08),
    ("cosine", 0.3, 0.7, 0.01, 0.1, 0.4057037123453158),
    ("cosine", -0.4, 0.9, 0.01, 0.1, 0.20517377078741877),
    ("cosine", 1.0, -0.5, 0.01, 0.1, 0.7634525791925632),
    ("two_lines", 0.3, 0.7, 0.01, 0.1, 0.3522836313494335),
    ("two_lines", -0.4, 0.9, 0.01, 0.1, 0.2353001728526597),
    ("two_lines", 1.0, -0.5, 0.01, 0.1, 0.775192829351846),
    ("tabulated", 0.3, 0.7, 0.1, 0.5, 1.3598228894437001),
    ("tabulated", -0.4, 0.9, 0.1, 0.5, 0.9397708739312819),
    ("tabulated", 1.0, -0.5, 0.1, 0.5, 1.985984206719776),
    ("strong", 0.4, 1.3, 0.25, 0.1, 0.7268817441536918),
    ("strong", -1.1, -2.5, 0.25, 0.5, 0.38339860503137846),
    ("pair", 0.6, 1.2, 0.25, 0.1, 0.164020571841924),
    ("pair", -2.0, -0.4, 0.25, 0.5, 2.536508140195283),
    ("band64", 0.7, 0.3, 0.25, 0.5, 2.9588207215219904),
    ("band64", -2.5, 1.1, 0.25, 0.1, 0.03136283514453419),
]
FAR_STEP_G = {s: g for _, _, s, _, _, g in EXPONENTIAL_PINS[:3]}


@st.composite
def hermitian_grids(draw):
    """A potential's JSON ``grid`` form: 3-41 nodes on [-qmax, qmax] with
    Hermitian values, zero at q = 0."""
    half = draw(st.integers(1, 20))
    qmax = draw(st.floats(0.2, 3.0))
    parts = st.floats(-1.0, 1.0, allow_subnormal=False)
    pos = [complex(draw(parts), draw(parts)) for _ in range(half)]
    vt = np.array([c.conjugate() for c in pos[::-1]] + [0.0] + pos)
    return {"grid": {"qmax": qmax, "values": [[c.real, c.imag] for c in vt]}}


@st.composite
def grid_spectra(draw):
    """1-3 cosines below R = 1.5, sampled on a window of half-width 10-40 and
    put through ``band_limit``."""
    lines = draw(
        st.lists(
            st.tuples(st.floats(0.01, 0.2), st.floats(0.1, 1.4), st.floats(0.0, TWO_PI)),
            min_size=1,
            max_size=3,
        )
    )
    half_width = draw(st.sampled_from([10.0, 20.0, 40.0]))
    x = np.linspace(-half_width, half_width, int(10 * half_width) + 1)
    v = sum(a * np.cos(q * x + phi) for a, q, phi in lines)
    return band_limit(x, v, R=1.5)[0]


class TestGaussLegendre:
    @pytest.mark.parametrize("n", [3, 10, 12, 1200])
    def test_equals_leggauss(self, n):
        x, w = quadrature._gauss_legendre(n)
        ref_x, ref_w = np.polynomial.legendre.leggauss(n)
        assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)

    def test_shared_rule_is_read_only(self):
        # every caller gets the same two arrays, so none may write into them
        x, w = quadrature._gauss_legendre(12)
        for arr in (x, w):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0
        again = quadrature._gauss_legendre(12)
        assert again[0] is x and again[1] is w


class TestStepM:
    def test_zero_potential(self):
        p = BandLimitedPotential.zero()
        assert step_m(p, 0.3, 0.7, 0.1) == 0.0

    def test_s_zero_vanishes(self):
        assert step_m(COSINE, 1.234, 0.0, 0.1) == pytest.approx(0.0, abs=1e-14)

    def test_worked_cosine_value(self):
        # D(1,1) = 1.01/0.01 - 1.01/4.01 at the phase maximum z = pi/2
        val = step_m(COSINE, math.pi / 2, 1.0, 0.1)
        assert val == pytest.approx(-(1.01 / 0.01 - 1.01 / 4.01), rel=1e-12)
        assert val == pytest.approx(-100.74812967581046, rel=1e-12)

    def test_lorentzian_pair_small_s(self):
        # as a difference of two reciprocals D would cancel here, to about
        # 6e-10 relative
        s, one = Fraction(1.5e-8), Fraction(1)
        exact = 4 * s * (s * s + one) / (((s - one) ** 2 + one) * ((s + one) ** 2 + one))
        assert lorentzian_pair(1.5e-8, 1.0, 1.0) == pytest.approx(float(exact), rel=1e-15)

    @pytest.mark.parametrize("s", [1e110, -1e110, 1e200, 1e300])
    def test_past_numerator_overflow(self, s):
        # D's numerator and denominator both overflow from |s| about 3.5e102 at k = 1, past
        # S_MAX: the kernel and D reject such an s by the bound's name
        for call in (lambda: step_m(COSINE, 0.3, s, 0.1), lambda: lorentzian_pair(s, 1.0, 0.1)):
            with pytest.raises(DomainError, match=r"\|s\| <= S_MAX = 1e\+76"):
                call()

    def test_half_angle_term_past_overflow(self):
        # D(k, k) is about (k / gamma)^2: tan(z / 2) D overflowed near z = pi at gamma =
        # 1e-152, a q / gamma past QG_MAX; at QG_MAX itself the terms are finite
        z = np.array([math.pi - 1e-6, math.pi - 1e-9, 3.0, np.nextafter(math.pi, 0.0)])
        with pytest.raises(DomainError, match="QG_MAX"):
            step_m(COSINE, z, 1.0, 1e-152)
        d = lorentzian_pair(1.0, 1.0, 1.0 / QG_MAX)
        want = -np.array([math.sin(v) for v in z]) * d
        np.testing.assert_allclose(step_m(COSINE, z, 1.0, 1.0 / QG_MAX), want, rtol=1e-12)

    def test_lorentzian_pair_keeps_inf(self):
        # D(k, k) ~ (k / gamma)^2 overflowed to +-inf past k / gamma about 1e154, and D's
        # products past |s| about 1e77: both are outside the domain, and D(k, k) at its edge
        # is finite, between QG_MAX^2 and QG_MAX^2 + 2
        with pytest.raises(DomainError, match="QG_MAX"):
            lorentzian_pair(1e100, 1e100, 1.0)
        with pytest.raises(DomainError, match="S_MAX"):
            lorentzian_pair(-1e160, 1.0, 1.0)
        assert QG_MAX**2 <= lorentzian_pair(QG_MAX, QG_MAX, 1.0) <= QG_MAX**2 + 2

    def test_gamma_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            step_m(COSINE, 0.0, 0.0, 0.0)

    # (z shape, s shape, scale): step_m's sums into zeros at scale 1, and the
    # Monte Carlo's 1 - eps M into ones at scale -eps
    SHAPES = {
        "scalar": ((), (), 1.0),
        "z-vector": ((4,), (), 1.0),
        "s-vector": ((), (4,), 1.0),
        "column-row": ((40, 1), (1, 30), 1.0),
        "mc": ((300, 7), (300, 7), -0.05),
        "mc-one-line-groups": ((4096, 3), (4096, 3), -0.05),
    }

    @pytest.mark.parametrize("lines", ["0", "1", "2", "64", "partial"])
    @pytest.mark.parametrize("shape", list(SHAPES))
    def test_in_place_sum_equals_lorentzian_pair_terms(self, shape, lines):
        # the line sum is accumulated in place, a group of lines at a time,
        # to the last bit of the terms as written with lorentzian_pair and the
        # half-angle sine, in line order, under broadcasting; "partial" leaves
        # the last group short
        z_shape, s_shape, scale = self.SHAPES[shape]
        rng = np.random.default_rng(2)
        z = rng.normal(0.0, 5.0, size=z_shape)
        s = rng.standard_cauchy(size=s_shape)
        size = np.broadcast(z, s).size
        if lines == "64":
            x = np.linspace(-20.0, 20.0, 201)
            v = 0.04 * np.cos(0.6 * x + 0.3) + 0.03 * np.cos(1.1 * x + 1.0)
            p, _ = band_limit(x, v, R=1.5)
            assert len(p.lines) == 64
        else:
            group = max(1, weights._M_CAP // size)
            count = 2 * group + group // 2 + 1 if lines == "partial" else int(lines)
            p = BandLimitedPotential.from_lines(
                zip(rng.uniform(0.1, 2.0, count), rng.normal(0.0, 0.05, count),
                    rng.uniform(-math.pi, math.pi, count))
            )
        start = 0.0 if scale == 1.0 else 1.0
        ref = np.full(np.broadcast(z, s).shape, start)
        for ln in p.lines:
            tau = np.tan(0.5 * ln.q * z + 0.5 * ln.phi)
            term = tau * lorentzian_pair(s, ln.q, 0.3) / (1.0 + tau * tau) * (2.0 * scale * ln.a)
            ref = ref - term
        if scale == 1.0:
            got = step_m(p, z, s, 0.3)
        else:
            got = weights._add_m(p, z, s, 0.3, np.ones(ref.shape), scale=scale)
        assert np.shape(got) == ref.shape
        assert np.array_equal(got, ref)

    def test_half_angle_sine_accuracy(self):
        # within 4 ulp of math.sin, or 1e-16 absolute near its zeros, from +-0 through
        # points near k pi and (k + 1/2) pi to |x| = 1e6
        k = np.array([1.0, 2.0, 3.0, 10.0, 100.0, 1e3, 1e4, 1e5, 3e5])
        x = np.concatenate([
            [0.0, -0.0, 1e-300, 5e-324, 1e-8, 0.5, 1.0, 1e6, 1e6 - 0.5],
            k * math.pi, (k + 0.5) * math.pi,
            np.nextafter(k * math.pi, math.inf), np.nextafter((k + 0.5) * math.pi, 0.0),
            np.random.default_rng(5).uniform(-1e6, 1e6, 2000),
            np.random.default_rng(6).uniform(-20.0, 20.0, 2000),
        ])
        x = np.concatenate([x, -x])
        tau = np.tan(0.5 * x)  # the kernel's sine, as _add_m writes it
        got = 2.0 * tau / (1.0 + tau * tau)
        want = np.array([math.sin(v) for v in x])
        assert np.array_equal(np.signbit(got[x == 0.0]), np.signbit(x[x == 0.0]))
        err = np.abs(got - want)
        assert np.all((err <= 4.0 * np.spacing(np.abs(want))) | (err <= 1e-16))

    @pytest.mark.parametrize(
        "z,s", [(0.3, 0.7), (-1.2, 1.5), (math.pi / 2, 1.0), (2.0, -0.4)]
    )
    def test_against_mollified_band_integral(self, z, s):
        closed = step_m(COSINE, z, s, 0.1)
        direct = mollified_m(COSINE, z, s, 0.1)
        assert direct == pytest.approx(closed, rel=2e-4, abs=1e-6)

    def test_two_line_mollified(self):
        p = BandLimitedPotential.from_lines([(1.0, 0.8, 0.4), (0.5, -0.3, 1.1)])
        closed = step_m(p, 0.9, 0.6, 0.1)
        assert mollified_m(p, 0.9, 0.6, 0.1) == pytest.approx(closed, rel=2e-4)

    def test_grid_representation_matches_line(self):
        x = np.linspace(-80, 80, 6001)
        p_grid, _ = band_limit(x, np.cos(x), R=2.0)
        for z, s in [(0.4, 0.8), (-1.0, 1.2)]:
            assert step_m(p_grid, z, s, 0.1) == pytest.approx(
                step_m(COSINE, z, s, 0.1), rel=0.02
            )

    def test_grid_far_pair_below_decay_passes(self):
        # far out, where exp(-gamma z) has underflowed, a tabulated
        # potential's line sum stays finite, and a batch's near pair equals
        # its scalar value
        x = np.linspace(-20, 20, 201)
        p_grid, _ = band_limit(x, 0.05 * np.cos(0.6 * x + 0.4), R=1.5)
        z = np.array([0.3, 224.0, 2000.0, 2.0e4])
        m = step_m(p_grid, z, 0.4, 0.5)
        assert np.all(np.isfinite(m))
        assert m[0] == pytest.approx(step_m(p_grid, 0.3, 0.4, 0.5), rel=1e-13)

    def test_grid_batch_matches_pointwise(self):
        x = np.linspace(-20, 20, 201)
        p_grid, _ = band_limit(x, 0.05 * np.cos(0.6 * x + 0.4), R=1.5)
        z = np.linspace(-30.0, 30.0, 7)[:, None]
        s = np.linspace(-2.0, 2.0, 5)[None, :]
        batch = step_m(p_grid, z, s, 0.5)
        assert batch.shape == (7, 5)
        for i, j in [(0, 0), (3, 2), (6, 4), (2, 1)]:
            assert batch[i, j] == pytest.approx(
                step_m(p_grid, z[i, 0], s[0, j], 0.5), rel=1e-13, abs=1e-15
            )

    @given(
        hermitian_grids(),
        st.floats(0.05, 1.0),
        st.floats(-60, 60, allow_subnormal=False),
        st.floats(-20, 20, allow_subnormal=False),
    )
    # M is subnormal here and one smallest subnormal from the reference
    @example(
        {"grid": {"qmax": 1.125, "values": [[0.0, -1.4472359006182051e-28], [0.0, 0.0],
                                            [0.0, 1.4472359006182051e-28]]}},
        0.5,
        1.0,
        5.982186751335038e-292,
    )
    @settings(max_examples=60, deadline=None)
    def test_grid_node_sum_matches_reference(self, d, gamma, z, s):
        # a sampled spectrum is its trapezoid node sum: V, the integral of
        # |Vt| and M equal the node sums of their defining integrals
        p = potential_from_dict(d)
        vals = np.asarray(d["grid"]["values"])
        vt = vals[:, 0] + 1j * vals[:, 1]
        q = np.linspace(-d["grid"]["qmax"], d["grid"]["qmax"], vt.size)
        x = np.linspace(-10.0, 10.0, 201)
        v_ref = np.real(np.trapezoid(vt * np.exp(-1j * np.multiply.outer(x, q)), q, axis=-1))
        v_ref /= TWO_PI
        # below the smallest normal double the spacing is the smallest
        # subnormal, which no relative bound allows
        floor = 4 * np.finfo(float).smallest_subnormal
        # the lines' magnitudes set the scale where V cancels
        assert np.max(np.abs(p.evaluate(x) - v_ref)) <= 1e-14 * p.K / TWO_PI + floor
        assert p.K == pytest.approx(np.trapezoid(np.abs(vt), q), rel=1e-12)
        # M's defining integral (2 pi)^-1 \int Im[Vt(q) exp(-izq)] D(s, q) dq
        # over the band; the terms' magnitudes set the scale where it cancels
        d_pair = lorentzian_pair(s, q, gamma)
        m_ref = np.trapezoid(np.imag(vt * np.exp(-1j * z * q)) * d_pair, q) / TWO_PI
        scale = np.trapezoid(np.abs(vt * d_pair), q) / TWO_PI
        assert abs(step_m(p, z, s, gamma) - m_ref) <= 1e-13 * scale + floor

    @given(st.floats(-5, 5), st.floats(-5, 5))
    @settings(max_examples=60, deadline=None)
    def test_odd_symmetries_for_even_potential(self, z, s):
        m0 = step_m(COSINE, z, s, 0.1)
        assert step_m(COSINE, -z, s, 0.1) == pytest.approx(-m0, abs=1e-12 * (1 + abs(m0)))
        assert step_m(COSINE, z, -s, 0.1) == pytest.approx(-m0, abs=1e-12 * (1 + abs(m0)))


class TestBounds:
    def test_m_bound_values(self):
        p = BandLimitedPotential.single_line(a=1.0 / TWO_PI, q=1.0)  # R = K = 1
        assert m_bound(p, 0.1) == pytest.approx(1.0 / (TWO_PI * 0.01), rel=1e-12)
        assert m_bound(COSINE, 0.1) == pytest.approx(100.0, rel=1e-12)
        assert m_bound(BandLimitedPotential.zero(), 0.1) == 0.0

    def test_m_bound_warns_for_large_gamma(self):
        with pytest.warns(UserWarning):
            m_bound(COSINE, 0.9)

    def test_sup_zero_potential(self):
        assert m_sup_certified(BandLimitedPotential.zero(), 0.1) == 0.0

    def test_sup_cosine_exceeds_leading_order(self):
        sup = m_sup_certified(COSINE, 0.1)
        # exceeds the leading-order 100 by the O((gamma/q)^2) margin
        assert 100.0 < sup < 102.0
        assert sup == pytest.approx(101.73588140386153, rel=1e-9)

    def test_sup_matches_dense_grid_scan(self):
        sup = m_sup_certified(COSINE, 0.1)
        zg = np.linspace(-math.pi, math.pi, 801)
        sg = np.linspace(0.0, 2.0, 4001)
        grid_max = np.max(np.abs(step_m(COSINE, zg[:, None], sg[None, :], 0.1)))
        assert grid_max <= sup * (1 + 1e-9)
        assert grid_max == pytest.approx(sup, rel=1e-4)

    def test_sup_two_lines_is_per_line_sum(self):
        p = BandLimitedPotential.from_lines([(1.0, 1.0, 0.0), (0.5, 1.0, 0.0)])
        sup = m_sup_certified(p, 0.1)
        s1 = m_sup_certified(BandLimitedPotential.single_line(1.0, 1.0), 0.1)
        s2 = m_sup_certified(BandLimitedPotential.single_line(1.0, 0.5), 0.1)
        assert sup == pytest.approx(s1 + s2, rel=1e-12)

    @pytest.mark.parametrize("gamma", [0.01, 0.4, 3.0])
    def test_sup_closed_form_matches_bracketed_max(self, gamma):
        q = gamma * np.geomspace(1e-3, 100.0, 60)
        d_max, s_star = _sup_lorentzian_pair(q, gamma)
        for qk, dk, sk in zip(q, d_max, s_star):
            assert dk == pytest.approx(bracketed_sup(qk, gamma), rel=1e-11)
            assert lorentzian_pair(sk, qk, gamma) == dk

    def test_grid_threshold_certified(self):
        # Vt = 1 at q = +-1 and 0.5 at q = +-0.95 on 41 nodes: read as the
        # linear interpolant of its nodes, this spectrum's M exceeded the
        # leading-order bound by 18% and Q < 0 at a threshold taken from
        # that bound; as its node sum the supremum is certified and holds
        q = np.linspace(-1.0, 1.0, 41)
        vt = np.zeros(41, complex)
        vt[[0, -1]], vt[[1, -2]] = 1.0, 0.5
        p = BandLimitedPotential.from_grid(q, vt)
        gamma = 0.4
        sup = m_sup_certified(p, gamma)
        eps = positivity_threshold(p, gamma).lambda_strict
        assert eps == 1.0 / sup
        z = np.linspace(-40.0, 40.0, 1601)[:, None]
        s = np.linspace(-4.0, 4.0, 801)[None, :]
        assert np.all(step_q_linear(p, z, s, eps, gamma) >= 0)
        assert (1.0 - 1e-2) * sup < np.max(step_m(p, z, s, gamma)) <= sup

    # r = q / gamma.  From r about 8e9 the rounding of s* puts D(s*) below the supremum by
    # more than the 1e-12 margin (3.6e-12 at 1e10), the cubic overflowed past about 7e76 and
    # the thresholds' R^2 past about 1.3e154: every function rejects r past QG_MAX, and a
    # line past Q_MAX is rejected when it is made
    @pytest.mark.parametrize("gamma", [1.0, 1e-10])
    @pytest.mark.parametrize("r", [1e10, 1e14, 1e77, 1e100, 1e160])
    def test_sup_bounds_huge_wavenumber(self, r, gamma):
        if not r * gamma <= Q_MAX:
            with pytest.raises(DomainError, match="Q_MAX = 1e\\+67"):
                BandLimitedPotential.single_line(a=1.0, q=r * gamma)
            return
        p = BandLimitedPotential.single_line(a=1.0, q=r * gamma)
        for f in (m_sup_certified, positivity_threshold, m_bound, negative_step_witness):
            with pytest.raises(DomainError, match="past QG_MAX = 1e\\+08"):
                f(p, gamma)

    # D(s*, q) overflowed to inf from q about 1e77 at gamma = 1, where the witness had no
    # finite M: such a line is past Q_MAX
    @pytest.mark.parametrize("q", [1e77, 1e100])
    def test_witness_past_overflow_names_inf(self, q):
        with pytest.raises(DomainError, match=r"Q_MIN = 1e-72 <= q <= Q_MAX = 1e\+67"):
            BandLimitedPotential.single_line(a=1.0, q=q)

    def test_sup_drops_zero_amplitude_line_past_overflow(self):
        # a zero-amplitude line adds 0 to the supremum, also at the domain's edge q / gamma =
        # QG_MAX; past Q_MAX, where its D overflowed and 0 inf was nan, the line is rejected
        p = BandLimitedPotential.from_lines([(QG_MAX, 0.0, 0.0), (1.0, 1.0, 0.0)])
        one = BandLimitedPotential.single_line(1.0, 1.0)
        assert m_sup_certified(p, 1.0) == m_sup_certified(one, 1.0)
        with pytest.raises(DomainError, match="Q_MAX"):
            BandLimitedPotential.from_lines([(1e160, 0.0, 0.0), (1.0, 1.0, 0.0)])

    @given(grid_spectra(), st.floats(0.05, 1.0), st.integers(0, 2**32))
    @settings(max_examples=30, deadline=None)
    def test_grid_sup_bounds_sampled_m(self, p_grid, gamma, seed):
        # no sampled |M| above the certified supremum, and so no Q < 0 at
        # eps = lambda_strict, at random points and at the witness
        sup = m_sup_certified(p_grid, gamma)
        eps = positivity_threshold(p_grid, gamma).lambda_strict
        rng = np.random.default_rng(seed)
        z_w, s_w, _ = negative_step_witness(p_grid, gamma)
        z = np.append(rng.uniform(-60.0, 60.0, 20000), z_w)
        s = np.append(rng.uniform(-1.0, 1.0, 20000) * (p_grid.R + 10.0 * gamma), s_w)
        assert np.max(np.abs(step_m(p_grid, z, s, gamma))) <= sup
        assert np.all(step_q_linear(p_grid, z, s, eps, gamma) >= 0)

    @given(st.floats(-8, 8), st.floats(-8, 8))
    @settings(max_examples=100, deadline=None)
    def test_step_m_below_certified_sup(self, z, s):
        sup = m_sup_certified(COSINE, 0.1)
        assert abs(step_m(COSINE, z, s, 0.1)) <= sup * (1 + 1e-12)


class TestThresholds:
    def test_closed_form_example(self):
        p = BandLimitedPotential.single_line(a=1.0 / TWO_PI, q=1.0)  # R = K = 1
        thr = positivity_threshold(p, 0.1)
        assert thr.lambda_paper == pytest.approx(TWO_PI * 0.01, rel=1e-12)

    def test_cosine_pair(self):
        thr = positivity_threshold(COSINE, 0.1)
        assert thr.lambda_paper == pytest.approx(0.01, rel=1e-12)
        assert thr.lambda_strict == pytest.approx(1.0 / 101.73588140386153, rel=1e-9)
        # the strict threshold sits below the leading-order one
        assert thr.lambda_strict < thr.lambda_paper

    def test_zero_potential_unconstrained(self):
        thr = positivity_threshold(BandLimitedPotential.zero(), 0.1)
        assert math.isinf(thr.lambda_paper) and math.isinf(thr.lambda_strict)

    # (gamma, q): gamma^2 overflowed past about 1.34e154, R^2 K underflowed to 0 below q
    # about 1e-162, or both; each such pair is outside the domain, and rejected by the bound
    # it passes first, and inside it the threshold is the closed form
    @pytest.mark.parametrize("gamma,q", [
        (0.1, 1.0), (1e-170, 1.0), (1.0, 1e160), (1e160, 1.0), (1e160, 1e100), (1e160, 1e160),
        (0.1, 1e-170), (1e-100, 1e-170), (1e-170, 1e-170), (1e160, 1e-170),
    ])
    def test_paper_threshold_past_overflow(self, gamma, q):
        bound = ("Q_MIN" if q < Q_MIN else "Q_MAX" if q > Q_MAX else "GAMMA_MAX"
                 if gamma > GAMMA_MAX else "QG_MAX" if q > QG_MAX * gamma else None)
        if bound:
            with pytest.raises(DomainError, match=bound):
                positivity_threshold(BandLimitedPotential.single_line(a=0.5, q=q), gamma)
        else:
            p = BandLimitedPotential.single_line(a=0.5, q=q)
            lam = positivity_threshold(p, gamma).lambda_paper
            assert lam == TWO_PI * gamma**2 / (q**2 * p.K)

    def test_paper_threshold_with_infinite_k(self):
        # 2 pi |a| overflows K to inf past a about 2.9e307, and sup |M| overflowed from K
        # about 1e293: such a K is past K_MAX; a gamma whose square overflowed is past
        # GAMMA_MAX
        with pytest.raises(DomainError, match="K_MAX = 1e\\+292"):
            BandLimitedPotential.single_line(a=1e308, q=1.0)
        p = BandLimitedPotential.single_line(a=1e291, q=1.0)
        thr = positivity_threshold(p, 1.0)
        assert thr.lambda_paper == TWO_PI / p.K and 0.0 < thr.lambda_strict < thr.lambda_paper
        with pytest.raises(DomainError, match="GAMMA_MAX"):
            positivity_threshold(p, 1e160)

    @given(
        st.lists(
            st.tuples(
                st.floats(0.2, 2.0),
                st.floats(0.05, 1.0),
                st.sampled_from([-1.0, 1.0]),
                st.floats(0.0, TWO_PI),
            ),
            min_size=1,
            max_size=3,
        ),
        st.floats(0.05, 0.5),
    )
    @settings(max_examples=50, deadline=None)
    def test_nonnegative_at_strict_threshold(self, lines, gamma):
        # zero tolerance, as in acceptance criterion 1: no Q below 0 at
        # eps = lambda_strict on a (z, s) grid or at the witness
        p = BandLimitedPotential.from_lines([(q, sign * a, phi) for q, a, sign, phi in lines])
        eps = positivity_threshold(p, gamma).lambda_strict
        q_min = min(ln.q for ln in p.lines)
        s_max = p.R + 10.0 * gamma
        z = np.linspace(-np.pi / q_min, np.pi / q_min, 201)[:, None]
        s = np.linspace(-s_max, s_max, 201)[None, :]
        assert np.all(step_q_linear(p, z, s, eps, gamma) >= 0)
        z_w, s_w, _ = negative_step_witness(p, gamma)
        assert step_q_linear(p, z_w, s_w, eps, gamma) >= 0
        if len(p.lines) == 1:
            # one line attains its certified supremum, so twice the step is too long
            assert step_q_linear(p, z_w, s_w, 2.0 * eps, gamma) < 0

    def test_witness_is_step_q_linear(self):
        thr = positivity_witness(COSINE, positivity_threshold(COSINE, 0.1))
        w = thr.witness
        assert w["q_representable"] is True
        for key, eps, sign in (("at", thr.lambda_strict, 1), ("above", 2 * thr.lambda_strict, -1)):
            assert w[f"sign_{key}_threshold"] == sign
            q = step_q_linear(COSINE, w["z"], w["s"], eps, 0.1)
            assert w[f"q_{key}_threshold"] == pytest.approx(q, rel=1e-12)

    def test_witness_where_q_passes_the_largest_double(self):
        # lambda_strict is 6.7e-308 here: eps (s^2 + gamma^2) underflows, and step_q_linear
        # at the witness divides by zero, since the true Q is past the largest double; the
        # verdict is the sign of 1 - eps M, and Q is reported as not representable
        p = BandLimitedPotential.single_line(a=1.5e291, q=1e-72)
        thr = positivity_witness(p, positivity_threshold(p, 1e-80))
        assert 0.0 < thr.lambda_strict < 1e-307
        w = thr.witness
        assert (w["sign_at_threshold"], w["sign_above_threshold"]) == (1, -1)
        assert w["q_at_threshold"] is None and w["q_above_threshold"] is None
        assert w["q_representable"] is False


class TestStepQ:
    def test_free_closed_form(self):
        val = step_q_linear(BandLimitedPotential.zero(), 0.0, 0.0, 0.01, 0.1)
        assert val == pytest.approx((1 / (TWO_PI * 0.01)) * (0.2 / 0.01), rel=1e-12)

    def test_positive_below_threshold(self):
        assert step_q_linear(COSINE, math.pi / 2, 1.0, 0.005, 0.1) > 0

    def test_negative_above_threshold(self):
        assert step_q_linear(COSINE, -math.pi / 2, 1.0, 0.02, 0.1) < 0

    @given(
        st.lists(
            st.tuples(
                st.floats(0.2, 2.0),
                st.floats(-1.0, 1.0),
                st.floats(0.0, TWO_PI),
            ),
            min_size=1,
            max_size=3,
        ),
        st.floats(-5.0, 5.0),
        st.floats(0.05, 1.0),
        st.floats(0.01, 0.5),
    )
    @settings(max_examples=50, deadline=None)
    def test_integral_over_s(self, lines, z, gamma, eps):
        # int Q(z, s) ds = exp(-gamma |z|) / eps: the Lorentzian factor
        # integrates to 2 pi and M is odd in s.  Over s > 0 alone each line
        # adds 4 eps a sin(q z + phi) atan(q / gamma) to the 2 pi, which checks
        # M's size as well.  With s = gamma tan(theta), ds = (s^2 + gamma^2) /
        # gamma dtheta; M peaks at s = +-q, a width ~ gamma^2 / (q^2 + gamma^2)
        # in theta, so panels split there and shrink geometrically toward it.
        p = BandLimitedPotential.from_lines(lines)
        edges = [-np.pi / 2, 0.0, np.pi / 2]
        for q, _, _ in lines:
            peak, width = math.atan(q / gamma), gamma**2 / (q**2 + gamma**2)
            grading = width * 4.0 ** np.arange(-2, 10)
            for c in (-peak, peak):
                edges += [c, *(c - grading), *(c + grading)]
        edges = np.unique(np.clip(edges, -np.pi / 2, np.pi / 2))
        theta, w = quadrature._gauss_panels(edges, 21)
        s = gamma * np.tan(theta)
        f = w * step_q_linear(p, z, s, eps, gamma) * (s * s + gamma**2) / gamma
        scale = math.exp(-gamma * abs(z)) / eps
        assert np.sum(f) == pytest.approx(scale, rel=1e-12)
        lines_term = sum(a * math.sin(q * z + phi) * math.atan(q / gamma) for q, a, phi in lines)
        half = scale / TWO_PI * (np.pi + 4.0 * eps * lines_term)
        assert abs(np.sum(f[theta > 0]) - half) <= 1e-12 * scale

    def test_exponential_free_matches_closed_form(self):
        p = BandLimitedPotential.zero()
        for z, s in [(0.0, 0.0), (0.5, 0.7), (-1.0, 2.0)]:
            got = step_q_exponential(p, z, s, 0.01, 0.1)
            want = step_q_linear(p, z, s, 0.01, 0.1)
            assert got == pytest.approx(want, rel=1e-9)

    def test_exponential_pinned_values(self):
        # g against its 50-digit value, from the far step to a 64-line
        # tabulated potential, and Q = exp(-gamma |z|) g h from it
        assert len(EXPONENTIAL_POTENTIALS["band64"].lines) == 64
        for name, z, s, eps, gamma, g in EXPONENTIAL_PINS:
            p = EXPONENTIAL_POTENTIALS[name]
            _, got, h = weights._split_q(p, z, s, eps, gamma, "exponential")
            assert float(got) == pytest.approx(g, rel=1e-12, abs=0.0)
            q = math.exp(-gamma * abs(z)) * g * h
            assert step_q_exponential(p, z, s, eps, gamma) == pytest.approx(q, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("q", [1e155, 1e160, 1e300])
    def test_exponential_past_square_overflow(self, q):
        # the series' (s - m q)^2 overflowed for m != 0 from q about 1e154, past Q_MAX; at
        # q / gamma = QG_MAX the m = 0 term is Q
        with pytest.raises(DomainError, match="Q_MAX"):
            BandLimitedPotential.single_line(a=0.3, q=q)
        z, s, eps, gamma = 0.3, 0.2, 0.1, 0.1
        p = BandLimitedPotential.single_line(a=0.3, q=QG_MAX * gamma)
        want = (j0(2.0 * eps * 0.3 * math.sin(p.R * z)) * 2.0 * gamma / (s * s + gamma * gamma)
                * math.exp(-gamma * abs(z)) / (TWO_PI * eps))
        assert step_q_exponential(p, z, s, eps, gamma) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_first_order_series_is_the_linear_form(self, monkeypatch):
        # cut at |m| <= 1 with J_0 -> 1 and J_{+-1}(x) -> +-x / 2, the series
        # of g is (1 - eps M) 2 gamma / (s^2 + gamma^2), the linearized 2 pi
        # eps g h: both forms are one expansion, whose second order is
        # criterion 5's eps^2 slope
        p = BandLimitedPotential.single_line(a=0.5, q=1.3, phi=0.4)
        z = np.linspace(-3.0, 3.0, 13)[:, None]
        s = np.linspace(-5.0, 5.0, 21)[None, :]
        linear = {(eps, gamma): step_q_linear(p, z, s, eps, gamma)
                  for eps in (0.002, 0.01) for gamma in (0.1, 0.5)}
        monkeypatch.setattr(weights, "_jacobi_anger",
                            lambda x: (np.array([-0.5 * x, 1.0, 0.5 * x]), 0.0))
        for (eps, gamma), want in linear.items():
            got = step_q_exponential(p, z, s, eps, gamma)
            assert np.allclose(got, want, rtol=1e-13, atol=0.0)

    def test_series_stops_at_its_term_cap(self):
        # incommensurate lines multiply the term count by 2M + 1 each: at
        # 2 eps |a| ~ 1 four lines take about 5e5 terms, and a fifth would
        # make 5.7e6, so the series raises before forming them.  The value
        # is a 30-digit mpmath quadrature of the u-integral.
        lines = [(math.sqrt(k), 2.0, 0.3 * i) for i, k in enumerate([1, 2, 3, 5, 7])]
        four = BandLimitedPotential.from_lines(lines[:4])
        g = weights._u_series(four, 0.7, 0.4, 0.25, 0.5)
        assert g == pytest.approx(-0.6978920723861128, rel=1e-12, abs=0.0)
        with pytest.raises(weights.NonConvergenceError, match="line 5 of 5 .* SERIES_TERMS"):
            step_q_exponential(BandLimitedPotential.from_lines(lines), 0.7, 0.4, 0.25, 0.5)

    def test_series_bound_overflow_raises(self, monkeypatch):
        # coefficient l1 norms whose product overflows a double leave no bound
        monkeypatch.setattr(weights, "_jacobi_anger",
                            lambda x: (np.array([1e200, 1.0, 1e200]), 0.0))
        with pytest.raises(weights.NonConvergenceError, match="not finite"):
            weights._u_series(EXPONENTIAL_POTENTIALS["pair"], 0.6, 1.2, 0.25, 0.1)

    def test_series_bound_counts_rounding(self, monkeypatch):
        # terms of size 1e6 at nu = -1 and 1 cancel at s = 0 and leave g =
        # 1e-8 L(0) = 4e-8: the rounding estimate, about 1e-9, is far above
        # the acceptance 1e-9 |g| + 1e-13 though nothing was dropped
        monkeypatch.setattr(weights, "_jacobi_anger",
                            lambda x: (np.array([1e6, 1e-8, -1e6]), 0.0))
        with pytest.raises(weights.NonConvergenceError, match="bound"):
            weights._u_series(BandLimitedPotential.single_line(0.1, 1.0), 0.3, 0.0, 0.25, 0.5)

    def test_reference_resolves_the_phase_rate(self):
        # the four strong lines of test_series_stops_at_its_term_cap: panels
        # sized without the phase's rate 2 eps sum |a_k| q_k left the
        # reference 1.9e-6 off their 30-digit value
        lines = [(math.sqrt(k), 2.0, 0.3 * i) for i, k in enumerate([1, 2, 3, 5])]
        ref = exponential_reference(BandLimitedPotential.from_lines(lines), 0.7, 0.4, 0.25, 0.5)
        assert ref.real == pytest.approx(-0.6978920723861128, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("a", [2e7, 1e17])
    def test_line_past_term_cap_raises_before_bessel_work(self, monkeypatch, a):
        # one line at |x| = 2 eps |a sin(q z + phi)| keeps at least 2 floor|x| + 1
        # orders, more than SERIES_TERMS here, so the series raises before any J_m
        monkeypatch.setattr(weights, "_jacobi_anger", lambda *args: pytest.fail("Bessel work"))
        p = BandLimitedPotential.single_line(a=a, q=1.0)
        with pytest.raises(weights.NonConvergenceError, match="line 1 of 1 .* SERIES_TERMS"):
            step_q_exponential(p, 0.3, 0.7, 0.25, 0.1)

    @given(
        st.one_of(
            st.lists(
                st.tuples(st.floats(0.2, 1.5), st.floats(-0.5, 0.5), st.floats(0.0, TWO_PI)),
                min_size=1,
                max_size=2,
            ).map(BandLimitedPotential.from_lines),
            grid_spectra(),
        ),
        st.floats(-3.0, 3.0),
        st.floats(-5.0, 5.0),
        st.sampled_from([0.01, 0.1, 0.25]),
        st.sampled_from([0.1, 0.5]),
    )
    @settings(max_examples=40, deadline=None)
    def test_u_integral_is_the_mirrored_sum(self, p, z, s, eps, gamma):
        # the odd potential difference makes the integrand at -u the
        # conjugate of that at u: the mirrored complex sum is real, and the
        # Jacobi-Anger series matches it to the reference's own accuracy
        ref = exponential_reference(p, z, s, eps, gamma)
        got = weights._u_series(p, z, s, eps, gamma)
        assert isinstance(got, float)
        assert abs(ref.imag) <= 1e-12 * abs(ref.real)
        assert got == pytest.approx(ref.real, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("z, s", [(math.nan, 0.7), (0.3, math.nan), (math.inf, 0.7),
                                      (0.3, -math.inf)])
    def test_exponential_rejects_non_finite(self, z, s):
        with pytest.raises(ValueError, match="finite"):
            step_q_exponential(COSINE, z, s, 0.01, 0.1)

    @pytest.mark.parametrize("z, s", [(math.nan, 0.7), (0.3, math.nan), (math.inf, 0.7),
                                      (0.3, -math.inf)])
    def test_linear_rejects_non_finite(self, z, s):
        # M itself checks, so the kernel rejects what the linear form does
        for f, args in ((step_q_linear, (0.01, 0.1)), (step_m, (0.1,))):
            with pytest.raises(ValueError, match="finite"):
                f(COSINE, z, s, *args)

    def test_batch_rejects_non_finite_interior(self):
        # a nan interior point makes two velocity changes nan; its sign was
        # once the int cast of nan
        cfg = LatticeConfig(0.0, 1.0, 4, 0.1, 0.0, 0.3)
        with pytest.raises(ValueError, match="finite"):
            batch_log_weights(COSINE, [[0.1, math.nan, 0.2]], cfg)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: step_m(COSINE, 0.1, 0.2, math.nan),
            lambda: step_q_linear(COSINE, 0.1, 0.2, math.nan, 0.1),
            lambda: step_q_linear(COSINE, 0.1, 0.2, 0.01, math.nan),
            lambda: step_q_exponential(COSINE, 0.1, 0.2, math.nan, 0.1),
            lambda: m_bound(COSINE, math.nan),
            lambda: positivity_threshold(COSINE, math.nan),
            lambda: m_sup_certified(COSINE, math.nan),
        ],
        ids=[
            "step_m-gamma", "linear-eps", "linear-gamma", "exponential-eps",
            "m_bound", "positivity_threshold", "m_sup_certified",
        ],
    )
    def test_nan_parameter_rejected(self, call):
        # the guards read ``not x > 0``, which a nan eps or gamma fails
        with pytest.raises(ValueError, match="must be positive"):
            call()

    def test_ratio_tends_to_one(self):
        ratios = []
        for eps in (0.04, 0.02, 0.01, 0.005):
            ratios.append(
                step_q_exponential(COSINE, 0.3, 0.7, eps, 0.1)
                / step_q_linear(COSINE, 0.3, 0.7, eps, 0.1)
            )
        devs = [abs(r - 1) for r in ratios]
        assert devs[0] > devs[-1]
        assert devs[-1] < 1e-3


class TestPathWeight:
    def test_free_straight_line_closed_form(self):
        cfg = LatticeConfig(0.0, 1.0, 4, 0.1, 0.0, 0.4)
        p = BandLimitedPotential.zero()
        ev = path_weight(p, straight_line(cfg), cfg)
        z_int = straight_line(cfg).z[1:-1]
        expected = cfg.n * np.prod(
            (1 / (TWO_PI * cfg.eps)) * np.exp(-0.1 * np.abs(z_int)) * (2 / 0.1)
        )
        assert ev.W == pytest.approx(expected, rel=1e-10)
        assert ev.sign == 1 and ev.positive

    def test_log_domain_consistency(self):
        cfg = LatticeConfig(0.0, 1.0, 5, 0.1, -0.3, 0.5)
        rng = np.random.default_rng(0)
        interior = rng.normal(size=4)
        ev = path_weight(COSINE, make_path(cfg, interior), cfg)
        direct = cfg.n * np.prod(ev.Q)
        assert ev.W == pytest.approx(direct, rel=1e-10)

    def test_negative_witness_path(self):
        gamma = 0.1
        z_w, s_w, m_w = negative_step_witness(COSINE, gamma)
        assert m_w == pytest.approx(101.73588140386153, rel=1e-4)
        eps = 2.0 / m_w
        n = 4
        cfg = LatticeConfig(0.0, n * eps, n, gamma, 0.0, 0.0)
        # place the witness at interior index 1: z_1 = z_w and s_1 = s_w fix z_2
        z1 = z_w
        z2 = s_w * eps + 2 * z1 - cfg.z_a
        ev = path_weight(COSINE, make_path(cfg, [z1, z2, z2]), cfg)
        assert ev.Q[0] < 0
        assert ev.W < 0 and not ev.positive

    def test_exponential_form_runs(self):
        cfg = LatticeConfig(0.0, 0.04, 4, 0.1, 0.0, 0.02)
        ev = path_weight(COSINE, straight_line(cfg), cfg, form="exponential")
        assert ev.sign == 1

    def test_batch_matches_single(self):
        # both routes evaluate the one Q definition and the one reduction,
        # so they agree exactly, for lines and for a grid spectrum
        x = np.linspace(-20.0, 20.0, 201)
        grid, _ = band_limit(x, 0.03 * np.cos(0.6 * x + 0.4) + 0.04 * np.cos(1.1 * x), R=1.5)
        cfg = LatticeConfig(0.0, 1.0, 4, 0.1, -0.2, 0.3)
        rng = np.random.default_rng(3)
        interiors = rng.normal(size=(5, 3))
        for p in (COSINE, grid):
            signs, log_abs, q_signs = batch_log_weights(p, interiors, cfg)
            for i in range(5):
                ev = path_weight(p, make_path(cfg, interiors[i]), cfg)
                assert signs[i] == ev.sign
                assert log_abs[i] == ev.logabsW
                assert np.array_equal(q_signs[i], np.sign(ev.Q))

    @pytest.mark.parametrize("form", ["linear", "exponential"])
    def test_far_path_keeps_sign(self, form):
        # at |z| = 1600, gamma |z| = 800 and every Q_j underflows to 0; the
        # sign and log come from the split Q = exp(-gamma |z|) g h, step by step
        p = BandLimitedPotential.single_line(a=0.1, q=1.0)
        cfg = LatticeConfig(0.0, 1.0, 4, 0.5, 0.0, 0.2)
        interior = np.full(3, 1600.0)
        path = make_path(cfg, interior)
        s = (path.z[2:] - 2 * path.z[1:-1] + path.z[:-2]) / cfg.eps
        if form == "linear":
            g = 1 - cfg.eps * step_m(p, interior, s, cfg.gamma)
            h = 2 * cfg.gamma / (TWO_PI * cfg.eps * (s * s + cfg.gamma**2))
        else:
            g = np.array([FAR_STEP_G[sj] for sj in s])
            h = np.full(3, 1 / (TWO_PI * cfg.eps))
        ref = (
            np.sum(np.log(np.abs(g)))
            - cfg.gamma * np.sum(np.abs(interior))
            + np.sum(np.log(h))
            + math.log(cfg.n)
        )
        assert np.all(g > 0)
        ev = path_weight(p, path, cfg, form=form)
        assert np.all(ev.Q == 0.0)
        assert ev.sign == 1 and ev.positive
        assert ev.logabsW == pytest.approx(ref, rel=1e-12)
        if form == "linear":
            # the per-step signs are those of g, not of the underflowed Q
            signs, log_abs, q_signs = batch_log_weights(p, interior[None, :], cfg)
            assert signs[0] == 1
            assert log_abs[0] == pytest.approx(ref, rel=1e-12)
            assert q_signs.tolist() == [[1, 1, 1]]

    def test_w_finite_up_to_double_overflow(self):
        # a free straight path has log|W| = log n + (n - 1) log(1 / (pi eps
        # gamma)); W is exp(log|W|) up to log(DBL_MAX) ~ 709.78, inf past it
        n = 100
        for target, w in ((705.0, math.exp(705.0)), (712.0, math.inf)):
            gamma = math.exp(-(target - math.log(n)) / (n - 1)) * n / math.pi
            cfg = LatticeConfig(0.0, 1.0, n, gamma, 0.0, 0.0)
            ev = path_weight(BandLimitedPotential.zero(), straight_line(cfg), cfg)
            assert ev.logabsW == pytest.approx(target, rel=1e-12)
            assert ev.W == pytest.approx(w, rel=1e-12) and ev.sign == 1

    def test_step_m_once_per_path(self, monkeypatch):
        calls = []

        def counting_step_m(*args):
            calls.append(args)
            return step_m(*args)

        monkeypatch.setattr(weights, "step_m", counting_step_m)
        cfg = LatticeConfig(0.0, 1.0, 5, 0.1, -0.3, 0.5)
        path_weight(COSINE, make_path(cfg, [0.1, -0.2, 0.4, 0.3]), cfg, form="linear")
        assert len(calls) == 1

    @pytest.mark.parametrize("q,message", [
        ([1.0], "s, M, Q must have equal length"),
        ([1.0, math.nan], "non-finite step factor Q"),
    ])
    def test_result_checks_its_steps(self, q, message):
        with pytest.raises(ValueError, match=message):
            WeightResult(1.0, 1, 0.0, 0.01, 0.01, True, s=[0.1, 0.2], M=[0.3, 0.4], Q=q)

    def test_report_schema(self):
        cfg = LatticeConfig(0.0, 1.0, 3, 0.1, 0.0, 0.4)
        ev = path_weight(COSINE, straight_line(cfg), cfg)
        rep = ev.to_dict()
        assert set(rep) == {
            "W",
            "sign",
            "logabsW",
            "lambda_paper",
            "lambda_strict",
            "positive",
            "per_step",
        }
        assert len(rep["per_step"]) == cfg.n - 1
        for i, step in enumerate(rep["per_step"]):
            assert set(step) == {"j", "s", "M", "Q"} and step["j"] == i + 1
            assert (step["s"], step["M"], step["Q"]) == (ev.s[i], ev.M[i], ev.Q[i])


class TestSignLogRatio:
    """The Monte Carlo's importance ratio: ``log|prod(1 - eps M)| - gamma
    sum|z|`` with one log per path, against the per-step reduction of ``f``."""

    X = np.linspace(-20.0, 20.0, 201)
    V = 0.04 * np.cos(0.6 * X + 0.3) + 0.03 * np.cos(1.1 * X + 1.0)

    @pytest.mark.parametrize("case", ["zero", "band-limit-64", "strong-above-strict"])
    def test_matches_per_step_logs(self, case):
        if case == "zero":
            p, cfg = BandLimitedPotential.zero(), LatticeConfig(0.0, 1.0, 16, 0.1, 0.0, 0.3)
        elif case == "band-limit-64":
            p, cfg = band_limit(self.X, self.V, R=1.5)[0], LatticeConfig(0.0, 1.0, 6, 0.5, 0.0, 0.2)
            assert len(p.lines) == 64
        else:
            p, cfg = COSINE, LatticeConfig(0.0, 1.0, 8, 0.1, 0.0, 0.0)
            assert cfg.eps > positivity_threshold(p, cfg.gamma).lambda_strict
        z, s = sample_bridge_paths(cfg, SamplerConfig(seed=4), 2000)
        sign, log_abs = weights._sign_log_ratio(p, z, s, cfg.eps, cfg.gamma)
        f = np.exp(-cfg.gamma * np.abs(z)) * (1 - cfg.eps * step_m(p, z, s, cfg.gamma))
        ref_sign, ref_log = weights._sign_log_abs(f, 1)
        assert np.array_equal(sign, ref_sign)
        assert np.all(np.abs(log_abs - ref_log) <= 1e-12 * np.abs(ref_log))
        if case == "strong-above-strict":
            assert np.any(sign < 0) and np.any(sign > 0)

    def test_mc_bridge_problem_against_libm_sine(self):
        # the n = 16 weak-cosine bridge that the benchmark's Monte Carlo workload estimates,
        # its factors 1 - eps M written with np.sin, one batch
        p = BandLimitedPotential.single_line(a=0.1, q=1.0)
        cfg = LatticeConfig(0.0, 1.0, 16, 0.1, 0.0, 0.3)
        z, s = sample_bridge_paths(cfg, SamplerConfig(seed=201), 4096)
        sign, log_abs = weights._sign_log_ratio(p, z, s, cfg.eps, cfg.gamma)
        fac = 1.0 + cfg.eps * 0.1 * np.sin(z) * lorentzian_pair(s, 1.0, cfg.gamma)
        assert np.all(fac > 0)
        ref = np.sum(np.log(fac), axis=1) - cfg.gamma * np.sum(np.abs(z), axis=1)
        assert np.all(sign == 1)
        np.testing.assert_allclose(log_abs, ref, rtol=1e-13, atol=0)

    def test_factor_past_tan_overflow(self):
        # tan(z / 2) D overflowed at gamma = 1e-152 (D about 1e304 at s = k), a q / gamma past
        # QG_MAX, which the Monte Carlo rejects before its first ratio; at QG_MAX the first
        # step's factor, about 1e6, is finite
        cfg = LatticeConfig(0.0, 1.0, 3, 1e-152, 0.0, 0.0)
        with pytest.raises(DomainError, match="QG_MAX"):
            estimate_transition_mc(COSINE, cfg, SamplerConfig(n_samples=16))
        gamma = 1.0 / QG_MAX
        z, s = np.array([[math.pi - 1e-9, 0.5]]), np.array([[1.0, 0.3]])
        sign, log_abs = weights._sign_log_ratio(COSINE, z, s, 0.1, gamma)
        fac = 1.0 + 0.1 * np.sin(z) * lorentzian_pair(s, 1.0, gamma)
        assert fac[0, 0] > 1e5 and sign[0] == 1
        ref = np.sum(np.log(fac)) - gamma * np.sum(np.abs(z))
        assert log_abs[0] == pytest.approx(ref, rel=1e-12)

    def test_zero_factor(self):
        # sin = -1 and a D = 1 exactly: the first step's factor 1 - eps M is 0
        p = BandLimitedPotential.single_line(a=0.625, q=1.0)
        z, s = np.array([[-math.pi / 2, 0.3]]), np.array([[1.0, 0.2]])
        assert step_m(p, z, s, 1.0)[0, 0] == 1.0
        sign, log_abs = weights._sign_log_ratio(p, z, s, 1.0, 1.0)
        assert sign[0] == 0 and log_abs[0] == -math.inf

    def test_far_paths_keep_finite_logs(self):
        # at |z| near 2e4, exp(-gamma |z|) underflows and the per-step
        # reduction loses every path; the one-log form keeps them
        cfg = LatticeConfig(0.0, 1.0, 4, 1.0, 20000.0, 20000.0)
        p = BandLimitedPotential.single_line(a=0.1, q=1.0)
        z, s = sample_bridge_paths(cfg, SamplerConfig(seed=1), 500)
        f = np.exp(-cfg.gamma * np.abs(z)) * (1 - cfg.eps * step_m(p, z, s, cfg.gamma))
        assert np.all(weights._sign_log_abs(f, 1)[0] == 0)
        sign, log_abs = weights._sign_log_ratio(p, z, s, cfg.eps, cfg.gamma)
        fac = 1.0 - cfg.eps * step_m(p, z, s, cfg.gamma)
        ref = np.sum(np.log(np.abs(fac)), axis=1) - cfg.gamma * np.sum(np.abs(z), axis=1)
        assert np.all(np.isfinite(log_abs))
        assert np.array_equal(sign, np.prod(np.sign(fac), axis=1))
        assert np.all(np.abs(log_abs - ref) <= 1e-12 * np.abs(ref))

    def test_product_out_of_range(self):
        # 400 factors near -9 overflow a double and 400 near 0.1 underflow
        # it; those rows are reduced step by step
        gamma = 0.1
        z_w, s_w, m_w = negative_step_witness(COSINE, gamma)
        eps = 10.0 / m_w
        z = np.array([[z_w] * 400, [math.asin(-0.09)] * 400])
        s = np.full(z.shape, s_w)
        fac = 1.0 - eps * step_m(COSINE, z, s, gamma)
        with np.errstate(over="ignore", under="ignore"):
            prod = np.prod(fac, axis=1)
        assert np.isinf(prod[0]) and prod[1] == 0.0
        sign, log_abs = weights._sign_log_ratio(COSINE, z, s, eps, gamma)
        f = np.exp(-gamma * np.abs(z)) * (1 - eps * step_m(COSINE, z, s, gamma))
        ref_sign, ref_log = weights._sign_log_abs(f, 1)
        assert np.array_equal(sign, ref_sign)
        assert np.all(np.abs(log_abs - ref_log) <= 1e-12 * np.abs(ref_log))


class TestDomain:
    """The numeric domain declared in ``potentials``: rejected outside, finite inside."""

    GAMMA_TAKERS = {
        "step_m": lambda g: step_m(COSINE, 0.3, 0.2, g),
        "lorentzian_pair": lambda g: lorentzian_pair(0.2, 1.0, g),
        "m_bound": lambda g: m_bound(COSINE, g),
        "m_sup_certified": lambda g: m_sup_certified(COSINE, g),
        "positivity_threshold": lambda g: positivity_threshold(COSINE, g),
        "negative_step_witness": lambda g: negative_step_witness(COSINE, g),
        "step_q_linear": lambda g: step_q_linear(COSINE, 0.3, 0.2, 0.01, g),
        "step_q_exponential": lambda g: step_q_exponential(COSINE, 0.3, 0.2, 0.01, g),
    }

    @pytest.mark.parametrize("gamma", [0.0, -0.1, math.nan, math.inf, 10.0 * GAMMA_MAX])
    @pytest.mark.parametrize("name", list(GAMMA_TAKERS))
    def test_gamma_outside_domain_rejected(self, name, gamma):
        # gamma = inf once gave nan thresholds and kernels, and gamma = 0 a divide-by-zero
        # warning in the witness, before any check
        with pytest.raises(DomainError, match=r"gamma must be positive and at most GAMMA_MAX"):
            self.GAMMA_TAKERS[name](gamma)

    # (q, gamma, a): the corners of Q_MIN <= q <= Q_MAX, q / gamma <= QG_MAX and gamma <=
    # GAMMA_MAX, and a unit line at QG_MAX with the largest amplitude that K_MAX admits
    @pytest.mark.parametrize("q, gamma, a", [
        (Q_MIN, Q_MIN / QG_MAX, 1.0),
        (Q_MIN, GAMMA_MAX, 1.0),
        (Q_MAX, GAMMA_MAX, 1.0),
        (1.0, 1.0 / QG_MAX, 1.0),
        (1.0, 1.0 / QG_MAX, 0.99 * K_MAX / TWO_PI),
    ], ids=["q-min-gamma-min", "q-min-gamma-max", "q-max-gamma-max", "unit-q", "unit-q-k-max"])
    def test_corners_are_finite(self, q, gamma, a):
        # every result is finite with no RuntimeWarning (an error under pyproject's filter) at
        # |z| = Z_MAX, |s| = S_MAX, sin(q z) near 0 (tan(q z / 2) about 1.6e16) and the
        # sampler's farthest draws (u = 0 and 1 - 2^-53): the overflow branches the domain
        # replaced are unreachable inside it
        p = BandLimitedPotential.single_line(a=a, q=q)
        cfg = LatticeConfig(0.0, 1.0, 3, gamma, 0.0, 0.0)
        draw = gamma * np.tan((np.array([[0.0, 1.0 - 2.0**-53]]) - 0.5) * math.pi)
        assert np.all(np.abs(draw) <= S_MAX)
        sup = m_sup_certified(p, gamma)
        s_star = _sup_lorentzian_pair(np.array([q]), gamma)[1][0]
        z = np.array([-Z_MAX, -math.pi / q, 0.0, math.pi / q, Z_MAX])[:, None]
        s = np.array([-S_MAX, -s_star, 0.0, s_star, S_MAX, *draw[0]])[None, :]
        m = step_m(p, z, s, gamma)
        assert np.all(np.isfinite(m)) and np.max(np.abs(m)) <= sup < math.inf
        assert np.all(np.isfinite(lorentzian_pair(s, q, gamma)))
        thr = positivity_threshold(p, gamma)
        assert np.all(np.isfinite([thr.lambda_paper, thr.lambda_strict, thr.m_sup]))
        z_w, s_w, m_w = negative_step_witness(p, gamma)
        assert np.all(np.isfinite([z_w, s_w, m_w])) and m_w <= sup
        # the exponential form's series checks its own bound, which its far tail fails at
        # small gamma (NonConvergenceError at |s| = 5e75, gamma = 1e-8), and its orders grow
        # with eps a: it runs at the lines' peaks and a unit amplitude
        forms = {"linear": [0.5 * S_MAX, -s_star], "exponential": [s_star, -s_star]}
        for form, s_path in list(forms.items())[: 2 if a == 1.0 else 1]:
            path = make_path(cfg, interior_from_velocity_changes(s_path, cfg))
            w = path_weight(p, path, cfg, form)
            assert np.all(np.isfinite([w.W, w.logabsW, *w.M, *w.Q])) and w.sign != 0
        z = interior_from_velocity_changes(draw, cfg)
        sign, log_abs = weights._sign_log_ratio(p, z, draw, cfg.eps, gamma)
        assert sign[0] != 0 and np.isfinite(log_abs[0])


class TestGridPins:
    """Values of a tabulated potential's route (its ``band_limit`` lines),
    pinned at the trapezoid node-sum form."""

    X = np.linspace(-20.0, 20.0, 201)
    V = 0.04 * np.cos(0.6 * X + 0.3) + 0.03 * np.cos(1.1 * X + 1.0)
    CFG = LatticeConfig(0.0, 1.0, 6, 0.5, 0.0, 0.2)

    def grid(self):
        return band_limit(self.X, self.V, R=1.5)[0]

    def test_path_steps(self):
        path = make_path(self.CFG, np.random.default_rng(11).normal(0.0, 0.3, size=5))
        ev = path_weight(self.grid(), path, self.CFG)
        pinned = [
            -0.08305961918126353,
            0.08625605544185187,
            0.07474888571157765,
            -0.03887827355432857,
            -0.1666645464011595,
        ]
        assert ev.M == pytest.approx(pinned, rel=1e-13)
        assert ev.W == pytest.approx(0.00032187674304218813, rel=1e-13)

    def test_mc_transition(self):
        # velocity changes by inverse CDF; the ratio-of-normals draws gave
        # 0.06716546435070295 +- 0.002098395197830973, 1.16 combined sigma off
        est = estimate_transition_mc(self.grid(), self.CFG, SamplerConfig(n_samples=512, seed=5))
        assert est.value == pytest.approx(0.07044235447870281, rel=1e-13)
        assert est.std_error == pytest.approx(0.0018912797876915303, rel=1e-13)

    def test_tensor_quadrature_n3(self):
        cfg = LatticeConfig(0.0, 1.0, 3, 0.5, 0.0, 0.2)
        est = transition_probability_quadrature(self.grid(), cfg, points_per_dim=8)
        assert est.value == pytest.approx(0.11591401410731533, rel=1e-13)
        assert est.refinement == pytest.approx(
            (0.0005098878936262013, -5.613803926718397e-06), rel=1e-13
        )

    def test_tensor_quadrature_n5(self):
        # within its refinement delta of the value the linearly interpolated
        # spectrum gave, 0.08167054459993657 (delta 1.4e-3)
        cfg = LatticeConfig(0.0, 1.0, 5, 0.5, 0.0, 0.2)
        est = transition_probability_quadrature(self.grid(), cfg, points_per_dim=4)
        assert abs(est.value - 0.08167054459993657) <= est.std_error


class TestShift:
    """Every site that shifts ``D``'s Lorentzians or the series' centres takes the shift from
    ``weights._shift``: patched to ``q / 2``, the shift ROADMAP item 1 measures, each follows."""

    GAMMA = 0.1
    LINES = BandLimitedPotential.from_lines([(1.0, 0.3, 0.4), (0.7, -0.2, 1.1)])

    @pytest.fixture(autouse=True)
    def half_shift(self, monkeypatch):
        monkeypatch.setattr(weights, "_shift", lambda q: q / 2)

    @staticmethod
    def written(s, q, gamma):
        """``D(s, q)`` written out as its two Lorentzian ratios, shifted by ``q / 2``."""
        k, s2g = q / 2, s * s + gamma * gamma
        return s2g / ((s - k) ** 2 + gamma * gamma) - s2g / ((s + k) ** 2 + gamma * gamma)

    # 9 x 61 points sum the lines in groups, 101 x 101 one line at a time
    @pytest.mark.parametrize("n_z,n_s", [(9, 61), (101, 101)])
    def test_d_and_m(self, n_z, n_s):
        z = np.linspace(-4.0, 4.0, n_z)[:, None]
        s = np.linspace(-3.0, 3.0, n_s)[None, :]
        for ln in self.LINES.lines:
            d = lorentzian_pair(s, ln.q, self.GAMMA)
            assert np.allclose(d, self.written(s, ln.q, self.GAMMA), rtol=1e-13, atol=1e-14)
        ref = -sum(ln.a * np.sin(ln.q * z + ln.phi) * self.written(s, ln.q, self.GAMMA)
                   for ln in self.LINES.lines)
        assert np.allclose(step_m(self.LINES, z, s, self.GAMMA), ref, rtol=1e-12, atol=1e-13)

    def test_sup_bounds_a_dense_maximum(self):
        grid_max = np.max(self.written(np.linspace(0.0, 1.5, 300001), 1.0, self.GAMMA))
        sup = m_sup_certified(COSINE, self.GAMMA)
        assert grid_max <= sup <= grid_max * (1.0 + 1e-5)

    def test_leading_order_uses_half_r(self):
        r2k = 0.25 * COSINE.K  # (R / 2)^2 K
        bound = m_bound(COSINE, self.GAMMA)
        assert bound == pytest.approx(r2k / (TWO_PI * self.GAMMA**2), rel=1e-15)
        lam = positivity_threshold(COSINE, self.GAMMA).lambda_paper
        assert lam == pytest.approx(TWO_PI * self.GAMMA**2 / r2k, rel=1e-15)
        with pytest.warns(UserWarning, match="gamma << R"):
            m_bound(COSINE, 0.3)  # above R / 4, below R / 2

    def test_witness_at_the_grid_argmax(self):
        # z* keeps the line's own q: sin(q z*) = -1; s* is the centre of the refining grid
        z_w, s_w, m_w = negative_step_witness(COSINE, self.GAMMA)
        _, s_star = _sup_lorentzian_pair(np.array([1.0]), self.GAMMA)
        assert (z_w, s_w) == (-0.5 * math.pi, float(s_star[0]))
        assert m_w == step_m(COSINE, z_w, s_w, self.GAMMA)

    def test_first_order_series_is_the_linear_q(self):
        # at 2 eps a = 5e-7 the exponential series' second order is 1e-13 relative; a series
        # centred at m q while M shifts by q / 2 is off at first order, about 1e-7
        p = BandLimitedPotential.single_line(a=1e-6, q=1.3, phi=0.4)
        for z, s in [(0.3, 0.2), (-1.1, 0.7), (2.0, -0.9)]:
            lin = step_q_linear(p, z, s, 0.25, 0.5)
            assert step_q_exponential(p, z, s, 0.25, 0.5) == pytest.approx(lin, rel=1e-10)

    def test_tensor_table_form_matches_step_m(self):
        cfg = LatticeConfig(0.0, 1.0, 3, 0.3, 0.1, -0.2)
        x, w = np.polynomial.legendre.leggauss(5)
        nodes, wts = 0.5 * np.pi * x, 0.5 * np.pi * w
        theta = np.stack(np.meshgrid(nodes, nodes, indexing="ij"), -1).reshape(-1, 2)
        s = cfg.gamma * np.tan(theta)
        z = interior_from_velocity_changes(s, cfg)
        fac = np.exp(-cfg.gamma * np.abs(z)) * (1.0 - cfg.eps * step_m(self.LINES, z, s, cfg.gamma))
        ref = np.outer(wts, wts).ravel() @ np.prod(fac, axis=1)
        got = quadrature._tensor_sum(self.LINES, cfg, 100.0, nodes, wts)[0]
        assert got == pytest.approx(ref, rel=1e-12)
