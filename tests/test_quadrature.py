import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import jv

from pathprob import quadrature
from pathprob.lattice import (
    LatticeConfig,
    interior_from_velocity_changes,
    second_difference_matrix,
)
from pathprob.potentials import BandLimitedPotential, SpectralLine, band_limit
from pathprob.quadrature import (
    KernelEstimate,
    _pair_integral_line,
    _tensor_sum,
    amplitude_discrete,
    extrapolate_gamma,
    probability_product_form,
    transition_probability_quadrature,
)
from pathprob.weights import NonConvergenceError, step_m

TWO_PI = 2.0 * math.pi
FREE = BandLimitedPotential.zero()


def free_cfg(n, gamma, za=0.0, zb=0.0, T=1.0):
    return LatticeConfig(0.0, T, n, gamma, za, zb)


class TestFreeParticle:
    def test_n2_approaches_free_propagator(self):
        vals = [
            transition_probability_quadrature(FREE, free_cfg(2, g), points_per_dim=32).value
            for g in (0.2, 0.1, 0.05)
        ]
        target = 1.0 / TWO_PI
        devs = [abs(v - target) for v in vals]
        assert devs[0] > devs[1] > devs[2]
        assert devs[-1] < 0.1 * target

    def test_gamma_extrapolation_hits_free_value(self):
        gammas = (0.2, 0.1, 0.05)
        for n in (2, 3, 4):
            vals = [
                transition_probability_quadrature(
                    FREE, free_cfg(n, g), points_per_dim=28
                ).value
                for g in gammas
            ]
            p0, unc = extrapolate_gamma(gammas, vals)
            assert abs(p0 - 1.0 / TWO_PI) <= unc

    def test_gamma_extrapolation_needs_two_distinct_gammas(self):
        # one distinct gamma leaves the line undetermined
        with pytest.raises(ValueError, match="two distinct"):
            extrapolate_gamma([0.2, 0.2], [0.15, 0.15])

    def test_gamma_extrapolation_ignores_repeated_gamma(self):
        # a repeat on the line fits the same intercept, and two distinct
        # gammas fit no quadratic or gamma log gamma alternative
        two = extrapolate_gamma([0.2, 0.1], [0.15, 0.155])
        repeated = extrapolate_gamma([0.2, 0.2, 0.1], [0.15, 0.15, 0.155])
        assert repeated == pytest.approx(two, rel=1e-12, abs=1e-15)

    def test_n_independence_as_gamma_shrinks(self):
        # at fixed gamma the extra interior regularizer factors shift the
        # value by O(gamma); the n-dependence must vanish with gamma
        devs = []
        for g in (0.1, 0.05, 0.02):
            v2 = transition_probability_quadrature(FREE, free_cfg(2, g), points_per_dim=32)
            v3 = transition_probability_quadrature(FREE, free_cfg(3, g), points_per_dim=32)
            devs.append(abs(v3.value - v2.value) / v2.value)
        assert devs[0] > devs[1] > devs[2]
        assert devs[-1] < 0.005

    def test_flat_in_separation(self):
        # symmetric endpoints: the free value depends only on T up to the
        # regularizer's |z| weighting
        vals = [
            transition_probability_quadrature(
                FREE, free_cfg(3, 0.05, -dz / 2, dz / 2), points_per_dim=32
            ).value
            for dz in (0.0, 0.5, 1.0)
        ]
        assert max(abs(v - vals[0]) / vals[0] for v in vals) < 0.02

    @pytest.mark.parametrize("n", [2, 3])
    def test_endpoint_swap_symmetry(self, n):
        # reversing time maps the paths za -> zb onto the paths zb -> za with
        # the same free weights
        fwd, rev = (
            transition_probability_quadrature(FREE, free_cfg(n, 0.1, za, zb), points_per_dim=16)
            for za, zb in ((0.4, -0.1), (-0.1, 0.4))
        )
        assert rev.value == pytest.approx(fwd.value, rel=1e-12)

    def test_refinement_deltas_decrease(self):
        est = transition_probability_quadrature(
            FREE, free_cfg(3, 0.1), points_per_dim=16, doublings=2
        )
        assert len(est.refinement) == 2
        assert abs(est.refinement[-1]) <= abs(est.refinement[-2])

    def test_error_is_last_refinement(self):
        # criterion 9's weak-cosine reference reports its last change as error
        weak = BandLimitedPotential.single_line(a=0.1, q=1.0)
        cfg = LatticeConfig(0.0, 1.0, 4, 0.1, 0.0, 0.3)
        est = transition_probability_quadrature(weak, cfg, points_per_dim=32)
        assert est.std_error == abs(est.refinement[-1])
        assert est.std_error > 0.0


class TestGuards:
    def test_large_n_rejected(self):
        with pytest.raises(ValueError):
            transition_probability_quadrature(FREE, free_cfg(9, 0.1))

    def test_needs_a_refinement(self):
        with pytest.raises(ValueError, match="doublings"):
            transition_probability_quadrature(FREE, free_cfg(2, 0.1), doublings=0)

    def test_tensor_budget_guard(self):
        with pytest.raises(ValueError, match="tensor grid"):
            transition_probability_quadrature(
                FREE, free_cfg(6, 0.1), points_per_dim=64, doublings=3
            )

    def test_small_window_rejected(self):
        with pytest.raises(NonConvergenceError, match="window"):
            transition_probability_quadrature(
                FREE, free_cfg(2, 0.05), window=2.0, points_per_dim=32
            )

    @pytest.mark.parametrize("window", [math.nan, -1.0, 0.0])
    def test_bad_window_rejected(self, window):
        # a NaN window once switched the boundary-mass check off (this input
        # returned 0.13987), and one <= 0 read as a boundary mass fraction of 1
        weak = BandLimitedPotential.single_line(a=0.1, q=1.0)
        cfg = LatticeConfig(0.0, 1.0, 3, 0.2, 0.0, 0.3)
        with pytest.raises(ValueError, match="window must be positive and finite"):
            transition_probability_quadrature(weak, cfg, window=window)


def flat_tensor_sum(p, cfg, window, nodes, weights):
    """Reference for ``_tensor_sum``: every grid point as one row.

    Returns the weighted sum, the ``|integrand|`` mass outside the window as
    a pair (points surely outside, points possibly outside), the total mass
    and the weighted mass.  ``_tensor_sum`` adds each ``z_i``'s per-axis
    terms in another order, so a point within rounding of the window may
    fall on either side of it.
    """
    d = cfg.n - 1
    theta = np.array(list(itertools.product(nodes, repeat=d)))
    w = np.prod(np.array(list(itertools.product(weights, repeat=d))), axis=1)
    s = cfg.gamma * np.tan(theta)
    z = interior_from_velocity_changes(s, cfg)
    fac = np.exp(-cfg.gamma * np.abs(z)) * (1.0 - cfg.eps * step_m(p, z, s, cfg.gamma))
    vals = np.prod(fac, axis=1)
    # the magnitude of z_i's terms: the straight path and eps Tinv[i, j] s_j
    abs_tinv = np.abs(np.linalg.inv(second_difference_matrix(cfg.n)))
    terms = max(abs(cfg.z_a), abs(cfg.z_b)) + cfg.eps * np.abs(s) @ abs_tinv.T
    zmax, tol = np.abs(z), 1e-13 * terms
    surely = np.any(zmax > window + tol, axis=1)
    maybe = np.any(zmax > window - tol, axis=1)
    mass = np.abs(vals)
    out = (np.sum(mass[surely]), np.sum(mass[maybe]))
    return np.sum(w * vals), out, np.sum(mass), np.sum(w * mass)


def assert_out_mass(got, out, slack=0.0):
    """``got`` lies between the reference's surely and possibly outside mass,
    to 1e-12 relative plus ``slack``."""
    lo, hi = out
    assert lo * (1 - 1e-12) - slack <= got <= hi * (1 + 1e-12) + slack


def cosine_grid(a):
    """``a cos x`` through ``band_limit``: a tabulated potential's lines."""
    x = np.linspace(-30.0, 30.0, 2001)
    return band_limit(x, a * np.cos(x), R=2.0)[0]


class TestTensorSum:
    @given(
        st.lists(
            st.tuples(st.floats(0.2, 2.0), st.floats(-0.5, 0.5), st.floats(0.0, 6.28)),
            max_size=3,
        ),
        st.floats(0.1, 1.0),
        st.floats(-1.0, 1.0),
        st.floats(-1.0, 1.0),
        st.integers(1, 3),
        st.sampled_from([3, 5, 7]),
        st.integers(0, 2),
        st.floats(0.3, 5.0),
    )
    # grid points at |z_i| = window up to rounding
    @example([], 1.0, 1.0, 1.0, 3, 5, 0, 1.0)
    @settings(max_examples=60, deadline=None)
    def test_blocked_matches_flat_sum(self, specs, gamma, za, zb, d, m, extra, window):
        p = BandLimitedPotential.from_lines([SpectralLine(q, a, phi) for q, a, phi in specs])
        cfg = LatticeConfig(0.0, 1.0, d + 1, gamma, za, zb)
        x, w = np.polynomial.legendre.leggauss(m)
        nodes, weights = 0.5 * np.pi * x, 0.5 * np.pi * w
        # this cap makes the first 1 + extra axes the rows, in blocks of
        # 2 (2L + 1) rows for L lines: with m odd, blocks straddle a node of
        # the first row axis and the last block is partial
        extra = min(extra, d - 1)
        cap = 2 * (2 * len(specs) + 1) * m ** (d - 1 - extra)
        got = _tensor_sum(p, cfg, window, nodes, weights, cap=cap)
        acc, out_mass, tot_mass, scale = flat_tensor_sum(p, cfg, window, nodes, weights)
        assert got[0] == pytest.approx(acc, rel=1e-12, abs=1e-12 * scale)
        assert_out_mass(got[1], out_mass, slack=1e-12 * tot_mass)
        assert got[2] == pytest.approx(tot_mass, rel=1e-12)

    @pytest.mark.parametrize("d,m,extra", [(1, 5, 0), (2, 3, 0), (2, 5, 0), (2, 5, 1)])
    def test_grid_potential_matches_flat_sum(self, d, m, extra):
        # a tabulated potential's many lines through the same phase tables,
        # with 1 + extra row axes in blocks of 2 (2L + 1) rows as above
        p = cosine_grid(0.2)
        cfg = LatticeConfig(0.0, 1.0, d + 1, 0.3, 0.1, -0.2)
        x, w = np.polynomial.legendre.leggauss(m)
        nodes, weights = 0.5 * np.pi * x, 0.5 * np.pi * w
        cap = 2 * (2 * len(p.lines) + 1) * m ** (d - 1 - extra)
        got = _tensor_sum(p, cfg, 0.25, nodes, weights, cap=cap)
        acc, out_mass, tot_mass, scale = flat_tensor_sum(p, cfg, 0.25, nodes, weights)
        assert out_mass[0] > 0.0
        assert got[0] == pytest.approx(acc, rel=1e-12, abs=1e-12 * scale)
        assert_out_mass(got[1], out_mass)
        assert got[2] == pytest.approx(tot_mass, rel=1e-12)

    def test_many_lines_split_keeps_column_tables_in_cap(self):
        # 76 lines: each column holds 153 table entries per interior point, so
        # this cap leaves 16^2 columns against 16^2 rows in blocks of 153;
        # at the 16^3 columns that the cap alone allows, the column tables
        # took over 80 cap doubles
        p = cosine_grid(0.2)
        d, m = 4, 16
        cfg = LatticeConfig(0.0, 1.0, d + 1, 0.3, 0.1, -0.2)
        x, w = np.polynomial.legendre.leggauss(m)
        nodes, weights = 0.5 * np.pi * x, 0.5 * np.pi * w
        cap = (2 * len(p.lines) + 1) * m**2
        tracemalloc.start()
        try:
            got = _tensor_sum(p, cfg, 0.25, nodes, weights, cap=cap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # row and column tables take d cap doubles each and the block buffers
        # 5 cap; as much again is left for temporaries
        assert peak <= 2 * (2 * d + 5) * cap * 8
        acc, out_mass, tot_mass, scale = flat_tensor_sum(p, cfg, 0.25, nodes, weights)
        assert got[0] == pytest.approx(acc, rel=1e-12, abs=1e-12 * scale)
        assert_out_mass(got[1], out_mass)
        assert got[2] == pytest.approx(tot_mass, rel=1e-12)

    def test_row_tables_held_one_block_at_a_time(self):
        # two cosines band-limited at R = 1.5 make 64 lines, so each row or
        # column holds 129 table entries per interior point; at n = 6 with 16
        # nodes per axis the default cap makes 16^3 rows against 16^2 columns
        x = np.linspace(-20.0, 20.0, 201)
        p = band_limit(x, 0.03 * np.cos(0.6 * x + 0.5) + 0.04 * np.cos(1.1 * x + 1.7), 1.5)[0]
        assert len(p.lines) == 64
        d, m, cap = 5, 16, 2**18
        cfg = LatticeConfig(0.0, 1.0, d + 1, 0.5, 0.0, 0.2)
        x, w = np.polynomial.legendre.leggauss(m)
        tracemalloc.start()
        try:
            got = _tensor_sum(p, cfg, 30.0, 0.5 * np.pi * x, 0.5 * np.pi * w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # below the block buffers (5 cap doubles) plus the whole grid's row
        # tables (m^3 rows x 129 x d doubles, 21 MB), which a sum holding the
        # row tables whole exceeds
        assert peak <= (5 * cap + m**3 * 129 * d) * 8
        # flat_tensor_sum's values on this input (12 s and 430 MB to rerun)
        assert got[0] == pytest.approx(131.7596081310125, rel=1e-12)
        assert got[1] == 0.0
        assert got[2] == pytest.approx(202134.8244860763, rel=1e-12)

    @pytest.mark.parametrize("kind", ["single line", "64 lines", "zero"])
    def test_window_moves_only_out_mass(self, kind):
        # at an infinite window every block is certified inside it and skips
        # the boundary check; at 0 none is.  The window may move out_mass and
        # nothing else.  This cap makes 13 blocks for each potential.
        if kind == "64 lines":
            x = np.linspace(-20.0, 20.0, 201)
            v = 0.03 * np.cos(0.6 * x + 0.5) + 0.04 * np.cos(1.1 * x + 1.7)
            p = band_limit(x, v, 1.5)[0]
            assert len(p.lines) == 64
        else:
            p = BandLimitedPotential.single_line(a=0.1, q=1.0) if kind == "single line" else FREE
        cfg = LatticeConfig(0.0, 1.0, 5, 0.2, 0.0, 0.3)
        x, w = np.polynomial.legendre.leggauss(5)
        nodes, weights = 0.5 * np.pi * x, 0.5 * np.pi * w
        inside = _tensor_sum(p, cfg, math.inf, nodes, weights, cap=50)
        outside = _tensor_sum(p, cfg, 0.0, nodes, weights, cap=50)
        assert inside[0] == outside[0] and inside[2] == outside[2]
        assert inside[1] == 0.0
        # no z_i is exactly 0 here, so every point counts as outside
        assert outside[1] == outside[2]

    def test_route_per_potential_kind(self):
        # line, tabulated and zero potentials all take the phase tables:
        # the module has no step_m to call
        assert not hasattr(quadrature, "step_m")
        cfg = LatticeConfig(0.0, 1.0, 4, 0.2, 0.0, 0.3)
        x, w = np.polynomial.legendre.leggauss(5)
        nodes, weights = 0.5 * np.pi * x, 0.5 * np.pi * w
        for p in (BandLimitedPotential.single_line(a=0.1, q=1.0, phi=0.4), cosine_grid(0.1), FREE):
            got = _tensor_sum(p, cfg, 10.0, nodes, weights, cap=25)
            acc, _, tot_mass, scale = flat_tensor_sum(p, cfg, 10.0, nodes, weights)
            assert got[0] == pytest.approx(acc, rel=1e-12, abs=1e-12 * scale)
            assert got[2] == pytest.approx(tot_mass, rel=1e-12)


class TestAmplitude:
    def test_free_n2(self):
        cfg = free_cfg(2, 0.02)
        est = amplitude_discrete(FREE, cfg, regularizer="gaussian")
        assert est.modulus_squared == pytest.approx(1.0 / TWO_PI, rel=1e-3)

    def test_free_n_independent(self):
        a2 = amplitude_discrete(FREE, free_cfg(2, 0.05), regularizer="gaussian")
        a3 = amplitude_discrete(FREE, free_cfg(3, 0.05), regularizer="gaussian")
        assert a3.modulus_squared == pytest.approx(a2.modulus_squared, rel=1e-3)

    def test_large_n_rejected(self):
        with pytest.raises(ValueError):
            amplitude_discrete(FREE, free_cfg(5, 0.1))

    def test_unknown_regularizer(self):
        with pytest.raises(ValueError):
            amplitude_discrete(FREE, free_cfg(2, 0.1), regularizer="cosine")


def assert_pair_integral_matches_series(a, phi, eps, q=1.0, gamma=0.5):
    """Check ``_pair_integral_line`` on a (z, s) grid against a 100-order
    reference of the same Bessel expansion with scipy's ``jv``; returns beta."""
    z = np.linspace(-3.0, 3.0, 41)[:, None]
    s = np.linspace(-4.0, 4.0, 33)[None, :]
    beta = 2.0 * a * eps * np.sin(q * z + phi)
    az2 = 2.0 * np.abs(z)
    ref = 0.0
    for m in range(-100, 101):
        omega = s - 0.5 * m * q
        denom = gamma**2 + omega**2
        g_val = 2.0 * np.exp(-gamma * az2) * (
            gamma**2 * az2 * np.sinc(az2 * omega / np.pi) / denom
            + gamma * np.cos(az2 * omega) / denom
        )
        ref = ref + jv(m, beta) * g_val
    got = _pair_integral_line(z, s, a, q, phi, eps, gamma)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    return beta


class TestProductForm:
    def test_identity_n2_weak_line(self):
        p = BandLimitedPotential.single_line(a=0.2, q=1.0, phi=0.3)
        cfg = LatticeConfig(0.0, 2.0, 2, 1.0, 0.1, -0.2)
        lhs = amplitude_discrete(p, cfg, regularizer="laplace").modulus_squared
        rhs = probability_product_form(p, cfg)
        assert rhs == pytest.approx(lhs, rel=1e-6)

    def test_identity_free_n3(self):
        cfg = LatticeConfig(0.0, 3.0, 3, 1.0, 0.0, 0.3)
        lhs = amplitude_discrete(FREE, cfg, regularizer="laplace").modulus_squared
        rhs = probability_product_form(FREE, cfg)
        assert rhs == pytest.approx(lhs, rel=1e-5)

    def test_bessel_series_sized_from_beta(self):
        # beta = 2 a eps sin(qz + phi) reaches 12 here, with both signs
        beta = assert_pair_integral_matches_series(10.0, 0.3, 0.6)
        assert np.max(np.abs(beta)) > 10.0 and np.min(beta) < 0.0

    @pytest.mark.parametrize(
        "a, phi, eps, where",
        [
            (0.2, 0.0, 1.0, "zero"),  # beta = 0 exactly at z = 0
            (-3.0, 0.3, 0.6, "negative"),  # a < 0: beta < 0 wherever sin(qz + phi) > 0
            (0.0, 0.0, 1.0, "all zero"),  # the zero potential
        ],
    )
    def test_bessel_series_at_zero_and_negative_beta(self, a, phi, eps, where):
        beta = assert_pair_integral_matches_series(a, phi, eps)
        assert {
            "zero": np.any(beta == 0.0),
            "negative": np.min(beta) < -1.0,
            "all zero": np.all(beta == 0.0),
        }[where]

    def test_criterion_4_value_pinned(self):
        # the shared Gauss-Legendre rule gives the value leggauss did
        p = BandLimitedPotential.single_line(a=0.2, q=1.0, phi=0.3)
        cfg = LatticeConfig(0.0, 3.0, 3, 1.0, 0.1, -0.2)
        assert repr(probability_product_form(p, cfg)) == "0.008006054713712966"

    def test_multi_line_rejected(self):
        p = BandLimitedPotential.from_lines([(1.0, 0.1, 0.0), (0.5, 0.1, 0.0)])
        with pytest.raises(ValueError):
            probability_product_form(p, LatticeConfig(0.0, 2.0, 2, 1.0, 0.0, 0.0))


class TestProbabilityFromAmplitude:
    def test_unit(self):
        assert KernelEstimate(1 + 0j).modulus_squared == 1.0

    def test_phase_invariance(self):
        z = 0.3 - 0.4j
        rot = z * np.exp(1j * 0.77)
        assert KernelEstimate(rot).modulus_squared == pytest.approx(abs(z) ** 2, rel=1e-14)

    def test_free_kernel(self):
        amp = (TWO_PI * 1.0) ** -0.5 * np.exp(-1j * np.pi / 4)
        est = KernelEstimate(complex(amp))
        assert est.modulus_squared == pytest.approx(1.0 / TWO_PI, rel=1e-12)


class TestExtrapolation:
    def test_linear_data_exact(self):
        g = np.array([0.2, 0.1, 0.05])
        v = 0.7 + 1.3 * g
        p0, unc = extrapolate_gamma(g, v)
        assert p0 == pytest.approx(0.7, abs=1e-12)
        assert unc < 1e-10

    def test_model_spread_reported_for_curved_data(self):
        g = np.array([0.2, 0.1, 0.05, 0.025])
        v = 0.5 + g * np.log(g)
        p0, unc = extrapolate_gamma(g, v)
        # the linear intercept misses; the reported uncertainty must cover it
        assert abs(p0 - 0.5) <= unc * (1 + 1e-9)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            extrapolate_gamma([0.1], [1.0])
