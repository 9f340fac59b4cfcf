import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import jv

from pathprob import quadrature
from pathprob.lattice import LatticeConfig, interior_from_velocity_changes
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


def flat_tensor_sum(p, cfg, window, nodes, weights):
    """Reference for ``_tensor_sum``: every grid point as one row."""
    d = cfg.n - 1
    theta = np.array(list(itertools.product(nodes, repeat=d)))
    w = np.prod(np.array(list(itertools.product(weights, repeat=d))), axis=1)
    s = cfg.gamma * np.tan(theta)
    z = interior_from_velocity_changes(s, cfg)
    fac = np.exp(-cfg.gamma * np.abs(z)) * (1.0 - cfg.eps * step_m(p, z, s, cfg.gamma))
    vals = np.prod(fac, axis=1)
    outside = np.any(np.abs(z) > window, axis=1)
    mass = np.abs(vals)
    return np.sum(w * vals), np.sum(mass[outside]), np.sum(mass), np.sum(w * mass)


def cosine_grid(a):
    """``a cos x`` in the grid representation."""
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
    @settings(max_examples=60, deadline=None)
    def test_blocked_matches_flat_sum(self, specs, gamma, za, zb, d, m, lead, window):
        p = BandLimitedPotential.from_lines([SpectralLine(q, a, phi) for q, a, phi in specs])
        cfg = LatticeConfig(0.0, 1.0, d + 1, gamma, za, zb)
        x, w = np.polynomial.legendre.leggauss(m)
        nodes, weights = 0.5 * np.pi * x, 0.5 * np.pi * w
        # enumerate `lead` axes and take the next in slices of 2 nodes: with
        # m odd the last slice is partial
        lead = min(lead, d - 1)
        cap = 2 * m ** (d - 1 - lead)
        got = _tensor_sum(p, cfg, window, nodes, weights, cap=cap)
        acc, out_mass, tot_mass, scale = flat_tensor_sum(p, cfg, window, nodes, weights)
        assert got[0] == pytest.approx(acc, rel=1e-12, abs=1e-12 * scale)
        assert got[1] == pytest.approx(out_mass, rel=1e-12, abs=1e-12 * tot_mass)
        assert got[2] == pytest.approx(tot_mass, rel=1e-12)

    @pytest.mark.parametrize("d,m,lead", [(1, 5, 0), (2, 3, 0), (2, 5, 0), (2, 5, 1)])
    def test_grid_potential_matches_flat_sum(self, d, m, lead):
        # grid potentials take the step_m route, in the same blocks
        p = cosine_grid(0.2)
        cfg = LatticeConfig(0.0, 1.0, d + 1, 0.3, 0.1, -0.2)
        x, w = np.polynomial.legendre.leggauss(m)
        nodes, weights = 0.5 * np.pi * x, 0.5 * np.pi * w
        cap = 2 * m ** (d - 1 - lead)
        got = _tensor_sum(p, cfg, 0.25, nodes, weights, cap=cap)
        acc, out_mass, tot_mass, scale = flat_tensor_sum(p, cfg, 0.25, nodes, weights)
        assert out_mass > 0.0
        assert got[0] == pytest.approx(acc, rel=1e-12, abs=1e-12 * scale)
        assert got[1] == pytest.approx(out_mass, rel=1e-12)
        assert got[2] == pytest.approx(tot_mass, rel=1e-12)

    def test_route_per_potential_kind(self, monkeypatch):
        # line and zero potentials never call step_m; grid potentials do
        def no_step_m(*args, **kwargs):
            raise AssertionError("step_m called")

        monkeypatch.setattr(quadrature, "step_m", no_step_m)
        cfg = LatticeConfig(0.0, 1.0, 4, 0.2, 0.0, 0.3)
        x, w = np.polynomial.legendre.leggauss(5)
        nodes, weights = 0.5 * np.pi * x, 0.5 * np.pi * w
        for p in (BandLimitedPotential.single_line(a=0.1, q=1.0, phi=0.4), FREE):
            got = _tensor_sum(p, cfg, 10.0, nodes, weights, cap=25)
            acc, _, tot_mass, scale = flat_tensor_sum(p, cfg, 10.0, nodes, weights)
            assert got[0] == pytest.approx(acc, rel=1e-12, abs=1e-12 * scale)
            assert got[2] == pytest.approx(tot_mass, rel=1e-12)
        with pytest.raises(AssertionError, match="step_m called"):
            _tensor_sum(cosine_grid(0.1), cfg, 10.0, nodes, weights)


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
        # beta = 2 a eps sin(qz + phi) reaches 12 here; the sum must match a
        # 100-order reference of the same expansion
        a, q, phi, eps, gamma = 10.0, 1.0, 0.3, 0.6, 0.5
        z = np.linspace(-3.0, 3.0, 41)[:, None]
        s = np.linspace(-4.0, 4.0, 33)[None, :]
        beta = 2.0 * a * eps * np.sin(q * z + phi)
        assert np.max(np.abs(beta)) > 10.0
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
