import time
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from pathprob.lattice import LatticeConfig
from pathprob.montecarlo import (
    SamplerConfig,
    effective_sample_size,
    estimate_transition_mc,
    sample_bridge_paths,
)
from pathprob.potentials import BandLimitedPotential, SpectralLine, band_limit
from pathprob.quadrature import transition_probability_quadrature
from pathprob.weights import NonConvergenceError

FREE = BandLimitedPotential.zero()
WEAK = BandLimitedPotential.single_line(a=0.1, q=1.0, phi=0.0)

# several configs intentionally run above the strict positivity threshold
pytestmark = pytest.mark.filterwarnings("ignore:.*lambda_strict.*:UserWarning")


class TestEffectiveSampleSize:
    def test_equal_weights(self):
        assert effective_sample_size(np.ones(100)) == pytest.approx(100.0)

    def test_single_nonzero(self):
        w = np.zeros(50)
        w[7] = 3.0
        assert effective_sample_size(w) == pytest.approx(1.0)

    def test_two_equal_rest_zero(self):
        w = np.zeros(50)
        w[3] = w[17] = 2.0
        assert effective_sample_size(w) == pytest.approx(2.0)

    def test_all_zero(self):
        assert effective_sample_size(np.zeros(10)) == 0.0


class TestSamplerConfig:
    def test_batch_count_invariant(self):
        with pytest.raises(ValueError):
            SamplerConfig(n_samples=4)

    def test_budget_fields_only(self):
        # the proposal is fixed by the lattice; the config holds the budget
        assert [f.name for f in fields(SamplerConfig)] == ["n_samples", "seed", "threads"]
        with pytest.raises(TypeError):
            SamplerConfig(method="gaussian")


class TestBridgeSampling:
    def test_endpoints_pinned_via_second_difference(self):
        cfg = LatticeConfig(0.0, 1.0, 8, 0.1, -0.7, 1.3)
        interiors, _ = sample_bridge_paths(cfg, SamplerConfig(seed=2), 64)
        # the bridge solve reproduces the drawn velocity changes with the
        # endpoints exactly pinned by construction
        assert interiors.shape == (64, 7)
        assert np.all(np.isfinite(interiors))

    def test_cauchy_n2_density_is_midpoint_lorentzian(self):
        # at n = 2 the one interior point is z_1 = mid - eps s / 2 with
        # s ~ Cauchy(0, gamma), so it is Cauchy about the midpoint with
        # scale gamma eps / 2
        cfg = LatticeConfig(0.0, 1.0, 2, 0.1, -0.4, 0.8)
        interiors, log_density = sample_bridge_paths(cfg, SamplerConfig(seed=9), 200)
        expected = stats.cauchy.logpdf(
            interiors[:, 0], loc=0.5 * (cfg.z_a + cfg.z_b), scale=0.5 * cfg.gamma * cfg.eps
        )
        assert np.allclose(log_density, expected, atol=1e-10)

    def test_cauchy_ratio_bounded_for_free_particle(self):
        # with the matched Cauchy proposal the free importance ratio reduces
        # to exp(-gamma sum|z_j|) <= 1: no heavy-tail amplification
        cfg = LatticeConfig(0.0, 1.0, 8, 0.1, 0.0, 0.5)
        est = estimate_transition_mc(FREE, cfg, SamplerConfig(n_samples=20000, seed=3))
        assert est.ess > 0.9 * 20000


class TestEstimator:
    def test_free_matches_quadrature(self):
        cfg = LatticeConfig(0.0, 1.0, 4, 0.1, 0.0, 0.0)
        quad = transition_probability_quadrature(FREE, cfg, points_per_dim=32)
        mc = estimate_transition_mc(FREE, cfg, SamplerConfig(n_samples=100_000, seed=11))
        assert abs(mc.value - quad.value) <= 3.0 * mc.std_error

    def test_weak_line_matches_quadrature(self):
        cfg = LatticeConfig(0.0, 1.0, 4, 0.1, 0.0, 0.3)
        quad = transition_probability_quadrature(WEAK, cfg, points_per_dim=32)
        mc = estimate_transition_mc(WEAK, cfg, SamplerConfig(n_samples=100_000, seed=13))
        assert abs(mc.value - quad.value) <= 3.0 * mc.std_error

    @given(
        st.lists(
            st.tuples(st.floats(-0.1, 0.1), st.floats(0.3, 1.5), st.floats(0.0, 6.28)),
            max_size=2,
        ),
        st.integers(2, 4),
        st.floats(0.1, 0.4),
        st.floats(-0.5, 0.5),
        st.integers(0, 2**16),
    )
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_agrees_with_quadrature(self, specs, n, gamma, z_b, seed):
        # the two routes' reported errors cover their difference
        p = BandLimitedPotential.from_lines([SpectralLine(q, a, phi) for a, q, phi in specs])
        cfg = LatticeConfig(0.0, 1.0, n, gamma, 0.0, z_b)
        quad = transition_probability_quadrature(p, cfg, points_per_dim=24)
        mc = estimate_transition_mc(p, cfg, SamplerConfig(n_samples=50_000, seed=seed))
        assert abs(mc.value - quad.value) <= 4.0 * np.hypot(mc.std_error, quad.std_error)

    def test_deterministic_given_seed(self):
        cfg = LatticeConfig(0.0, 1.0, 4, 0.1, 0.0, 0.3)
        sc = SamplerConfig(n_samples=20_000, seed=21)
        a = estimate_transition_mc(WEAK, cfg, sc)
        b = estimate_transition_mc(WEAK, cfg, sc)
        assert a.value == b.value and a.std_error == b.std_error

    def test_thread_count_invariance(self):
        cfg = LatticeConfig(0.0, 1.0, 4, 0.1, 0.0, 0.3)
        a = estimate_transition_mc(WEAK, cfg, SamplerConfig(n_samples=20_000, seed=21))
        b = estimate_transition_mc(
            WEAK, cfg, SamplerConfig(n_samples=20_000, seed=21, threads=4)
        )
        assert a.value == b.value and a.std_error == b.std_error

    def test_results_fields(self):
        cfg = LatticeConfig(0.0, 1.0, 4, 0.1, 0.0, 0.3)
        est = estimate_transition_mc(WEAK, cfg, SamplerConfig(n_samples=10_000, seed=1))
        d = est.to_dict()
        for key in ("value", "std_error", "ess", "negative_mass_fraction", "n", "gamma", "seed"):
            assert key in d
        assert 0.0 <= est.negative_mass_fraction < 1.0

    def test_grid_potential_far_cauchy_tail(self):
        # a tabulated potential in grid form under the default Cauchy
        # proposal: seed 7 draws interior points beyond |z| = 2000, where the
        # grid M panels cannot follow the phase but exp(-gamma |z|) has
        # removed the pair from the weight; the estimate must come back and
        # agree with the same potential written as lines
        lines = [(0.04, 0.6, 0.3), (0.03, 1.1, 1.0)]
        x = np.linspace(-20.0, 20.0, 201)
        v = sum(a * np.cos(q * x + phi) for a, q, phi in lines)
        grid, _ = band_limit(x, v, R=1.5)
        cfg = LatticeConfig(0.0, 1.0, 6, 0.5, 0.0, 0.2)
        sc = SamplerConfig(n_samples=4096, seed=7)
        interiors, _ = sample_bridge_paths(cfg, sc, 4096, 0)
        assert np.max(np.abs(interiors)) > 2000.0
        est = estimate_transition_mc(grid, cfg, sc)
        ref = estimate_transition_mc(BandLimitedPotential.from_lines(lines), cfg, sc)
        assert est.value == pytest.approx(ref.value, rel=0.02)

    def test_concentrated_weights_raise(self):
        # even the matched proposal fails once exp(-gamma sum|z_j|) is sharp:
        # at gamma = 5 and n = 16 a few paths carry the weight (ESS 3.82)
        cfg = LatticeConfig(0.0, 1.0, 16, 5.0, 0.0, 0.0)
        with pytest.raises(NonConvergenceError, match="effective sample size 3.82 < 10"):
            estimate_transition_mc(FREE, cfg, SamplerConfig(n_samples=10_000, seed=5))

    def test_warns_above_strict_threshold(self):
        strong = BandLimitedPotential.single_line(a=1.0, q=1.0)
        cfg = LatticeConfig(0.0, 1.0, 4, 0.1, 0.0, 0.0)  # eps = 0.25 >> lambda
        with pytest.warns(UserWarning, match="lambda_strict"):
            estimate_transition_mc(strong, cfg, SamplerConfig(n_samples=1000, seed=1))

    def test_one_thread_uses_one_core(self):
        # at threads=1 the batch work is elementwise numpy plus a one-thread
        # dgemm, so the process burns at most about one CPU-second per wall
        # second; with the bridge solve on OpenBLAS's pool it read about 1.9
        # on two cores
        cfg = LatticeConfig(0.0, 1.0, 16, 0.1, 0.0, 0.3)
        sc = SamplerConfig(n_samples=65_536, seed=3)
        estimate_transition_mc(WEAK, cfg, sc)  # let earlier BLAS threads settle
        wall, cpu = time.perf_counter(), time.process_time()
        estimate_transition_mc(WEAK, cfg, sc)
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        assert cpu <= 1.5 * wall
