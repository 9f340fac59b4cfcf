import time
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from pathprob.lattice import LatticeConfig
from pathprob.montecarlo import (
    _BATCH,
    SamplerConfig,
    effective_sample_size,
    estimate_transition_mc,
    sample_bridge_paths,
)
from pathprob.potentials import BandLimitedPotential, SpectralLine, band_limit
from pathprob.quadrature import transition_probability_quadrature
from pathprob.weights import NonConvergenceError, batch_log_weights

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

    def test_velocity_changes_by_inverse_cdf(self):
        # s = gamma tan(pi (u - 1/2)) on the random() block of the
        # (seed, batch) Philox stream, bit for bit: the map that any other
        # uniform block would feed
        cfg = LatticeConfig(0.0, 1.0, 6, 0.3, 0.0, 0.2)
        sc = SamplerConfig(seed=2**40 + 9)
        for batch in (0, 3):
            _, s = sample_bridge_paths(cfg, sc, 100, batch)
            key = np.array([sc.seed, batch], dtype=np.uint64)
            u = np.random.Generator(np.random.Philox(key=key)).random((100, 5))
            np.testing.assert_array_equal(s, cfg.gamma * np.tan(np.pi * (u - 0.5)))

    def test_velocity_changes_are_cauchy(self):
        cfg = LatticeConfig(0.0, 1.0, 16, 0.1, 0.0, 0.3)
        sc = SamplerConfig(seed=4)
        s = np.concatenate([sample_bridge_paths(cfg, sc, _BATCH, b)[1] for b in range(4)])
        assert stats.kstest(s.ravel(), stats.cauchy(scale=cfg.gamma).cdf).pvalue > 0.01

    def test_zero_uniform_maps_to_finite_change(self, monkeypatch):
        # random() draws from [0, 1); pi (0 - 1/2) rounds to just inside
        # -pi/2, so u = 0 gives a finite s near -1.6e16 gamma
        class Edges:
            def __init__(self, bit_generator):
                pass

            def random(self, size):
                return np.resize([0.0, 1.0 - 2.0**-53], size)

        monkeypatch.setattr(np.random, "Generator", Edges)
        cfg = LatticeConfig(0.0, 1.0, 4, 0.2, 0.0, 0.0)
        interiors, s = sample_bridge_paths(cfg, SamplerConfig(), 2, 0)
        assert np.all(np.isfinite(s)) and np.all(np.isfinite(interiors))
        assert s[0, 0] < -1e15 * cfg.gamma

    @pytest.mark.parametrize("case", ["line-n2", "weak-n16", "grid-n6"])
    def test_ratio_is_weight_over_cauchy_density(self, case):
        # the estimator never forms the proposal density; its value is the
        # mean path weight over the density of Cauchy(0, gamma) velocity
        # changes mapped to interior points (Jacobian n / eps^(n-1)), rebuilt
        # here from the same draws
        if case == "line-n2":
            p = BandLimitedPotential.from_lines(
                [SpectralLine(0.7, 0.3, 0.4), SpectralLine(1.3, -0.2, 2.0)]
            )
            cfg = LatticeConfig(0.0, 1.0, 2, 0.2, -0.4, 0.8)
        elif case == "weak-n16":
            p, cfg = WEAK, LatticeConfig(0.0, 1.0, 16, 0.1, 0.0, 0.3)
        else:
            x = np.linspace(-20.0, 20.0, 201)
            v = 0.04 * np.cos(0.6 * x + 0.3) + 0.03 * np.cos(1.1 * x + 1.0)
            p, _ = band_limit(x, v, R=1.5)
            cfg = LatticeConfig(0.0, 1.0, 6, 0.5, 0.0, 0.2)
        # two batches, the second a partial one
        sizes = (_BATCH, 904)
        sc = SamplerConfig(n_samples=sum(sizes), seed=17)
        est = estimate_transition_mc(p, cfg, sc)
        ratios = []
        for batch, size in enumerate(sizes):
            interiors, s = sample_bridge_paths(cfg, sc, size, batch)
            signs, log_w, _ = batch_log_weights(p, interiors, cfg)
            log_q = (
                np.sum(stats.cauchy.logpdf(s, scale=cfg.gamma), axis=1)
                + np.log(cfg.n)
                - (cfg.n - 1) * np.log(cfg.eps)
            )
            ratios.append(signs * np.exp(log_w - log_q))
        ref = np.mean(np.concatenate(ratios)) / (2.0 * np.pi * cfg.duration)
        assert est.value == pytest.approx(ref, rel=1e-12)

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
        # a tabulated potential under the default Cauchy proposal: seed 7
        # draws interior points beyond |z| = 2000, where exp(-gamma |z|) has
        # removed the pair from the weight; the estimate must come back and
        # agree with the potential's two cosines
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
        # at gamma = 5 and n = 16 a few paths carry the weight (ESS 1.03)
        cfg = LatticeConfig(0.0, 1.0, 16, 5.0, 0.0, 0.0)
        with pytest.raises(NonConvergenceError, match="effective sample size 1.03 < 10"):
            estimate_transition_mc(FREE, cfg, SamplerConfig(n_samples=10_000, seed=5))

    def test_all_ratios_underflow_raise(self):
        # far endpoints: exp(-gamma sum|z_j|) underflows to 0 on every path
        cfg = LatticeConfig(0.0, 1.0, 4, 1.0, 20000.0, 20000.0)
        with pytest.raises(NonConvergenceError, match="no drawn path carries weight"):
            estimate_transition_mc(FREE, cfg, SamplerConfig(n_samples=4096, seed=1))

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
        estimate_transition_mc(WEAK, cfg, sc)
        # OpenBLAS's workers spin for about 0.1 s after an earlier test's
        # threaded product, longer than a warm-up solve may take; wait it
        # out and count only this solve's threads
        time.sleep(0.3)
        wall, cpu = time.perf_counter(), time.process_time()
        estimate_transition_mc(WEAK, cfg, sc)
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        assert cpu <= 1.5 * wall
