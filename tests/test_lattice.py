import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathprob import lattice
from pathprob.lattice import (
    LatticeConfig,
    Path,
    interior_from_velocity_changes,
    make_path,
    read_path_csv,
    second_difference_matrix,
    second_differences,
    velocity_changes,
    write_path_csv,
)


def straight_line(cfg):
    """Uniform velocity between the endpoints, written out."""
    return Path(cfg.z_a + np.arange(cfg.n + 1) * (cfg.z_b - cfg.z_a) / cfg.n)


def cfg_for(z, t_a=0.0, t_b=1.0, gamma=0.1):
    return LatticeConfig(
        t_a=t_a, t_b=t_b, n=len(z) - 1, gamma=gamma, z_a=z[0], z_b=z[-1]
    )


class TestConfig:
    def test_eps_exact(self):
        cfg = LatticeConfig(0.0, 1.0, 7, 0.1, 0.0, 1.0)
        assert cfg.n * cfg.eps == cfg.t_b - cfg.t_a

    def test_validation(self):
        with pytest.raises(ValueError):
            LatticeConfig(0.0, 1.0, 1, 0.1, 0.0, 0.0)
        with pytest.raises(ValueError):
            LatticeConfig(1.0, 1.0, 4, 0.1, 0.0, 0.0)
        with pytest.raises(ValueError):
            LatticeConfig(0.0, 1.0, 4, 0.0, 0.0, 0.0)

    def test_times(self):
        cfg = LatticeConfig(1.0, 2.0, 4, 0.1, 0.0, 0.0)
        assert np.allclose(cfg.times, [1.0, 1.25, 1.5, 1.75, 2.0])


class TestSecondDifferences:
    def test_uniform_motion(self):
        z = [0.0, 0.1, 0.2, 0.3]
        cfg = cfg_for(z, t_b=0.3)
        assert np.allclose(second_differences(Path(np.array(z)), cfg), [0.0, 0.0])

    def test_accelerating(self):
        z = [0.0, 0.1, 0.3, 0.6]
        cfg = cfg_for(z, t_b=0.3)
        assert np.allclose(second_differences(Path(np.array(z)), cfg), [1.0, 1.0])

    def test_rest(self):
        z = [0.0, 0.0, 0.0, 0.0]
        cfg = cfg_for(z, t_b=1.5)  # eps = 0.5
        assert np.allclose(second_differences(Path(np.array(z)), cfg), [0.0, 0.0])

    def test_length_mismatch_rejected(self):
        cfg = LatticeConfig(0.0, 1.0, 4, 0.1, 0.0, 0.0)
        with pytest.raises(ValueError):
            second_differences(Path(np.zeros(4)), cfg)

    def test_endpoint_mismatch_rejected(self):
        cfg = LatticeConfig(0.0, 1.0, 3, 0.1, 0.0, 1.0)
        with pytest.raises(ValueError):
            second_differences(Path(np.array([0.0, 0.3, 0.6, 0.5])), cfg)

    @given(
        st.lists(st.floats(-5, 5), min_size=4, max_size=12),
        st.floats(-3, 3),
    )
    @settings(max_examples=50, deadline=None)
    def test_boost_insensitive(self, zs, v):
        z = np.asarray(zs)
        cfg = cfg_for(z)
        boost = v * cfg.eps * np.arange(z.size)
        cfg2 = cfg_for(z + boost)
        s1 = second_differences(Path(z), cfg)
        s2 = second_differences(Path(z + boost), cfg2)
        assert np.allclose(s1, s2, atol=1e-9)

    @given(st.lists(st.floats(-5, 5), min_size=4, max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_telescoping_sum(self, zs):
        z = np.asarray(zs)
        cfg = cfg_for(z)
        s = second_differences(Path(z), cfg)
        lhs = cfg.eps * np.sum(s)
        rhs = (z[-1] - z[-2]) - (z[1] - z[0])
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


class TestBridgeSolve:
    def test_matrix_determinant_is_n(self):
        for n in range(2, 9):
            det = np.linalg.det(second_difference_matrix(n))
            assert abs(det) == pytest.approx(n, rel=1e-10)

    @given(
        st.integers(2, 10),
        st.floats(-2, 2),
        st.floats(-2, 2),
    )
    @settings(max_examples=40, deadline=None)
    def test_round_trip(self, n, za, zb):
        cfg = LatticeConfig(0.0, 1.0, n, 0.1, za, zb)
        rng = np.random.default_rng(n)
        s = rng.standard_cauchy(n - 1)
        interior = interior_from_velocity_changes(s, cfg)
        path = make_path(cfg, interior)
        assert np.allclose(second_differences(path, cfg), s, atol=1e-8)
        batch = rng.standard_cauchy((3, 2, n - 1))
        back = velocity_changes(interior_from_velocity_changes(batch, cfg), cfg)
        assert np.allclose(back, batch, atol=1e-8)

    @given(st.integers(2, 40), st.data())
    @settings(max_examples=40, deadline=None)
    def test_blocked_matches_solve(self, n, data):
        # batches from one row to past three one-thread dgemm blocks, so the
        # near-equal split and its last block are both exercised
        block = lattice._ONE_THREAD_GEMM // (n - 1) ** 2
        rows = data.draw(st.integers(1, 3 * block + 1))
        cfg = LatticeConfig(0.0, 1.0, n, 0.1, 0.7, -1.3)
        s = np.random.default_rng(rows).standard_cauchy((rows, n - 1))
        z = interior_from_velocity_changes(s, cfg)
        b = np.zeros(n - 1)
        b[0] += cfg.z_a
        b[-1] += cfg.z_b
        want = np.linalg.solve(second_difference_matrix(n), (cfg.eps * s - b).T).T
        assert z.shape == s.shape
        assert np.max(np.abs(z - want)) <= 1e-12 * np.max(np.abs(want))

    def test_zero_velocity_changes_give_straight_line(self):
        cfg = LatticeConfig(0.0, 1.0, 5, 0.1, -1.0, 2.0)
        interior = interior_from_velocity_changes(np.zeros(4), cfg)
        assert np.allclose(interior, straight_line(cfg).z[1:-1])


class TestIO:
    def test_csv_round_trip(self, tmp_path):
        cfg = LatticeConfig(0.5, 1.5, 4, 0.1, 0.0, 1.0)
        path = straight_line(cfg)
        f = tmp_path / "path.csv"
        write_path_csv(path, cfg, f)
        back = read_path_csv(f)
        assert np.array_equal(back.z, path.z)

    def test_bad_header_rejected(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_path_csv(f)
