import json
import math
from dataclasses import replace

import numpy as np
import pytest

from pathprob.analysis import (
    classical_concentration_scan,
    convergence_sweep,
    linearization_order_scan,
)
from pathprob.lattice import LatticeConfig
from pathprob.montecarlo import SamplerConfig, estimate_transition_mc
from pathprob.potentials import BandLimitedPotential

FREE = BandLimitedPotential.zero()
COSINE = BandLimitedPotential.single_line(a=1.0, q=1.0)
CFG = LatticeConfig(0.0, 1.0, 4, 0.1, 0.0, 0.4)
SAMPLER = SamplerConfig(n_samples=2000, seed=2)


class TestClassicalConcentration:
    def test_fraction_shrinks_with_gamma(self):
        res = classical_concentration_scan(
            CFG, [0.5, 0.2, 0.1, 0.05], delta=1.0,
            sampler=SamplerConfig(n_samples=50_000, seed=1),
        )
        fractions = [row["fraction"] for row in res.rows]
        assert all(a > b for a, b in zip(fractions, fractions[1:]))

    def test_huge_delta_gives_zero(self):
        res = classical_concentration_scan(CFG, [0.1], delta=1e9, sampler=SAMPLER)
        assert res.rows[0]["fraction"] == 0.0

    def test_zero_delta_gives_one(self):
        res = classical_concentration_scan(CFG, [0.1], delta=0.0, sampler=SAMPLER)
        assert res.rows[0]["fraction"] == 1.0

    def test_deterministic(self):
        sampler = SamplerConfig(n_samples=5000, seed=7)
        a = classical_concentration_scan(CFG, [0.2], delta=1.0, sampler=sampler)
        b = classical_concentration_scan(CFG, [0.2], delta=1.0, sampler=sampler)
        assert a.rows == b.rows

    def test_thread_count_invariance(self):
        # the paths come in (seed, batch)-keyed batches, gathered in order
        rows = [
            classical_concentration_scan(
                CFG, [0.5, 0.1], delta=1.0,
                sampler=SamplerConfig(n_samples=20_000, seed=7, threads=threads),
            ).rows
            for threads in (1, 2)
        ]
        assert rows[0] == rows[1]


class TestConvergenceSweep:
    def test_free_extrapolates_to_free_propagator(self):
        res = convergence_sweep(
            FREE, CFG, n_list=[2, 3], gamma_list=[0.2, 0.1, 0.05], points_per_dim=24
        )
        for n, summary in res.summary["gamma_extrapolated"].items():
            assert abs(summary["value"] - 1.0 / (2 * math.pi)) <= summary["uncertainty"]

    def test_free_n_trend_flat(self):
        res = convergence_sweep(
            FREE, CFG, n_list=[2, 3, 4], gamma_list=[0.05], points_per_dim=24
        )
        vals = [row["value"] for row in res.rows]
        # flat up to the O(gamma) regularizer weighting of extra interior points
        assert max(vals) - min(vals) < 0.03 * max(vals)

    def test_weak_line_n_differences_decrease(self):
        p = BandLimitedPotential.single_line(a=0.1, q=1.0)
        res = convergence_sweep(
            p,
            LatticeConfig(0.0, 1.0, 4, 0.1, 0.0, 0.3),
            n_list=[2, 3, 4],
            gamma_list=[0.1],
            points_per_dim=28,
        )
        v = [row["value"] for row in res.rows]
        assert abs(v[2] - v[1]) <= abs(v[1] - v[0])

    def test_mc_rows_use_sampler(self):
        sampler = SamplerConfig(n_samples=4096, seed=5, threads=2)
        res = convergence_sweep(FREE, CFG, [2], [0.1], method="mc", sampler=sampler)
        est = estimate_transition_mc(FREE, replace(CFG, n=2), sampler)
        assert res.rows[0]["value"] == est.value
        assert res.provenance["n_samples"] == 4096 and res.provenance["seed"] == 5

    def test_duplicate_gamma_is_dropped(self):
        # a repeated gamma adds no point to the extrapolation line
        a = convergence_sweep(FREE, CFG, [2], [0.2, 0.1, 0.2], points_per_dim=16)
        b = convergence_sweep(FREE, CFG, [2], [0.2, 0.1], points_per_dim=16)
        assert a.rows == b.rows and a.summary == b.summary

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            convergence_sweep(FREE, CFG, [2], [0.1], method="vegas")


class TestLinearizationOrder:
    def test_reference_slope(self):
        res = linearization_order_scan(
            COSINE, [(0.3, 0.7)], gamma=0.1, eps_list=[0.04, 0.02, 0.01, 0.005]
        )
        slope = res.summary["slopes"][0]["slope"]
        assert slope == pytest.approx(2.0, abs=0.2)

    def test_slope_is_polyfit_of_rows(self):
        # the summary slope is the least-squares fit criterion 5 makes
        points = [(0.3, 0.7), (-0.4, 0.9)]
        res = linearization_order_scan(COSINE, points, 0.1, [0.04, 0.02, 0.01])
        for (z, s), summary in zip(points, res.summary["slopes"]):
            rows = [row for row in res.rows if (row["z"], row["s"]) == (z, s)]
            log_e = np.log([row["eps"] for row in rows])
            log_r = np.log([row["rel_difference"] for row in rows])
            assert summary["slope"] == float(np.polyfit(log_e, log_r, 1)[0])

    def test_free_differences_vanish(self):
        res = linearization_order_scan(
            FREE, [(0.3, 0.7)], gamma=0.1, eps_list=[0.02, 0.01]
        )
        assert all(row["abs_difference"] < 1e-9 * row["q_linear"] for row in res.rows)
        assert res.summary["slopes"][0]["slope"] is None

    def test_amplitude_doubling_quadruples_difference(self):
        double = BandLimitedPotential.single_line(a=2.0, q=1.0)
        r1 = linearization_order_scan(COSINE, [(0.3, 0.7)], 0.1, [0.01])
        r2 = linearization_order_scan(double, [(0.3, 0.7)], 0.1, [0.01])
        ratio = r2.rows[0]["rel_difference"] / r1.rows[0]["rel_difference"]
        assert ratio == pytest.approx(4.0, rel=0.05)

    def test_grid_potential_slope(self):
        # a tabulated potential is a cosine sum, so it scans like one
        x = np.linspace(-40, 40, 3001)
        from pathprob.potentials import band_limit

        p_grid, _ = band_limit(x, np.cos(x), R=2.0)
        res = linearization_order_scan(
            p_grid, [(0.3, 0.7)], gamma=0.1, eps_list=[0.04, 0.02, 0.01, 0.005]
        )
        assert res.summary["slopes"][0]["slope"] == pytest.approx(2.0, abs=0.2)


class TestOutputs:
    def test_write_table_and_provenance(self, tmp_path):
        res = linearization_order_scan(COSINE, [(0.3, 0.7)], 0.1, [0.02, 0.01])
        csv_path, json_path = res.write(str(tmp_path / "scan"))
        header = open(csv_path).readline().strip().split(",")
        assert header == list(res.rows[0].keys())
        sidecar = json.load(open(json_path))
        assert sidecar["name"] == "linearization_order"
        prov = sidecar["provenance"]
        for key in ("package_version", "numpy_version", "gamma", "eps_list"):
            assert key in prov
