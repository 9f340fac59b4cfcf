import argparse
import importlib.metadata
import json
import math
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10; pytest itself depends on tomli there
    import tomli as tomllib

import pathprob
from pathprob import cli, weights
from pathprob.cli import _COMMANDS, _FLAGS, _SECTIONS, _build_parser, main, run
from pathprob.lattice import (
    LatticeConfig,
    interior_from_velocity_changes,
    make_path,
    write_path_csv,
)
from pathprob.potentials import BandLimitedPotential
from pathprob.quadrature import probability_product_form

COSINE_CONFIG = {
    "potential": {
        "lines": [{"q": 1.0, "a": 1.0, "phi": 0.0}],
        "R": 1.0,
        "K": 2 * math.pi,
    },
    "lattice": {"ta": 0.0, "tb": 1.0, "n": 4, "gamma": 0.1, "za": 0.0, "zb": 0.2},
}

FREE_CONFIG = {
    "lattice": {"ta": 0.0, "tb": 1.0, "n": 2, "gamma": 0.05, "za": 0.0, "zb": 0.0}
}


@pytest.fixture
def cosine_json(tmp_path):
    f = tmp_path / "cosine.json"
    f.write_text(json.dumps(COSINE_CONFIG))
    return str(f)


@pytest.fixture
def free_json(tmp_path):
    f = tmp_path / "free.json"
    f.write_text(json.dumps(FREE_CONFIG))
    return str(f)


def straight_line(cfg):
    """The path with every velocity change zero."""
    return make_path(cfg, interior_from_velocity_changes(np.zeros(cfg.n - 1), cfg))


def run_json(argv, tmp_path):
    out = tmp_path / "out.json"
    code = run(argv + ["--out", str(out)])
    payload = json.loads(out.read_text()) if out.exists() else None
    return code, payload


class TestPositivity:
    def test_cosine_thresholds(self, cosine_json, tmp_path):
        code, payload = run_json(
            ["positivity", "-c", cosine_json, "--gamma", "0.1"], tmp_path
        )
        assert code == 0
        assert payload["lambda_paper"] == pytest.approx(0.01, rel=1e-10)
        # strict threshold from the certified supremum (the leading-order
        # value 1/100 would fail the zero-tolerance positivity test)
        assert payload["lambda_strict"] == pytest.approx(1 / 101.73588140386153, rel=1e-8)
        assert payload["witness"]["q_at_threshold"] >= 0
        assert payload["witness"]["q_above_threshold"] < 0

    def test_grid_potential_certified(self, tmp_path):
        # a sampled spectrum is read as lines, so its threshold is certified
        vt = np.zeros((41, 2))
        vt[[0, -1], 0], vt[[1, -2], 0] = 1.0, 0.5
        f = tmp_path / "grid.json"
        f.write_text(json.dumps({"potential": {"grid": {"qmax": 1.0, "values": vt.tolist()}}}))
        code, payload = run_json(["positivity", "-c", str(f), "--gamma", "0.4"], tmp_path)
        assert code == 0
        assert payload["m_sup_certified"] is True
        assert payload["lambda_strict"] < payload["lambda_paper"]
        assert payload["witness"]["q_at_threshold"] >= 0
        assert payload["witness"]["q_above_threshold"] < 0

    def test_zero_potential(self, free_json, tmp_path):
        code, payload = run_json(["positivity", "-c", free_json, "--gamma", "0.1"], tmp_path)
        assert code == 0
        assert set(payload) == {"gamma", "lambda_paper", "lambda_strict", "timestamp"}
        assert payload["lambda_paper"] == payload["lambda_strict"] == "inf"

    def test_zero_amplitude_line(self, tmp_path):
        # a line keeps its certified supremum, 0, and both thresholds are inf: no witness
        f = tmp_path / "flat.json"
        f.write_text(json.dumps({"potential": {"lines": [{"q": 1.0, "a": 0.0}]}}))
        code, payload = run_json(["positivity", "-c", str(f), "--gamma", "0.1"], tmp_path)
        assert code == 0
        assert payload["m_sup"] == 0.0 and payload["m_sup_certified"] is True
        assert payload["lambda_paper"] == payload["lambda_strict"] == "inf"
        assert "witness" not in payload

    def test_gamma_required(self, tmp_path, capsys):
        f = tmp_path / "pot.json"
        f.write_text(json.dumps({"potential": COSINE_CONFIG["potential"]}))
        assert run(["positivity", "-c", str(f)]) == 1
        assert "positivity needs a positive finite --gamma" in capsys.readouterr().err

    # q / gamma past about 7e76 made the certified supremum nan (exit 0, nan thresholds, and
    # RuntimeWarnings), and q past about 1.3e154 raised OverflowError on R^2 (a traceback)
    @pytest.mark.parametrize("q", [1e77, 1e100, 1e160])
    def test_huge_wavenumber_exits_cleanly(self, q, tmp_path, capsys):
        f = tmp_path / "huge.json"
        f.write_text(json.dumps({"potential": {"lines": [{"q": q, "a": 1.0, "phi": 0.0}]}}))
        code, payload = run_json(["positivity", "-c", str(f), "--gamma", "1.0"], tmp_path)
        if code == 2:  # D at the witness, s* = q, overflows
            assert capsys.readouterr().err.startswith("error: no witness in double precision")
        else:
            assert code == 0 and payload["m_sup_certified"] is True
            assert payload["m_sup"] == "inf" and payload["lambda_strict"] == 0.0
        assert code == (0 if q > 1e154 else 2)

    def test_tiny_wavenumber_exits_cleanly(self, tmp_path, capsys):
        # R^2 K underflows to 0 below q about 1e-162 (a ZeroDivisionError's traceback once);
        # the paper's threshold, 2 pi (gamma / R)^2 / K, is past the largest double
        f = tmp_path / "tiny.json"
        f.write_text(json.dumps({"potential": {"lines": [{"q": 1e-170, "a": 1.0}]}}))
        code, payload = run_json(["positivity", "-c", str(f), "--gamma", "0.1"], tmp_path)
        assert code == 0 and capsys.readouterr().err == ""
        assert payload["lambda_paper"] == "inf" and payload["lambda_strict"] > 1e168

    def test_gamma_past_square_overflow(self, cosine_json, tmp_path, capsys):
        # gamma^2 overflows past gamma about 1.34e154 (an OverflowError's traceback once), and
        # so does the witness's s^2 + gamma^2: the paper's threshold is past the largest double
        argv = ["positivity", "-c", cosine_json, "--gamma", "1e160"]
        code, payload = run_json(argv, tmp_path)
        assert code == 0 and capsys.readouterr().err == ""
        assert payload["lambda_paper"] == "inf"
        assert payload["lambda_strict"] == pytest.approx(5e159, rel=1e-11)

    @pytest.mark.filterwarnings("ignore:.*lambda_strict.*:UserWarning")
    def test_huge_wavenumber_mc_is_free(self, tmp_path):
        # the line's D overflows to its limit 0 at every drawn s: the free particle's estimate
        config = dict(FREE_CONFIG, sampler={"n_samples": 4096, "seed": 1})
        f, g = tmp_path / "huge.json", tmp_path / "free.json"
        f.write_text(json.dumps(config | {"potential": {"lines": [{"q": 1e160, "a": 1.0}]}}))
        g.write_text(json.dumps(config))
        argv = ["transition", "--method", "mc", "-c"]
        code, huge = run_json(argv + [str(f)], tmp_path)
        assert code == 0 and huge["value"] == run_json(argv + [str(g)], tmp_path)[1]["value"]


class TestTransition:
    def test_free_quadrature_value(self, free_json, tmp_path):
        code, payload = run_json(
            ["transition", "-c", free_json, "--method", "quadrature"], tmp_path
        )
        assert code == 0
        assert payload["value"] == pytest.approx(1 / (2 * math.pi), rel=0.05)

    @pytest.mark.filterwarnings("ignore:.*lambda_strict.*:UserWarning")
    def test_mc_deterministic_modulo_timestamp(self, cosine_json, tmp_path):
        argv = [
            "transition", "-c", cosine_json, "--method", "mc",
            "--seed", "5", "--samples", "5000",
        ]
        _, a = run_json(argv, tmp_path)
        _, b = run_json(argv, tmp_path)
        a.pop("timestamp"), b.pop("timestamp")
        assert a == b

    def test_csv_format(self, free_json, tmp_path):
        out = tmp_path / "out.csv"
        code = run(
            ["transition", "-c", free_json, "--format", "csv", "--out", str(out)]
        )
        assert code == 0
        header = out.read_text().splitlines()[0]
        assert header.split(",") == [
            "n", "gamma", "points_per_dim", "value", "refinement_delta",
        ]

    def test_numeric_failure_exit_code(self, free_json, capsys):
        assert run(["transition", "-c", free_json, "-n", "9"]) == 2
        assert "error" in capsys.readouterr().err

    def test_mc_without_weight_exit_code(self, tmp_path, capsys):
        # every drawn path's importance ratio underflows to 0: no nan value
        f = tmp_path / "far.json"
        f.write_text(json.dumps({
            "lattice": {"ta": 0.0, "tb": 1.0, "n": 4, "gamma": 1.0, "za": 20000.0, "zb": 20000.0},
            "sampler": {"n_samples": 4096, "seed": 1},
        }))
        assert run(["transition", "-c", str(f), "--method", "mc"]) == 2
        assert "no drawn path carries weight" in capsys.readouterr().err


class TestWeight:
    def test_straight_line_free_path(self, tmp_path, free_json):
        cfg = LatticeConfig(0.0, 1.0, 2, 0.05, 0.0, 0.0)
        path_file = tmp_path / "p.csv"
        write_path_csv(straight_line(cfg), cfg, path_file)
        code, payload = run_json(
            ["weight", "-c", free_json, "--path", str(path_file), "--expect-positive"],
            tmp_path,
        )
        assert code == 0
        assert payload["W"] > 0 and payload["sign"] == 1
        assert payload["lambda_strict"] == "inf"

    def test_negative_weight_violates_expectation(self, tmp_path, cosine_json):
        # eps = 0.25 is far above the strict threshold; place the interior
        # point at the kernel's maximum so one step factor turns negative
        cfg = LatticeConfig(0.0, 1.0, 4, 0.1, 0.0, 0.2)
        z1 = -math.pi / 2
        z2 = 1.0 * cfg.eps + 2 * z1 - cfg.z_a
        z = np.array([cfg.z_a, z1, z2, z2, cfg.z_b])
        from pathprob.lattice import Path

        path_file = tmp_path / "neg.csv"
        write_path_csv(Path(z), cfg, path_file)
        code, payload = run_json(
            ["weight", "-c", cosine_json, "--path", str(path_file), "--expect-positive"],
            tmp_path,
        )
        assert code == 3
        assert payload["sign"] == -1

    @pytest.mark.parametrize("form", ["linear", "exponential"])
    def test_far_path_keeps_sign(self, tmp_path, form):
        # gamma |z| = 800 at every interior point: each Q_j underflows to 0,
        # but the weight's sign and log come from the factors of Q
        config = tmp_path / "far.json"
        config.write_text(json.dumps({
            "potential": {"lines": [{"q": 1.0, "a": 0.1, "phi": 0.0}]},
            "lattice": {"ta": 0.0, "tb": 1.0, "n": 4, "gamma": 0.5, "za": 0.0, "zb": 0.2},
        }))
        cfg = LatticeConfig(0.0, 1.0, 4, 0.5, 0.0, 0.2)
        path_file = tmp_path / "far.csv"
        write_path_csv(make_path(cfg, np.full(3, 1600.0)), cfg, path_file)
        code, payload = run_json(
            ["weight", "-c", str(config), "--path", str(path_file), "--form", form,
             "--expect-positive"],
            tmp_path,
        )
        assert code == 0
        assert payload["sign"] == 1 and payload["W"] == 0.0
        assert all(step["Q"] == 0.0 for step in payload["per_step"])
        assert math.isfinite(payload["logabsW"])

    @pytest.mark.parametrize("q", [1e155, 1e160, 1e300])
    def test_exponential_past_square_overflow(self, tmp_path, capsys, q):
        # the series' Lorentzians at m q, m != 0, overflow to their limit 0 quietly
        config = tmp_path / "huge.json"
        lines = [{"q": q, "a": 0.3}]
        config.write_text(json.dumps(dict(COSINE_CONFIG, potential={"lines": lines})))
        cfg = LatticeConfig(0.0, 1.0, 4, 0.1, 0.0, 0.2)
        path_file = tmp_path / "p.csv"
        write_path_csv(straight_line(cfg), cfg, path_file)
        argv = ["weight", "-c", str(config), "--path", str(path_file), "--form", "exponential"]
        assert run(argv) == 0
        assert capsys.readouterr().err == ""

    def test_step_past_numerator_overflow(self, tmp_path, capsys, cosine_json):
        # z_2 = 1e110 puts |s| near 1e111, where D's numerator and denominator both overflow;
        # M and Q stay finite, so the run does not stop on "non-finite step factor Q"
        cfg = LatticeConfig(0.0, 1.0, 4, 0.1, 0.0, 0.2)
        path_file = tmp_path / "p.csv"
        write_path_csv(make_path(cfg, np.array([0.1, 1e110, 0.1])), cfg, path_file)
        assert run(["weight", "-c", cosine_json, "--path", str(path_file)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert math.isfinite(json.loads(captured.out)["W"])

    def test_step_factor_zero_times_inf(self, tmp_path, capsys):
        # s = -q at z = 2.5e99: exp(-gamma |z|) underflows to 0 and g = 1 - eps M is inf, so
        # Q is 0 inf; the run stops on that Q without a RuntimeWarning
        config = tmp_path / "huge.json"
        config.write_text(json.dumps({
            "potential": {"lines": [{"q": 1e100, "a": 1.0}]},
            "lattice": {"ta": 0.0, "tb": 1.0, "n": 2, "gamma": 1.0, "za": 0.0, "zb": 0.0},
        }))
        cfg = LatticeConfig(0.0, 1.0, 2, 1.0, 0.0, 0.0)
        path_file = tmp_path / "p.csv"
        write_path_csv(make_path(cfg, [2.5e99]), cfg, path_file)
        assert run(["weight", "-c", str(config), "--path", str(path_file)]) == 2
        assert capsys.readouterr().err == "error: non-finite step factor Q\n"

    def test_tiny_wavenumber(self, tmp_path, capsys):
        # the thresholds behind the weight no longer stop the run where R^2 K underflows
        config = tmp_path / "tiny.json"
        config.write_text(json.dumps(dict(COSINE_CONFIG, potential={
            "lines": [{"q": 1e-170, "a": 1.0}]})))
        cfg = LatticeConfig(0.0, 1.0, 4, 0.1, 0.0, 0.2)
        path_file = tmp_path / "p.csv"
        write_path_csv(straight_line(cfg), cfg, path_file)
        code, payload = run_json(["weight", "-c", str(config), "--path", str(path_file)],
                                 tmp_path)
        assert code == 0 and capsys.readouterr().err == ""
        assert payload["sign"] == 1 and payload["lambda_paper"] == "inf"

    def test_gamma_past_square_overflow(self, tmp_path, capsys):
        # gamma^2 overflows and M is nan at every step: the run stops on the step factor,
        # not on casting a nan sign, and without a RuntimeWarning
        config = tmp_path / "wide.json"
        config.write_text(json.dumps(dict(COSINE_CONFIG, lattice=dict(
            COSINE_CONFIG["lattice"], gamma=1e160))))
        cfg = LatticeConfig(0.0, 1.0, 4, 0.1, 0.0, 0.2)
        path_file = tmp_path / "p.csv"
        write_path_csv(straight_line(cfg), cfg, path_file)
        assert run(["weight", "-c", str(config), "--path", str(path_file)]) == 2
        assert capsys.readouterr().err == "error: non-finite step factor Q\n"


class TestOtherCommands:
    def test_oracle_free(self, free_json, tmp_path):
        code, payload = run_json(["oracle", "-c", free_json], tmp_path)
        assert code == 0
        assert payload["probability"] == pytest.approx(1 / (2 * math.pi), rel=1e-3)

    def test_ck_amplitude(self, cosine_json, tmp_path):
        code, payload = run_json(
            ["ck", "-c", cosine_json, "--mode", "amplitude"], tmp_path
        )
        assert code == 0
        assert payload["residual"] <= 1e-6

    def test_ck_reads_oracle_grid(self, tmp_path):
        f = tmp_path / "grid.json"
        f.write_text(json.dumps(dict(COSINE_CONFIG, oracle={"X": 14.0, "L": 1024})))
        code, payload = run_json(["ck", "-c", str(f), "--mode", "amplitude"], tmp_path)
        assert code == 0
        assert payload["window"] == 10.0

    def test_scan_writes_table_and_provenance(self, free_json, tmp_path, capsys):
        prefix = tmp_path / "scan"
        code = run(
            [
                "scan", "-c", free_json, "--kind", "classical",
                "--gammas", "0.2", "0.1", "--seed", "3", "--out", str(prefix),
            ]
        )
        assert code == 0
        # the written files' paths, one a line
        assert capsys.readouterr().out.split() == [f"{prefix}.csv", f"{prefix}.provenance.json"]
        assert (tmp_path / "scan.csv").exists()
        prov = json.load(open(tmp_path / "scan.provenance.json"))
        assert prov["provenance"]["seed"] == 3

    def test_scan_reads_sampler_config(self, tmp_path, capsys):
        f = tmp_path / "sampled.json"
        f.write_text(json.dumps(dict(FREE_CONFIG, sampler={"n_samples": 2000, "seed": 4})))
        prefix = tmp_path / "scan"
        code = run(["scan", "-c", str(f), "--kind", "classical", "--out", str(prefix)])
        assert code == 0
        assert capsys.readouterr().out.split() == [f"{prefix}.csv", f"{prefix}.provenance.json"]
        prov = json.load(open(tmp_path / "scan.provenance.json"))["provenance"]
        assert prov["n_samples"] == 2000 and prov["seed"] == 4

    def test_scan_convergence(self, cosine_json, tmp_path, capsys):
        argv = [
            "scan", "-c", cosine_json, "--kind", "convergence",
            "--n-list", "2", "3", "--gammas", "0.2", "0.1",
        ]
        assert run(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        # one row per (n, gamma), the gammas in increasing order
        assert [(r["n"], r["gamma"]) for r in payload["rows"]] == [
            (2, 0.1), (2, 0.2), (3, 0.1), (3, 0.2),
        ]
        extrapolated = payload["summary"]["gamma_extrapolated"]
        assert set(extrapolated) == {"2", "3"}
        assert all(set(v) == {"value", "uncertainty"} for v in extrapolated.values())
        # a row is the transition subcommand's estimate at its (n, gamma)
        _, single = run_json(
            ["transition", "-c", cosine_json, "-n", "3", "--gamma", "0.2"], tmp_path
        )
        assert payload["rows"][3]["value"] == single["value"]
        assert run(argv + ["--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split(",") == ["n", "gamma", "value", "std_error", "method"]
        assert [line.split(",")[:2] for line in lines[1:]] == [
            ["2", "0.1"], ["2", "0.2"], ["3", "0.1"], ["3", "0.2"],
        ]

    def test_scan_linearization(self, cosine_json, capsys):
        code = run(
            [
                "scan", "-c", cosine_json, "--kind", "linearization",
                "--points", "0.3,0.7", "--eps-list", "0.02", "0.01",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["slopes"][0]["slope"] == pytest.approx(2.0, abs=0.3)

    @pytest.mark.parametrize("a", [2e7, 1e17])
    def test_scan_linearization_past_term_cap(self, tmp_path, capsys, monkeypatch, a):
        # a line whose own Jacobi-Anger orders pass SERIES_TERMS exits 2
        # before any Bessel value is computed
        monkeypatch.setattr(weights, "_jacobi_anger", lambda *args: pytest.fail("Bessel work"))
        f = tmp_path / "strong.json"
        f.write_text(json.dumps({
            "potential": {"lines": [{"q": 1.0, "a": a, "phi": 0.0}]},
            "lattice": COSINE_CONFIG["lattice"],
        }))
        argv = ["scan", "-c", str(f), "--kind", "linearization", "--points", "0.3,0.7"]
        assert run(argv + ["--eps-list", "0.25"]) == 2
        assert "SERIES_TERMS" in capsys.readouterr().err


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert run(["bogus"]) == 1
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    def test_unknown_flag(self, tmp_path, free_json, capsys):
        # a subcommand rejects the flags it does not read
        cfg = LatticeConfig(0.0, 1.0, 2, 0.05, 0.0, 0.0)
        path_file = tmp_path / "p.csv"
        write_path_csv(straight_line(cfg), cfg, path_file)
        weight = ["weight", "-c", free_json, "--path", str(path_file)]
        for argv, extra in (
            (["positivity"], ["--frobnicate"]),
            (["oracle", "-c", free_json], ["--seed", "1"]),
            (weight, ["--threads", "2"]),
            (["positivity", "-c", free_json], ["-n", "4"]),
            (["ck", "-c", free_json], ["--gamma", "0.1"]),
            (weight, ["--format", "json"]),
        ):
            assert run(argv + extra) == 1, extra
            assert f"unrecognized arguments: {' '.join(extra)}" in capsys.readouterr().err

    def test_unknown_oracle_field(self, tmp_path, capsys):
        f = tmp_path / "typo.json"
        f.write_text(json.dumps(dict(FREE_CONFIG, oracle={"X": 12.0, "DT": 1e-4})))
        for command in ("oracle", "ck"):
            assert run([command, "-c", str(f)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: unknown oracle fields") and "'DT'" in err
            assert "'X'" not in err and "Traceback" not in err

    def test_time_step_is_unknown_field(self, tmp_path, capsys):
        # both subcommands propagate exactly in time; no field picks an integrator
        f = tmp_path / "dt.json"
        f.write_text(json.dumps(dict(FREE_CONFIG, oracle={"dt": 1e-4})))
        for command in ("oracle", "ck"):
            assert run([command, "-c", str(f)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: unknown oracle fields") and "'dt'" in err

    def test_points_without_half_width(self, tmp_path, capsys):
        # L alone keeps the image-safe default X (18.6 here)
        f = tmp_path / "l.json"
        f.write_text(json.dumps(dict(FREE_CONFIG, oracle={"L": 512})))
        assert run(["oracle", "-c", str(f)]) == 2
        err = capsys.readouterr().err
        assert "X = 18.6 with L = 512" in err and "use L >= 744" in err
        assert "Traceback" not in err
        f.write_text(json.dumps(dict(FREE_CONFIG, oracle={"L": 768})))
        code, payload = run_json(["oracle", "-c", str(f)], tmp_path)
        assert code == 0
        assert payload["probability"] == pytest.approx(1.0 / (2.0 * np.pi), rel=1e-9)

    @pytest.mark.parametrize(
        "argv,config",
        [
            (["transition", "--gamma", "-1"], FREE_CONFIG),
            (["positivity", "--gamma", "-1"], FREE_CONFIG),
            (["transition", "-n", "1"], FREE_CONFIG),
            (["transition"], {"lattice": dict(FREE_CONFIG["lattice"], n="four")}),
            (["transition", "--method", "mc", "--threads", "0"], FREE_CONFIG),
            (["transition", "--method", "mc", "--samples", "5"], FREE_CONFIG),
            (["transition", "--method", "mc"], dict(FREE_CONFIG, sampler={"method": "bogus"})),
            (["transition"], {"lattice": dict(FREE_CONFIG["lattice"], gama=0.1)}),
            (["scan", "--kind", "classical"], dict(FREE_CONFIG, sampler={"n_samples": 5})),
            (["scan", "--kind", "classical", "--threads", "0"], FREE_CONFIG),
            (["scan", "--kind", "convergence"], dict(FREE_CONFIG, sampler={"sed": 1})),
            (["ck", "--tc", "2.0"], FREE_CONFIG),
            (["ck", "--tc", "0.0"], FREE_CONFIG),
            (["transition"], [FREE_CONFIG]),
            (["transition"], dict(FREE_CONFIG, lattice=[1, 2])),
            (
                ["scan", "--kind", "convergence", "--method", "mc"],
                dict(FREE_CONFIG, sampler={"method": "gaussian"}),
            ),
            (["transition", "--method", "mc"], dict(FREE_CONFIG, sampler={"gamma_prop": 1.0})),
            (["transition", "--method", "mc"], dict(FREE_CONFIG, sampler={"sigma_prop": 1.0})),
            (
                ["positivity", "--gamma", "0.1"],
                {"potential": {"grid": {"qmax": 1.0, "values": [1.0, 2.0, 3.0]}}},
            ),
            (["transition"], {"lattice": dict(FREE_CONFIG["lattice"], n=3.7)}),
            (["transition"], {"lattice": dict(FREE_CONFIG["lattice"], n=math.inf)}),
            (["transition", "--method", "mc"], dict(FREE_CONFIG, sampler={"n_samples": 1000.9})),
            (["transition", "--method", "mc"], dict(FREE_CONFIG, sampler={"threads": True})),
            (["oracle"], dict(FREE_CONFIG, oracle={"L": 1000.5})),
            (
                ["transition"],
                dict(COSINE_CONFIG, lattice=dict(COSINE_CONFIG["lattice"], zb=math.inf)),
            ),
            (["transition"], {"lattice": dict(FREE_CONFIG["lattice"], zb=math.inf)}),
            (["transition"], {"lattice": dict(FREE_CONFIG["lattice"], za=-math.inf)}),
            (["transition"], {"lattice": dict(FREE_CONFIG["lattice"], tb=math.inf)}),
            (["transition"], {"lattice": dict(FREE_CONFIG["lattice"], ta=math.nan)}),
            (["transition", "--gamma", "inf"], FREE_CONFIG),
            (["transition", "--gamma", "nan"], FREE_CONFIG),
            (["positivity", "--gamma", "inf"], FREE_CONFIG),
            (["oracle"], {"lattice": dict(FREE_CONFIG["lattice"], zb=math.inf)}),
            (
                ["positivity", "--gamma", "0.1"],
                {"potential": {"grid": {"qmax": 1.0, "values": [[0.5, 0], [1, 0], [0.5, 0]]}}},
            ),
            (["positivity", "--gamma", "0.1"], {"potential": {"lines": [{"q": 1, "a": math.nan}]}}),
            (["positivity", "--gamma", "0.1"], {"potential": {"lines": [{"q": math.inf, "a": 1}]}}),
            (
                ["positivity", "--gamma", "0.1"],
                {"potential": {"lines": [{"q": 1, "a": 1, "phi": math.inf}]}},
            ),
            (["oracle"], dict(FREE_CONFIG, oracle={"L": 1})),
            (["oracle"], dict(FREE_CONFIG, oracle={"L": 0})),
            (["ck"], dict(FREE_CONFIG, oracle={"L": -5})),
            (["oracle"], dict(FREE_CONFIG, oracle={"X": math.inf})),
            (["ck"], dict(FREE_CONFIG, oracle={"X": math.nan})),
            (
                ["positivity", "--gamma", "0.1"],
                {"potential": {"grid": {"qmax": 1.0, "values": [[0, 0], [1, 0], [1, 0], [0, 0]]}}},
            ),
        ],
    )
    def test_bad_config_value(self, tmp_path, capsys, argv, config):
        # a value the config types reject is a usage error, like a bad flag
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(config))
        assert run([argv[0], "-c", str(f), *argv[1:]]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["scan", "--kind", "classical", "--gammas", "0.5", "-0.1"],
            ["scan", "--kind", "convergence", "--n-list", "1"],
            ["scan", "--kind", "linearization", "--eps-list", "-0.01", "0.02"],
            ["scan", "--kind", "linearization", "--points", "0.3"],
            ["scan", "--kind", "linearization", "--points", "a,b"],
            ["transition", "--points-per-dim", "0"],
            ["scan", "--kind", "classical", "--delta", "nan"],
            ["scan", "--kind", "classical", "--delta", "inf"],
            ["scan", "--kind", "classical", "--delta", "-1"],
            ["scan", "--kind", "linearization", "--points", "nan,0.7"],
            ["scan", "--kind", "linearization", "--points", "0.3,nan"],
            ["scan", "--kind", "linearization", "--points", "0.3,inf"],
        ],
    )
    def test_out_of_range_flag(self, free_json, capsys, argv):
        # the parser rejects the value before any work, like an unknown flag
        assert run([*argv, "-c", free_json]) == 1
        assert "error: argument --" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rows",
        [
            [],
            ["j,t,z", "0,0.0,0.0", "1,0.25", "2,0.5,0.1", "3,0.75,0.1", "4,1.0,0.2"],
            ["j,t,z", "0,0.0,0.0", "1,0.25,x", "2,0.5,0.1", "3,0.75,0.1", "4,1.0,0.2"],
            ["j,t,z"] + [f"{j},{j / 5},{0.04 * j}" for j in range(6)],
        ],
        ids=["empty", "short-row", "non-numeric-z", "five-steps-for-n4"],
    )
    def test_bad_path_file(self, tmp_path, capsys, cosine_json, rows):
        path_file = tmp_path / "bad.csv"
        path_file.write_text("".join(row + "\n" for row in rows))
        assert run(["weight", "-c", cosine_json, "--path", str(path_file)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad path file: ") and "Traceback" not in err

    @pytest.mark.parametrize("form", ["linear", "exponential"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_path_position(self, tmp_path, capsys, cosine_json, value, form):
        # rejected on reading, before either step factor sees it
        path_file = tmp_path / "bad.csv"
        rows = ["j,t,z", "0,0.0,0.0", f"1,0.25,{value}", "2,0.5,0.1", "3,0.75,0.1", "4,1.0,0.2"]
        path_file.write_text("".join(row + "\n" for row in rows))
        argv = ["weight", "-c", cosine_json, "--path", str(path_file), "--form", form]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err == "error: bad path file: a path's positions must be finite\n"

    def test_grid_without_endpoints(self, tmp_path, capsys):
        f = tmp_path / "narrow.json"
        f.write_text(json.dumps(dict(COSINE_CONFIG, oracle={"X": 3.0})))
        assert run(["ck", "-c", str(f)]) == 2
        err = capsys.readouterr().err
        assert "X = 3 does not hold the endpoints" in err and "Traceback" not in err

    def test_grid_too_large(self, tmp_path, capsys):
        # the default L for X = 1e300 would be searched from about 5e301
        f = tmp_path / "wide.json"
        f.write_text(json.dumps(dict(FREE_CONFIG, oracle={"X": 1e300})))
        for command in ("oracle", "ck"):
            assert run([command, "-c", str(f)]) == 2
            err = capsys.readouterr().err
            assert "oracle grid too large" in err and "Traceback" not in err

    def test_missing_config_file(self, capsys):
        assert run(["positivity", "-c", "/nonexistent.json", "--gamma", "0.1"]) == 1
        assert "No such file or directory: '/nonexistent.json'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["weight", "--path", "unread.csv"],
            ["positivity"],
            ["transition"],
            ["oracle"],
            ["ck"],
            ["scan", "--kind", "classical"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_config_and_potential_read_first(self, tmp_path, capsys, argv):
        # every subcommand reads the config and its potential before its own
        # arguments, so both failures read the same whatever the subcommand
        assert run(argv + ["-c", str(tmp_path / "missing.json")]) == 1
        assert capsys.readouterr().err.startswith("error: bad input")
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(dict(COSINE_CONFIG, potential={"lines": [{"q": -1.0, "a": 0.1}]})))
        assert run(argv + ["-c", str(f)]) == 1
        assert capsys.readouterr().err.startswith("error: bad potential")

    def test_missing_lattice_fields(self, tmp_path, capsys):
        f = tmp_path / "partial.json"
        f.write_text(json.dumps({"lattice": {"ta": 0.0}}))
        assert run(["transition", "-c", str(f)]) == 1
        err = capsys.readouterr().err
        assert "lattice section missing fields: ['tb', 'n', 'gamma', 'za', 'zb']" in err

    @pytest.mark.parametrize("declared", [{"R": 0.5}, {"K": 1.0}])
    def test_violated_potential_declaration(self, tmp_path, capsys, declared):
        config = json.loads(json.dumps(COSINE_CONFIG))
        config["potential"].update(declared)
        f = tmp_path / "tight.json"
        f.write_text(json.dumps(config))
        assert run(["positivity", "-c", str(f)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad potential") and "Traceback" not in err


README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
CK_KEYS = {"mode", "lhs_re", "lhs_im", "rhs_re", "rhs_im", "residual", "converged", "window"}
SCAN_KEYS = {"name", "rows", "summary", "provenance"}
TRANSITION_KEYS = {"value", "std_error", "method", "n", "eps", "gamma"}


class TestSchema:
    @pytest.mark.parametrize(
        "argv,keys",
        [
            (
                ["positivity"],
                {"gamma", "lambda_paper", "lambda_strict", "m_sup", "m_sup_certified", "witness"},
            ),
            (
                ["weight", "--path", "PATH"],
                {"W", "sign", "logabsW", "lambda_paper", "lambda_strict", "positive", "per_step"},
            ),
            (["transition", "--points-per-dim", "8"], TRANSITION_KEYS | {"refinement"}),
            (
                ["transition", "--method", "mc", "--samples", "4096"],
                TRANSITION_KEYS | {"ess", "negative_mass_fraction", "seed"},
            ),
            (
                ["oracle"],
                {"amplitude_re", "amplitude_im", "extrapolation_residual", "probability",
                 "za", "zb", "duration"},
            ),
            (["ck", "--mode", "probability"], CK_KEYS),
            (["ck", "--mode", "amplitude"], CK_KEYS),
            (["scan", "--kind", "linearization", "--eps-list", "0.02", "0.01"], SCAN_KEYS),
            (["scan", "--kind", "classical", "--gammas", "0.2"], SCAN_KEYS),
        ],
    )
    @pytest.mark.filterwarnings("ignore:.*lambda_strict.*:UserWarning")
    def test_payload_keys(self, tmp_path, capsys, argv, keys):
        f = tmp_path / "cosine.json"
        f.write_text(json.dumps(dict(COSINE_CONFIG, oracle={"X": 14.0, "L": 1024})))
        cfg = LatticeConfig(0.0, 1.0, 4, 0.1, 0.0, 0.2)
        path_file = tmp_path / "p.csv"
        write_path_csv(straight_line(cfg), cfg, path_file)
        argv = [str(path_file) if a == "PATH" else a for a in argv]
        assert run([argv[0], "-c", str(f), *argv[1:]]) == 0
        assert set(json.loads(capsys.readouterr().out)) == keys | {"timestamp"}

    def test_readme_flag_table(self):
        # README's per-subcommand table lists every flag each subparser takes
        with open(README) as fh:
            text = fh.read()
        table = text[text.index("| subcommand"):].split("\n\n", 1)[0]
        documented = {}
        for row in table.splitlines()[2:]:
            _, name, flags, _ = re.split(r"(?<!\\)\|", row)
            documented[name.strip().strip("`")] = set(re.findall(r"`(-[^\s`]+)", flags))
        (sub,) = [
            a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ]
        accepted = {
            name: {opt for action in sp._actions for opt in action.option_strings}
            for name, sp in sub.choices.items()
        }
        common = {"-c", "--config", "--out", "-h", "--help"}
        assert accepted == {name: flags | common for name, flags in documented.items()}

    def test_command_table_flags(self):
        # every shared flag a subcommand takes is declared once, in _FLAGS,
        # under its argparse dest, and overrides a field of a config section
        named = {flag for _, _, shared, _ in _COMMANDS.values() for flag in shared}
        assert named == set(_FLAGS)
        for flag, (option, _, target) in _FLAGS.items():
            assert option.lstrip("-").replace("-", "_") == flag
            assert target is None or target[1] in _SECTIONS[target[0]]

    @pytest.mark.parametrize("name", list(_COMMANDS))
    def test_invoked_subcommand_parser(self, name, capsys, monkeypatch):
        # a run adds only its subcommand's parser; its help, its arguments
        # and the usage line of its errors are the full parser's
        built = []
        monkeypatch.setattr(cli, "_build_parser", lambda *a: built.append(a) or _build_parser(*a))
        def subparsers(parser):
            (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
            return sub.choices

        def declared(sp):
            return [(a.option_strings, a.dest, a.default, a.required) for a in sp._actions]

        full, invoked = subparsers(_build_parser()), subparsers(_build_parser(name))
        assert run([name, "--help"]) == 0
        assert capsys.readouterr().out == full[name].format_help()
        assert declared(invoked[name]) == declared(full[name])
        assert list(invoked) == [name]
        required = {"weight": ["--path", "p.csv"], "scan": ["--kind", "classical"]}
        assert run([name, *required.get(name, []), "--bogus"]) == 1
        err = capsys.readouterr().err
        assert err.splitlines()[0] == f"usage: pathprob [-h] {{{','.join(_COMMANDS)}}} ..."
        assert err.endswith("unrecognized arguments: --bogus\n")
        assert built == [(name,), (name,)]
        assert run(["bogus"]) == 1 and built[-1] == (None,)

    def test_fixed_metavar(self):
        # the subcommand list argparse prints for all of _COMMANDS, so a new
        # subcommand keeps an invoked parser's usage line in step
        ap = argparse.ArgumentParser(prog="pathprob")
        sub = ap.add_subparsers(dest="command", required=True)
        for name in _COMMANDS:
            sub.add_parser(name)
        for name in _COMMANDS:
            assert _build_parser(name).format_usage() == ap.format_usage()

    @pytest.mark.parametrize("name", list(_COMMANDS))
    def test_errors_match_full_parser(self, name, capsys, monkeypatch):
        # a missing required argument, an invalid choice and an unrecognized
        # flag exit and read as they do under the full parser
        required = {"weight": ["--path", "p.csv"], "scan": ["--kind", "classical"]}.get(name, [])
        (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        cases = [[name, *required, "--bogus"], [name, *required, "--out"]]
        cases += [[name]] if required else []
        cases += [
            [name, *required, a.option_strings[-1], "bogus"]
            for a in sub.choices[name]._actions if a.choices
        ]

        def outcomes():
            return [(run(argv), capsys.readouterr().err) for argv in cases]

        invoked = outcomes()
        monkeypatch.setattr(cli, "_build_parser", lambda command=None: _build_parser())
        assert outcomes() == invoked
        assert {code for code, _ in invoked} == {1}

    def test_weight_run_builds_two_parsers(self, tmp_path, free_json, monkeypatch):
        # the top-level parser and weight's, none for the other subcommands
        cfg = LatticeConfig(0.0, 1.0, 2, 0.05, 0.0, 0.0)
        path_file = tmp_path / "p.csv"
        write_path_csv(straight_line(cfg), cfg, path_file)
        built = []
        init = argparse.ArgumentParser.__init__
        monkeypatch.setattr(
            argparse.ArgumentParser, "__init__",
            lambda self, *a, **kw: built.append(self) or init(self, *a, **kw),
        )
        code, _ = run_json(["weight", "-c", free_json, "--path", str(path_file)], tmp_path)
        assert code == 0
        assert len(built) == 2

    def test_readme_config_fields(self):
        # README names each config section's fields, in the reader's order
        with open(README) as fh:
            text = fh.read()
        lines = text[text.index("Config fields by section:"):].split("\n\n")[1]
        documented = {}
        for line in lines.splitlines():
            name, fields = line.split(":", 1)
            documented[name.strip("- `")] = re.findall(r"`([^`]+)`", fields)
        assert documented == {name: list(table) for name, table in _SECTIONS.items()}


PYPROJECT = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")


def module_command():
    """argv prefix and environment that run ``python -m pathprob`` on the
    same ``pathprob`` package this process imported."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(pathprob.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return [sys.executable, "-m", "pathprob"], env


def declared_console_script():
    """Load the object that pyproject.toml's ``pathprob`` script points at."""
    with open(PYPROJECT, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["pathprob"]
    return importlib.metadata.EntryPoint("pathprob", target, "console_scripts").load()


def run_without_scipy(code):
    """Run ``code`` in a fresh interpreter in which ``import scipy`` fails."""
    command, env = module_command()
    return subprocess.run(
        [command[0], "-c", "import sys\nsys.modules['scipy'] = None\n" + code],
        capture_output=True,
        text=True,
        env=env,
    )


class TestEntryPoint:
    def test_console_script(self, free_json):
        if shutil.which("pathprob"):
            command, env = ["pathprob"], None
        else:
            # without an install there is no script on PATH; the declared
            # entry point must then be the function ``python -m`` runs
            script = declared_console_script()
            assert callable(script)
            assert script is main
            assert importlib.import_module("pathprob.__main__").main is script
            command, env = module_command()
        proc = subprocess.run(
            command + ["transition", "-c", free_json],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["method"] == "quadrature"

    def test_import_leaves_out_scipy(self, cosine_json, free_json, tmp_path):
        # the CLI runs on numpy alone: with scipy blocked, a fresh interpreter
        # imports it and runs a scan (its provenance), a transition, a path's
        # weight and the positivity thresholds with their witness
        cfg = LatticeConfig(0.0, 1.0, 4, 0.1, 0.0, 0.2)  # COSINE_CONFIG's lattice
        path_file = tmp_path / "p.csv"
        write_path_csv(straight_line(cfg), cfg, path_file)
        argvs = [
            ["scan", "-c", cosine_json, "--kind", "linearization",
             "--points", "0.3,0.7", "--eps-list", "0.02", "0.01"],
            ["transition", "-c", free_json],
            ["weight", "-c", cosine_json, "--path", str(path_file)],
            ["positivity", "-c", cosine_json],
        ]
        proc = run_without_scipy(
            "import contextlib, io\n"
            "import pathprob.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    codes = [pathprob.cli.run(argv) for argv in {argvs!r}]\n"
            "print(codes)\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[0, 0, 0, 0]"

    def test_product_form_as_first_call(self):
        # the product form's Bessel values need no scipy: with scipy blocked,
        # its first call in a fresh interpreter matches the in-process value
        p = BandLimitedPotential.single_line(a=0.2, q=1.0, phi=0.3)
        cfg = LatticeConfig(0.0, 2.0, 2, 1.0, 0.1, -0.2)
        proc = run_without_scipy(
            "from pathprob.lattice import LatticeConfig\n"
            "from pathprob.potentials import BandLimitedPotential\n"
            "from pathprob.quadrature import probability_product_form\n"
            "p = BandLimitedPotential.single_line(a=0.2, q=1.0, phi=0.3)\n"
            "print(repr(probability_product_form(p, LatticeConfig(0.0, 2.0, 2, 1.0, 0.1, -0.2))))\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) == probability_product_form(p, cfg)

    def test_module_exit_codes(self, free_json):
        command, env = module_command()

        def pathprob_run(*argv):
            return subprocess.run(
                command + list(argv), capture_output=True, text=True, env=env
            )

        numeric = pathprob_run("transition", "-c", free_json, "-n", "9")
        assert numeric.returncode == 2
        assert "error" in numeric.stderr
        for usage in (
            pathprob_run("bogus"),
            pathprob_run("positivity", "-c", "/nonexistent.json", "--gamma", "0.1"),
        ):
            assert usage.returncode == 1
            assert "Traceback" not in usage.stderr
