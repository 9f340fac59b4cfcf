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
from pathprob.cli import _SECTIONS, _build_parser, main, run
from pathprob.lattice import (
    LatticeConfig,
    interior_from_velocity_changes,
    make_path,
    write_path_csv,
)

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

    def test_gamma_required(self, tmp_path):
        f = tmp_path / "pot.json"
        f.write_text(json.dumps({"potential": COSINE_CONFIG["potential"]}))
        assert run(["positivity", "-c", str(f)]) == 1


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

    def test_scan_writes_table_and_provenance(self, free_json, tmp_path):
        prefix = tmp_path / "scan"
        code = run(
            [
                "scan", "-c", free_json, "--kind", "classical",
                "--gammas", "0.2", "0.1", "--seed", "3", "--out", str(prefix),
            ]
        )
        assert code == 0
        assert (tmp_path / "scan.csv").exists()
        prov = json.load(open(tmp_path / "scan.provenance.json"))
        assert prov["provenance"]["seed"] == 3

    def test_scan_reads_sampler_config(self, tmp_path):
        f = tmp_path / "sampled.json"
        f.write_text(json.dumps(dict(FREE_CONFIG, sampler={"n_samples": 2000, "seed": 4})))
        prefix = tmp_path / "scan"
        code = run(["scan", "-c", str(f), "--kind", "classical", "--out", str(prefix)])
        assert code == 0
        prov = json.load(open(tmp_path / "scan.provenance.json"))["provenance"]
        assert prov["n_samples"] == 2000 and prov["seed"] == 4

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


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert run(["bogus"]) == 1

    def test_unknown_flag(self, tmp_path, free_json, capsys):
        # a subcommand rejects the flags it does not read
        cfg = LatticeConfig(0.0, 1.0, 2, 0.05, 0.0, 0.0)
        path_file = tmp_path / "p.csv"
        write_path_csv(straight_line(cfg), cfg, path_file)
        weight = ["weight", "-c", free_json, "--path", str(path_file)]
        for argv in (
            ["positivity", "--frobnicate"],
            ["oracle", "-c", free_json, "--seed", "1"],
            weight + ["--threads", "2"],
            ["positivity", "-c", free_json, "-n", "4"],
            ["ck", "-c", free_json, "--gamma", "0.1"],
            weight + ["--format", "json"],
        ):
            assert run(argv) == 1, argv

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

    def test_grid_without_endpoints(self, tmp_path, capsys):
        f = tmp_path / "narrow.json"
        f.write_text(json.dumps(dict(COSINE_CONFIG, oracle={"X": 3.0})))
        assert run(["ck", "-c", str(f)]) == 2
        err = capsys.readouterr().err
        assert "X = 3 does not hold the endpoints" in err and "Traceback" not in err

    def test_missing_config_file(self, capsys):
        assert run(["positivity", "-c", "/nonexistent.json", "--gamma", "0.1"]) == 1

    def test_missing_lattice_fields(self, tmp_path, capsys):
        f = tmp_path / "partial.json"
        f.write_text(json.dumps({"lattice": {"ta": 0.0}}))
        assert run(["transition", "-c", str(f)]) == 1

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
