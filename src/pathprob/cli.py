"""Batch command-line front end.

Every run is driven by a single JSON config (potential + lattice + sampler +
oracle grid); individual flags override config fields so golden-file runs
stay reproducible.  Exit codes: 0 success, 1 usage error, 2 numeric failure
(non-convergence or a violated solver guard), 3 detected invariant violation.
"""

from __future__ import annotations

import argparse
import datetime
import io
import json
import math
import sys

from . import analysis, oracle
from .lattice import LatticeConfig, read_path_csv, validate_path
from .montecarlo import SamplerConfig, estimate_transition_mc
from .potentials import BandLimitedPotential, potential_from_dict
from .quadrature import transition_probability_quadrature
from .results import _jsonable, _write_csv
from .weights import (
    NonConvergenceError,
    m_sup_certified,
    negative_step_witness,
    path_weight,
    positivity_threshold,
    step_q_linear,
    weight_report,
)

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_INVARIANT = 3


def _emit(payload: dict, args, csv_rows=None) -> None:
    """Render the result as JSON (default) or CSV, and write the text to --out or stdout."""
    if getattr(args, "format", "json") == "csv":
        buf = io.StringIO()
        _write_csv(buf, csv_rows)
        text = buf.getvalue()
    else:
        payload = payload | {"timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat()}
        text = json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n"
    if args.out:
        # newline="": the CSV rows already end in the writer's "\r\n"
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_config(args) -> dict:
    cfg = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            cfg = json.load(fh)
    if not isinstance(cfg, dict) or any(
        not isinstance(cfg.get(k) or {}, dict) for k in ("potential", *_SECTIONS)
    ):
        raise SystemExit("config and each of its sections must be a JSON object")
    return cfg


def _potential(config: dict) -> BandLimitedPotential:
    if "potential" not in config:
        return BandLimitedPotential.zero()
    try:
        return potential_from_dict(config["potential"])
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"bad potential: {exc}") from exc


def _int(v) -> int:
    """``int(v)`` for a whole number; a bool or a fractional value is a ValueError."""
    if isinstance(v, bool) or int(v) != v:
        raise ValueError(f"expected an integer, got {v!r}")
    return int(v)


def _checked(cast, ok, what):
    """An argparse ``type`` or config cast: ``cast(text)``, a usage error unless ``ok`` holds."""

    def parse(text):
        try:
            value = cast(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not {what}")

    return parse


# config section -> {key: (keyword, cast)}
_SECTIONS = {
    "lattice": {
        "ta": ("t_a", float), "tb": ("t_b", float), "n": ("n", _int),
        "gamma": ("gamma", float), "za": ("z_a", float), "zb": ("z_b", float),
    },
    "sampler": {
        "n_samples": ("n_samples", _int), "seed": ("seed", _int), "threads": ("threads", _int),
    },
    "oracle": {
        "X": ("half_width", _checked(float, math.isfinite, "a finite number")),
        "L": ("n_points", _checked(_int, lambda v: v >= 2, "a whole number >= 2")),
    },
}
# shared flag -> (option, argparse keywords, (section, key) it overrides or None)
_FLAGS = {
    "format": ("--format", dict(choices=["json", "csv"], default="json"), None),
    "seed": ("--seed", dict(type=int), ("sampler", "seed")),
    "threads": ("--threads", dict(type=int), ("sampler", "threads")),
    "gamma": ("--gamma", dict(type=float, help="override lattice gamma"), ("lattice", "gamma")),
    "n": ("-n", dict(type=int, help="override lattice step count"), ("lattice", "n")),
    "samples": (
        "--samples", dict(type=int, help="override sample count"), ("sampler", "n_samples")
    ),
}


def _section(config: dict, args, name: str, build=dict, required: bool = False):
    """``build(**keywords)`` from the config section ``name`` and its flags.

    A flag overrides its key and a ``null`` value counts as absent.  An
    unknown key, a missing key when ``required``, a value its cast rejects
    and the ``ValueError``/``TypeError`` of ``build`` are usage errors.
    """
    table = _SECTIONS[name]
    values = dict(config.get(name) or {})
    for flag, (_, _, target) in _FLAGS.items():
        if target and target[0] == name and getattr(args, flag, None) is not None:
            values[target[1]] = getattr(args, flag)
    unknown = set(values) - set(table)
    if unknown:
        raise SystemExit(f"unknown {name} fields: {sorted(unknown)}")
    if required:
        missing = [k for k in table if values.get(k) is None]
        if missing:
            raise SystemExit(f"config {name} section missing fields: {missing}")
    try:
        keywords = {
            table[k][0]: table[k][1](v) for k, v in values.items() if v is not None
        }
        return build(**keywords)
    except (TypeError, ValueError, OverflowError, argparse.ArgumentTypeError) as exc:
        raise SystemExit(f"bad {name} config: {exc}") from exc


def _cmd_weight(args, config: dict, p: BandLimitedPotential) -> int:
    cfg = _section(config, args, "lattice", LatticeConfig, required=True)
    try:
        path = read_path_csv(args.path)
        validate_path(path, cfg)
    except ValueError as exc:
        raise SystemExit(f"bad path file: {exc}") from exc
    ev = path_weight(p, path, cfg, form=args.form)
    _emit(weight_report(ev), args)
    if args.expect_positive and ev.sign <= 0:
        return EXIT_INVARIANT
    return EXIT_OK


def _cmd_positivity(args, config: dict, p: BandLimitedPotential) -> int:
    gamma = _section(config, args, "lattice").get("gamma")
    if gamma is None or not 0 < gamma < math.inf:
        raise SystemExit(
            "positivity needs a positive finite --gamma or lattice.gamma config field"
        )
    thr = positivity_threshold(p, gamma)
    payload = {
        "gamma": gamma,
        "lambda_paper": thr.lambda_paper,
        "lambda_strict": thr.lambda_strict,
    }
    if not p.is_zero:
        sup = m_sup_certified(p, gamma)
        payload["m_sup"] = sup.value
        payload["m_sup_certified"] = sup.certified
    # spot-check the theorem at the witness point: Q must be nonnegative at
    # the strict threshold and turn negative just above it
    code = EXIT_OK
    if p.lines and 0.0 < thr.lambda_strict < math.inf:
        z_w, s_w, _ = negative_step_witness(p, gamma)
        q_at = float(step_q_linear(p, z_w, s_w, thr.lambda_strict, gamma))
        q_above = float(step_q_linear(p, z_w, s_w, 2.0 * thr.lambda_strict, gamma))
        payload["witness"] = {
            "z": z_w,
            "s": s_w,
            "q_at_threshold": q_at,
            "q_above_threshold": q_above,
        }
        if q_at < 0:
            code = EXIT_INVARIANT
    _emit(payload, args)
    return code


def _cmd_transition(args, config: dict, p: BandLimitedPotential) -> int:
    cfg = _section(config, args, "lattice", LatticeConfig, required=True)
    if args.method == "quadrature":
        est = transition_probability_quadrature(
            p, cfg, points_per_dim=args.points_per_dim
        )
    else:
        est = estimate_transition_mc(
            p, cfg, _section(config, args, "sampler", SamplerConfig)
        )
    rows = [
        {
            "n": est.n,
            "gamma": est.gamma,
            "points_per_dim": args.points_per_dim if args.method == "quadrature" else "",
            "value": est.value,
            "refinement_delta": est.refinement[-1] if est.refinement else est.std_error,
        }
    ]
    _emit(est.to_dict(), args, csv_rows=rows)
    return EXIT_OK


def _cmd_oracle(args, config: dict, p: BandLimitedPotential) -> int:
    cfg = _section(config, args, "lattice", LatticeConfig, required=True)
    kwargs = _section(config, args, "oracle")
    est = oracle.kernel_estimate(p, cfg.z_a, cfg.z_b, cfg.duration, **kwargs)
    _emit(
        est.to_dict()
        | {
            "probability": est.modulus_squared,
            "za": cfg.z_a,
            "zb": cfg.z_b,
            "duration": cfg.duration,
        },
        args,
    )
    return EXIT_OK


def _cmd_ck(args, config: dict, p: BandLimitedPotential) -> int:
    cfg = _section(config, args, "lattice", LatticeConfig, required=True)
    kwargs = _section(config, args, "oracle")
    t_c = args.tc if args.tc is not None else 0.5 * (cfg.t_a + cfg.t_b)
    if not cfg.t_a < t_c < cfg.t_b:
        raise SystemExit(
            f"--tc {t_c} must lie strictly between ta = {cfg.t_a} and tb = {cfg.t_b}"
        )
    res = oracle.ck_check(
        p, cfg.z_a, cfg.t_a, t_c, cfg.z_b, cfg.t_b, mode=args.mode, **kwargs
    )
    _emit(res.to_dict(), args)
    if args.mode == "amplitude" and res.residual > 1e-6:
        return EXIT_INVARIANT
    return EXIT_OK


def _cmd_scan(args, config: dict, p: BandLimitedPotential) -> int:
    cfg = _section(config, args, "lattice", LatticeConfig, required=True)
    sampler = _section(config, args, "sampler", SamplerConfig)
    if args.kind == "classical":
        res = analysis.classical_concentration_scan(
            cfg, args.gammas, delta=args.delta, sampler=sampler
        )
    elif args.kind == "convergence":
        res = analysis.convergence_sweep(
            p,
            cfg,
            n_list=args.n_list,
            gamma_list=args.gammas,
            method=args.method,
            sampler=sampler,
        )
    else:
        res = analysis.linearization_order_scan(
            p, args.points, gamma=cfg.gamma, eps_list=args.eps_list
        )
    if args.out:
        csv_path, json_path = res.write(args.out)
        sys.stdout.write(f"{csv_path}\n{json_path}\n")
    else:
        _emit(res.to_dict(), args, csv_rows=res.rows)
    return EXIT_OK


_positive = _checked(float, lambda v: 0 < v < math.inf, "a positive number")
_point = _checked(lambda t: tuple(map(float, t.split(","))),
                  lambda v: len(v) == 2 and all(map(math.isfinite, v)), "a finite z,s pair")

# subcommand -> (handler, help line, the _FLAGS it takes, its own arguments);
# every subcommand also takes -c/--config and --out, and a subcommand
# rejects the shared flags it does not read
_COMMANDS = {
    "weight": (_cmd_weight, "evaluate the weight of a path file", ("gamma", "n"), [
        ("--path", dict(required=True, help="path CSV (j,t,z)")),
        ("--form", dict(choices=["linear", "exponential"], default="linear")),
        ("--expect-positive", dict(
            action="store_true", help="exit 3 if the weight is not positive"
        )),
    ]),
    "positivity": (_cmd_positivity, "positivity thresholds for a potential", ("gamma",), []),
    "transition": (_cmd_transition, "transition probability estimate", (
        "format", "seed", "threads", "gamma", "n", "samples"
    ), [
        ("--method", dict(choices=["quadrature", "mc"], default="quadrature")),
        ("--points-per-dim", dict(
            type=_checked(int, lambda v: v >= 1, "an integer >= 1"), default=24
        )),
    ]),
    "oracle": (_cmd_oracle, "wavefunction-propagation kernel estimate", (), []),
    "ck": (_cmd_ck, "composition-law residual", (), [
        ("--mode", dict(choices=["probability", "amplitude"], default="probability")),
        ("--tc", dict(type=float, help="intermediate time (default midpoint)")),
    ]),
    "scan": (_cmd_scan, "analysis sweeps", ("format", "seed", "threads", "gamma", "n"), [
        ("--kind", dict(choices=["classical", "convergence", "linearization"], required=True)),
        ("--gammas", dict(type=_positive, nargs="+", default=[0.5, 0.2, 0.1, 0.05])),
        ("--delta", dict(type=_positive, default=1.0)),
        ("--n-list", dict(
            type=_checked(int, lambda v: v >= 2, "an integer >= 2"), nargs="+", default=[2, 3, 4]
        )),
        ("--method", dict(choices=["quadrature", "mc"], default="quadrature")),
        ("--points", dict(
            type=_point, nargs="+", default=[(0.3, 0.7)],
            help='linearization points as "z,s" pairs',
        )),
        ("--eps-list", dict(type=_positive, nargs="+", default=[0.04, 0.02, 0.01, 0.005])),
    ]),
}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pathprob",
        description="Positive path-weight transition probabilities for "
        "band-limited 1D potentials.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (func, help_line, shared, own) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_line)
        sp.add_argument("-c", "--config", help="JSON config file")
        sp.add_argument("--out", help="output file (default stdout)")
        for option, kwargs in [_FLAGS[flag][:2] for flag in shared] + own:
            sp.add_argument(option, **kwargs)
        sp.set_defaults(func=func)
    return ap


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        config = _load_config(args)
        return args.func(args, config, _potential(config))
    except SystemExit as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except (FileNotFoundError, json.JSONDecodeError, KeyError) as exc:
        sys.stderr.write(f"error: bad input: {exc}\n")
        return EXIT_USAGE
    except NonConvergenceError as exc:
        sys.stderr.write(f"error: did not converge: {exc}\n")
        return EXIT_NUMERIC
    except (ValueError, FloatingPointError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NUMERIC


def main() -> None:
    raise SystemExit(run())
