"""Batch command-line front end.

Every run is driven by a single JSON config (potential + lattice + sampler +
oracle grid); individual flags override config fields so golden-file runs
stay reproducible.  Exit codes: 0 success, 1 usage error, 2 numeric failure
(non-convergence or a violated solver guard), 3 detected invariant violation.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import sys

from . import analysis, oracle
from .lattice import LatticeConfig, read_path_csv
from .montecarlo import SamplerConfig, estimate_transition_mc
from .potentials import BandLimitedPotential, potential_from_dict
from .quadrature import transition_probability_quadrature
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


def _jsonable(obj):
    """Make a structure JSON-safe: inf/nan become strings, tuples lists."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
        return obj
    if hasattr(obj, "item"):
        return _jsonable(obj.item())
    return obj


def _emit(payload: dict, args, csv_rows=None) -> None:
    """Write the result as JSON (default) or CSV to --out / stdout."""
    fmt = getattr(args, "format", "json") or "json"
    out = getattr(args, "out", None)
    if fmt == "csv":
        import csv as _csv

        fh = open(out, "w", newline="") if out else sys.stdout
        try:
            writer = _csv.DictWriter(fh, fieldnames=list(csv_rows[0]))
            writer.writeheader()
            for row in csv_rows:
                writer.writerow(_jsonable(row))
        finally:
            if out:
                fh.close()
        return
    payload = dict(payload)
    payload["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    text = json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_config(args) -> dict:
    cfg = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            cfg = json.load(fh)
    return cfg


def _potential(config: dict) -> BandLimitedPotential:
    if "potential" not in config:
        return BandLimitedPotential.zero()
    try:
        return potential_from_dict(config["potential"])
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"bad potential: {exc}") from exc


def _lattice(config: dict, args) -> LatticeConfig:
    lat = dict(config.get("lattice", {}))
    for flag, key in (("n", "n"), ("gamma", "gamma")):
        v = getattr(args, flag, None)
        if v is not None:
            lat[key] = v
    missing = [k for k in ("ta", "tb", "n", "gamma", "za", "zb") if k not in lat]
    if missing:
        raise SystemExit(f"config lattice section missing fields: {missing}")
    return LatticeConfig(
        t_a=float(lat["ta"]),
        t_b=float(lat["tb"]),
        n=int(lat["n"]),
        gamma=float(lat["gamma"]),
        z_a=float(lat["za"]),
        z_b=float(lat["zb"]),
    )


def _sampler(config: dict, args) -> SamplerConfig:
    s = dict(config.get("sampler", {}))
    if getattr(args, "seed", None) is not None:
        s["seed"] = args.seed
    if getattr(args, "threads", None) is not None:
        s["threads"] = args.threads
    if getattr(args, "samples", None) is not None:
        s["n_samples"] = args.samples
    allowed = {"n_samples", "method", "seed", "gamma_prop", "sigma_prop", "threads"}
    unknown = set(s) - allowed
    if unknown:
        raise SystemExit(f"unknown sampler fields: {sorted(unknown)}")
    return SamplerConfig(**s)


def _cmd_weight(args) -> int:
    config = _load_config(args)
    p = _potential(config)
    cfg = _lattice(config, args)
    path = read_path_csv(args.path)
    ev = path_weight(p, path, cfg, form=args.form)
    _emit(weight_report(ev), args)
    if args.expect_positive and ev.sign <= 0:
        return EXIT_INVARIANT
    return EXIT_OK


def _cmd_positivity(args) -> int:
    config = _load_config(args)
    p = _potential(config)
    gamma = args.gamma
    if gamma is None:
        gamma = config.get("lattice", {}).get("gamma")
    if gamma is None:
        raise SystemExit("positivity needs --gamma or a lattice.gamma config field")
    gamma = float(gamma)
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
    if p.lines and math.isfinite(thr.lambda_strict):
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
            _emit(payload, args)
            return EXIT_INVARIANT
    _emit(payload, args)
    return EXIT_OK


def _cmd_transition(args) -> int:
    config = _load_config(args)
    p = _potential(config)
    cfg = _lattice(config, args)
    if args.method == "quadrature":
        est = transition_probability_quadrature(
            p, cfg, points_per_dim=args.points_per_dim
        )
    else:
        est = estimate_transition_mc(p, cfg, _sampler(config, args))
    d = est.to_dict()
    rows = [
        {
            "n": est.n,
            "gamma": est.gamma,
            "points_per_dim": args.points_per_dim if args.method == "quadrature" else "",
            "value": est.value,
            "refinement_delta": est.refinement[-1] if est.refinement else est.std_error,
        }
    ]
    _emit(d, args, csv_rows=rows)
    return EXIT_OK


def _oracle_options(config: dict) -> dict:
    """Keyword arguments from the config's ``oracle`` section.

    ``X`` is the grid half-width and ``L`` the number of grid points.
    """
    osec = config.get("oracle", {})
    fields = {"X": ("half_width", float), "L": ("n_points", int)}
    unknown = set(osec) - set(fields)
    if unknown:
        raise SystemExit(f"unknown oracle fields: {sorted(unknown)}")
    return {name: cast(osec[key]) for key, (name, cast) in fields.items() if key in osec}


def _cmd_oracle(args) -> int:
    config = _load_config(args)
    p = _potential(config)
    cfg = _lattice(config, args)
    kwargs = _oracle_options(config)
    est = oracle.kernel_estimate(p, cfg.z_a, cfg.z_b, cfg.duration, **kwargs)
    _emit(
        {
            "amplitude_re": est.amplitude.real,
            "amplitude_im": est.amplitude.imag,
            "probability": est.modulus_squared,
            "extrapolation_residual": est.extrapolation_residual,
            "za": cfg.z_a,
            "zb": cfg.z_b,
            "duration": cfg.duration,
        },
        args,
    )
    return EXIT_OK


def _cmd_ck(args) -> int:
    config = _load_config(args)
    p = _potential(config)
    cfg = _lattice(config, args)
    kwargs = _oracle_options(config)
    t_c = args.tc if args.tc is not None else 0.5 * (cfg.t_a + cfg.t_b)
    res = oracle.ck_check(
        p, cfg.z_a, cfg.t_a, t_c, cfg.z_b, cfg.t_b, mode=args.mode, **kwargs
    )
    _emit(
        {
            "mode": res.mode,
            "lhs_re": res.lhs.real,
            "lhs_im": res.lhs.imag,
            "rhs_re": res.rhs.real,
            "rhs_im": res.rhs.imag,
            "residual": res.residual,
            "converged": res.converged,
            "window": res.window,
        },
        args,
    )
    if args.mode == "amplitude" and res.residual > 1e-6:
        return EXIT_INVARIANT
    return EXIT_OK


def _cmd_scan(args) -> int:
    config = _load_config(args)
    p = _potential(config)
    cfg = _lattice(config, args)
    seed = args.seed if args.seed is not None else 0
    if args.kind == "classical":
        res = analysis.classical_concentration_scan(
            cfg, args.gammas, delta=args.delta, seed=seed
        )
    elif args.kind == "convergence":
        res = analysis.convergence_sweep(
            p,
            cfg,
            n_list=args.n_list,
            gamma_list=args.gammas,
            method=args.method,
            seed=seed,
            threads=args.threads or 1,
        )
    else:
        pts = [tuple(map(float, pt.split(","))) for pt in args.points]
        res = analysis.linearization_order_scan(
            p, pts, gamma=cfg.gamma, eps_list=args.eps_list
        )
    if args.out:
        csv_path, json_path = res.write(args.out)
        sys.stdout.write(f"{csv_path}\n{json_path}\n")
    else:
        _emit(
            {"name": res.name, "rows": res.rows, "summary": _jsonable(res.summary)},
            args,
            csv_rows=res.rows,
        )
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pathprob",
        description="Positive path-weight transition probabilities for "
        "band-limited 1D potentials.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    # the optional flags; each subcommand takes only those it reads
    flags = {
        "format": ("--format", dict(choices=["json", "csv"], default="json")),
        "seed": ("--seed", dict(type=int)),
        "threads": ("--threads", dict(type=int)),
        "gamma": ("--gamma", dict(type=float, help="override lattice gamma")),
        "n": ("-n", dict(type=int, help="override lattice step count")),
        "samples": ("--samples", dict(type=int, help="override sample count")),
    }

    def common(sp, *names):
        sp.add_argument("-c", "--config", help="JSON config file")
        sp.add_argument("--out", help="output file (default stdout)")
        for name in names:
            flag, kwargs = flags[name]
            sp.add_argument(flag, **kwargs)

    sp = sub.add_parser("weight", help="evaluate the weight of a path file")
    common(sp, "gamma", "n")
    sp.add_argument("--path", required=True, help="path CSV (j,t,z)")
    sp.add_argument("--form", choices=["linear", "exponential"], default="linear")
    sp.add_argument(
        "--expect-positive",
        action="store_true",
        help="exit 3 if the weight is not positive",
    )
    sp.set_defaults(func=_cmd_weight)

    sp = sub.add_parser("positivity", help="positivity thresholds for a potential")
    common(sp, "gamma")
    sp.set_defaults(func=_cmd_positivity)

    sp = sub.add_parser("transition", help="transition probability estimate")
    common(sp, "format", "seed", "threads", "gamma", "n", "samples")
    sp.add_argument("--method", choices=["quadrature", "mc"], default="quadrature")
    sp.add_argument("--points-per-dim", type=int, default=24)
    sp.set_defaults(func=_cmd_transition)

    sp = sub.add_parser("oracle", help="wavefunction-propagation kernel estimate")
    common(sp)
    sp.set_defaults(func=_cmd_oracle)

    sp = sub.add_parser("ck", help="composition-law residual")
    common(sp)
    sp.add_argument("--mode", choices=["probability", "amplitude"], default="probability")
    sp.add_argument("--tc", type=float, help="intermediate time (default midpoint)")
    sp.set_defaults(func=_cmd_ck)

    sp = sub.add_parser("scan", help="analysis sweeps")
    common(sp, "format", "seed", "threads", "gamma", "n")
    sp.add_argument(
        "--kind",
        choices=["classical", "convergence", "linearization"],
        required=True,
    )
    sp.add_argument("--gammas", type=float, nargs="+", default=[0.5, 0.2, 0.1, 0.05])
    sp.add_argument("--delta", type=float, default=1.0)
    sp.add_argument("--n-list", type=int, nargs="+", default=[2, 3, 4])
    sp.add_argument("--method", choices=["quadrature", "mc"], default="quadrature")
    sp.add_argument(
        "--points",
        nargs="+",
        default=["0.3,0.7"],
        help='linearization points as "z,s" pairs',
    )
    sp.add_argument(
        "--eps-list", type=float, nargs="+", default=[0.04, 0.02, 0.01, 0.005]
    )
    sp.set_defaults(func=_cmd_scan)
    return ap


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
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
