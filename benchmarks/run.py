#!/usr/bin/env python3
"""pathprob benchmark: one closed-loop client driving the library's public API.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (the library is imported from ``src/``).  The
run sets up the workload five times (``setup_s`` is the median of a fresh
interpreter's import of ``pathprob`` plus input generation and file
writing), makes one warm-up solve, then solves back to back for ``S``
seconds.  Every solve's outputs are checked; a failed check, an exception or
a nonzero CLI exit makes that solve fail.  Times are in reference-speed
seconds (see ``PROBE_REF_S``); the wall times are printed beside them.

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1``
every second solve runs with the tracer installed and the run reports the
per-layer metrics of the traced solves (medians over solves) and the
tracing overhead, traced over untraced median solve time.

It prints a table (metric, value, unit, sample count), then machine and
provenance facts, and as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result, and
in a traced run the spans, are written under ``benchmarks/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 5
# Times are reported in reference-speed seconds.  A probe of the workload's
# kind of work (Workload.probe) runs between timed steps, and a step's wall
# time is scaled by the probe's reference time over the mean of the probe
# times just before and after it.  This host's speed drifts by up to 2x over
# minutes, and work made of many small calls slows more than work on large
# arrays, hence one probe per kind.  The reference times are round figures
# near the probes' times on a quiet 2-vCPU x86_64 VM, where a reference-speed
# second is roughly a wall second.  Wall times are reported beside them.
PROBE_REF_S = {"calls": 0.003, "arrays": 0.006}
# a fresh interpreter times its import of the library, then runs a probe
# (the first run warms the probe up)
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import pathprob.cli; "
    "t = time.perf_counter() - t; from run import probe; probe('calls'); "
    "print(t, probe('calls'))"
)


def import_library():
    """Import ``pathprob`` from this checkout's ``src/``, or exit 2."""
    if not (SRC / "pathprob" / "__init__.py").is_file():
        sys.stderr.write(f"error: no pathprob package under {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import pathprob

    if Path(pathprob.__file__).resolve().parent != SRC / "pathprob":
        sys.stderr.write(f"error: imported pathprob from {pathprob.__file__}\n")
        raise SystemExit(2)


def child_import_seconds():
    """Wall and reference-speed seconds a fresh interpreter takes to import
    the library, scaled by a probe run in that interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH_DIR)]))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    wall, probe_s = map(float, proc.stdout.split()[-2:])
    return wall, wall * PROBE_REF_S["calls"] / probe_s


def probe(kind: str) -> float:
    """Seconds taken by a fixed piece of work of one kind: small FFTs and
    arithmetic on a medium array ("calls"), or arithmetic on large arrays
    ("arrays")."""
    import numpy as np

    if kind == "calls":
        a = np.ones(256, dtype=complex)
        x = np.linspace(-3.0, 3.0, 60_000)
        start = time.perf_counter()
        for _ in range(100):
            a = np.fft.ifft(np.fft.fft(a))
        for _ in range(2):
            np.log(np.abs(np.sin(x) * x + 1.0)).sum()
    else:
        y = np.linspace(-3.0, 3.0, 5 * 2**16).reshape(-1, 5)
        m = np.ones((5, 5))
        start = time.perf_counter()
        for _ in range(2):
            np.prod(np.exp(-0.1 * np.abs(y @ m)), axis=1).sum()
    return time.perf_counter() - start


def speed(kind: str) -> float:
    """Machine speed relative to the reference, from one probe."""
    return PROBE_REF_S[kind] / probe(kind)


def tail(times):
    """Highest-percentile sample with at least ten samples beyond it."""
    ordered = sorted(times)
    k = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def provenance(args) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "tiny": args.tiny,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "fft": "numpy.fft (pocketfft)" if hasattr(np.fft, "_pocketfft") else "numpy.fft",
        "git_commit": commit,
    }


def attempt(workload, inputs):
    """One solve; returns (seconds, outputs, problems)."""
    start = time.perf_counter()
    try:
        out = workload.solve(inputs)
    except Exception as exc:  # noqa: BLE001 - a failed solve is counted, not fatal
        elapsed = time.perf_counter() - start
        return elapsed, None, [f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"]
    elapsed = time.perf_counter() - start
    try:
        problems = workload.check(inputs, out)
    except Exception as exc:  # noqa: BLE001
        problems = [f"check raised {type(exc).__name__}: {exc}"]
    return elapsed, out, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="shrunken sizes for the self-test")
    args = ap.parse_args(argv)

    import_library()
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        return measure(args, workload, tracing, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload, tracing, workdir) -> int:
    last_speed = speed(workload.probe)

    def reference_seconds(wall):
        """The step that just took ``wall`` seconds, in reference-speed seconds."""
        nonlocal last_speed
        before, last_speed = last_speed, speed(workload.probe)
        return wall * (before + last_speed) / 2

    setups = []
    for i in range(SETUP_REPEATS):
        rep_dir = workdir / f"setup{i}"
        rep_dir.mkdir()
        start = time.perf_counter()
        inputs = workload.setup(args.seed, rep_dir, args.tiny)
        generated = time.perf_counter() - start
        imported, imported_ref = child_import_seconds()
        setups.append((generated + imported, reference_seconds(generated) + imported_ref))

    tracer = tracing.Tracer() if args.trace else None
    failures = []
    attempted = failed = 0
    times = {False: [], True: []}  # (wall, reference-speed) seconds, keyed by "traced"
    speeds = {}  # successful traced solve id -> reference-speed seconds per wall second
    ess = []

    def one(solve_id, traced, timed):
        nonlocal attempted, failed
        if traced:
            tracer.install(solve_id)
        try:
            elapsed, out, problems = attempt(workload, inputs)
        finally:
            if traced:
                tracer.uninstall()
        ref = reference_seconds(elapsed)
        attempted += 1
        if problems:
            failed += 1
            failures.append((solve_id, problems))
            return
        if timed:
            times[traced].append((elapsed, ref))
            if traced:
                speeds[solve_id] = ref / elapsed
            if workload.ess is not None:
                ess.append(workload.ess(out))

    one(-1, False, timed=False)  # warm-up: lazy imports and first-touch allocations
    deadline = time.perf_counter() + args.seconds
    solve_id = 0
    # a traced run needs at least one traced and one untraced solve
    while time.perf_counter() < deadline or solve_id < (2 if tracer else 1):
        one(solve_id, bool(tracer) and solve_id % 2 == 0, timed=True)
        solve_id += 1

    for solve, problems in failures[:3]:
        sys.stderr.write(f"solve {solve} failed: {'; '.join(problems)}\n")
    untraced = times[False]
    if not untraced or (tracer and not times[True]):
        sys.stderr.write("error: no successful timed solve\n")
        return 1

    rows = {}  # name -> (value, unit, samples, note); the JSON line's metrics
    info = {"fail_frac": (failed / attempted, "ratio", attempted, "failed / attempted")}
    if tracer is None:
        wall = [w for w, _ in untraced]
        ref = [r for _, r in untraced]
        n = len(untraced)
        solve_s = statistics.median(ref)
        rows["setup_s"] = (statistics.median(r for _, r in setups), "s", len(setups),
                           "median of setups, reference-speed")
        rows["solve_s"] = (solve_s, "s", n, "median, reference-speed")
        tail_s, pct = tail(ref)
        rows["solve_s_tail"] = (tail_s, "s", n, f"p{pct:.0f}, reference-speed")
        rows["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1, "process peak")
        info["setup_wall_s"] = (statistics.median(w for w, _ in setups), "s", len(setups),
                                "median of setups, wall")
        info["solve_wall_s"] = (statistics.median(wall), "s", n, "median, wall")
        tail_s, pct = tail(wall)
        info["solve_wall_s_tail"] = (tail_s, "s", n, f"p{pct:.0f}, wall")
        info["machine_speed"] = (statistics.median(r / w for w, r in untraced), "ratio", n,
                                 "reference-speed / wall seconds")
        if ess:
            info["ess_per_s"] = (
                statistics.median(ess) / solve_s, "1/s", len(ess), "Kish ESS / solve_s")
    else:
        traced = [r for _, r in times[True]]
        by_solve = {}
        for span in tracer.spans:
            by_solve.setdefault(span.solve, []).append(span)
        stats = [(tracing.SolveStats(by_solve[s]), sp) for s, sp in speeds.items()]
        missing = set(tracer.missing) | tracer.count_errors
        # busy and self times in reference-speed seconds, like solve_s
        exponent = {"s": 1, "1/s": -1}
        for name, (unit, needs, value) in tracing.PER_LAYER.items():
            gone = sorted(set(needs) & missing)
            if gone:
                rows[name] = (0.0, unit, 0, "missing: " + ", ".join(gone))
                continue
            k = exponent.get(unit, 0)
            rows[name] = (statistics.median(value(st) * sp**k for st, sp in stats), unit,
                          len(stats), "median over traced solves")
        rows["trace.overhead_ratio"] = (
            statistics.median(traced) / statistics.median(r for _, r in untraced), "ratio",
            len(traced) + len(untraced), "traced / untraced median solve_s")
        spans_file = OUT_DIR / f"{args.workload}-seed{args.seed}.spans.jsonl"
        with open(spans_file, "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")

    meta = provenance(args)
    for name, (value, unit, samples, note) in {**rows, **info}.items():
        print(f"{name:40s} {value:14.6g} {unit:6s} n={samples:<5d} {note}")
    print("provenance " + json.dumps(meta, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u, _, _) in rows.items()},
    }
    report = dict(result, provenance=meta, table={k: list(v) for k, v in {**rows, **info}.items()},
                  solves_untraced=untraced, solves_traced=times[True], setups=setups,
                  failures=failures[:20])
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(report, fh, indent=1, default=str)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
