#!/usr/bin/env python3
"""Fast self-test of the benchmark.

    python3 benchmarks/selftest.py

Runs every workload at its tiny size for one second: once untraced and twice
traced with the same seed.  It checks that each run exits 0 and prints every
metric that ``BENCHMARK.json`` names (end-to-end untraced, per-layer traced),
and that the exact counts (``tracing.EXACT_COUNTS``) agree between the two
traced runs.  Exits 1 and lists the problems otherwise.  Takes about two minutes.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from tracing import EXACT_COUNTS  # noqa: E402


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        before = len(problems)
        try:
            plain, first, second = run(workload, 0), run(workload, 1), run(workload, 1)
        except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
            problems.append(str(exc))
            continue
        for result, names in ((plain, end_to_end), (first, per_layer), (second, per_layer)):
            if set(result["metrics"]) != names:
                problems.append(
                    f"{workload}: metrics {sorted(set(result['metrics']) ^ names)} "
                    "differ from BENCHMARK.json"
                )
        for name in EXACT_COUNTS:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            if a != b:
                problems.append(f"{workload}: {name} differs between traced runs: {a} != {b}")
        print(f"{workload}: {'ok' if len(problems) == before else 'FAILED'}")
    for problem in problems:
        print("FAIL", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
