#!/usr/bin/env python3
"""Recompute the reference values stored in ``workloads.py``.

    python3 benchmarks/reference.py

Prints ``ORACLE_PROB`` (the oracle's |K|^2 for criterion 10's problem at the
oracle's default grid) and ``MC_MEAN``/``MC_SD`` (mean and single-run
standard deviation of the ``mc_bridge_n16`` estimate over 40 independent
sampler seeds 2**32 + k, disjoint from the 32-bit seeds the benchmark
derives).  Takes about half a minute.
"""

import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks"))

from pathprob import lattice, montecarlo, oracle  # noqa: E402
from workloads import MC_REF_SAMPLES, T, weak_cosine  # noqa: E402


def main():
    k = oracle.kernel_estimate(weak_cosine(), 0.0, 0.3, T)
    print(f"ORACLE_PROB = {k.modulus_squared!r}  # residual {k.extrapolation_residual:.2g}")
    cfg = lattice.LatticeConfig(0.0, T, 16, 0.1, 0.0, 0.3)
    values = [
        montecarlo.estimate_transition_mc(
            weak_cosine(),
            cfg,
            montecarlo.SamplerConfig(n_samples=MC_REF_SAMPLES, seed=2**32 + k),
        ).value
        for k in range(40)
    ]
    print(f"MC_MEAN = {statistics.fmean(values)!r}")
    print(f"MC_SD = {statistics.stdev(values)!r}")


if __name__ == "__main__":
    main()
