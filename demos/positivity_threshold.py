"""Positivity of path weights below the certified step-size threshold.

For a single-cosine potential this script reports the leading-order and the
strictly certified step-size thresholds, samples a large batch of bridge
paths at the strict threshold to show every step factor stays nonnegative,
and then constructs an explicit path whose weight turns negative once the
step size is pushed above the threshold.
"""

from dataclasses import replace

import numpy as np

from pathprob.lattice import LatticeConfig, Path
from pathprob.montecarlo import SamplerConfig, sample_bridge_paths
from pathprob.potentials import BandLimitedPotential
from pathprob.weights import (
    batch_log_weights,
    negative_step_witness,
    path_weight,
    positivity_threshold,
)


def main():
    p = BandLimitedPotential.single_line(a=1.0, q=1.0)
    gamma = 0.1
    thr = positivity_threshold(p, gamma)
    lam_strict = thr.lambda_strict
    print(f"potential: cosine, a=1, q=1;  gamma = {gamma}")
    print(f"leading-order threshold : {thr.lambda_paper:.6f}")
    print(f"certified threshold     : {lam_strict:.6f}")

    n = 6
    cfg = LatticeConfig(0.0, n * lam_strict, n, gamma, 0.0, 0.0)
    # bridge paths drawn at gamma = 1 have wider tails than the lattice's
    interiors, _ = sample_bridge_paths(
        replace(cfg, gamma=1.0), SamplerConfig(seed=0), 200_000
    )
    _, _, q_signs = batch_log_weights(p, interiors, cfg)
    print(f"\nat eps = certified threshold, {interiors.shape[0]} random paths:")
    print(f"  negative step factors: {int(np.sum(q_signs < 0))}")

    # above the threshold a negative step factor can be built directly from
    # the point where the nonlocal kernel peaks
    z_w, s_w, m_w = negative_step_witness(p, gamma)
    eps = 2.0 * lam_strict
    cfg = LatticeConfig(0.0, 4 * eps, 4, gamma, 0.0, 0.0)
    z1 = z_w
    z2 = s_w * eps + 2.0 * z1 - cfg.z_a
    path = Path(np.array([cfg.z_a, z1, z2, z2, cfg.z_b]))
    ev = path_weight(p, path, cfg)
    print(f"\nat eps = 2 x threshold, witness path through (z, s) = "
          f"({z_w:.3f}, {s_w:.3f}) where M = {m_w:.2f}:")
    print(f"  W = {ev.W:.4g}  (sign {ev.sign})")


if __name__ == "__main__":
    main()
