"""Concentration of the path measure on the classical path.

As the velocity-change regularization gamma is reduced, the weighted mass of
free-particle paths carrying any large velocity change shrinks: the measure
concentrates on the uniform-velocity (classical) trajectory.
"""

from pathprob.analysis import classical_concentration_scan
from pathprob.lattice import LatticeConfig
from pathprob.montecarlo import SamplerConfig


def main():
    cfg = LatticeConfig(0.0, 1.0, 16, 0.1, 0.0, 0.4)
    gammas = [0.5, 0.2, 0.1, 0.05, 0.02]
    res = classical_concentration_scan(
        cfg, gammas, delta=1.0, sampler=SamplerConfig(n_samples=200_000, seed=0)
    )
    print("fraction of free-particle path mass with max_j |s_j| > 1")
    print(f"(n = {cfg.n} steps, endpoints {cfg.z_a} -> {cfg.z_b}, T = 1)\n")
    for row in res.rows:
        bar = "#" * int(60 * row["fraction"])
        print(f"gamma = {row['gamma']:<5}  {row['fraction']:.4f}  {bar}")


if __name__ == "__main__":
    main()
