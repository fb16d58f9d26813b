"""Demo: the transport and projection primitives behind the diagnostics.

Shows the exact Wasserstein-2 distance between particle clouds (with the
minimizing assignment), the sorted-coupling fast path in one dimension,
the Bures distance between covariance matrices, the moment-based lower
bound, and the optimality of particlewise projection onto a constraint.

Run:  python3 demos/transport_and_projections.py
"""

import numpy as np

import wgflow as wg
from wgflow.measures import ParticleMeasure, covariance, substream


def main():
    rng = substream(7, 0)

    # exact transport between two small clouds
    a = ParticleMeasure(rng.normal(size=(6, 2)))
    b = ParticleMeasure(rng.normal(size=(6, 2)) + np.array([2.0, 0.5]))
    dist, perm = wg.w2_exact(a, b)
    print("exact Wasserstein-2 between two 6-particle clouds")
    print(f"  distance = {dist:.6f}")
    print(f"  matching = {perm.tolist()} (mean squared cost {dist**2:.6f})")
    print()

    # 1-d sorted coupling agrees with the assignment solver
    x = ParticleMeasure(rng.normal(size=(64, 1)))
    y = ParticleMeasure(0.5 * rng.normal(size=(64, 1)) + 1.0)
    print("one-dimensional fast path")
    print(f"  sorted coupling: {wg.w2_1d(x, y):.10f}")
    print(f"  assignment:      {wg.w2_exact(x, y)[0]:.10f}")
    print()

    # Bures distance and the moment lower bound
    s1 = covariance(a)
    s2 = covariance(b)
    print("moment diagnostics")
    print(f"  bures(cov_a, cov_b)   = {wg.bures_distance(s1, s2):.6f}")
    lower = wg.gelbrich_lower_bound(a, b)
    print(f"  moment lower bound    = {lower:.6f} <= {dist:.6f} = exact W2")
    print()

    # projecting a cloud onto the nonnegative orthant, particle by particle,
    # is the Wasserstein-closest feasible cloud: no feasible competitor of
    # the same size comes closer.
    orthant = wg.NonnegativeOrthant(2)
    m = ParticleMeasure(rng.normal(size=(24, 2)))
    proj = wg.project_measure(orthant, m)
    base = wg.w2_exact(m, proj)[0]
    best_other = min(
        wg.w2_exact(
            m,
            ParticleMeasure(orthant.project_points(rng.normal(scale=1.5, size=(24, 2)))),
        )[0]
        for _ in range(200)
    )
    print("projection onto the nonnegative orthant")
    print(f"  W2(cloud, particlewise projection) = {base:.6f}")
    print(f"  best of 200 random feasible clouds = {best_other:.6f}")
    print(f"  projection wins by                 = {best_other - base:.6f}")


if __name__ == "__main__":
    main()
