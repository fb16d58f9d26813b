"""Demo: a particle belief tracking a parameter from a noisy stream.

We estimate a 2-d parameter theta* from observations y_k = W theta* + w_k.
The belief is a cloud of 256 particles; each observation moves every
particle one projected gradient step.  The run is compared against the
theoretical decay bound and the asymptotic ball radius.

Run:  python3 demos/streaming_flow_convergence.py
"""

import math

import numpy as np

import wgflow as wg
from wgflow.measures import substream

THETA_STAR = np.array([2.0 / 60.0, 5.0 / 60.0])
W = np.diag([-5.0, 5.0])
RHO = 0.1
TAU = 0.01
SIGMA_W2 = 0.005  # total noise second moment E||w||^2
N_PARTICLES = 256
N_STEPS = 300


def main():
    report = wg.validate_tau(W, RHO, SIGMA_W2, TAU)
    print("step-size report")
    print(f"  convexity modulus alpha = {report.alpha}")
    print(f"  growth constant C       = {report.C}")
    print(f"  largest safe step       = {report.tau_max} (chose tau = {TAU})")
    print(f"  squared contraction     = {report.per_step_rate} per step")
    print(f"  asymptotic ball radius  = {report.ball_radius:.5f}")
    print()

    obj = wg.StreamingLSObjective(W, RHO, THETA_STAR, SIGMA_W2)
    m0 = wg.init_uniform_box([0.0, 0.0], [8.0 / 60.0] * 2, N_PARTICLES, seed=1)

    rng = substream(2024, 0)
    per_coord = math.sqrt(SIGMA_W2 / 2.0)
    stream = [W @ THETA_STAR + rng.normal(0.0, per_coord, 2) for _ in range(N_STEPS)]

    cfg = wg.FlowConfig(
        tau=TAU,
        max_iters=N_STEPS,
        seed=1,
        constraint=wg.NonnegativeOrthant(2),
        diag_every=25,
    )
    final, trace = wg.run(m0, obj, stream, cfg)

    w2_0 = trace.rows[0].w2_ref
    print(f"{'k':>5} {'measured W2':>12} {'bound (sqrt)':>12} {'objective':>12}")
    for row in trace.rows:
        bound = math.sqrt(wg.convergence_bound(report, w2_0, row.k))
        print(f"{row.k:>5} {row.w2_ref:>12.6f} {bound:>12.6f} {row.objective:>12.6f}")

    print()
    print(f"final belief mean:      {wg.mean(final).round(5)}")
    print(f"true parameter:         {THETA_STAR.round(5)}")
    print(f"asymptotic ball radius: {report.ball_radius:.5f} "
          f"(measured final W2 = {trace.rows[-1].w2_ref:.5f})")


if __name__ == "__main__":
    main()
