"""Demo: the full predictive-maintenance pipeline at desk scale.

A second-order plant degrades slowly: its damping coefficient decays and
its stiffness grows, so the damping ratio drifts toward an unsafe floor.
Every 5 days we record a trajectory, estimate the coefficients by least
squares, difference consecutive estimates into a zero-mean linear model
for the decay rates, and advance a 1000-particle belief by one projected
stochastic gradient step.  The belief then yields a damping-ratio band
and a conservative suggested maintenance time, compared against a
classical static least-squares fit.  Last, the same pipeline runs on 20
seeds, and each rule's safe share, mean lead and worst overshoot are
printed: the numbers of the README's results table.

Writes prediction.csv / tstar.csv / observations.csv under demo_out/.

Run:  python3 demos/maintenance_pipeline.py
"""

import os

import numpy as np

import wgflow as wg
from wgflow import files, pdm

OUT_DIR = os.path.join(os.path.dirname(__file__), "demo_out")

TRUE_RATES = np.array([2.0 / 60.0, 5.0 / 60.0])
MODEL = pdm.DegradationModel(a0=2.5, b0=1.0, lam=TRUE_RATES, zeta_min=0.4, T=5.0)
SEED = 0
N_PARTICLES = 1000
N_DAYS = 10  # observations at t = 0, 5, ..., 45
SAFETY_SEEDS = range(20)


def collect_observations(seed):
    """One least-squares estimate of (a, b) per recorded day."""
    return pdm.daily_observations(MODEL, N_DAYS, x0=[-2.5, 0.0], r=1.0, dt=0.001,
                                  horizon=100.0, eps_half_width=3.0, seed=seed)


def advance_belief(seed, obs):
    """The belief after each differenced observation, one step per day."""
    diffs = pdm.difference_stream(obs)
    objective = wg.StreamingLSObjective(pdm.process_matrix(MODEL.T), rho=0.1,
                                        theta_star=None, sigma_w2=0.0)
    belief = wg.init_uniform_box([0.0, 0.0], [8.0 / 60.0] * 2, N_PARTICLES, seed)
    beliefs = []
    for k, diff in enumerate(diffs):
        cfg = wg.FlowConfig(tau=0.01, max_iters=1, seed=seed,
                            constraint=wg.NonnegativeOrthant(2),
                            perturb_std=0.02, diag_every=1)
        belief, _ = wg.run(belief, objective, [diff], cfg, start_iteration=k)
        beliefs.append(belief)
    return beliefs


def print_safety(true_t):
    # A suggested time is safe when it is at most the true time (plus
    # 1e-3 days); the belief is judged from its third observation on.
    rules = {"percentile(0.1)": "percentile", "chance(0.1)": "chance", "mean": "mean"}
    leads = {name: [] for name in [*rules, "LS baseline"]}
    for seed in SAFETY_SEEDS:
        obs = collect_observations(seed)
        for k, belief in enumerate(advance_belief(seed, obs)):
            if obs[k + 1].t < 2 * MODEL.T:
                continue
            for name, rule in rules.items():
                suggested = pdm.suggested_maintenance_time(belief, MODEL, rule, 0.1)
                leads[name].append(true_t - suggested.days)
            _, ls_time = pdm.ls_baseline(obs[: k + 2], MODEL.a0, MODEL.b0, MODEL.zeta_min)
            leads["LS baseline"].append(true_t - ls_time.days)
    pairs = len(leads["mean"])
    print(f"  {'rule':<16} {'safe':>6} {'mean lead':>10} {'worst overshoot':>16}"
          f"   ({len(SAFETY_SEEDS)} seeds, {pairs} seed-day pairs)")
    for name, values in leads.items():
        lead = np.array(values)
        print(f"  {name:<16} {np.mean(lead >= -1e-3):>6.1%} {lead.mean():>8.2f} d "
              f"{-lead.min():>+14.2f} d")


def dump_responses():
    # Position responses at three points of the decay: the system grows
    # increasingly oscillatory as the damping ratio falls.
    days = (1.0, 30.0, 60.0)
    traces = []
    for t in days:
        a, b = pdm.degrade(MODEL, t)
        zeta = pdm.damping_ratio((a, b))
        plant = pdm.PlantParams(a=float(a), b=float(b), r=1.0, dt=0.001,
                                horizon=100.0, eps_half_width=0.0)
        states, _ = pdm.simulate_trajectory(plant, np.array([-2.5, 0.0]), seed=0)
        traces.append(states[::100, 0])
        print(f"  day {t:>4.0f}: damping ratio {zeta:.2f}, "
              f"position range [{states[:, 0].min():.2f}, {states[:, 0].max():.2f}]")
    files.write_table(
        os.path.join(OUT_DIR, "responses.csv"),
        ["time_s"] + [f"day{d:.0f}" for d in days],
        ([i * 0.1, *row] for i, row in enumerate(zip(*traces))),
    )


def main():
    true_t = pdm.true_maintenance_time(MODEL)
    print(f"true maintenance time: {true_t.days:.2f} days "
          f"(damping ratio hits {MODEL.zeta_min})")
    print()

    print("sampling noise-free responses across the decay")
    dump_responses()
    print()

    print("collecting daily trajectory estimates")
    obs = collect_observations(SEED)
    for o in obs:
        zeta = pdm.damping_ratio(pdm.degrade(MODEL, o.t))
        print(f"  day {o.t:>4.0f}: estimated (a, b) = ({o.y_hat[0]:.3f}, {o.y_hat[1]:.3f}), "
              f"true damping ratio {zeta:.3f}")
    pdm.write_observations_csv(obs, os.path.join(OUT_DIR, "observations.csv"))
    print()

    print("advancing the belief, one differenced observation per day")
    print(f"  {'day':>4} {'suggested (10% rule)':>21} {'mean rule':>10} {'ls fit':>8}")
    beliefs = advance_belief(SEED, obs)
    for k, belief in enumerate(beliefs):
        day = obs[k + 1].t
        ours = pdm.suggested_maintenance_time(belief, MODEL, "percentile", 0.1)
        mean_rule = pdm.suggested_maintenance_time(belief, MODEL, "mean")
        _, ls_time = pdm.ls_baseline(obs[: k + 2], MODEL.a0, MODEL.b0, MODEL.zeta_min)
        print(f"  {day:>4.0f} {ours.days:>21.2f} {mean_rule.days:>10.2f} "
              f"{ls_time.days:>8.2f}")
    belief = beliefs[-1]

    print()
    print(f"belief mean after the final day: {wg.mean(belief).round(4)} "
          f"(true rates {TRUE_RATES.round(4)})")

    t_grid = np.arange(0.0, 60.5, 0.5)
    band = pdm.predict_damping_band(belief, MODEL, t_grid, 0.1, 0.9)
    files.write_table(
        os.path.join(OUT_DIR, "prediction.csv"),
        ["t", "p10", "mean", "p90", "zeta_true"],
        ([*row, pdm.damping_ratio(pdm.degrade(MODEL, float(row[0])))] for row in band),
    )

    ours = pdm.suggested_maintenance_time(belief, MODEL, "percentile", 0.1)
    _, ls_time = pdm.ls_baseline(obs, MODEL.a0, MODEL.b0, MODEL.zeta_min)
    files.write_table(
        os.path.join(OUT_DIR, "tstar.csv"),
        ["day", "ours", "ls", "true"],
        [[obs[-1].t, ours.days, ls_time.days, true_t.days]],
    )

    print(f"suggested maintenance at day {ours.days:.2f} "
          f"(true {true_t.days:.2f}, ls baseline {ls_time.days:.2f})")
    print()

    print("the belief's rules against least squares, lead = true time - suggested")
    print_safety(true_t.days)
    print(f"wrote {OUT_DIR}/observations.csv, responses.csv, prediction.csv, tstar.csv")


if __name__ == "__main__":
    main()
