"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines.  Budgeted runtimes are asserted where the criterion states
them.
"""

import math
import time

import numpy as np
import pytest

from _oracles import inside, w2_brute_force
from wgflow import cli
from wgflow.flow import FlowConfig, convergence_bound, run, validate_tau
from wgflow.functionals import StreamingLSObjective, evaluate_objective, exact_gradient, stochastic_gradient
from wgflow.measures import (
    ParticleMeasure,
    covariance,
    init_uniform_box,
    mean,
    substream,
    write_particles_csv,
)
from wgflow.pdm import (
    DegradationModel,
    Observation,
    PlantParams,
    daily_observations,
    damping_ratio,
    degrade,
    difference_stream,
    ls_baseline,
    ls_estimate,
    process_matrix,
    simulate_trajectory,
    suggested_maintenance_time,
    true_maintenance_time,
)
from wgflow.sets import Ball, Box, Halfspace, NonnegativeOrthant, project_measure
from wgflow.transport import bures_distance, gelbrich_lower_bound, lipschitz_norm_gap, w2_1d, w2_exact
from wgflow import flow as flow_mod

THETA = np.array([2.0 / 60.0, 5.0 / 60.0])
W = np.diag([-5.0, 5.0])
RHO = 0.1
TAU = 0.01
ORTHANT = NonnegativeOrthant(2)
# Criterion 8's daily plant: start, reference, sampling period, horizon and noise.
PLANT = dict(x0=(-2.5, 0.0), r=1.0, dt=0.001, horizon=100.0, eps_half_width=3.0)


def dirac_cloud(x, n):
    return ParticleMeasure(np.tile(np.asarray(x, dtype=float), (n, 1)))


def report_line(n, detail):
    print(f"\n[criterion {n}] PASS ({detail})")


# ---------------------------------------------------------------------------
# Criterion 1: noise-free convergence at the predicted geometric rate.

def test_criterion_1_noise_free_convergence():
    start = time.perf_counter()
    n = 256
    m0 = init_uniform_box([0.0, 0.0], [8.0 / 60.0] * 2, n, seed=1)
    obj = StreamingLSObjective(W, RHO, THETA, 0.0)
    rate = 1.0 - 25.0 * TAU
    assert TAU == 0.5 / (2.0 * 25.0)

    w2_0, _ = w2_exact(m0, dirac_cloud(THETA, n))
    k_pred = math.ceil(math.log(1e-6 / w2_0) / math.log(math.sqrt(rate)))
    cfg = FlowConfig(
        tau=TAU, max_iters=k_pred, seed=1, constraint=ORTHANT,
        diag_every=1, diag_subsample=n,
    )
    stream = [W @ THETA] * k_pred
    _, trace = run(m0, obj, stream, cfg)

    w2 = np.array([row.w2_ref for row in trace.rows])
    ks = np.array([row.k for row in trace.rows])
    assert ks[0] == 0 and ks[-1] == k_pred
    crossed = np.flatnonzero(w2 < 1e-6)
    assert crossed.size > 0, "never reached the 1e-6 target"
    first_cross = int(ks[crossed[0]])
    assert first_cross <= k_pred

    ratios = []
    for prev, curr in zip(w2[:-1], w2[1:]):
        if prev > 1e-9:
            ratios.append(curr**2 / prev**2)
    max_ratio = max(ratios)
    assert max_ratio <= rate + 1e-6

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report_line(1, f"target crossed at k={first_cross} <= {k_pred}, "
                   f"max squared-step ratio {max_ratio:.4f} <= {rate + 1e-6}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criteria 2 and 3 share a 50-seed noisy ensemble.

N_SEEDS = 50
N_ITERS = 400
DIAG_EVERY = 10
SIGMA_W2 = 0.005
ENSEMBLE_N = 256


@pytest.fixture(scope="module")
def noisy_ensemble():
    start = time.perf_counter()
    m0 = init_uniform_box([0.0, 0.0], [8.0 / 60.0] * 2, ENSEMBLE_N, seed=12345)
    obj = StreamingLSObjective(W, RHO, THETA, SIGMA_W2)
    per_coord = math.sqrt(SIGMA_W2 / 2.0)
    streams = []
    traces = []
    for s in range(N_SEEDS):
        rng = substream(777, s)
        stream = [W @ THETA + rng.normal(0.0, per_coord, 2) for _ in range(N_ITERS)]
        streams.append(stream)
        cfg = FlowConfig(
            tau=TAU, max_iters=N_ITERS, seed=s, constraint=ORTHANT,
            diag_every=DIAG_EVERY, diag_subsample=ENSEMBLE_N,
        )
        _, trace = run(m0, obj, stream, cfg)
        traces.append(trace)
    return {
        "m0": m0,
        "obj": obj,
        "streams": streams,
        "traces": traces,
        "setup_seconds": time.perf_counter() - start,
    }


def test_criterion_2_convergence_bound_dominance(noisy_ensemble):
    start = time.perf_counter()
    traces = noisy_ensemble["traces"]
    report = validate_tau(W, RHO, SIGMA_W2, TAU)
    ks = [row.k for row in traces[0].rows]
    w2_sq = np.array([[row.w2_ref**2 for row in tr.rows] for tr in traces])
    assert all([row.k for row in tr.rows] == ks for tr in traces)
    w2_0 = math.sqrt(w2_sq[0, 0])

    worst_margin = math.inf
    for j, k in enumerate(ks):
        sample = w2_sq[:, j]
        mean_val = float(sample.mean())
        se = float(sample.std(ddof=1)) / math.sqrt(N_SEEDS) if k > 0 else 0.0
        bound = convergence_bound(report, w2_0, k)
        assert mean_val <= bound + 3.0 * se + 1e-12, f"bound violated at k={k}"
        worst_margin = min(worst_margin, bound + 3.0 * se - mean_val)

    elapsed = time.perf_counter() - start + noisy_ensemble["setup_seconds"]
    assert elapsed < 300.0
    report_line(2, f"{N_SEEDS} seeds, {len(ks)} checkpoints, "
                   f"smallest slack {worst_margin:.2e}, {elapsed:.1f}s")


def test_criterion_3_asymptotic_ball_and_moment_criteria(noisy_ensemble):
    start = time.perf_counter()
    m0 = noisy_ensemble["m0"]
    obj = noisy_ensemble["obj"]
    streams = noisy_ensemble["streams"]
    report = validate_tau(W, RHO, SIGMA_W2, TAU)
    ball = report.ball_radius
    assert ball == pytest.approx(math.sqrt(SIGMA_W2) * math.sqrt(report.eta * TAU), rel=1e-12)

    burn_in_ks = [k for k in range(0, N_ITERS + 1, DIAG_EVERY) if k >= int(0.75 * N_ITERS)]
    ref = dirac_cloud(THETA, ENSEMBLE_N)
    zero_cov = np.zeros((2, 2))
    phi = lambda x: float(np.linalg.norm(x))

    w2_means, moment_means, lip_means = [], [], []
    for s in range(N_SEEDS):
        w2_vals, moment_vals, lip_vals = [], [], []
        # Each checkpoint resumes from the previous one, which reproduces
        # the uninterrupted run from k = 0 bit for bit.
        cloud, prev = m0, 0
        for k in burn_in_ks:
            cfg = FlowConfig(
                tau=TAU, max_iters=k - prev, seed=s, constraint=ORTHANT,
                diag_every=max(k - prev, 1), diag_subsample=ENSEMBLE_N,
            )
            cloud, _ = run(cloud, obj, streams[s][prev:k], cfg, start_iteration=prev)
            prev = k
            w2_vals.append(w2_exact(cloud, ref)[0])
            gap = mean(cloud) - THETA
            moment_vals.append(
                math.hypot(float(np.linalg.norm(gap)), bures_distance(covariance(cloud), zero_cov))
            )
            lip_vals.append(lipschitz_norm_gap(cloud, ref, phi))
        w2_means.append(np.mean(w2_vals))
        moment_means.append(np.mean(moment_vals))
        lip_means.append(np.mean(lip_vals))

    for label, samples, cap in (
        ("W2", np.array(w2_means), ball),
        ("moment", np.array(moment_means), ball),
        ("lipschitz", np.array(lip_means), 1.0 * ball),
    ):
        se = float(samples.std(ddof=1)) / math.sqrt(N_SEEDS)
        assert samples.mean() <= cap + 3.0 * se, f"{label} criterion exceeded the ball"

    elapsed = time.perf_counter() - start
    report_line(3, f"post burn-in averages: W2 {np.mean(w2_means):.4f}, "
                   f"moment {np.mean(moment_means):.4f}, lipschitz {np.mean(lip_means):.4f} "
                   f"vs ball {ball:.4f}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 4: unbiasedness and the gradient second-moment bound.

def test_criterion_4_unbiasedness_and_variance_bound():
    start = time.perf_counter()
    n_instances = 20
    for i in range(n_instances):
        rng = np.random.default_rng(1000 + i)
        d = int(rng.integers(1, 4))
        u, _ = np.linalg.qr(rng.normal(size=(d, d)))
        v, _ = np.linalg.qr(rng.normal(size=(d, d)))
        w = u @ np.diag(rng.uniform(0.5, 3.0, size=d)) @ v
        rho = float(rng.uniform(0.05, 2.0))
        theta_star = rng.normal(size=d)
        sigma_w2 = float(rng.uniform(0.05, 1.0))
        obj = StreamingLSObjective(w, rho, theta_star, sigma_w2)
        n_particles = int(rng.integers(8, 33))
        m = ParticleMeasure(theta_star + rng.normal(scale=rng.uniform(0.2, 1.5), size=(n_particles, d)))
        mu_mean = mean(m)
        field = exact_gradient(obj, m)

        if rng.random() < 0.5:
            scale = math.sqrt(sigma_w2 / d)
            draw = lambda size: rng.normal(0.0, scale, size=size)
        else:
            half = math.sqrt(3.0 * sigma_w2 / d)
            draw = lambda size: rng.uniform(-half, half, size=size)

        y0 = w @ theta_star
        # xi is affine in the observation: xi(theta, y0 + delta) equals
        # xi(theta, y0) - W^T delta.  Verify on real calls, then vectorize.
        thetas = rng.normal(size=(5, d))
        check_noise = draw((50, d))
        for theta in thetas[:2]:
            base = stochastic_gradient(obj, theta, y0, mu_mean)
            for delta in check_noise[:10]:
                direct = stochastic_gradient(obj, theta, y0 + delta, mu_mean)
                assert np.allclose(direct, base - delta @ w, atol=1e-12)

        n_draws = 100_000
        noise = draw((n_draws, d))
        shift = noise @ w
        for theta in thetas:
            base = stochastic_gradient(obj, theta, y0, mu_mean)
            draws = base[None, :] - shift
            est = draws.mean(axis=0)
            se = draws.std(axis=0, ddof=1) / math.sqrt(n_draws)
            assert np.all(np.abs(est - field(theta)) <= 4.0 * se + 1e-12), f"instance {i}"

        # second moment across the cloud, Monte Carlo over the noise
        n_draws_sq = 20_000
        noise_sq = draw((n_draws_sq, d))
        shift_sq = noise_sq @ w
        base_cloud = stochastic_gradient(obj, m.points, y0, mu_mean)
        base_norm2 = float(np.mean(np.sum(base_cloud**2, axis=1)))
        cross = shift_sq @ base_cloud.mean(axis=0)
        vals = base_norm2 - 2.0 * cross + np.sum(shift_sq**2, axis=1)
        est_sq = float(vals.mean())
        se_sq = float(vals.std(ddof=1)) / math.sqrt(n_draws_sq)
        c = 4.0 * max(obj.sigma_max**2, rho)
        gap = evaluate_objective(obj, m) - 0.5 * sigma_w2
        assert est_sq <= c * gap + c * sigma_w2 + 4.0 * se_sq, f"instance {i}"

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report_line(4, f"{n_instances} random instances, 1e5 draws each, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 5: transport correctness against independent oracles.

def test_criterion_5_transport_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)

    for _ in range(200):
        n = int(rng.integers(1, 9))
        xs = rng.normal(scale=rng.uniform(0.5, 3.0), size=(n, 1))
        ys = rng.normal(scale=rng.uniform(0.5, 3.0), size=(n, 1)) + rng.normal()
        a, b = ParticleMeasure(xs), ParticleMeasure(ys)
        fast = w2_1d(a, b)
        exact = w2_exact(a, b)[0]
        brute = w2_brute_force(xs, ys)
        assert abs(fast - exact) <= 1e-10
        assert abs(exact - brute) <= 1e-10

    for _ in range(100):
        a = ParticleMeasure(rng.normal(size=(64, 2)) * rng.uniform(0.5, 2.0) + rng.normal(size=2))
        b = ParticleMeasure(rng.normal(size=(64, 2)) * rng.uniform(0.5, 2.0) + rng.normal(size=2))
        assert gelbrich_lower_bound(a, b) <= w2_exact(a, b)[0] + 1e-8

    for _ in range(20):
        d = int(rng.integers(1, 5))
        root = rng.normal(size=(d, d))
        s = root @ root.T
        assert bures_distance(s, s) <= 1e-8
    for _ in range(20):
        s1, s2 = rng.uniform(0.1, 9.0, size=2)
        got = bures_distance([[s1]], [[s2]])
        assert abs(got - abs(math.sqrt(s1) - math.sqrt(s2))) <= 1e-8
    for d in range(1, 6):
        assert abs(bures_distance(np.zeros((d, d)), np.eye(d)) - math.sqrt(d)) <= 1e-8

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report_line(5, f"200 1-d + 100 moment-bound + Bures identity checks, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 6: projection properties.

def test_criterion_6_projection_properties():
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    variants = [
        Box([-1.0, -0.5], [1.0, 2.0]),
        NonnegativeOrthant(2),
        Halfspace([1.0, -2.0], 0.5),
        Ball([0.3, -0.2], 1.5),
    ]

    for s in variants:
        pts = rng.normal(scale=4.0, size=(2000, 2))
        once = s.project_points(pts)
        assert np.array_equal(s.project_points(once), once), "idempotence failed"

    for s in variants:
        xs = rng.normal(scale=4.0, size=(10_000, 2))
        ys = rng.normal(scale=4.0, size=(10_000, 2))
        lhs = np.linalg.norm(s.project_points(xs) - s.project_points(ys), axis=1)
        rhs = np.linalg.norm(xs - ys, axis=1)
        assert np.all(lhs <= rhs + 1e-12), "nonexpansiveness failed"

    checked = 0
    for s in variants:
        for _ in range(2):
            m = ParticleMeasure(rng.normal(scale=2.0, size=(24, 2)))
            proj = project_measure(s, m)
            base = w2_exact(m, proj)[0]
            for _ in range(100):
                if rng.random() < 0.5:
                    cand = s.project_points(m.points + rng.normal(scale=rng.uniform(0.01, 1.0), size=(24, 2)))
                else:
                    cand = s.project_points(rng.normal(scale=2.5, size=(24, 2)))
                dist = w2_exact(m, ParticleMeasure(cand))[0]
                assert base <= dist + 1e-9, "particlewise projection beaten by a candidate"
                checked += 1

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report_line(6, f"idempotence, 1e4 nonexpansiveness pairs, {checked} optimality candidates, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 7: case-study ground truth.

def test_criterion_7_ground_truth_reproduction():
    start = time.perf_counter()
    model = DegradationModel(2.5, 1.0, THETA, 0.4, 5.0)

    assert damping_ratio(degrade(model, 0.0)) == 1.25
    assert abs(damping_ratio(degrade(model, 30.0)) - 0.401) <= 1e-3
    assert abs(damping_ratio(degrade(model, 60.0)) - 0.102) <= 1e-3

    got = true_maintenance_time(model)
    # independent oracle: bisection on the closed-form ratio
    lo, hi = 0.0, 100.0
    f = lambda t: damping_ratio(degrade(model, t)) - 0.4
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if f(mid) >= 0:
            lo = mid
        else:
            hi = mid
    oracle = 0.5 * (lo + hi)
    assert got.days == pytest.approx(oracle, abs=1e-5)
    assert abs(got.days - 30.05) <= 0.1

    for a, b in ((2.5, 1.0), (1.5, 3.5)):
        p = PlantParams(a, b, 1.0, 0.001, 100.0, 0.0)
        traj = simulate_trajectory(p, np.array([-2.5, 0.0]), seed=0)
        est = ls_estimate(traj, 0.001)
        assert np.max(np.abs(est - [a, b])) < 1e-8

    elapsed = time.perf_counter() - start
    report_line(7, f"t*={got.days:.4f} (oracle {oracle:.4f}), noise-free recovery < 1e-8, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 8: end-to-end safety of the maintenance suggestions.

def _pipeline_one_seed(seed, model, n_particles=1000, n_days=10, observations=None):
    if observations is None:
        observations = daily_observations(model, n_days, seed=seed, **PLANT)
    diffs = difference_stream(observations)
    obj = StreamingLSObjective(process_matrix(model.T), RHO, None, 0.0)
    m = init_uniform_box([0.0, 0.0], [8.0 / 60.0] * 2, n_particles, seed)
    beliefs = []
    for k, diff in enumerate(diffs):
        cfg = FlowConfig(
            tau=TAU, max_iters=1, seed=seed, constraint=ORTHANT, perturb_std=0.02, diag_every=1,
        )
        m, _ = run(m, obj, [diff], cfg, start_iteration=k)
        beliefs.append((observations[k + 1].t, m))
    return beliefs


def test_criterion_8_end_to_end_safety():
    start = time.perf_counter()
    model = DegradationModel(2.5, 1.0, THETA, 0.4, 5.0)
    true_t = true_maintenance_time(model).days
    n_seeds = 20

    safe = 0
    total = 0
    finals = []
    for seed in range(n_seeds):
        beliefs = _pipeline_one_seed(seed, model)
        for day_t, belief in beliefs:
            if day_t < 2 * model.T:  # two-observation burn-in
                continue
            ours = suggested_maintenance_time(belief, model, "percentile", 0.1)
            total += 1
            safe += ours.days <= true_t + 1e-3
        finals.append(mean(beliefs[-1][1]))

    frac = safe / total
    assert frac >= 0.90, f"only {frac:.2%} of (seed, day) pairs were safe"

    final_mean = np.mean(finals, axis=0)
    rel = np.abs(final_mean - THETA) / THETA
    assert np.all(rel <= 0.15), f"final-day decay-rate estimate off by {rel}"

    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    report_line(8, f"{frac:.2%} safe pairs (n={total}), final mean rel. err "
                   f"({rel[0]:.3f}, {rel[1]:.3f}), {elapsed:.1f}s")


def test_end_to_end_safety_where_the_projection_binds():
    # Criterion 8's pipeline with lambda1 = 0: theta* lies on the orthant's
    # face x1 = 0, so the projection moves particles.  Over seeds 0-399 the
    # percentile rule was safe on 3198 of 3200 pairs (at least 159 of 160
    # in each block of 20 seeds), no particle left the orthant, and each
    # block's final clouds had 8.4-36 % of particles on the face (8.6 %
    # for the seeds below).
    model = DegradationModel(2.5, 1.0, (0.0, 5.0 / 60.0), 0.4, 5.0)
    true_t = true_maintenance_time(model).days
    safe = total = 0
    on_face = []
    for seed in range(20):
        beliefs = _pipeline_one_seed(seed, model)
        for day_t, belief in beliefs:
            assert inside(ORTHANT, belief.points), f"seed {seed}: a particle left the orthant"
            if day_t < 2 * model.T:  # two-observation burn-in
                continue
            ours = suggested_maintenance_time(belief, model, "percentile", 0.1)
            total += 1
            safe += ours.days <= true_t + 1e-3
        on_face.append(np.mean(beliefs[-1][1].points[:, 0] == 0.0))
    assert safe / total >= 0.95, f"only {safe / total:.2%} of (seed, day) pairs were safe"
    assert np.mean(on_face) >= 0.05, f"only {np.mean(on_face):.2%} of final particles on x1 = 0"


def gaps_against_least_squares(model, observe, t_star=None, days=8):
    """Criterion 8's pipeline on ``observe(model, seed)`` for seeds 0-19:
    the percentile rule's times and the LS baseline's, each minus t* (the
    model's unless given), one row per seed and one column per day past
    the burn-in, of which there must be ``days``.  The rule and the LS
    baseline, which fits the observations the belief has seen, both use
    ``model``."""
    t_star = true_maintenance_time(model).days if t_star is None else t_star
    ours, ls = [], []
    for seed in range(20):
        obs = observe(model, seed)
        for k, (day, belief) in enumerate(_pipeline_one_seed(seed, model, observations=obs)):
            if day < 2 * model.T:
                continue
            ours.append(suggested_maintenance_time(belief, model, "percentile", 0.1).days)
            ls.append(ls_baseline(obs[:k + 2], model.a0, model.b0, model.zeta_min)[1].days)
    assert len(ours) == 20 * days
    return np.reshape(ours, (20, days)) - t_star, np.reshape(ls, (20, days)) - t_star


def _plant_noise_tripled(model, seed):
    return daily_observations(model, 10, seed=seed, **dict(PLANT, eps_half_width=9.0))


def _day_5_outlier(model, seed):
    obs = daily_observations(model, 10, seed=seed, **PLANT)
    obs[5] = Observation(obs[5].t, obs[5].y_hat * [1.2, 1.0])
    return obs


# Each floor is the least safe rate of any block of 20 seeds in 0-399.
# Over all 400 seeds the rule was safe on 96.1 % (noise) and 97.4 %
# (outlier) of pairs, against 42.9 % and 18.0 % for LS.
@pytest.mark.parametrize(
    "observe, floor",
    [(_plant_noise_tripled, 0.9375), (_day_5_outlier, 0.95)],
    ids=["undeclared-noise-x3", "day-5-outlier"],
)
def test_end_to_end_safety_off_the_declared_plant(observe, floor):
    # Criterion 8's pipeline where its plant assumptions fail: reference
    # noise three times the plant's while the objective still declares
    # sigma_w2 = 0, or day 5's damping estimate 20 % high.
    ours, ls = gaps_against_least_squares(DegradationModel(2.5, 1.0, THETA, 0.4, 5.0), observe)
    safe, ls_safe = np.mean(ours <= 1e-3), np.mean(ls <= 1e-3)
    assert safe >= floor, f"only {safe:.2%} of (seed, day) pairs were safe"
    assert safe > ls_safe, f"the rule was safe on {safe:.2%} of pairs, LS on {ls_safe:.2%}"


def test_end_to_end_safety_after_a_rate_change():
    # Both decay rates rise by half at t = 20 d (day 4) while the rule and
    # LS keep the operator's model.  The plant after the change follows the
    # model through the coefficients at t = 20 with the new rates
    # (a0' = 2.8333, b0' = 0.1667); its days 4-9 replace the first run's by
    # index, so day j keeps its trajectory seed.  Doubling the rates there
    # would need b0' < 0, which no DegradationModel holds.  Over seeds
    # 0-399 the rule was safe on all 3200 pairs, 2400 of them after the
    # change, and LS on 37.0 % (46.2 % after the change).
    model = DegradationModel(2.5, 1.0, THETA, 0.4, 5.0)
    a, b = degrade(model, 20.0)
    after = DegradationModel(a + 1.5 * THETA[0] * 20.0, b - 1.5 * THETA[1] * 20.0, 1.5 * THETA, 0.4, 5.0)
    t_star = true_maintenance_time(after).days
    assert 20.0 < t_star < true_maintenance_time(model).days
    assert np.allclose(degrade(after, 20.0), (a, b), rtol=1e-15)

    def observe(_, seed):
        obs = daily_observations(model, 10, seed=seed, **PLANT)
        obs[4:] = daily_observations(after, 10, seed=seed, **PLANT)[4:]
        return obs

    ours, ls = gaps_against_least_squares(model, observe, t_star)
    safe, ls_safe = np.mean(ours <= 1e-3), np.mean(ls <= 1e-3)
    # The floor is the least safe block of 20 seeds in 0-399: every pair.
    assert safe == 1.0, f"only {safe:.2%} of (seed, day) pairs were safe"
    assert safe > ls_safe, f"the rule was safe on {safe:.2%} of pairs, LS on {ls_safe:.2%}"


# Steps k = 2..14 of criterion 8's pipeline run to the plant's last day:
# day 15 (t = 75 d) drives a(t) to 0, which the plant refuses.  Each band's
# floor is its least safe rate over the blocks of 20 seeds in 0-399; over
# all 400 seeds the rule was safe on 99.88 %, 96.4 % and 87.9 % of each
# band's pairs, LS on 47.2 %, 44.9 % and 46.2 %.  The rule's margin is the
# prior box contracting by 1 - tau H = 0.749 per step: it falls as the box
# shrinks, and criterion 8 stops at step 9.
_HORIZON_FLOORS = {(2, 10): 159 / 160, (10, 12): 36 / 40, (12, 15): 46 / 60}


def test_end_to_end_safety_to_the_plant_horizon():
    model = DegradationModel(2.5, 1.0, THETA, 0.4, 5.0)
    # Column j is step k = j + 2, the belief at t = 5k d.
    ours, ls = gaps_against_least_squares(
        model, lambda m, seed: daily_observations(m, 15, seed=seed, **PLANT), days=13
    )
    for (first, stop), floor in _HORIZON_FLOORS.items():
        steps = slice(first - 2, stop - 2)
        safe, ls_safe = np.mean(ours[:, steps] <= 1e-3), np.mean(ls[:, steps] <= 1e-3)
        band = f"steps {first}-{stop - 1}"
        assert safe >= floor, f"{band}: only {safe:.2%} of (seed, step) pairs were safe"
        assert safe > ls_safe, f"{band}: the rule was safe on {safe:.2%} of pairs, LS on {ls_safe:.2%}"


# ---------------------------------------------------------------------------
# Criterion 9: byte-identical outputs across parallel worker counts.

def test_criterion_9_determinism_across_workers(tmp_path):
    start = time.perf_counter()

    # criterion 1 configuration, library-level, two worker counts
    n = 256
    m0 = init_uniform_box([0.0, 0.0], [8.0 / 60.0] * 2, n, seed=1)
    obj = StreamingLSObjective(W, RHO, THETA, 0.0)
    outputs = []
    for workers in (1, 4):
        cfg = FlowConfig(
            tau=TAU, max_iters=60, seed=1, constraint=ORTHANT,
            diag_every=10, diag_subsample=n, workers=workers,
        )
        final, trace = run(m0, obj, [W @ THETA] * 60, cfg)
        pdir = tmp_path / f"lib_w{workers}"
        pdir.mkdir()
        write_particles_csv(final, pdir / "particles.csv")
        flow_mod.write_trace_csv(trace, pdir / "trace.csv", 2)
        outputs.append(pdir)
    assert (outputs[0] / "particles.csv").read_bytes() == (outputs[1] / "particles.csv").read_bytes()
    assert (outputs[0] / "trace.csv").read_bytes() == (outputs[1] / "trace.csv").read_bytes()

    # criterion 8 configuration through the command line, one seed
    sim_dir = tmp_path / "sim"
    assert cli.main([
        "simulate", "--paper-preset", "--out", str(sim_dir), "--seed", "0",
    ]) == 0
    flow_dirs = []
    for workers in ("1", "4"):
        fdir = tmp_path / f"cli_w{workers}"
        assert cli.main([
            "flow", "--paper-preset", "--out", str(fdir), "--seed", "0",
            "--observations", str(sim_dir / "observations.csv"),
            "--workers", workers,
        ]) == 0
        assert cli.main([
            "predict", "--paper-preset", "--out", str(fdir), "--seed", "0",
            "--particles", str(fdir / "particles.csv"),
            "--observations", str(sim_dir / "observations.csv"),
        ]) == 0
        flow_dirs.append(fdir)
    for name in ("particles.csv", "trace.csv", "prediction.csv", "tstar.csv"):
        assert (flow_dirs[0] / name).read_bytes() == (flow_dirs[1] / name).read_bytes(), name

    elapsed = time.perf_counter() - start
    report_line(9, f"library and command-line outputs byte-identical for 1 vs 4 workers, {elapsed:.1f}s")
