import hashlib
import math
import os
import re
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import inside, linear_flow_w2, objective_direct
from wgflow.errors import ConfigError, DataError, NumericalError, UnsafeStepError
from wgflow.files import read_table
from wgflow.flow import (
    _NOISE_CHUNK,
    FlowConfig,
    checkpoint_fields,
    convergence_bound,
    read_checkpoint,
    run,
    step,
    validate_tau,
    write_checkpoint,
    write_trace_csv,
)
from wgflow.functionals import StreamingLSObjective, perturbed_gradient, stochastic_gradient
from wgflow.measures import PERTURB_STREAM, RNG_TAG, ParticleMeasure, covariance, init_uniform_box, substream
from wgflow.sets import Ball, Box, FullSpace, Halfspace, NonnegativeOrthant, project_measure
from wgflow.transport import w2_exact

THETA = np.array([2.0 / 60.0, 5.0 / 60.0])
W = np.diag([-5.0, 5.0])


def preset_objective(sigma_w2=0.0, theta=THETA):
    return StreamingLSObjective(W, 0.1, theta, sigma_w2)


def dirac_cloud(x, n):
    return ParticleMeasure(np.tile(np.asarray(x, dtype=float), (n, 1)))


class TestValidateTau:
    def test_identity_case(self):
        report = validate_tau(np.eye(2), 1.0, 1.0, 0.1)
        assert report.alpha == pytest.approx(1.0)
        assert report.C == pytest.approx(4.0)
        assert report.tau_max == pytest.approx(0.5)
        assert report.eta == pytest.approx(4.0)
        assert report.ball_radius == pytest.approx(math.sqrt(0.4), rel=1e-12)
        assert report.per_step_rate == pytest.approx(0.9)
        assert report.tau_valid

    def test_boundary_is_invalid(self):
        report = validate_tau(np.eye(2), 1.0, 1.0, 0.5)
        assert not report.tau_valid

    def test_case_study_model_constants(self):
        report = validate_tau(W, 0.1, 0.0, 0.01)
        assert report.alpha == pytest.approx(25.0)
        assert report.C == pytest.approx(100.0)
        assert report.tau_max == pytest.approx(0.02)
        assert report.tau_valid

    def test_singular_matrix_rejected(self):
        with pytest.raises(NumericalError, match="invertible"):
            validate_tau(np.array([[1.0, 2.0], [2.0, 4.0]]), 0.1, 0.0, 0.01)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            validate_tau(np.eye(2), -1.0, 0.0, 0.01)
        with pytest.raises(ValueError):
            validate_tau(np.eye(2), 1.0, -1.0, 0.01)
        with pytest.raises(ValueError):
            validate_tau(np.eye(2), 1.0, 0.0, 0.0)


class TestConvergenceBound:
    def test_k_zero_is_initial_value(self):
        report = validate_tau(np.eye(2), 1.0, 1.0, 0.1)
        assert convergence_bound(report, 1.3, 0) == pytest.approx(1.3**2, rel=1e-14)

    def test_large_k_limit(self):
        report = validate_tau(np.eye(2), 1.0, 1.0, 0.1)
        limit = report.tau * report.sigma2 / report.alpha
        assert convergence_bound(report, 2.0, 10_000) == pytest.approx(limit, rel=1e-10)

    def test_hand_computed(self):
        # alpha=1, tau=0.1, sigma2=4 -> limit 0.4; from 1.0 one step gives 0.94
        report = validate_tau(np.eye(2), 1.0, 1.0, 0.1)
        assert report.sigma2 == pytest.approx(4.0)
        assert convergence_bound(report, 1.0, 1) == pytest.approx(0.94, rel=1e-12)

    def test_monotone_toward_limit(self):
        report = validate_tau(np.eye(2), 1.0, 1.0, 0.1)
        limit = report.tau * report.sigma2 / report.alpha
        above = [convergence_bound(report, 1.0, k) for k in range(30)]
        assert all(a >= b for a, b in zip(above, above[1:]))
        below = [convergence_bound(report, 0.1, k) for k in range(30)]
        assert all(b >= a for a, b in zip(below, below[1:]))
        assert 0.1**2 < limit


class TestStep:
    def test_zero_field_is_projection(self):
        m = ParticleMeasure(np.array([[-1.0, 2.0], [0.5, 0.5]]))
        got = step(m, np.zeros((2, 2)), 0.1, NonnegativeOrthant(2))
        want = project_measure(NonnegativeOrthant(2), m)
        assert np.array_equal(got.points, want.points)

    def test_single_particle_is_euclidean_descent(self):
        theta_star = np.array([1.0, -1.0])
        theta = np.array([3.0, 3.0])
        tau = 0.2
        m = ParticleMeasure(theta[None, :])
        got = step(m, (theta - theta_star)[None, :], tau, FullSpace(2))
        want = theta - tau * (theta - theta_star)
        assert np.allclose(got.points[0], want, rtol=1e-15)

    def test_orthant_hand_computed(self):
        m = ParticleMeasure(np.array([[0.1, 0.1]]))
        got = step(m, np.array([[1.0, 0.0]]), 0.5, NonnegativeOrthant(2))
        assert np.allclose(got.points[0], [0.0, 0.1], atol=1e-16)

    def test_shape_mismatch(self):
        m = ParticleMeasure(np.zeros((3, 2)))
        with pytest.raises(ValueError, match="shape"):
            step(m, np.zeros((2, 2)), 0.1, NonnegativeOrthant(2))


def noise_free_stream(k):
    return [W @ THETA] * k


def flow_config(**kwargs):
    defaults = dict(
        tau=0.01,
        max_iters=100,
        seed=3,
        constraint=NonnegativeOrthant(2),
        diag_every=10,
        diag_subsample=64,
    )
    defaults.update(kwargs)
    return FlowConfig(**defaults)


def seed_and_rng(seed):
    """The sidecar fields of a checkpoint that records only its seed and generator."""
    fields = checkpoint_fields(8, preset_objective(), flow_config(seed=seed))
    return {key: fields[key] for key in ("seed", "rng")}


class TestRun:
    def test_empty_stream(self):
        m0 = init_uniform_box([0, 0], [0.2, 0.2], 16, seed=1)
        cfg = flow_config(diag_subsample=16)
        final, trace = run(m0, preset_objective(), [], cfg)
        assert np.array_equal(final.points, m0.points)
        assert trace.iterations_run == 0
        assert len(trace.rows) == 1 and trace.rows[0].k == 0

    def test_zero_iterations(self):
        m0 = init_uniform_box([0, 0], [0.2, 0.2], 16, seed=1)
        cfg = flow_config(max_iters=0, diag_subsample=16)
        final, trace = run(m0, preset_objective(), noise_free_stream(5), cfg)
        assert np.array_equal(final.points, m0.points)
        assert trace.iterations_run == 0

    def test_noise_free_contraction_and_target(self):
        m0 = init_uniform_box([0, 0], [8.0 / 60.0] * 2, 64, seed=3)
        obj = preset_objective()
        ref = dirac_cloud(THETA, 64)
        w2_prev, _ = w2_exact(m0, ref)
        rate = 1.0 - 25.0 * 0.01
        k_pred = math.ceil(math.log(1e-6 / w2_prev) / math.log(math.sqrt(rate)))
        m = m0
        for _ in range(k_pred):
            m, _ = run(m, obj, noise_free_stream(1), flow_config(max_iters=1, diag_subsample=64))
            w2_now, _ = w2_exact(m, ref)
            if w2_prev > 1e-9:
                assert w2_now**2 <= rate * w2_prev**2 * (1 + 1e-8) + 1e-30
            w2_prev = w2_now
        assert w2_prev < 1e-6

    def test_noise_free_bound_dominance(self):
        m0 = init_uniform_box([0, 0], [8.0 / 60.0] * 2, 64, seed=5)
        obj = preset_objective()
        cfg = flow_config(max_iters=80, diag_every=5, diag_subsample=64)
        _, trace = run(m0, obj, noise_free_stream(80), cfg)
        report = validate_tau(W, 0.1, 0.0, 0.01)
        w2_0 = trace.rows[0].w2_ref
        for row in trace.rows:
            bound = convergence_bound(report, w2_0, row.k)
            assert row.w2_ref**2 <= bound + 1e-8

    def test_support_invariance(self):
        m0 = init_uniform_box([0, 0], [0.2, 0.2], 32, seed=7)
        obj = preset_objective(sigma_w2=0.5)
        rng = np.random.default_rng(0)
        stream = [W @ THETA + rng.normal(0, 0.5, 2) for _ in range(50)]
        cfg = flow_config(max_iters=50, diag_subsample=32, perturb_std=0.05)
        final, _ = run(m0, obj, stream, cfg)
        assert np.all(final.points >= -1e-12)

    def test_deterministic_same_seed(self):
        m0 = init_uniform_box([0, 0], [0.2, 0.2], 32, seed=9)
        obj = preset_objective(sigma_w2=0.1)
        stream = noise_free_stream(30)
        cfg = flow_config(max_iters=30, diag_subsample=32, perturb_std=0.02)
        a, _ = run(m0, obj, stream, cfg)
        b, _ = run(m0, obj, stream, cfg)
        assert np.array_equal(a.points, b.points)

    def test_deterministic_across_worker_counts(self):
        m0 = init_uniform_box([0, 0], [0.2, 0.2], 33, seed=9)
        obj = preset_objective(sigma_w2=0.1)
        stream = noise_free_stream(25)
        results = []
        for workers in (1, 3, 7):
            cfg = flow_config(max_iters=25, diag_subsample=33, perturb_std=0.02, workers=workers)
            m, trace = run(m0, obj, stream, cfg)
            results.append((m.points, trace.rows[-1].w2_ref))
        assert np.array_equal(results[0][0], results[1][0])
        assert np.array_equal(results[0][0], results[2][0])
        assert results[0][1] == results[1][1] == results[2][1]

    def test_early_stream_exhaustion(self):
        m0 = init_uniform_box([0, 0], [0.2, 0.2], 16, seed=1)
        cfg = flow_config(max_iters=100, diag_subsample=16)
        _, trace = run(m0, preset_objective(), noise_free_stream(7), cfg)
        assert trace.iterations_run == 7
        assert trace.rows[-1].k == 7

    @pytest.mark.parametrize(
        "rows, max_iters, pulled", [(10, 4, 4), (3, 10, 3)], ids=["capped", "short"]
    )
    def test_iterator_pulled_once_per_iteration(self, rows, max_iters, pulled):
        # One pull per iteration, and never one ahead: in deployment the
        # next observation may not exist yet.
        obs = [W @ THETA * (1 + i / 100) for i in range(rows)]
        it = iter(obs)
        m0 = init_uniform_box([0, 0], [0.2, 0.2], 16, seed=1)
        cfg = flow_config(max_iters=max_iters, diag_subsample=16)
        _, trace = run(m0, preset_objective(), it, cfg)
        assert trace.iterations_run == pulled
        assert next(it, None) is (obs[pulled] if pulled < rows else None)

    @pytest.mark.parametrize(
        "bad", [np.array([np.nan, 0.0]), np.array([0.0, np.inf]), np.zeros(3)],
        ids=["nan", "inf", "length-3"],
    )
    def test_invalid_observation_aborts_by_default(self, bad):
        # Refused at its own absolute iteration, before the next one is pulled.
        m0 = init_uniform_box([0, 0], [0.2, 0.2], 16, seed=1)
        obs = [W @ THETA, bad, W @ THETA, W @ THETA]
        it = iter(obs)
        cfg = flow_config(max_iters=10, diag_subsample=16)
        with pytest.raises(DataError, match=r"^invalid observation at iteration 6: "):
            run(m0, preset_objective(), it, cfg, start_iteration=5)
        assert next(it) is obs[2]

    def test_no_setting_lets_a_bad_observation_through(self):
        # Refusal is the one path: there is no switch to skip instead.
        with pytest.raises(TypeError, match="on_invalid"):
            flow_config(on_invalid="skip")

    def test_unsafe_tau_refused_then_allowed(self):
        m0 = init_uniform_box([0, 0], [0.2, 0.2], 16, seed=1)
        cfg = flow_config(tau=0.05, max_iters=1, diag_subsample=16)
        with pytest.raises(UnsafeStepError, match=r"--force \(allow_unsafe_tau=True\)"):
            run(m0, preset_objective(), noise_free_stream(1), cfg)
        cfg_ok = flow_config(tau=0.05, max_iters=1, diag_subsample=16, allow_unsafe_tau=True)
        run(m0, preset_objective(), noise_free_stream(1), cfg_ok)

    def test_deployment_mode_trace_has_empty_diagnostics(self):
        m0 = init_uniform_box([0, 0], [0.2, 0.2], 16, seed=1)
        obj = StreamingLSObjective(W, 0.1, None, 0.0)
        cfg = flow_config(max_iters=5, diag_subsample=16)
        _, trace = run(m0, obj, noise_free_stream(5), cfg)
        assert all(r.objective is None and r.w2_ref is None for r in trace.rows)

    def test_subsample_above_the_cloud_is_the_whole_cloud(self):
        # diag_subsample is a cap: above the particle count the run measures
        # the whole cloud, exactly as with the count itself.
        m0 = init_uniform_box([0, 0], [0.2, 0.2], 16, seed=1)
        runs = [
            run(m0, preset_objective(sigma_w2=0.1), noise_free_stream(6),
                flow_config(max_iters=6, diag_every=2, diag_subsample=sub, perturb_std=0.01))
            for sub in (16, 17)
        ]
        (fa, ta), (fb, tb) = runs
        assert np.array_equal(fa.points, fb.points)
        assert [r.k for r in ta.rows] == [r.k for r in tb.rows]
        for a, b in zip(ta.rows, tb.rows):
            assert (a.objective, a.w2_ref, a.grad_norm) == (b.objective, b.w2_ref, b.grad_norm)
            assert np.array_equal(a.mean, b.mean)

    def test_rows_of_a_cloud_above_the_cap_measure_the_seeds_draw(self):
        # 1000 particles above the cap of 256: the first and the last row
        # measure the particles np.sort(substream(seed, 22).choice(1000,
        # 256, replace=False)) picks, the same ones at every row.
        m0 = init_uniform_box([0, 0], [0.2, 0.2], 1000, seed=1)
        cfg = flow_config(max_iters=3, diag_subsample=256, perturb_std=0.01)
        final, trace = run(m0, preset_objective(sigma_w2=0.1), noise_free_stream(3), cfg)
        idx = np.sort(substream(cfg.seed, 22).choice(1000, 256, replace=False))
        ref = dirac_cloud(THETA, 256)
        assert [r.k for r in trace.rows] == [0, 3]
        for row, cloud in zip(trace.rows, (m0, final)):
            assert row.w2_ref == w2_exact(ParticleMeasure(cloud.points[idx]), ref)[0]

    def test_deployment_mode_runs_with_the_default_subsample(self):
        # No W2 is measured without a theta*, so the default cap of 256
        # has nothing to bound for a 16-particle cloud.
        m0 = init_uniform_box([0, 0], [0.2, 0.2], 16, seed=1)
        obj = StreamingLSObjective(W, 0.1, None, 0.0)
        cfg = FlowConfig(tau=0.01, max_iters=3, seed=0, constraint=NonnegativeOrthant(2))
        final, trace = run(m0, obj, noise_free_stream(3), cfg)
        assert cfg.diag_subsample > m0.n
        assert trace.iterations_run == 3 and final.n == 16

    def test_trace_carries_the_report_it_was_judged_by(self):
        m0 = init_uniform_box([0, 0], [0.2, 0.2], 16, seed=1)
        obj = preset_objective(sigma_w2=0.1)
        _, trace = run(m0, obj, noise_free_stream(2), flow_config(max_iters=2, diag_subsample=16))
        assert trace.report == validate_tau(obj.W, obj.rho, obj.sigma_w2, 0.01)

    def test_checkpoint_interval_without_a_path_refused(self):
        # run would otherwise take every step and write no checkpoint.
        with pytest.raises(ValueError, match="checkpoint_path"):
            flow_config(checkpoint_every=3)

    def test_trace_w2_is_the_closed_form_distance_to_the_dirac(self):
        # W2 to the Dirac at theta* is sqrt(mean |x - theta*|^2), an oracle
        # independent of the assignment solve.
        n = 64
        m0 = init_uniform_box([0, 0], [0.2, 0.2], n, seed=1)
        cfg = flow_config(max_iters=12, diag_every=5, diag_subsample=n, perturb_std=0.01)
        final, trace = run(m0, preset_objective(sigma_w2=0.1), noise_free_stream(12), cfg)

        def closed_form(points):
            return math.sqrt(float(np.mean(np.sum((points - THETA) ** 2, axis=1))))

        assert trace.rows[0].w2_ref == pytest.approx(closed_form(m0.points), rel=1e-12)
        assert trace.rows[-1].w2_ref == pytest.approx(closed_form(final.points), rel=1e-12)

    def test_divergence_names_the_iteration(self):
        m0 = init_uniform_box([0, 0], [0.2, 0.2], 16, seed=1)
        obj = StreamingLSObjective(W, 0.1, None, 0.0)
        cfg = flow_config(tau=1e200, max_iters=10, diag_subsample=16, allow_unsafe_tau=True)
        with pytest.raises(NumericalError, match="diverged at iteration 2"):
            run(m0, obj, noise_free_stream(10), cfg)

    def test_trace_row_overflow_names_the_iteration(self):
        # At k = 1 the cloud is finite (about 1e200) but its squared
        # distances to theta* overflow inside the trace row's W2.
        m0 = init_uniform_box([0, 0], [0.2, 0.2], 16, seed=1)
        cfg = flow_config(
            tau=1e200, max_iters=10, diag_every=1, diag_subsample=16, allow_unsafe_tau=True
        )
        with pytest.raises(NumericalError, match=(
            "^flow diverged at iteration 1: a squared distance between two particles is not finite"
        )):
            run(m0, preset_objective(), noise_free_stream(10), cfg)

    @pytest.mark.parametrize("max_iters", [0, 2])
    def test_overflowing_initial_mean_is_refused_at_iteration_0(self, max_iters):
        # Deployment mode, so the k = 0 trace row has no objective or W2:
        # every particle is finite, but their mean overflows before any step.
        m0 = init_uniform_box([1e308, 1e308], [1.7e308, 1.7e308], 16, seed=1)
        cfg = flow_config(max_iters=max_iters, diag_subsample=16)
        with pytest.raises(NumericalError, match="^flow diverged at iteration 0: the particle mean is not finite$"):
            run(m0, StreamingLSObjective(W, 0.1, None, 0.0), noise_free_stream(max_iters), cfg)

    @pytest.mark.parametrize(
        "theta, hi, n, message",
        [
            (THETA, 5e153, 4, "diverged at iteration 0: objective is not finite"),
            (None, 1e156, 16, "diverged at iteration 1: grad_norm is not finite"),
        ],
    )
    def test_trace_row_of_a_finite_far_cloud_is_refused(self, theta, hi, n, message):
        # The cloud and its mean are finite, and so are its squared
        # distances to theta* and (at n = 4 particles) their sum; the
        # objective itself, about 12.5 times their mean (|W|^2 = 25), or
        # the squared steps of the gradient norm overflow.
        m0 = init_uniform_box([0, 0], [hi, hi], n, seed=1)
        cfg = flow_config(max_iters=3, diag_every=1, diag_subsample=16)
        with pytest.raises(NumericalError, match=message):
            run(m0, StreamingLSObjective(W, 0.1, theta, 0.0), noise_free_stream(3), cfg)

    def test_trace_row_of_a_far_cloud_with_a_finite_objective_records_it(self):
        # About 1e307: representable, though the sum of the 16 particles'
        # squared model errors is not.
        m0 = init_uniform_box([0, 0], [1e153, 1e153], 16, seed=1)
        obj = StreamingLSObjective(W, 0.1, THETA, 0.0)
        _, trace = run(m0, obj, [], flow_config(max_iters=0, diag_subsample=16))
        assert trace.rows[0].objective == pytest.approx(objective_direct(obj, m0.points), rel=1e-12)


# A process matrix that is not symmetric, so a transposed W^T shows.
W_SKEW = np.array([[-5.0, 1.0], [0.5, 4.0]])
EPS = np.finfo(float).eps
ORACLE_K = 40
# Each step rounds differently from the reference (a few ulps of O(1)
# coordinates); the contraction and the projections do not amplify it.
ORACLE_TOL_X = 16 * ORACLE_K * EPS
ORACLE_TOL_GRAD = 2 * ORACLE_TOL_X / 0.01


def oracle_stream(k, seed=23):
    rng = np.random.default_rng(seed)
    return [W_SKEW @ THETA + rng.normal(0.0, 0.2, 2) for _ in range(k)]


def reference_run(m0, obj, stream, cfg):
    """The flow as an explicit loop of the public gradient, noise and step."""
    m = m0
    rows = [(0, m0.points.mean(axis=0), None)]
    for k, y in enumerate(stream):
        xi = stochastic_gradient(obj, m.points, y, m.points.mean(axis=0))
        if cfg.perturb_std > 0:
            xi = perturbed_gradient(xi, cfg.perturb_std, substream(cfg.seed, 21, k))
        grad_norm = math.sqrt(float(np.mean(np.sum(xi * xi, axis=1))))
        m = step(m, xi, cfg.tau, cfg.constraint)
        due = (k + 1) % cfg.diag_every == 0
        if due or k + 1 == len(stream):
            rows.append((k + 1, m.points.mean(axis=0), grad_norm if due else None))
    return m, rows


class TestRunAgainstClosedForm:
    # Criterion 2's configuration without the projection: the flow is
    # linear, so its W2 to the Dirac at theta* follows the closed form
    # along the very stream the run consumed.  Measured agreement: at most
    # 3.1e-14 relative over 401 rows at seeds 0-5; the bound allows 30x.
    TOL = 1e-12

    @pytest.mark.parametrize("seed", [0, 1])
    def test_trace_w2_follows_the_mean_and_spread_recursion(self, seed):
        m0 = init_uniform_box([0.0, 0.0], [8.0 / 60.0] * 2, 256, seed=12345)
        obj = preset_objective(sigma_w2=0.005)
        rng = substream(777, seed)
        stream = [W @ THETA + rng.normal(0.0, 0.05, 2) for _ in range(400)]
        cfg = flow_config(
            max_iters=400, seed=seed, diag_every=1, diag_subsample=256, constraint=FullSpace(2)
        )
        _, trace = run(m0, obj, stream, cfg)
        want = linear_flow_w2(m0.points, W, THETA, 0.1, cfg.tau, stream)
        assert [r.k for r in trace.rows] == list(range(401))
        got = np.array([r.w2_ref for r in trace.rows])
        assert np.max(np.abs(got - want) / want) <= self.TOL


class TestRunAgainstReference:
    # Every set clips part of a cloud drawn around the origin.
    @pytest.mark.parametrize(
        "constraint",
        [
            Box([0.0, 0.02], [0.1, 0.09]),
            NonnegativeOrthant(2),
            Halfspace([1.0, 1.0], 0.1),
            Ball(THETA, 0.05),
            FullSpace(2),
        ],
        ids=["box", "orthant", "halfspace", "ball", "all"],
    )
    @pytest.mark.parametrize("perturb_std", [0.0, 0.05])
    def test_matches_explicit_loop(self, constraint, perturb_std):
        m0 = init_uniform_box([-0.1, -0.1], [0.2, 0.2], 37, seed=4)
        obj = StreamingLSObjective(W_SKEW, 0.1, THETA, 0.08)
        stream = oracle_stream(ORACLE_K)
        cfg = flow_config(
            max_iters=ORACLE_K, diag_every=3, diag_subsample=37,
            constraint=constraint, perturb_std=perturb_std,
        )
        final, trace = run(m0, obj, stream, cfg)
        want, rows = reference_run(m0, obj, stream, cfg)

        assert np.max(np.abs(final.points - want.points)) <= ORACLE_TOL_X
        assert [r.k for r in trace.rows] == [k for k, _, _ in rows]
        for row, (_, mean_want, grad_want) in zip(trace.rows, rows):
            assert np.max(np.abs(row.mean - mean_want)) <= ORACLE_TOL_X
            if grad_want is None:
                assert row.grad_norm is None
            else:
                assert abs(row.grad_norm - grad_want) <= ORACLE_TOL_GRAD

    def test_full_space_mean_follows_affine_recursion(self):
        m0 = init_uniform_box([-0.1, -0.1], [0.2, 0.2], 37, seed=6)
        obj = StreamingLSObjective(W_SKEW, 0.1, None, 0.0)
        stream = oracle_stream(ORACLE_K, seed=29)
        cfg = flow_config(max_iters=ORACLE_K, diag_every=1, diag_subsample=37, constraint=FullSpace(2))
        _, trace = run(m0, obj, stream, cfg)

        tau = cfg.tau
        a = np.eye(2) - tau * W_SKEW.T @ W_SKEW
        mean = m0.points.mean(axis=0)
        assert [r.k for r in trace.rows] == list(range(ORACLE_K + 1))
        for row in trace.rows:
            assert np.max(np.abs(row.mean - mean)) <= ORACLE_TOL_X
            if row.k < ORACLE_K:
                mean = a @ mean + tau * W_SKEW.T @ stream[row.k]

    def test_full_space_covariance_follows_affine_recursion(self):
        # Noise-free and unconstrained, every particle moves by the same
        # affine map x -> x A + c_k, so cov_{k+1} = A cov_k A^T exactly.
        m = init_uniform_box([-0.1, -0.1], [0.2, 0.2], 37, seed=8)
        obj = StreamingLSObjective(W_SKEW, 0.1, None, 0.0)
        stream = oracle_stream(ORACLE_K, seed=31)
        cfg = flow_config(max_iters=1, diag_subsample=37, constraint=FullSpace(2))
        a = np.eye(2) - cfg.tau * (W_SKEW.T @ W_SKEW + 0.1 * np.eye(2))
        for k, y in enumerate(stream):
            cov = covariance(m)
            m, _ = run(m, obj, [y], cfg, start_iteration=k)
            # A step rounds each coordinate by a few ulps of its magnitude,
            # which moves the covariance by about spread times that.
            spread = math.sqrt(np.max(np.abs(cov)))
            tol = 16 * EPS * spread * (spread + np.max(np.abs(m.points)))
            assert np.max(np.abs(covariance(m) - a @ cov @ a.T)) <= tol

    @pytest.mark.parametrize("perturb_std", [0.0, 0.05])
    def test_grad_norm_is_the_same_at_any_stride_and_absent_when_not_due(self, perturb_std):
        # A due step takes grad_norm before projecting, with the same bits
        # whatever the stride; a final row that is not due has none.
        m0 = init_uniform_box([-0.1, -0.1], [0.2, 0.2], 37, seed=4)
        obj = StreamingLSObjective(W_SKEW, 0.1, None, 0.08)
        stream = oracle_stream(7)
        rows = [
            run(m0, obj, stream, flow_config(
                max_iters=7, diag_every=every, diag_subsample=37,
                constraint=Ball(THETA, 0.05), perturb_std=perturb_std,
            ))[1].rows
            for every in (1, 5)
        ]
        assert [r.k for r in rows[1]] == [0, 5, 7]
        assert rows[1][-1].grad_norm is None
        assert rows[1][1].grad_norm == rows[0][5].grad_norm


class TestRunMemory:
    """``run`` works in two (N, d) buffers, the iterate and the cloud before
    projection, and one noise chunk (0.41 of a cloud at this N)."""

    N = 20000
    LIMIT = 2.8

    @pytest.mark.parametrize("max_iters", [20, 19], ids=["recorded", "unrecorded"])
    def test_peak_in_particle_arrays(self, max_iters):
        m0 = init_uniform_box([0, 0], [8.0 / 60.0] * 2, self.N, seed=5)
        obj = StreamingLSObjective(W, 0.1, None, 4e-4)
        stream = oracle_stream(max_iters)
        cfg = flow_config(max_iters=max_iters, diag_every=20, perturb_std=0.02)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            final, trace = run(m0, obj, stream, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.rows[-1].k == max_iters
        assert (trace.rows[-1].grad_norm is None) == (max_iters % cfg.diag_every != 0)
        assert (peak - base) / m0.points.nbytes <= self.LIMIT


class TestNoiseChunks:
    """At ``2 * _NOISE_CHUNK + 5`` particles each noise column crosses two
    chunk boundaries and the second column starts mid-chunk; the run still
    gives the bits of a loop that draws each step's noise in one fill."""

    N = 2 * _NOISE_CHUNK + 5
    STD = 0.05

    def written_out(self, m0, obj, stream, cfg):
        """The run's steps, each with one ``(d, N)`` normal fill per key:
        the final cloud and the grad_norm of each step, by ``k``."""
        tau = cfg.tau
        a = np.eye(2) - tau * obj.H
        x = np.array(m0.points, order="F")
        grad_norms = {}
        for k, y in enumerate(stream):
            eps = substream(cfg.seed, PERTURB_STREAM, k).standard_normal((2, self.N)).T
            pre = np.matmul(x, a, out=np.empty_like(x))
            pre += tau * obj.W.T @ y + tau * obj.rho * x.mean(axis=0)
            pre -= tau * self.STD * eps
            g = x - pre
            g *= g
            grad_norms[k + 1] = math.sqrt(float(g.sum()) / self.N) / tau
            x = cfg.constraint.project_points(pre, out=pre)
        return x, grad_norms

    @pytest.mark.parametrize("steps", [4, 5], ids=["recorded-last", "unrecorded-last"])
    def test_bits_of_one_fill_per_step(self, steps):
        m0 = init_uniform_box([-0.1, -0.1], [0.2, 0.2], self.N, seed=4)
        obj = StreamingLSObjective(W_SKEW, 0.1, None, 0.08)
        stream = oracle_stream(steps)
        cfg = flow_config(
            max_iters=steps, diag_every=2, constraint=Ball(THETA, 0.05), perturb_std=self.STD
        )
        final, trace = run(m0, obj, stream, cfg)
        want, grad_norms = self.written_out(m0, obj, stream, cfg)
        assert np.array_equal(final.points, want)
        assert [r.k for r in trace.rows] == [0, 2, 4] + [5] * (steps == 5)
        assert [r.grad_norm for r in trace.rows[1:]] == [
            grad_norms[r.k] if r.k % 2 == 0 else None for r in trace.rows[1:]
        ]


class TestPerturbationNoise:
    """From a Dirac at theta* on the whole space with ``y = W theta*`` the
    field is 0, so one step's ``(theta* - x_1) / tau`` is the perturbation."""

    N = 20000
    STD = 0.05

    def noise(self, k):
        obj = StreamingLSObjective(W_SKEW, 0.1, None, 0.0)
        cfg = flow_config(max_iters=1, constraint=FullSpace(2), perturb_std=self.STD)
        final, _ = run(dirac_cloud(THETA, self.N), obj, [W_SKEW @ THETA], cfg, start_iteration=k)
        return (THETA - final.points) / cfg.tau

    def test_each_coordinate_has_mean_zero_and_the_declared_variance(self):
        eps = self.noise(0)
        var = self.STD**2
        for j in range(2):
            assert abs(eps[:, j].mean()) <= 4 * self.STD / math.sqrt(self.N)
            assert abs(eps[:, j].var() - var) <= 4 * var * math.sqrt(2 / self.N)

    def test_coordinates_are_uncorrelated(self):
        eps = self.noise(0)
        assert abs(np.corrcoef(eps.T)[0, 1]) <= 4 / math.sqrt(self.N)

    def test_each_step_draws_its_own_noise(self):
        assert not np.array_equal(self.noise(3), self.noise(4))
        assert np.array_equal(self.noise(3), self.noise(3))


class TestProjectionThatBinds:
    """Criterion 2's configuration with theta* on the face x1 = 0 of the
    orthant and perturbed particles.  At criterion 2's theta*, 0.033 inside
    the orthant, the projection never moves a particle; here about 40 % of
    the cloud ends on the face."""

    THETA = np.array([0.0, 5.0 / 60.0])
    SEEDS = 50
    ITERS = 400
    EVERY = 10
    SIGMA_W2 = 0.005

    @pytest.fixture(scope="class")
    def clouds(self):
        # Each seed runs in stretches of EVERY steps, each resumed from the
        # last (bit for bit the uninterrupted run), so every cloud a trace
        # row would record is seen: (seed, checkpoint, N, d).
        m0 = init_uniform_box([0.0, 0.0], [8.0 / 60.0] * 2, 256, seed=12345)
        obj = StreamingLSObjective(W, 0.1, None, self.SIGMA_W2)
        per_coord = math.sqrt(self.SIGMA_W2 / 2.0)
        clouds = []
        for s in range(self.SEEDS):
            rng = substream(777, s)
            stream = [W @ self.THETA + rng.normal(0.0, per_coord, 2) for _ in range(self.ITERS)]
            cloud = m0
            seed_clouds = [m0.points]
            for k in range(0, self.ITERS, self.EVERY):
                cfg = FlowConfig(
                    tau=0.01, max_iters=self.EVERY, seed=s, constraint=NonnegativeOrthant(2),
                    perturb_std=0.02, diag_every=self.EVERY,
                )
                cloud, _ = run(cloud, obj, stream[k:k + self.EVERY], cfg, start_iteration=k)
                seed_clouds.append(cloud.points)
            clouds.append(seed_clouds)
        return np.array(clouds)

    def test_every_recorded_cloud_is_inside_the_orthant(self, clouds):
        # The orthant's inequality is coordinatewise, so one call checks a cloud.
        orthant = NonnegativeOrthant(2)
        assert all(inside(orthant, cloud) for cloud in clouds.reshape(-1, *clouds.shape[2:]))

    def test_the_projection_moves_particles(self, clouds):
        # Pooled over the seeds: 12 % to 46 % of particles on the face at
        # each checkpoint after k = 0, 43 % at k = 400.
        on_face = np.mean(clouds[:, :, :, 0] == 0.0, axis=(0, 2))
        assert on_face[0] == 0.0
        assert on_face[1:].min() >= 0.1 and on_face[-1] >= 0.3

    def test_seed_mean_stays_under_the_bound(self, clouds):
        # W2 to the Dirac at theta* is sqrt(mean |x - theta*|^2), exactly.
        w2_sq = np.mean(np.sum((clouds - self.THETA) ** 2, axis=3), axis=2)
        report = validate_tau(W, 0.1, self.SIGMA_W2, 0.01)
        w2_0 = math.sqrt(w2_sq[0, 0])
        se = w2_sq.std(axis=0, ddof=1) / math.sqrt(self.SEEDS)
        for j, k in enumerate(range(0, self.ITERS + 1, self.EVERY)):
            bound = convergence_bound(report, w2_0, k)
            assert w2_sq[:, j].mean() <= bound + 3.0 * se[j] + 1e-12, f"bound violated at k={k}"


class TestBeliefShape:
    """While the projection does not bind, an observation enters a step only
    through ``c_k``, which every particle shares: two observation streams
    move the same cloud by one common translation, so its shape does not
    depend on the data.  Measured at N = 256, K = 20: the centred clouds
    differed by 6.9e-17 against a bound of 6.1e-15, the means by (0.024,
    0.0059); in the negative control, by 4.6e-3 against 4.3e-16."""

    K = 20

    @staticmethod
    def finals(constraint, k, lo=(0.0, 0.0)):
        # The same m0 and seed, two different streams; deployment mode, so
        # no trace row measures a distance.
        m0 = init_uniform_box(lo, [8.0 / 60.0] * 2, 256, seed=12345)
        obj = StreamingLSObjective(W, 0.1)
        cfg = flow_config(max_iters=k, constraint=constraint, perturb_std=0.02, diag_every=k)
        streams = [[W @ THETA + substream(55, s).normal(0.0, 0.05, 2) for _ in range(k)] for s in (0, 1)]
        return [run(m0, obj, stream, cfg)[0].points for stream in streams]

    @staticmethod
    def centred_gap(a, b, k):
        # Rounding differs per particle by a few ulps of its coordinates per step.
        gap = np.abs((a - a.mean(axis=0)) - (b - b.mean(axis=0))).max()
        return gap, 16 * k * np.finfo(float).eps * max(np.abs(a).max(), np.abs(b).max())

    @pytest.mark.parametrize("constraint", [FullSpace(2), NonnegativeOrthant(2)], ids=["all", "orthant"])
    def test_the_data_move_only_the_mean(self, constraint):
        a, b = self.finals(constraint, self.K)
        gap, bound = self.centred_gap(a, b, self.K)
        assert gap <= bound
        assert np.all(np.abs(a.mean(axis=0) - b.mean(axis=0)) > 1e-3)
        if isinstance(constraint, NonnegativeOrthant):
            # The orthant's faces were never reached: it is the unconstrained run.
            assert all(np.array_equal(x, y) for x, y in zip((a, b), self.finals(FullSpace(2), self.K)))

    # The covariance after K unconstrained steps in closed form: every
    # particle shares c_k, so only A = I - tau H and the noise act on the
    # spread, and cov_K = A^K S0 A^K + tau^2 sp^2 sum_{j<K} A^{2j} with S0
    # the initial cloud's.  The noise is sampled, so the measured covariance
    # scatters about it: over seeds 0-199 at N = 4096 the relative Frobenius
    # error reached 0.00051, 0.0019, 0.028 and 0.067 at K = 1, 5, 20 and 60
    # (means 0.0002, 0.0008, 0.0093, 0.025).  Each tolerance is twice that
    # largest error.
    COV_TOL = {1: 0.001, 5: 0.004, 20: 0.06, 60: 0.14}

    def test_the_cloud_covariance_follows_the_closed_form(self):
        obj = StreamingLSObjective(W_SKEW, 0.1)
        tau, sp = 0.01, 0.02
        a = np.eye(2) - tau * obj.H

        def rel_error(got, s0, k, noise_std):
            ak = np.linalg.matrix_power(a, k)
            spread = sum(np.linalg.matrix_power(a, 2 * j) for j in range(k))
            want = ak @ s0 @ ak + tau**2 * noise_std**2 * spread
            return np.linalg.norm(got - want) / np.linalg.norm(want)

        for seed in range(5):
            m0 = init_uniform_box([0.0, 0.0], [8.0 / 60.0] * 2, 4096, seed)
            for k, tol in self.COV_TOL.items():
                cfg = flow_config(max_iters=k, seed=seed, constraint=FullSpace(2), perturb_std=sp, diag_every=k)
                got = covariance(run(m0, obj, [W_SKEW @ THETA] * k, cfg)[0])
                assert rel_error(got, covariance(m0), k, sp) <= tol, (seed, k)
                if k >= 20:
                    # Negative control: twice the noise.  Before K = 20 the
                    # noise term is below the sampling error of S0's image.
                    assert rel_error(got, covariance(m0), k, 2 * sp) > tol, (seed, k)

    def test_a_binding_projection_changes_the_shape(self):
        # Negative control: one orthant step from a cloud across x1 = 0,
        # where each stream moves a different set of particles onto the face.
        a, b = self.finals(NonnegativeOrthant(2), 1, lo=(-0.05, 0.0))
        gap, bound = self.centred_gap(a, b, 1)
        assert gap > 1e3 * bound


class TestCheckpointResume:
    def test_resume_reproduces_uninterrupted_run(self, tmp_path):
        m0 = init_uniform_box([0, 0], [0.2, 0.2], 32, seed=11)
        obj = preset_objective(sigma_w2=0.2)
        rng = np.random.default_rng(17)
        stream = [W @ THETA + rng.normal(0, 0.3, 2) for _ in range(20)]
        cfg_full = flow_config(max_iters=20, diag_subsample=32, perturb_std=0.02, seed=11)
        full, _ = run(m0, obj, stream, cfg_full)

        cfg_first = flow_config(max_iters=12, diag_subsample=32, perturb_std=0.02, seed=11)
        mid, _ = run(m0, obj, stream[:12], cfg_first)
        base = str(tmp_path / "ck")
        fields = checkpoint_fields(32, obj, cfg_full)
        write_checkpoint(base, mid, 12, fields)
        loaded, k0 = read_checkpoint(base, fields)
        assert k0 == 12
        assert np.array_equal(loaded.points, mid.points)

        cfg_rest = flow_config(max_iters=8, diag_subsample=32, perturb_std=0.02, seed=11)
        resumed, _ = run(loaded, obj, stream[k0:], cfg_rest, start_iteration=k0)
        assert np.array_equal(resumed.points, full.points)

    @pytest.mark.parametrize("perturb_std", [0.0, 0.02])
    def test_integral_float_start_iteration_writes_the_int_run_bytes(self, tmp_path, perturb_std):
        # 3.0 is the int 3: the same noise keys, and k written as 3, 4, 6, 7.
        m0 = init_uniform_box([0, 0], [0.2, 0.2], 16, seed=5)
        cfg = flow_config(max_iters=4, diag_every=2, diag_subsample=16, perturb_std=perturb_std)
        traces = []
        for start in (3, 3.0):
            _, trace = run(m0, preset_objective(), noise_free_stream(4), cfg, start_iteration=start)
            path = tmp_path / f"trace-{start!r}.csv"
            write_trace_csv(trace, path, 2)
            traces.append(path.read_bytes())
        assert traces[0] == traces[1]
        assert [line.split(b",")[0] for line in traces[1].splitlines()[1:]] == [b"3", b"4", b"6", b"7"]

    def test_resumed_run_leaves_the_uninterrupted_runs_checkpoint(self, tmp_path):
        # Checkpoints fall on multiples of checkpoint_every, wherever the
        # run started: resumed at 6 with a stride of 4, the run writes at 8.
        m0 = init_uniform_box([0, 0], [0.2, 0.2], 16, seed=2)
        obj = preset_objective(sigma_w2=0.2)
        stream = oracle_stream(9)

        def cfg(max_iters, path):
            return flow_config(
                max_iters=max_iters, diag_subsample=16, perturb_std=0.02,
                checkpoint_every=4, checkpoint_path=str(tmp_path / path),
            )

        run(m0, obj, stream, cfg(9, "full"))
        head, _ = run(m0, obj, stream[:6], cfg(6, "head"))
        run(head, obj, stream[6:], cfg(3, "resumed"), start_iteration=6)
        for suffix in (".particles.csv", ".meta.txt"):
            full = (tmp_path / ("full" + suffix)).read_bytes()
            assert (tmp_path / ("resumed" + suffix)).read_bytes() == full, suffix
        assert read_checkpoint(str(tmp_path / "resumed"), checkpoint_fields(16, obj, cfg(9, "x")))[1] == 8

    def test_run_writes_checkpoints_on_stride(self, tmp_path):
        m0 = init_uniform_box([0, 0], [0.2, 0.2], 16, seed=2)
        base = str(tmp_path / "auto")
        cfg = flow_config(
            max_iters=9, diag_subsample=16, checkpoint_every=4, checkpoint_path=base
        )
        run(m0, preset_objective(), noise_free_stream(9), cfg)
        m, k = read_checkpoint(base, checkpoint_fields(16, preset_objective(), flow_config(seed=3)))
        assert k == 8
        assert m.n == 16

    @pytest.mark.parametrize("good", [0, 3], ids=["first", "fourth"])
    def test_refused_observation_leaves_the_checkpoint_of_its_iteration(self, tmp_path, good):
        # The last checkpoint is the cloud before the refused observation,
        # at the iteration the refusal names, so a resume starts on it.
        m0 = init_uniform_box([0, 0], [0.2, 0.2], 16, seed=2)
        obj = preset_objective(sigma_w2=0.2)
        stream = oracle_stream(good) + [np.array([np.nan, 0.0])]
        base = str(tmp_path / "ck")
        cfg = flow_config(
            max_iters=10, diag_subsample=16, perturb_std=0.02,
            checkpoint_every=1, checkpoint_path=base,
        )
        with pytest.raises(DataError, match=rf"^invalid observation at iteration {5 + good}: "):
            run(m0, obj, stream, cfg, start_iteration=5)
        if not good:
            assert not os.path.exists(base + ".meta.txt")
            return
        head, _ = run(m0, obj, stream[:good], flow_config(
            max_iters=good, diag_subsample=16, perturb_std=0.02,
        ), start_iteration=5)
        m, k = read_checkpoint(base, checkpoint_fields(16, obj, cfg))
        assert k == 5 + good
        assert np.array_equal(m.points, head.points)


    def test_sidecar_records_the_particle_digest(self, tmp_path):
        base = str(tmp_path / "ck")
        write_checkpoint(base, init_uniform_box([0, 0], [1, 1], 8, seed=0), 5, seed_and_rng(2))
        digest = hashlib.sha256((tmp_path / "ck.particles.csv").read_bytes()).hexdigest()
        assert (tmp_path / "ck.meta.txt").read_text().splitlines() == [
            "iteration = 5",
            "seed = 2",
            "rng = SFC64 substreams keyed by (seed, purpose, iteration), purposes 11 21 22 31 41 61",
            f"sha256 = {digest}",
        ]

    def test_sidecar_records_the_run_fields(self, tmp_path):
        base = str(tmp_path / "ck")
        cfg = flow_config(seed=2, constraint=Ball([0.05, 0.05], 0.03), perturb_std=0.02)
        fields = checkpoint_fields(8, preset_objective(), cfg)
        write_checkpoint(base, init_uniform_box([0, 0], [1, 1], 8, seed=0), 5, fields)
        lines = (tmp_path / "ck.meta.txt").read_text().splitlines()
        assert lines[3:10] == [
            "n = 8",
            "d = 2",
            "tau = 0.01",
            'constraint = {"kind": "ball", "center": [0.05, 0.05], "radius": 0.03}',
            "perturb_std = 0.02",
            "rho = 0.1",
            "W = [[-5.0, 0.0], [0.0, 5.0]]",
        ]
        assert read_checkpoint(base, fields)[1] == 5

    def test_run_writes_the_run_fields(self, tmp_path):
        m0 = init_uniform_box([0, 0], [0.2, 0.2], 16, seed=2)
        base = str(tmp_path / "auto")
        cfg = flow_config(max_iters=4, diag_subsample=16, checkpoint_every=4, checkpoint_path=base)
        run(m0, preset_objective(), noise_free_stream(4), cfg)
        assert read_checkpoint(base, checkpoint_fields(16, preset_objective(), cfg))[1] == 4

    @pytest.mark.parametrize(
        "field, value",
        [("seed", 4), ("n", 9), ("d", 3), ("tau", 0.015), ("constraint", FullSpace(2)),
         ("perturb_std", 0.5), ("rho", 3.0), ("W", 4.0)],
    )
    def test_mismatched_run_field_refused(self, tmp_path, field, value):
        # W is diag(-s, s, ..., s) of dimension d and spacing s, as the
        # differenced observations of spacing s give it; the other fields
        # come from flow_config.
        def fields(n=8, d=2, rho=0.1, W=5.0, **cfg):
            obj = StreamingLSObjective(np.diag([-W] + [W] * (d - 1)), rho)
            return checkpoint_fields(n, obj, flow_config(**cfg))

        base = str(tmp_path / "ck")
        write_checkpoint(base, init_uniform_box([0, 0], [1, 1], 8, seed=0), 5, fields())
        with pytest.raises(DataError, match=f"checkpoint {field} = .* does not match"):
            read_checkpoint(base, fields(**{field: value}))

    def test_sidecar_without_run_fields_refused(self, tmp_path):
        base = str(tmp_path / "ck")
        write_checkpoint(base, init_uniform_box([0, 0], [1, 1], 8, seed=0), 5, seed_and_rng(2))
        with pytest.raises(DataError, match="does not record 'n'"):
            read_checkpoint(base, checkpoint_fields(8, preset_objective(), flow_config(seed=2)))

    def test_sidecar_of_another_generator_refused(self, tmp_path):
        base = str(tmp_path / "ck")
        write_checkpoint(base, init_uniform_box([0, 0], [1, 1], 8, seed=0), 5, seed_and_rng(2))
        path = tmp_path / "ck.meta.txt"
        path.write_text(path.read_text().replace("rng = SFC64 ", "rng = "))
        with pytest.raises(DataError, match="checkpoint rng = substreams keyed by .* does not match"):
            read_checkpoint(base, seed_and_rng(2))

    def test_sidecar_rng_names_the_generator_substream_builds(self):
        rng = checkpoint_fields(8, preset_objective(), flow_config(seed=2))["rng"]
        assert rng == RNG_TAG
        assert type(substream(0).bit_generator).__name__ in rng

    def test_sidecar_of_another_numpy_refused(self, tmp_path):
        # NumPy does not promise the same bits across versions.
        base = str(tmp_path / "ck")
        fields = checkpoint_fields(8, preset_objective(), flow_config(seed=2))
        write_checkpoint(base, init_uniform_box([0, 0], [1, 1], 8, seed=0), 5, fields)
        path = tmp_path / "ck.meta.txt"
        path.write_text(re.sub(r"(?m)^numpy = .*$", "numpy = 0.0", path.read_text()))
        want = f"checkpoint numpy = 0.0 does not match this run's numpy = {re.escape(np.__version__)}$"
        with pytest.raises(DataError, match=want):
            read_checkpoint(base, fields)

    def test_missing_particle_file_is_a_config_error(self, tmp_path):
        # Refused before the sidecar is read, which is missing too here.
        base = str(tmp_path / "absent")
        with pytest.raises(ConfigError, match=f"^checkpoint not found: {re.escape(base)}.particles.csv$"):
            read_checkpoint(base, seed_and_rng(2))

    @pytest.mark.parametrize("damage", ["edited particle", "missing digest"])
    def test_damaged_checkpoint_refused(self, tmp_path, damage):
        base = str(tmp_path / "ck")
        write_checkpoint(base, init_uniform_box([0, 0], [1, 1], 8, seed=0), 5, seed_and_rng(2))
        if damage == "edited particle":
            path = tmp_path / "ck.particles.csv"
            path.write_bytes(path.read_bytes().replace(b"0.", b"1.", 1))
        else:
            path = tmp_path / "ck.meta.txt"
            lines = path.read_text().splitlines(keepends=True)
            path.write_text("".join(line for line in lines if not line.startswith("sha256")))
        with pytest.raises(DataError, match="sha256"):
            read_checkpoint(base, seed_and_rng(2))

    @settings(max_examples=60)
    @given(data=st.data())
    def test_resume_at_a_random_split_is_identical(self, data):
        # A run resumed at any split, in memory and through a checkpoint
        # file, against the uninterrupted run.
        total = data.draw(st.integers(1, 24), label="observations")
        split = data.draw(st.integers(0, total), label="split")
        diag_every = data.draw(st.integers(1, 6), label="diag_every")
        checkpoint_every = data.draw(st.integers(1, 6), label="checkpoint_every")
        perturb_std = data.draw(st.sampled_from([0.0, 0.05]), label="perturb_std")

        n = 12
        m0 = init_uniform_box([0, 0], [0.2, 0.2], n, seed=11)
        obj = preset_objective(sigma_w2=0.2)
        rng = np.random.default_rng(17)
        stream = [W @ THETA + rng.normal(0, 0.3, 2) for _ in range(total)]

        def cfg(max_iters, path=None):
            return flow_config(
                max_iters=max_iters, diag_every=diag_every, diag_subsample=n, perturb_std=perturb_std,
                checkpoint_every=checkpoint_every if path else 0, checkpoint_path=path,
            )

        def assert_same(a, b, grad_norm=True):
            assert (a.k, a.objective, a.w2_ref) == (b.k, b.objective, b.w2_ref), b.k
            assert np.array_equal(a.mean, b.mean), b.k
            if grad_norm:
                assert a.grad_norm == b.grad_norm, b.k

        with tempfile.TemporaryDirectory() as tmp:
            full, full_trace = run(m0, obj, stream, cfg(total, os.path.join(tmp, "full")))
            head, head_trace = run(m0, obj, stream[:split], cfg(split))
            fields = checkpoint_fields(n, obj, cfg(total))
            write_checkpoint(os.path.join(tmp, "split"), head, split, fields)
            resumes = [(head, split), read_checkpoint(os.path.join(tmp, "split"), fields)]
            if os.path.exists(os.path.join(tmp, "full.meta.txt")):
                resumes.append(read_checkpoint(os.path.join(tmp, "full"), fields))

            rows = {r.k: r for r in full_trace.rows}
            # The head run's rows are the uninterrupted run's, but for a
            # final one that is not due, which has no grad_norm.
            for row in head_trace.rows:
                if row.k < split or split % diag_every == 0:
                    assert_same(rows[row.k], row)
                else:
                    assert row.grad_norm is None
            for m, first in resumes:
                final, tail_trace = run(m, obj, stream[first:], cfg(total - first), start_iteration=first)
                assert np.array_equal(final.points, full.points)
                # A resumed run does not know the step before its first row;
                # every later row lies on the uninterrupted run's grid.
                head_row, *later = tail_trace.rows
                assert head_row.k == first and head_row.grad_norm is None
                if first in rows:
                    assert_same(rows[first], head_row, grad_norm=False)
                for row in later:
                    assert row.k in rows, row.k
                    assert_same(rows[row.k], row)


class TestTraceCsv:
    def test_round_trip_bytes(self, tmp_path):
        m0 = init_uniform_box([0, 0], [0.2, 0.2], 16, seed=1)
        cfg = flow_config(max_iters=12, diag_every=5, diag_subsample=16, perturb_std=0.01)
        _, trace = run(m0, preset_objective(sigma_w2=0.1), noise_free_stream(12), cfg)
        path = tmp_path / "t.csv"
        write_trace_csv(trace, path, 2)
        got = read_table(path, "trace file", lambda header: True)
        # An absent quantity is an empty field, which reads back as NaN;
        # every number reads back to the same float.
        want = [[r.k, r.objective, r.w2_ref, *r.mean, r.grad_norm] for r in trace.rows]
        want = [[math.nan if v is None else float(v) for v in row] for row in want]
        assert np.array_equal(got, want, equal_nan=True)

    def test_header_shape(self, tmp_path):
        m0 = init_uniform_box([0, 0], [0.2, 0.2], 8, seed=1)
        cfg = flow_config(max_iters=2, diag_every=1, diag_subsample=8)
        _, trace = run(m0, preset_objective(), noise_free_stream(2), cfg)
        path = tmp_path / "t.csv"
        write_trace_csv(trace, path, 2)
        header = path.read_text().splitlines()[0]
        assert header == "k,objective,w2_ref,mean_1,mean_2,grad_norm"

    def test_initial_row_has_empty_grad_norm(self, tmp_path):
        m0 = init_uniform_box([0, 0], [0.2, 0.2], 8, seed=1)
        cfg = flow_config(max_iters=1, diag_every=1, diag_subsample=8)
        _, trace = run(m0, preset_objective(), noise_free_stream(1), cfg)
        path = tmp_path / "t.csv"
        write_trace_csv(trace, path, 2)
        first_row = path.read_text().splitlines()[1]
        assert first_row.endswith(",")


_CLOUD = ParticleMeasure(np.zeros((4, 2)))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: step(_CLOUD, np.zeros((4, 2)), 0.01, FullSpace(3)),
         "shape of each point is (2,), expected (3,)"),
        (lambda: step(_CLOUD, np.zeros((4, 2)), 0.0, FullSpace(2)), "tau must be finite and > 0"),
        (lambda: flow_config(tau=-0.01), "tau must be finite and > 0"),
        (lambda: flow_config(max_iters=-1), "max_iters must be a whole number >= 0"),
        (lambda: flow_config(seed=-1), "seed must be a whole number >= 0"),
        (lambda: flow_config(diag_every=0), "diag_every must be a whole number >= 1"),
        (lambda: flow_config(workers=0), "workers must be a whole number >= 1"),
        (lambda: flow_config(checkpoint_every=-1), "checkpoint_every must be a whole number >= 0"),
        (lambda: run(ParticleMeasure(np.zeros((4, 3))), preset_objective(), [], flow_config()),
         "measure dimension is 3, expected 2"),
        (lambda: run(_CLOUD, preset_objective(), [], flow_config(), start_iteration=-1),
         "start_iteration must be a whole number >= 0"),
    ],
    ids=["step-dimension", "step-tau", "tau", "max_iters", "seed", "diag_every", "workers",
         "checkpoint_every", "run-dimension", "start_iteration"],
)
def test_argument_out_of_contract_is_refused_with_its_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
