import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import objective_direct
from wgflow import transport
from wgflow.errors import NumericalError
from wgflow.functionals import (
    StreamingLSObjective,
    convergence_bound,
    evaluate_objective,
    exact_gradient,
    perturbed_gradient,
    stochastic_gradient,
    validate_tau,
)
from wgflow.measures import ParticleMeasure, covariance, mean, substream


def cloud(rows):
    return ParticleMeasure(np.asarray(rows, dtype=float))


def dirac(x):
    return ParticleMeasure(np.asarray(x, dtype=float)[None, :])


def random_objective(rng, d=None, with_theta=True):
    d = d or int(rng.integers(1, 4))
    u, _ = np.linalg.qr(rng.normal(size=(d, d)))
    v, _ = np.linalg.qr(rng.normal(size=(d, d)))
    w = u @ np.diag(rng.uniform(0.5, 3.0, size=d)) @ v
    theta_star = rng.normal(size=d) if with_theta else None
    return StreamingLSObjective(
        W=w,
        rho=float(rng.uniform(0.05, 2.0)),
        theta_star=theta_star,
        sigma_w2=float(rng.uniform(0.01, 1.0)),
    )


class TestObjectiveValidation:
    def test_singular_w_rejected(self):
        with pytest.raises(NumericalError, match="singular"):
            StreamingLSObjective(np.array([[1.0, 1.0], [1.0, 1.0]]), 0.1)

    def test_nonpositive_rho_rejected(self):
        with pytest.raises(ValueError, match="rho"):
            StreamingLSObjective(np.eye(2), 0.0)

    def test_negative_noise_moment_rejected(self):
        with pytest.raises(ValueError, match="sigma_w2"):
            StreamingLSObjective(np.eye(2), 0.1, sigma_w2=-1.0)

    # The second W has a finite W^T W whose largest eigenvalue overflows.
    @pytest.mark.parametrize(
        "w", [[[-1e200, 0.0], [0.0, 1e200]], [[9.487e153, 9.487e153], [0.0, 1e150]]],
        ids=["hessian", "sigma_max squared"],
    )
    def test_overflowing_hessian_rejected_without_warnings(self, w):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="is not finite: the process matrix is too large$"):
                StreamingLSObjective(np.array(w), 0.1)

    def test_singular_values_cached(self):
        obj = StreamingLSObjective(np.diag([-5.0, 5.0]), 0.1)
        assert obj.sigma_min == pytest.approx(5.0)
        assert obj.sigma_max == pytest.approx(5.0)


class TestExactGradient:
    def test_zero_at_optimal_dirac(self):
        theta = np.array([0.3, -0.7])
        obj = StreamingLSObjective(np.diag([2.0, 3.0]), 0.5, theta)
        field = exact_gradient(obj, dirac(theta))
        assert np.allclose(field(theta), 0.0, atol=1e-15)

    def test_plain_quadratic(self):
        # rho must be positive; a tiny rho and a Dirac make its term vanish
        obj = StreamingLSObjective(np.eye(2), 1e-9, np.zeros(2))
        m = dirac(np.array([1.0, -2.0]))
        field = exact_gradient(obj, m)
        theta = np.array([1.0, -2.0])
        assert np.allclose(field(theta), theta, rtol=1e-6)

    def test_hand_computed_diagonal_case(self):
        obj = StreamingLSObjective(
            np.diag([-5.0, 5.0]), 0.1, np.array([2.0 / 60.0, 5.0 / 60.0])
        )
        field = exact_gradient(obj, dirac(np.zeros(2)))
        assert np.allclose(field(np.zeros(2)), [-5.0 / 6.0, -25.0 / 12.0], rtol=1e-12)

    def test_mean_frozen_at_call_time(self):
        rng = np.random.default_rng(0)
        obj = StreamingLSObjective(np.eye(2), 1.0, np.zeros(2))
        m = cloud(rng.normal(size=(10, 2)))
        field = exact_gradient(obj, m)
        theta = np.zeros(2)
        expected = -mean(m)  # W^T W * 0 + rho*(0 - mean)
        assert np.allclose(field(theta), expected, rtol=1e-12)

    def test_requires_theta_star(self):
        obj = StreamingLSObjective(np.eye(2), 0.1)
        with pytest.raises(ValueError, match="deployment"):
            exact_gradient(obj, dirac(np.zeros(2)))

    def test_batch_matches_pointwise(self):
        rng = np.random.default_rng(1)
        obj = random_objective(rng, d=3)
        m = cloud(rng.normal(size=(7, 3)))
        field = exact_gradient(obj, m)
        batch = field(m.points)
        for i, x in enumerate(m.points):
            assert np.array_equal(batch[i], field(x))

    def test_field_rejects_3d_input(self):
        obj = StreamingLSObjective(np.eye(2), 0.1, np.zeros(2))
        field = exact_gradient(obj, dirac(np.zeros(2)))
        with pytest.raises(ValueError):
            field(np.zeros((2, 2, 2)))


class TestStochasticGradient:
    def test_vanishes_when_consistent(self):
        obj = StreamingLSObjective(np.diag([1.0, 2.0]), 0.7)
        theta = np.array([0.5, -0.5])
        y = obj.W @ theta
        assert np.allclose(stochastic_gradient(obj, theta, y, theta), 0.0, atol=1e-15)

    def test_direct_substitution(self):
        obj = StreamingLSObjective(np.eye(2), 1e-9)
        got = stochastic_gradient(obj, np.array([1.0, 0.0]), np.zeros(2), np.array([1.0, 0.0]))
        assert np.allclose(got, [1.0, 0.0], rtol=1e-9)

    def test_unbiased_monte_carlo(self):
        rng = np.random.default_rng(2)
        obj = random_objective(rng, d=2)
        m = cloud(rng.normal(size=(6, 2)))
        mu_mean = mean(m)
        field = exact_gradient(obj, m)
        theta = rng.normal(size=2)
        n_draws = 100_000
        scale = math.sqrt(obj.sigma_w2 / 2.0)
        noise = rng.normal(0.0, scale, size=(n_draws, 2))
        ys = (obj.W @ obj.theta_star)[None, :] + noise
        draws = np.stack([stochastic_gradient(obj, theta, y, mu_mean) for y in ys[:200]])
        # vectorized version over all draws via the linearity in y
        base = stochastic_gradient(obj, theta, obj.W @ obj.theta_star, mu_mean)
        draws_all = base[None, :] - noise @ obj.W
        assert np.allclose(draws, draws_all[:200], atol=1e-12)
        est = draws_all.mean(axis=0)
        se = draws_all.std(axis=0) / math.sqrt(n_draws)
        assert np.all(np.abs(est - field(theta)) <= 4.0 * se + 1e-12)

    def test_dimension_mismatch(self):
        obj = StreamingLSObjective(np.eye(2), 0.1)
        with pytest.raises(ValueError):
            stochastic_gradient(obj, np.zeros(3), np.zeros(2), np.zeros(2))

    def test_nonfinite_observation_rejected(self):
        obj = StreamingLSObjective(np.eye(2), 0.1)
        with pytest.raises(ValueError, match="finite"):
            stochastic_gradient(obj, np.zeros(2), np.array([np.nan, 0.0]), np.zeros(2))

    def test_second_moment_bound(self):
        # E||xi||^2 over the cloud and the noise stays within the growth
        # bound C*(J - J*) + C*sigma_w2, C = 4 max(sigma_max^2, rho).
        rng = np.random.default_rng(3)
        for _ in range(5):
            obj = random_objective(rng, d=2)
            m = cloud(obj.theta_star + rng.normal(scale=rng.uniform(0.1, 2.0), size=(12, 2)))
            mu_mean = mean(m)
            c = 4.0 * max(obj.sigma_max**2, obj.rho)
            gap = evaluate_objective(obj, m) - 0.5 * obj.sigma_w2
            n_draws = 20_000
            scale = math.sqrt(obj.sigma_w2 / 2.0)
            noise = rng.normal(0.0, scale, size=(n_draws, 2))
            base = stochastic_gradient(obj, m.points, obj.W @ obj.theta_star, mu_mean)
            # per-draw field values: base - (W^T w) broadcast over particles
            shift = noise @ obj.W
            vals = np.mean(
                np.sum((base[None, :, :] - shift[:, None, :]) ** 2, axis=2), axis=1
            )
            est = vals.mean()
            se = vals.std() / math.sqrt(n_draws)
            assert est <= c * gap + c * obj.sigma_w2 + 4.0 * se


class TestPerturbedGradient:
    def test_zero_noise_is_identity(self):
        base = np.array([[1.0, 2.0], [3.0, 4.0]])
        got = perturbed_gradient(base, 0.0, substream(0, 1))
        assert np.array_equal(got, base)

    def test_monte_carlo_mean(self):
        rng = substream(1, 2)
        base = np.array([0.5, -0.5])
        n = 100_000
        draws = base[None, :] + rng.normal(0.0, 0.3, size=(n, 2))
        est = draws.mean(axis=0)
        assert np.all(np.abs(est - base) <= 4.0 * 0.3 / math.sqrt(n))

    def test_deterministic_given_stream_state(self):
        base = np.ones((4, 2))
        a = perturbed_gradient(base, 0.1, substream(9, 5))
        b = perturbed_gradient(base, 0.1, substream(9, 5))
        assert np.array_equal(a, b)

    def test_negative_std_rejected(self):
        with pytest.raises(ValueError):
            perturbed_gradient(np.zeros(2), -0.1, substream(0, 0))


class TestEvaluateObjective:
    def test_optimal_dirac_hits_noise_floor(self):
        theta = np.array([0.2, 0.4])
        obj = StreamingLSObjective(np.diag([3.0, 1.0]), 0.5, theta, sigma_w2=0.8)
        assert evaluate_objective(obj, dirac(theta)) == pytest.approx(0.4, rel=1e-14)

    def test_single_dirac_formula(self):
        theta_star = np.zeros(2)
        obj = StreamingLSObjective(np.eye(2), 0.3, theta_star, sigma_w2=0.2)
        theta = np.array([1.0, 2.0])
        expected = 0.5 * 5.0 + 0.1
        assert evaluate_objective(obj, dirac(theta)) == pytest.approx(expected, rel=1e-14)

    def test_hand_computed_1d(self):
        obj = StreamingLSObjective(np.eye(1), 2.0, np.zeros(1), sigma_w2=0.0)
        m = cloud([[-1.0], [1.0]])
        assert evaluate_objective(obj, m) == pytest.approx(1.5, rel=1e-14)

    def test_floor_at_half_noise_moment(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            obj = random_objective(rng)
            m = cloud(rng.normal(size=(9, obj.d)))
            assert evaluate_objective(obj, m) >= 0.5 * obj.sigma_w2

    def test_requires_theta_star(self):
        obj = StreamingLSObjective(np.eye(2), 0.1)
        with pytest.raises(ValueError, match="deployment"):
            evaluate_objective(obj, dirac(np.zeros(2)))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(-100, 100), st.integers(1, 12), st.booleans())
    def test_moment_form_matches_the_direct_formula(self, seed, exponent, n, collapsed):
        # The cloud, theta* and the noise moment drawn at one scale, the
        # cloud optionally collapsed onto one point.  Both forms add up
        # non-negative terms of size up to (sigma_max^2 + rho) scale^2, so
        # they agree to 1e-12 of that size; a cloud near theta* relative
        # to |theta*| cancels the form's terms, and only there is the
        # absolute part of the tolerance the larger.
        rng = np.random.default_rng(seed)
        scale = 10.0**exponent
        base = random_objective(rng)
        obj = StreamingLSObjective(base.W, base.rho, scale * rng.uniform(-1, 1, base.d),
                                   scale**2 * rng.choice([0.0, rng.uniform()]))
        points = scale * rng.uniform(-1, 1, (n, obj.d))
        if collapsed:
            points[:] = points[0]
        size = (obj.sigma_max**2 + obj.rho) * scale**2
        got = evaluate_objective(obj, cloud(points))
        assert got == pytest.approx(objective_direct(obj, points), rel=1e-12, abs=1e-12 * size)
        assert got >= 0.5 * obj.sigma_w2

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12))
    def test_value_is_built_from_the_one_covariance(self, seed, n):
        rng = np.random.default_rng(seed)
        obj = random_objective(rng)
        m = cloud(obj.theta_star + rng.normal(size=(n, obj.d)))
        e = obj.W @ (mean(m) - obj.theta_star)
        assert evaluate_objective(obj, m) == 0.5 * (
            float(np.vdot(obj.H, covariance(m))) + float(e @ e) + obj.sigma_w2
        )

    def test_far_cloud_whose_squares_overflow_their_sum_is_measured(self):
        # Each centred square is 1.6e307, so the 16 of a coordinate sum past
        # the float range; their mean, and the objective, do not.
        obj = StreamingLSObjective(np.diag([0.5, 0.5]), 0.1, np.array([2.0, 5.0]) / 60.0)
        points = np.array([[4e153, 4e153], [-4e153, -4e153]] * 8)
        assert evaluate_objective(obj, cloud(points)) == pytest.approx(objective_direct(obj, points), rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(-100, 100))
    def test_dirac_on_theta_star_is_exactly_the_noise_floor(self, seed, exponent):
        rng = np.random.default_rng(seed)
        base = random_objective(rng)
        theta = 10.0**exponent * rng.uniform(-1, 1, base.d)
        obj = StreamingLSObjective(base.W, base.rho, theta, base.sigma_w2)
        assert evaluate_objective(obj, dirac(theta)) == 0.5 * obj.sigma_w2


class TestGradientConsistency:
    def test_directional_derivative_first_order(self):
        # [J((Id + eps v)#m) - J(m)] / eps approaches the field inner
        # product linearly in eps (the objective is quadratic, so the
        # error is exactly linear).
        rng = np.random.default_rng(5)
        obj = random_objective(rng, d=2)
        base = rng.normal(size=(15, 2))
        base[:, 1] += 0.8 * base[:, 0]  # correlate coordinates
        m = cloud(obj.theta_star + base)
        field = exact_gradient(obj, m)
        a = rng.normal(size=(2, 2))
        b = rng.normal(size=2)
        v = lambda pts: pts @ a.T + b
        inner = float(np.mean(np.sum(field(m.points) * v(m.points), axis=1)))
        errors = []
        for eps in (1e-3, 1e-4, 1e-5):
            moved = cloud(m.points + eps * v(m.points))
            rate = (evaluate_objective(obj, moved) - evaluate_objective(obj, m)) / eps
            errors.append(abs(rate - inner))
        assert errors[0] > errors[1] > errors[2]
        assert errors[0] / errors[1] == pytest.approx(10.0, rel=0.05)
        assert errors[1] / errors[2] == pytest.approx(10.0, rel=0.05)

    def test_strong_convexity_gap(self):
        # Objective gap dominates (sigma_min^2 / 2) * W2(m, dirac)^2.
        rng = np.random.default_rng(6)
        for _ in range(10):
            obj = random_objective(rng, d=2)
            m = cloud(obj.theta_star + rng.normal(scale=0.5, size=(20, 2)))
            ref = ParticleMeasure(np.tile(obj.theta_star, (20, 1)))
            w2, _ = transport.w2_exact(m, ref)
            gap = evaluate_objective(obj, m) - evaluate_objective(obj, ParticleMeasure(obj.theta_star[None, :]))
            assert gap >= 0.5 * obj.sigma_min**2 * w2**2 - 1e-8


_OBJ = StreamingLSObjective(np.diag([-5.0, 5.0]), 0.1, [2.0 / 60.0, 5.0 / 60.0])
_CLOUD_3D = ParticleMeasure(np.zeros((4, 3)))
_REPORT = validate_tau(np.eye(2), 0.1, 0.0, 0.01)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: StreamingLSObjective(np.ones((2, 3)), 0.1), "W must be a square matrix"),
        (lambda: StreamingLSObjective([[1.0, 0.0], [0.0, math.inf]], 0.1), "W must be finite"),
        (lambda: convergence_bound(_REPORT, -1.0, 3), "w2_0 must be finite and >= 0"),
        (lambda: convergence_bound(_REPORT, 1.0, -1), "k must be a whole number >= 0"),
        (lambda: exact_gradient(_OBJ, _CLOUD_3D), "measure dimension is 3, expected 2"),
        (lambda: evaluate_objective(_OBJ, _CLOUD_3D), "measure dimension is 3, expected 2"),
        (lambda: stochastic_gradient(_OBJ, np.zeros(2), np.zeros(3), np.zeros(2)),
         "y_hat shape is (3,), expected (2,)"),
        (lambda: stochastic_gradient(_OBJ, np.zeros(2), np.zeros(2), np.zeros(1)),
         "mu_mean shape is (1,), expected (2,)"),
    ],
    ids=["W-not-square", "W-not-finite", "w2_0", "k", "exact_gradient", "evaluate_objective",
         "y_hat-length", "mu_mean-length"],
)
def test_argument_out_of_contract_is_refused_with_its_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
