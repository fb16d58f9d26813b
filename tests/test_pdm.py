import math
import re
import tracemalloc

import numpy as np
import pytest
import test_acceptance
from _oracles import (
    _SCAN_CAP,
    _zeta,
    damping_band_rows,
    ls_baseline_scalar,
    ls_estimate_lstsq,
    rule_holds,
    simulate_loop,
    suggested_maintenance_time_bisect,
    true_maintenance_time_bisect,
)
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.optimize import brentq

from wgflow import cli, pdm
from wgflow.errors import DataError, NumericalError
from wgflow.measures import ParticleMeasure
from wgflow.pdm import _BLOCK as BLOCK
from wgflow.pdm import (
    DegradationModel,
    Observation,
    PlantParams,
    damping_ratio,
    degrade,
    difference_stream,
    ls_baseline,
    ls_estimate,
    observation_residuals,
    predict_damping_band,
    process_matrix,
    read_observations_csv,
    simulate_trajectory,
    suggested_maintenance_time,
    true_maintenance_time,
    write_observations_csv,
)

LAM = np.array([2.0 / 60.0, 5.0 / 60.0])
EPS = np.finfo(float).eps
RULES = ("percentile", "mean", "chance")

# Rounding allowance (days per day of the answer) between a closed-form
# maintenance time and a bisection bracket of the same crossing.
ROUNDING = 1e-9


def case_study_model(zeta_min=0.4):
    return DegradationModel(2.5, 1.0, LAM, zeta_min, 5.0)


def random_model(rng, lam=LAM, zeta_min=None):
    # A fresh system that starts safe; zeta_min defaults to a random
    # fraction of the starting ratio.
    a0, b0 = float(rng.uniform(1.0, 3.0)), float(rng.uniform(0.5, 2.0))
    if zeta_min is None:
        zeta_min = a0 / (2.0 * math.sqrt(b0)) * float(rng.uniform(0.2, 0.95))
    return DegradationModel(a0, b0, lam, zeta_min, 5.0)


class TestPlantParams:
    def test_stability_enforced(self):
        with pytest.raises(NumericalError, match="spectral radius"):
            PlantParams(a=0.1, b=4.0, r=1.0, dt=1.0, horizon=10.0, eps_half_width=0.0)

    def test_positivity(self):
        with pytest.raises(ValueError):
            PlantParams(a=-1.0, b=1.0, r=1.0, dt=0.001, horizon=1.0, eps_half_width=0.0)

    def test_noise_width_must_be_finite(self):
        # The noise is drawn from [-eps, eps], whose width overflows here.
        PlantParams(a=2.5, b=1.0, r=1.0, dt=1e-3, horizon=1.0, eps_half_width=8e307)
        with pytest.raises(ValueError, match="eps_half_width"):
            PlantParams(a=2.5, b=1.0, r=1.0, dt=1e-3, horizon=1.0, eps_half_width=1e308)

    def test_transition_cap(self):
        cap = pdm._MAX_TRANSITIONS
        PlantParams(a=2.5, b=1.0, r=1.0, dt=1e-3, horizon=cap * 1e-3, eps_half_width=0.0)
        with pytest.raises(ValueError, match="transitions"):
            PlantParams(a=2.5, b=1.0, r=1.0, dt=1e-3, horizon=(cap + 1) * 1e-3, eps_half_width=0.0)

    def test_case_study_regimes_are_stable(self):
        for t in (0.0, 30.0, 60.0):
            y = degrade(case_study_model(), t)
            PlantParams(float(y[0]), float(y[1]), 1.0, 0.001, 1.0, 3.0)


class TestSimulateTrajectory:
    def test_equilibrium_is_exact_fixed_point(self):
        p = PlantParams(2.5, 1.0, 1.0, 0.001, 1.0, 0.0)
        states, refs = simulate_trajectory(p, np.array([1.0, 0.0]), seed=0)
        assert states.shape == (1001, 2)
        assert np.array_equal(states, np.tile([1.0, 0.0], (1001, 1)))
        assert np.array_equal(refs, np.ones(1001))

    def test_single_step_hand_computed(self):
        p = PlantParams(2.5, 1.0, 1.0, 0.001, 0.001, 0.0)
        states, _ = simulate_trajectory(p, np.zeros(2), seed=0)
        assert states.shape == (2, 2)
        assert np.array_equal(states[1], [0.0, 0.001])

    def test_overdamped_settling(self):
        p = PlantParams(2.5, 1.0, 1.0, 0.001, 100.0, 0.0)
        states, _ = simulate_trajectory(p, np.zeros(2), seed=0)
        assert abs(states[-1, 0] - 1.0) < 1e-3
        settled = np.abs(states[:, 0] - 1.0) < 1e-3
        assert settled[-1] and np.flatnonzero(settled)[0] < states.shape[0]

    def test_deterministic_per_seed(self):
        p = PlantParams(2.5, 1.0, 1.0, 0.001, 1.0, 3.0)
        a, _ = simulate_trajectory(p, np.zeros(2), seed=5)
        b, _ = simulate_trajectory(p, np.zeros(2), seed=5)
        c, _ = simulate_trajectory(p, np.zeros(2), seed=6)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestLsEstimate:
    def test_noise_free_recovery_fresh_system(self):
        p = PlantParams(2.5, 1.0, 1.0, 0.001, 100.0, 0.0)
        traj = simulate_trajectory(p, np.zeros(2), seed=0)
        est = ls_estimate(traj, 0.001)
        assert np.max(np.abs(est - [2.5, 1.0])) < 1e-8

    def test_noise_free_recovery_degraded_system(self):
        p = PlantParams(1.5, 3.5, 1.0, 0.001, 100.0, 0.0)
        traj = simulate_trajectory(p, np.zeros(2), seed=0)
        est = ls_estimate(traj, 0.001)
        assert np.max(np.abs(est - [1.5, 3.5])) < 1e-8

    def test_degenerate_trajectory_rejected(self):
        # zero velocity and reference equal to position: no excitation
        states = np.column_stack([np.ones(10), np.zeros(10)])
        refs = np.ones(10)
        with pytest.raises(NumericalError, match="rank"):
            ls_estimate((states, refs), 0.001)

    # Columns -v = s (1, 1, 0, 0) and r - x = (0, 0, 1, 1) are orthogonal,
    # so the Gram matrix is exactly diag(2 s^2, 2): its eigenvalue ratio
    # 1 / s^2 lies a factor 4 on either side of the threshold n eps = 2^-50.
    @pytest.mark.parametrize("scale, refused", [(2.0**24, False), (2.0**26, True)])
    def test_near_degenerate_regressor_on_each_side_of_the_threshold(self, scale, refused):
        states = np.array([[1.0, -scale], [1.0, -scale], [0.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        traj = (states, np.ones(5))
        if refused:
            with pytest.raises(NumericalError, match="rank"):
                ls_estimate(traj, 0.001)
        else:
            # The targets dv / dt are (0, s, 0, 1) / dt, so the exact fit is
            # (1 / 2 dt, 1 / 2 dt).
            assert ls_estimate(traj, 0.001) == pytest.approx([500.0, 500.0], rel=1e-12)

    def test_overflowing_trajectory_gives_a_nonfinite_estimate(self):
        states = np.array([[0.0, 1e308], [0.0, -1e308], [1e308, 0.0], [0.0, 0.0]])
        with np.errstate(over="ignore"):
            assert not np.isfinite(ls_estimate((states, np.ones(4)), 0.001)).any()

    # The normal equations square the regressor's condition number; the
    # two fits agree to the rounding of the n-term sums (n eps), amplified
    # by the Gram matrix's condition number.
    @given(
        a=st.floats(0.3, 3.0),
        b=st.floats(0.3, 6.0),
        dt=st.sampled_from([0.001, 0.002, 0.005]),
        n=st.integers(2, 20_000),
        width=st.sampled_from([0.0, 1e-6, 0.03, 3.0, 30.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_agrees_with_lstsq(self, a, b, dt, n, width, seed):
        try:
            p = PlantParams(a, b, 1.0, dt, n * dt, width)
        except NumericalError:
            assume(False)
        traj = simulate_trajectory(p, np.array([-2.5, 0.0]), seed)
        est, ref = ls_estimate(traj, dt), ls_estimate_lstsq(traj, dt)
        v, e = traj[0][:-1, 1], traj[1][:-1] - traj[0][:-1, 0]
        lo, hi = np.linalg.eigvalsh([[v @ v, -(v @ e)], [-(v @ e), e @ e]])
        assert np.max(np.abs(est - ref)) <= n * EPS * (hi / lo) * np.max(np.abs(ref))

    def test_needs_two_transitions(self):
        states = np.zeros((2, 2))
        with pytest.raises(ValueError, match="transitions"):
            ls_estimate((states, np.ones(2)), 0.001)

    def test_error_shrinks_with_noise(self):
        errors = {}
        for width in (3.0, 0.3, 0.03):
            errs = []
            for seed in range(20):
                p = PlantParams(2.5, 1.0, 1.0, 0.001, 30.0, width)
                traj = simulate_trajectory(p, np.array([-2.5, 0.0]), seed=seed)
                est = ls_estimate(traj, 0.001)
                errs.append(float(np.linalg.norm(est - [2.5, 1.0])))
            errors[width] = float(np.median(errs))
        assert errors[3.0] > errors[0.3] > errors[0.03]


# The fast simulation against the step-by-step loop.  Each transition
# rounds each coordinate a few times and a stable M does not amplify the
# error, so both stay within a few ulps per step of the exact trajectory.
def sim_tol(n, states):
    return 32 * (n + 1) * EPS * max(1.0, float(np.max(np.abs(states))))


DAY60 = degrade(case_study_model(), 60.0)
# Complex eigenvalues of modulus about 0.99999: dt just below a / b.
NEAR_UNSTABLE_DT = float(DAY60[0] / DAY60[1]) * (1.0 - 5e-4)
SIM_PLANTS = {
    "fresh": (2.5, 1.0, 0.001),
    "degraded": (float(DAY60[0]), float(DAY60[1]), 0.001),
    "near_unstable": (float(DAY60[0]), float(DAY60[1]), NEAR_UNSTABLE_DT),
}


# Lengths on each side of B^k steps, where the scan of the block starts
# takes one more level, and of 2 B^2, where its second level has two
# blocks; and a day, whose scan has four levels.
SIM_LENGTHS = [1, 2, 100_000] + [
    k * BLOCK**e + i for k, e in ((1, 1), (1, 2), (2, 2), (1, 3)) for i in (-1, 0, 1)
]


class TestSimulateAgainstLoop:
    @pytest.mark.parametrize("x0", [[-2.5, 0.0], [1.0, 0.0], [0.1, 0.3]])
    @pytest.mark.parametrize("n", SIM_LENGTHS)
    @pytest.mark.parametrize("width", [0.0, 3.0])
    @pytest.mark.parametrize("plant", sorted(SIM_PLANTS))
    def test_matches_loop(self, plant, width, n, x0):
        a, b, dt = SIM_PLANTS[plant]
        p = PlantParams(a, b, 1.0, dt, n * dt, width)
        x0 = np.array(x0)
        states, refs = simulate_trajectory(p, x0, seed=7)
        ref_states, ref_refs = simulate_loop(p, x0, seed=7)
        assert states.shape == ref_states.shape == (n + 1, 2)
        assert np.array_equal(refs, ref_refs)
        assert np.array_equal(states[0], x0)
        assert np.max(np.abs(states - ref_states)) <= sim_tol(n, ref_states)

    @given(
        a=st.floats(0.05, 5.0),
        b=st.floats(0.05, 5.0),
        dt=st.floats(1e-4, 0.05),
        n=st.integers(1, 3 * BLOCK**2),
        x0=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
        width=st.sampled_from([0.0, 0.3, 3.0]),
    )
    def test_matches_loop_on_random_plants(self, a, b, dt, n, x0, width):
        try:
            p = PlantParams(a, b, 1.0, dt, n * dt, width)
        except NumericalError:  # an unstable discretization
            assume(False)
        states, _ = simulate_trajectory(p, x0, seed=3)
        ref_states, _ = simulate_loop(p, x0, seed=3)
        assert states.shape == ref_states.shape == (n + 1, 2)
        assert states[0].tobytes() == np.array(x0, dtype=float).tobytes()
        assert np.max(np.abs(states - ref_states)) <= sim_tol(n, ref_states)

    @pytest.mark.parametrize("n", [1, BLOCK + 1, 2 * BLOCK**2 + 1, BLOCK**3 + 1])
    def test_first_state_is_x0_bit_for_bit(self, n):
        # (0.1 - r) + r rounds to 0.09999999999999998, so states[0] must
        # be x0 itself rather than the equilibrium plus its deviation.
        p = PlantParams(2.5, 1.0, 1.0, 0.001, n * 0.001, 3.0)
        x0 = np.array([0.1, 0.3])
        states, _ = simulate_trajectory(p, x0, seed=1)
        assert np.array_equal(states[0], x0)

    def test_memory_of_a_day_is_its_states_and_one_input_array(self):
        # Beside the states, a 1e5-step day holds one (blocks, B + 2) array
        # of block starts and noise; a temporary of the states' size fails.
        p = PlantParams(2.5, 1.0, 1.0, 0.001, 100.0, 3.0)
        tracemalloc.start()
        try:
            states, _ = simulate_trajectory(p, np.zeros(2), seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        inputs = -(-100_000 // BLOCK) * (BLOCK + 2) * 8
        assert peak <= states.nbytes + inputs + 0.5e6

    def test_horizon_shorter_than_a_step_gives_x0_alone(self):
        p = PlantParams(2.5, 1.0, 1.0, 0.001, 0.0005, 3.0)
        states, refs = simulate_trajectory(p, [0.1, 0.3], seed=1)
        assert states.tolist() == [[0.1, 0.3]] and refs.tolist() == [1.0]

    def test_near_unstable_plant_is_near_the_boundary(self):
        a, b, dt = SIM_PLANTS["near_unstable"]
        m = PlantParams(a, b, 1.0, dt, 1.0, 0.0).transition_matrix()
        assert 0.9999 < max(abs(np.linalg.eigvals(m))) < 1.0


class TestDegradeAndRatio:
    def test_degrade_at_zero(self):
        assert np.array_equal(degrade(case_study_model(), 0.0), [2.5, 1.0])

    def test_degrade_day_30(self):
        assert np.allclose(degrade(case_study_model(), 30.0), [1.5, 3.5], rtol=1e-14)

    def test_degrade_day_60(self):
        y = degrade(case_study_model(), 60.0)
        assert np.allclose(y, [0.5, 6.0], rtol=1e-14)
        assert damping_ratio(y) == pytest.approx(0.5 / (2 * math.sqrt(6.0)), rel=1e-12)

    def test_damping_ratio_values(self):
        assert damping_ratio([2.5, 1.0]) == pytest.approx(1.25, rel=1e-15)
        assert damping_ratio([1.5, 3.5]) == pytest.approx(0.4008918628686366, rel=1e-12)

    def test_damping_ratio_inversion(self):
        for b, c in [(1.0, 0.5), (3.7, 1.2), (0.25, 2.0)]:
            assert damping_ratio([2 * math.sqrt(b) * c, b]) == pytest.approx(c, rel=1e-12)

    def test_damping_ratio_rejects_nonpositive_b(self):
        with pytest.raises(ValueError, match="stiffness"):
            damping_ratio([1.0, 0.0])

    def test_negative_t_rejected(self):
        with pytest.raises(ValueError):
            degrade(case_study_model(), -1.0)


class TestTrueMaintenanceTime:
    def test_case_study_parameters_against_root_finder(self):
        model = case_study_model()
        got = true_maintenance_time(model)
        f = lambda t: damping_ratio(degrade(model, t)) - 0.4
        want = brentq(f, 0.0, 100.0, xtol=1e-10)
        assert got.status == "crossed"
        assert got.days == pytest.approx(want, abs=2e-6)
        assert abs(got.days - 30.05) < 0.1

    def test_boundary_threshold(self):
        model = DegradationModel(2.5, 1.0, LAM, 1.25, 5.0)
        got = true_maintenance_time(model)
        assert got.days == pytest.approx(0.0, abs=1e-6)

    def test_no_decay_never_crosses(self):
        model = DegradationModel(2.5, 1.0, np.zeros(2), 0.4, 5.0)
        got = true_maintenance_time(model)
        assert math.isinf(got.days) and got.status == "never"

    def test_matches_bisection_on_random_models(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            model = random_model(rng, lam=rng.uniform(0.0, 0.2, size=2) * (rng.random(2) < 0.9))
            got = true_maintenance_time(model)
            want = true_maintenance_time_bisect(model)
            assert got.status == want.status
            if got.status == "crossed":
                # The bisection's midpoint is within tol / 2 = 5e-7 days.
                assert abs(got.days - want.days) <= 5e-7 + ROUNDING * got.days

    def test_zero_floor_is_where_damping_vanishes(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            model = random_model(rng, lam=rng.uniform(1e-3, 0.2, size=2), zeta_min=0.0)
            got = true_maintenance_time(model)
            vanish = model.a0 / model.lam[0]
            assert got.status == "crossed"
            assert vanish * (1.0 - 1e-7) <= got.days <= vanish

    def test_constant_damping_gives_the_linear_root(self):
        model = DegradationModel(2.5, 1.0, np.array([0.0, LAM[1]]), 0.4, 5.0)
        got = true_maintenance_time(model)
        want = (2.5**2 / (4.0 * 0.4**2) - 1.0) / LAM[1]
        assert got.status == "crossed"
        assert got.days == pytest.approx(want, rel=1e-13)

    def test_overflowing_terms_give_the_root_or_never_without_warnings(self):
        # lambda1^2 underflows and a0 / lambda1 overflows; the ratio still
        # crosses where 0.64 (1 + 0.1 t) = a0^2, and never without lambda2.
        # A RuntimeWarning fails the suite.
        got = true_maintenance_time(DegradationModel(1e150, 1.0, [1e-200, 0.1], 0.4, 5.0))
        assert got.status == "crossed"
        assert got.days == pytest.approx((1e300 / 0.64 - 1.0) / 0.1, rel=1e-12)
        got = true_maintenance_time(DegradationModel(1e150, 1.0, [1e-200, 0.0], 0.4, 5.0))
        assert got == (math.inf, "never")

    def test_ratio_strictly_decreasing_on_grid(self):
        model = case_study_model()
        t_star = true_maintenance_time(model).days
        grid = np.linspace(0.0, t_star + 10.0, 200)
        vals = [damping_ratio(degrade(model, t)) for t in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestDegradationModelValidation:
    def test_must_start_safe(self):
        with pytest.raises(ValueError, match="safe"):
            DegradationModel(0.5, 1.0, LAM, 0.4, 5.0)

    def test_negative_rates_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            DegradationModel(2.5, 1.0, np.array([-0.1, 0.1]), 0.4, 5.0)

    def test_negative_floor_rejected(self):
        with pytest.raises(ValueError, match="^zeta_min must be finite and >= 0$"):
            DegradationModel(2.5, 1.0, LAM, -0.1, 5.0)
        DegradationModel(2.5, 1.0, LAM, 0.0, 5.0)

    def test_a0_with_an_overflowing_square_rejected(self):
        with pytest.raises(ValueError, match=r"a0\*\*2 must be finite"):
            DegradationModel(1e200, 1.0, LAM, 0.4, 5.0)
        DegradationModel(1e154, 1.0, LAM, 0.4, 5.0)


class TestDifferenceStream:
    def test_noise_free_differences(self):
        model = case_study_model()
        obs = [Observation(t, degrade(model, t)) for t in (0.0, 5.0, 10.0)]
        diffs = difference_stream(obs)
        expected = np.array([-LAM[0] * 5.0, LAM[1] * 5.0])
        assert np.allclose(diffs, np.tile(expected, (2, 1)), rtol=1e-12)
        assert np.allclose(diffs[0], [-1.0 / 6.0, 5.0 / 12.0], rtol=1e-12)

    def test_matches_induced_model_matrix(self):
        model = case_study_model()
        obs = [Observation(t, degrade(model, t)) for t in (0.0, 5.0, 10.0, 15.0)]
        diffs = difference_stream(obs)
        w = process_matrix(5.0)
        assert np.allclose(diffs, np.tile(w @ LAM, (3, 1)), rtol=1e-12)

    def test_two_observations_one_difference(self):
        obs = [Observation(0.0, np.array([2.5, 1.0])), Observation(5.0, np.array([2.4, 1.5]))]
        diffs = difference_stream(obs)
        assert diffs.shape == (1, 2)
        assert np.allclose(diffs[0], [-0.1, 0.5])

    def test_irregular_spacing_rejected(self):
        obs = [
            Observation(0.0, np.array([2.5, 1.0])),
            Observation(5.0, np.array([2.4, 1.1])),
            Observation(11.0, np.array([2.3, 1.2])),
        ]
        with pytest.raises(DataError, match="gap"):
            difference_stream(obs)

    def test_decreasing_times_rejected(self):
        obs = [Observation(5.0, np.array([2.5, 1.0])), Observation(5.0, np.array([2.4, 1.1]))]
        with pytest.raises(DataError, match="increasing"):
            difference_stream(obs)

    def test_single_observation_rejected(self):
        with pytest.raises(DataError, match="two"):
            difference_stream([Observation(0.0, np.array([2.5, 1.0]))])

    def test_overflowing_difference_rejected_naming_its_days(self):
        # Finite estimates whose difference is not; a NumPy warning about it
        # fails the test too (the suite turns RuntimeWarning into an error).
        obs = [Observation(t, [a, 1.0]) for t, a in ((0.0, 1e308), (5.0, -1e308), (10.0, 1e308))]
        message = "the estimate difference between t=0.0 and t=5.0 is not finite"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            difference_stream(obs)

    def test_process_matrix(self):
        assert np.array_equal(process_matrix(5.0), np.diag([-5.0, 5.0]))
        with pytest.raises(ValueError):
            process_matrix(0.0)


class TestDailyObservations:
    def test_written_output_is_the_cli_observations_file(self, tmp_path):
        # Criterion 8's plant is the paper preset's, so this also ties the
        # acceptance pipeline to what `simulate --paper-preset` writes.
        obs = pdm.daily_observations(case_study_model(), 10, seed=0, **test_acceptance.PLANT)
        write_observations_csv(obs, tmp_path / "observations.csv")
        out = tmp_path / "cli"
        assert cli.main(["simulate", "--paper-preset", "--seed", "0", "--out", str(out)]) == 0
        assert (tmp_path / "observations.csv").read_bytes() == (out / "observations.csv").read_bytes()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("x0", (math.nan, 0.0), "x0 must be a finite vector of length 2"),
            ("x0", (1.0, 0.0, 0.0), "x0 must be a finite vector of length 2"),
            ("seed", -1, "seed must be a whole number >= 0"),
            ("dt", 0.0, "dt must be finite and > 0"),
            ("days", 0, "days must be a whole number >= 1"),
        ],
    )
    def test_day_independent_fault_raised_before_simulating(self, monkeypatch, key, value, message):
        calls = []
        monkeypatch.setattr(pdm, "simulate_trajectory", lambda *args: calls.append(args))
        kwargs = dict(test_acceptance.PLANT, days=3, seed=0)
        kwargs[key] = value
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            pdm.daily_observations(case_study_model(), **kwargs)
        assert calls == []

    def test_refused_day_is_named_with_its_index_and_time(self):
        # Day 15 (t = 75) drives the damping a0 - lambda1 t to 0.
        plant = dict(test_acceptance.PLANT, horizon=1.0)
        with pytest.raises(ValueError, match=r"^day 15 \(t = 75\.0\): a must be finite and > 0$"):
            pdm.daily_observations(case_study_model(), 16, seed=0, **plant)
        # A refused estimate keeps its class: the plant at rest at its
        # reference excites neither coefficient.
        rest = dict(plant, x0=(1.0, 0.0), eps_half_width=0.0)
        with pytest.raises(NumericalError, match=r"^day 0 \(t = 0\.0\): rank-deficient regressor"):
            pdm.daily_observations(case_study_model(), 2, seed=0, **rest)


class TestPredictDampingBand:
    def test_dirac_collapses_to_true_curve(self):
        model = case_study_model()
        m = ParticleMeasure(LAM[None, :])
        band = predict_damping_band(m, model, [0.0, 10.0, 30.0])
        for t, lo, mid, hi in band:
            z = damping_ratio(degrade(model, float(t)))
            assert lo == pytest.approx(z, rel=1e-12)
            assert mid == pytest.approx(z, rel=1e-12)
            assert hi == pytest.approx(z, rel=1e-12)

    def test_t_zero_is_rate_independent(self):
        rng = np.random.default_rng(0)
        m = ParticleMeasure(rng.uniform(0, 8 / 60, size=(50, 2)))
        band = predict_damping_band(m, case_study_model(), [0.0])
        assert band[0, 1] == band[0, 2] == band[0, 3] == pytest.approx(1.25, rel=1e-14)

    def test_contraction_narrows_band(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(0, 8 / 60, size=(200, 2))
        wide = ParticleMeasure(pts)
        narrow = ParticleMeasure(pts.mean(axis=0) + 0.5 * (pts - pts.mean(axis=0)))
        model = case_study_model()
        for t in (5.0, 10.0):
            bw = predict_damping_band(wide, model, [t])
            bn = predict_damping_band(narrow, model, [t])
            assert bn[0, 3] - bn[0, 1] < bw[0, 3] - bw[0, 1]

    def test_handles_extreme_extrapolation(self):
        m = ParticleMeasure(np.array([[0.0, 0.0], [0.2, 0.2]]))
        band = predict_damping_band(m, case_study_model(), [1e6])
        assert np.all(np.isfinite(band))

    def test_overflowing_row_refused_naming_its_t(self):
        # At t = 0.5 the drifted ratio is still finite; at t = 1.5 the
        # rates times t overflow.
        m = ParticleMeasure(np.full((2, 2), 1.7e308))
        assert np.isfinite(predict_damping_band(m, case_study_model(), [0.0, 0.5])).all()
        with pytest.raises(NumericalError, match=r"damping band at t = 1\.5 is not finite"):
            predict_damping_band(m, case_study_model(), [0.0, 0.5, 1.5, 2.0])

    def test_overflowing_stiffness_refused_naming_its_t(self):
        # b0 + 1e308 t overflows from t = 2 on, where the particle's ratio
        # would read 0 instead of about 8.8e-155.
        m = ParticleMeasure(np.array([[0.03, 1e308], [0.03, 0.05]]))
        band = predict_damping_band(m, case_study_model(), [0.0, 0.5, 1.5])
        assert np.all(band[1:, 1] > 0)
        with pytest.raises(NumericalError, match=r"damping band at t = 2\.0 is not finite"):
            predict_damping_band(m, case_study_model(), [0.0, 0.5, 1.5, 2.0, 2.5])

    # One row per block, several rows per block, and the default size.
    @pytest.mark.parametrize("block", [1, 7, pdm._BAND_BLOCK])
    def test_matches_per_row_oracle(self, monkeypatch, block):
        monkeypatch.setattr(pdm, "_BAND_BLOCK", block)
        rng = np.random.default_rng(5)
        model = case_study_model()
        for n in (1, 2, 5, 33, 1000):
            # Some negative stiffness rates, so the floor is reached.
            pts = rng.normal(0.05, 0.05, size=(n, 2))
            t_grid = np.concatenate([[0.0], rng.uniform(0.0, 200.0, size=23)])
            p_lo, p_hi = sorted(rng.uniform(0.0, 1.0, size=2))
            band = predict_damping_band(ParticleMeasure(pts), model, t_grid, p_lo, p_hi)
            assert np.array_equal(band, damping_band_rows(pts, 2.5, 1.0, t_grid, p_lo, p_hi))


    # The truth is the belief of one particle at the true rates: predict's
    # zeta_true column is this band's mean, which must be the ratio itself,
    # refused exactly where the ratio overflows or is invalid.
    @given(
        lam=st.lists(st.floats(0.0, 1e308), min_size=2, max_size=2),
        t_grid=st.lists(st.floats(0.0, 1e8), min_size=1, max_size=8),
    )
    def test_one_particle_band_is_the_true_ratio(self, lam, t_grid):
        model = DegradationModel(2.5, 1.0, lam, 0.4, 5.0)
        t = np.array(t_grid)
        truth = ParticleMeasure([model.lam])
        try:
            with np.errstate(over="raise", invalid="raise"):
                want = _zeta(model, *model.lam, t)
        except FloatingPointError:
            with pytest.raises(NumericalError, match="^damping band at t = .* is not finite"):
                predict_damping_band(truth, model, t)
        else:
            band = predict_damping_band(truth, model, t)
            assert band[:, 2].tobytes() == want.tobytes()


class TestSuggestedMaintenanceTime:
    def test_mean_rate_that_overflows_refused(self):
        m = ParticleMeasure(np.full((2, 2), 1.7e308))
        with pytest.raises(NumericalError, match="^the belief's mean rate is not finite$"):
            suggested_maintenance_time(m, case_study_model(), "mean")

    def test_dirac_matches_true_time_for_all_rules(self):
        model = case_study_model()
        m = ParticleMeasure(LAM[None, :])
        t_star = true_maintenance_time(model).days
        for rule, level in (("percentile", 0.1), ("mean", 0.5), ("chance", 0.1)):
            got = suggested_maintenance_time(m, model, rule, level)
            assert got.days == pytest.approx(t_star, abs=2e-3)

    def test_rule_ordering_on_domain_clouds(self):
        rng = np.random.default_rng(2)
        model = case_study_model()
        for _ in range(20):
            m = ParticleMeasure(rng.uniform(0, 8 / 60, size=(60, 2)))
            lo = suggested_maintenance_time(m, model, "percentile", 0.1).days
            mid = suggested_maintenance_time(m, model, "mean").days
            hi = suggested_maintenance_time(m, model, "percentile", 0.9).days
            assert lo <= mid + 2e-3
            assert mid <= hi + 2e-3

    def test_chance_half_between_two_particles(self):
        model = case_study_model()
        a = LAM * 0.7
        b = LAM * 1.3
        t_a = suggested_maintenance_time(ParticleMeasure(a[None, :]), model, "chance", 0.5).days
        t_b = suggested_maintenance_time(ParticleMeasure(b[None, :]), model, "chance", 0.5).days
        both = suggested_maintenance_time(
            ParticleMeasure(np.stack([a, b])), model, "chance", 0.5
        ).days
        assert min(t_a, t_b) - 2e-3 <= both <= max(t_a, t_b) + 2e-3

    def test_boundary_threshold_gives_zero(self):
        model = DegradationModel(2.5, 1.0, LAM, 1.25, 5.0)
        m = ParticleMeasure(LAM[None, :])
        got = suggested_maintenance_time(m, model, "percentile", 0.1)
        assert got.days == pytest.approx(0.0, abs=2e-3)

    def test_zero_rates_never_cross(self):
        model = case_study_model()
        m = ParticleMeasure(np.zeros((1, 2)))
        got = suggested_maintenance_time(m, model, "mean")
        assert math.isinf(got.days) and got.status == "never"

    def test_prediction_collapse_is_conservative(self):
        # Shrinking a symmetric cloud toward the true rates drives the
        # conservative quantile rule up to the true time, from below.
        model = case_study_model()
        t_star = true_maintenance_time(model).days
        rng = np.random.default_rng(3)
        offsets = rng.uniform(-1.0, 1.0, size=(100, 2)) * np.array([0.02, 0.04])
        offsets -= offsets.mean(axis=0)
        gaps = []
        for scale in (1.0, 0.1, 0.01):
            m = ParticleMeasure(LAM + scale * offsets)
            got = suggested_maintenance_time(m, model, "percentile", 0.1).days
            assert got <= t_star + 2e-3
            gaps.append(t_star - got)
        assert gaps[0] > gaps[1] > gaps[2] - 2e-3
        assert gaps[2] <= 0.5

    def test_unknown_rule_rejected(self):
        m = ParticleMeasure(LAM[None, :])
        with pytest.raises(ValueError, match="rule"):
            suggested_maintenance_time(m, case_study_model(), "median")

    def test_boundary_threshold_is_crossed_at_zero(self):
        model = DegradationModel(2.5, 1.0, LAM, 1.25, 5.0)
        m = ParticleMeasure(np.tile(LAM, (3, 1)))
        for rule in RULES:
            assert suggested_maintenance_time(m, model, rule, 0.5) == (0.0, "crossed")
        assert true_maintenance_time(model) == (0.0, "crossed")

    def test_zero_rates_never_cross_for_every_rule(self):
        m = ParticleMeasure(np.zeros((4, 2)))
        for rule in RULES:
            got = suggested_maintenance_time(m, case_study_model(), rule, 0.5)
            assert got == (math.inf, "never")

    def test_zero_floor_and_constant_damping_for_every_rule(self):
        # At zeta_min = 0 a particle exits where a(t) reaches 0; without
        # damping decay (lambda1 = 0) the squared crossing is linear in t.
        m = ParticleMeasure(LAM[None, :])
        for rule in RULES:
            got = suggested_maintenance_time(m, case_study_model(0.0), rule, 0.5)
            assert got.status == "crossed"
            assert got.days == pytest.approx(2.5 / LAM[0], rel=1e-7)
        flat = ParticleMeasure(np.array([[0.0, LAM[1]]]))
        want = (2.5**2 / (4.0 * 0.4**2) - 1.0) / LAM[1]
        for rule in RULES:
            got = suggested_maintenance_time(flat, case_study_model(), rule, 0.5)
            assert got.days == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 5, 33, 1000])
    def test_matches_bisection_on_random_beliefs(self, n):
        # Nonnegative rates, some exactly 0: each criterion fails once, so
        # the closed form lies in the bisection's final bracket [lo, lo + tol].
        rng = np.random.default_rng(n)
        for _ in range(6):
            model = random_model(rng)
            points = rng.uniform(0.0, 8.0 / 60.0, size=(n, 2)) * (rng.random((n, 2)) < 0.9)
            m = ParticleMeasure(points)
            for rule in RULES:
                level = float(rng.uniform(0.01, 0.99))
                got = suggested_maintenance_time(m, model, rule, level)
                want = suggested_maintenance_time_bisect(m, model, rule, level, tol=1e-3)
                assert got.status == want.status, (rule, level)
                if got.status == "crossed":
                    slack = ROUNDING * max(1.0, got.days)
                    assert want.days - slack <= got.days <= want.days + 1e-3 + slack, (rule, level)

    def test_signed_beliefs_never_later_than_the_first_failure(self):
        # Negative rates make a particle's ratio non-monotone, and lambda2 < 0
        # drives its stiffness onto the floor.  The order statistic of first
        # exits is then no later than the first grid time the criterion fails.
        rng = np.random.default_rng(13)
        grid = np.arange(0.0, 40.0, 1e-3)[:, None]
        failures = floored = 0
        for n in (1, 2, 5, 33):
            for _ in range(6):
                model = random_model(rng)
                points = np.column_stack(
                    [rng.uniform(-0.1, 0.15, n), rng.uniform(-0.3, 0.2, n)]
                )
                floored += int(np.sum(model.b0 + points[:, 1] * grid[-1, 0] < pdm._B_FLOOR))
                m = ParticleMeasure(points)
                for rule in RULES:
                    level = float(rng.uniform(0.01, 0.99))
                    got = suggested_maintenance_time(m, model, rule, level)
                    fails = np.flatnonzero(~rule_holds(m, model, rule, level, grid))
                    if fails.size:
                        failures += 1
                        first = float(grid[fails[0], 0])
                        assert got.days <= first + ROUNDING * max(1.0, first), (n, rule, level)
        # The draws exercise the floor and a failure inside the grid (27 of 72).
        assert floored > 0 and failures >= 20


class TestBeliefAgainstLeastSquares:
    def test_percentile_rule_is_safer_than_least_squares(self):
        # Criterion 8's pipeline (20 seeds, days 10-45, 160 pairs).  A time
        # is safe when it is at most t* + 1e-3 days.
        model = DegradationModel(2.5, 1.0, test_acceptance.THETA, 0.4, 5.0)
        ours, ls = test_acceptance.gaps_against_least_squares(
            model, lambda model, seed: pdm.daily_observations(model, 10, seed=seed, **test_acceptance.PLANT)
        )
        assert np.mean(ours <= 1e-3) >= 0.90
        assert np.mean(ls <= 1e-3) <= 0.60
        assert ls.max() > 1.0


class TestLsBaseline:
    def test_noise_free_exact_recovery(self):
        model = case_study_model()
        obs = [Observation(t, degrade(model, t)) for t in (0.0, 5.0, 10.0, 15.0)]
        lam_hat, t_star = ls_baseline(obs, 2.5, 1.0, 0.4)
        assert np.allclose(lam_hat, LAM, rtol=1e-12)
        assert t_star.days == pytest.approx(true_maintenance_time(model).days, abs=1e-4)

    def test_single_informative_pair(self):
        model = case_study_model()
        obs = [Observation(0.0, degrade(model, 0.0)), Observation(5.0, degrade(model, 5.0))]
        lam_hat, t_star = ls_baseline(obs, 2.5, 1.0, 0.4)
        assert np.allclose(lam_hat, LAM, rtol=1e-12)
        assert t_star.status == "crossed"

    def test_negative_component_kept_and_crossing_found(self):
        # Noise pushed a_hat upward, so the fitted damping slope is
        # negative; the unclamped fit must still yield a crossing when the
        # stiffness growth dominates.
        obs = [
            Observation(0.0, np.array([2.5, 1.0])),
            Observation(5.0, np.array([2.6, 11.0])),
        ]
        lam_hat, t_star = ls_baseline(obs, 2.5, 1.0, 0.4)
        assert lam_hat[0] < 0 and lam_hat[1] > 0
        assert t_star.status == "crossed"
        zeta_at = lambda t: (2.5 - lam_hat[0] * t) / (2 * math.sqrt(1.0 + lam_hat[1] * t))
        assert zeta_at(t_star.days) == pytest.approx(0.4, abs=1e-3)

    def test_negative_component_can_stay_safe_forever(self):
        obs = [
            Observation(0.0, np.array([2.5, 1.0])),
            Observation(5.0, np.array([2.6, 1.05])),
        ]
        lam_hat, t_star = ls_baseline(obs, 2.5, 1.0, 0.4)
        assert lam_hat[0] < 0
        assert t_star.status == "never" and math.isinf(t_star.days)

    def test_first_exit_against_scalar_scan_on_random_fits(self):
        # The oracle scans a 0.25-day grid up to 2000 days for the last safe
        # point; the baseline takes the fit's first exit.  They agree where
        # the path crosses once within the scan; elsewhere the first exit is
        # earlier, and a fine grid checks that it is the first failure.
        rng = np.random.default_rng(2024)
        scan = np.arange(0.0, _SCAN_CAP + 0.25, 0.25)
        statuses = set()
        negative = non_monotone = single = 0
        for _ in range(120):
            a0 = float(rng.uniform(0.5, 4.0))
            b0 = float(rng.uniform(0.2, 3.0))
            zeta_min = a0 / (2.0 * math.sqrt(b0)) * float(rng.uniform(0.3, 1.1))
            lam = rng.normal(scale=0.1, size=2)
            times = 5.0 * np.arange(int(rng.integers(0, 2)), int(rng.integers(2, 9)))
            obs = [
                Observation(t, [a0 - lam[0] * t, b0 + lam[1] * t] + rng.normal(scale=0.05, size=2))
                for t in times
            ]
            lam_hat, got = ls_baseline(obs, a0, b0, zeta_min)
            want_lam, want = ls_baseline_scalar(obs, a0, b0, zeta_min)
            assert lam_hat.tobytes() == want_lam.tobytes()
            statuses.add(got.status)

            def fails(t):
                return (a0 - lam_hat[0] * t) / (2 * np.sqrt(np.maximum(b0 + lam_hat[1] * t, pdm._B_FLOOR))) < zeta_min

            assert (got.status == "immediate") == (want.status == "immediate")
            assert got.days <= want.days + 1e-6
            unsafe = np.flatnonzero(fails(scan))
            if unsafe.size and unsafe[-1] - unsafe[0] == unsafe.size - 1 and unsafe[-1] == scan.size - 1:
                single += 1
                assert abs(got.days - want.days) <= 1e-6
            if got.status == "never":
                assert not np.any(fails(np.arange(0.0, 1e4, 1e-2)))
            else:
                slack = ROUNDING * max(1.0, got.days)
                grid = np.arange(0.0, got.days + 2e-3, 1e-3)
                failing = fails(grid)
                assert not np.any(failing[grid < got.days - slack])
                assert np.any(failing[(grid >= got.days) & (grid <= got.days + 1e-3 + slack)])
            negative += bool(np.any(lam_hat < 0))
            grid = np.linspace(0.0, 2000.0, 801)
            path = (a0 - lam_hat[0] * grid) / (2 * np.sqrt(np.maximum(b0 + lam_hat[1] * grid, 1e-12)))
            non_monotone += bool(np.any(np.diff(path) > 0) and np.any(np.diff(path) < 0))
        assert statuses == {"crossed", "never", "immediate"}
        assert negative >= 10 and non_monotone >= 10 and single >= 10, (negative, non_monotone, single)

    def test_crossing_after_two_thousand_days_is_found(self):
        # A slow damping decay crosses at 3400 days, as the true time of the
        # same rates says; a scan capped at 2000 days called it "never".
        model = DegradationModel(2.5, 1.0, np.array([5e-4, 0.0]), 0.4, 5.0)
        obs = [Observation(t, degrade(model, t)) for t in (5.0, 10.0, 15.0)]
        _, got = ls_baseline(obs, 2.5, 1.0, 0.4)
        want = true_maintenance_time(model)
        assert got.status == want.status == "crossed"
        assert got.days == pytest.approx(want.days, rel=1e-12)
        assert got.days == pytest.approx(3400.0, rel=1e-12)

    def test_path_that_dips_and_returns_gives_its_first_failure(self):
        # a = 2 - 0.015 t, b = 1 - 0.01 t: the ratio falls below 0.9 at the
        # smaller root of 2.25e-4 t^2 - 0.0276 t + 0.76, returns above it as
        # b -> 0, and leaves for good when a falls to 0 at 133.33 days.
        obs = [Observation(t, np.array([2.0 - 0.015 * t, 1.0 - 0.01 * t])) for t in (5.0, 10.0)]
        lam_hat, got = ls_baseline(obs, 2.0, 1.0, 0.9)
        assert np.allclose(lam_hat, [0.015, -0.01], rtol=1e-12)
        root = (0.0276 - math.sqrt(0.0276**2 - 4 * 2.25e-4 * 0.76)) / (2 * 2.25e-4)
        assert got.status == "crossed"
        assert got.days == pytest.approx(root, rel=1e-9)
        assert got.days == pytest.approx(41.737, abs=1e-3)

    def test_all_observations_at_zero_rejected(self):
        obs = [Observation(0.0, np.array([2.5, 1.0]))]
        with pytest.raises(NumericalError, match="unidentifiable"):
            ls_baseline(obs, 2.5, 1.0, 0.4)


class TestObservationCsv:
    def test_round_trip_bytes(self, tmp_path):
        model = case_study_model()
        obs = [Observation(t, degrade(model, t) + 1e-3 * np.sin(t + np.arange(2))) for t in (0.0, 5.0, 10.0)]
        p1 = tmp_path / "o1.csv"
        p2 = tmp_path / "o2.csv"
        write_observations_csv(obs, p1)
        again = read_observations_csv(p1)
        write_observations_csv(again, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_text().splitlines()[0] == "t,a_hat,b_hat"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,a,b\n0,1,2\n")
        with pytest.raises(DataError, match="header"):
            read_observations_csv(path)

    def test_residual_diagnostic(self):
        model = case_study_model()
        obs = [Observation(t, degrade(model, t) + 0.25) for t in (0.0, 5.0)]
        res = observation_residuals(obs, model)
        assert np.allclose(res, 0.25, rtol=1e-12)


_BELIEF_3D = ParticleMeasure(np.zeros((4, 3)))
_BELIEF_2D = ParticleMeasure(np.full((4, 2), 0.05))
_ONE_DAY = [Observation(5.0, [2.4, 1.1])]


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ls_estimate((np.zeros((5, 2)), np.zeros(4)), 0.001),
         "trajectory must pair (n+1, 2) states with n+1 references"),
        (lambda: ls_estimate((np.zeros((5, 2)), np.zeros(5)), 0.0), "dt must be finite and > 0"),
        (lambda: Observation(-1.0, [2.5, 1.0]), "t must be finite and >= 0"),
        (lambda: predict_damping_band(_BELIEF_3D, case_study_model(), [0.0]),
         "belief dimension is 3, expected 2"),
        (lambda: suggested_maintenance_time(_BELIEF_3D, case_study_model()),
         "belief dimension is 3, expected 2"),
        (lambda: ls_baseline([], 2.5, 1.0, 0.4), "need at least one observation"),
        (lambda: predict_damping_band(_BELIEF_2D, case_study_model(), [0.0, math.nan]),
         "t_grid must be finite and >= 0"),
        (lambda: predict_damping_band(_BELIEF_2D, case_study_model(), [math.inf]),
         "t_grid must be finite and >= 0"),
        (lambda: predict_damping_band(_BELIEF_2D, case_study_model(), [-1.0]),
         "t_grid must be finite and >= 0"),
        (lambda: ls_baseline(_ONE_DAY, math.inf, 1.0, 0.4), "a0 must be finite"),
        (lambda: ls_baseline(_ONE_DAY, 2.5, 0.0, 0.4), "b0 must be finite and > 0"),
        (lambda: ls_baseline(_ONE_DAY, 2.5, 1.0, math.nan), "zeta_min must be finite and >= 0"),
    ],
    ids=["trajectory-shape", "dt", "negative-t", "band-3d", "maintenance-3d", "no-observations",
         "band-t-nan", "band-t-inf", "band-t-negative", "ls-a0", "ls-b0", "ls-zeta_min"],
)
def test_argument_out_of_contract_is_refused_with_its_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_observation_file_with_a_negative_time_names_the_row(tmp_path):
    path = tmp_path / "observations.csv"
    path.write_text("t,a_hat,b_hat\n0,2.5,1\n-5,2.4,1.1\n")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: row 1: t must be finite and >= 0$"):
        read_observations_csv(path)
