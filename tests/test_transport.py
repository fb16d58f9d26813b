import importlib.machinery
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

import wgflow
from _oracles import bures_scipy, w2_brute_force
from wgflow import transport
from wgflow.errors import NumericalError
from wgflow.measures import ParticleMeasure, covariance, init_uniform_box, mean
from wgflow.transport import (
    MAX_EXACT_PARTICLES,
    bures_distance,
    check_subsample,
    gelbrich_lower_bound,
    lipschitz_norm_gap,
    moment_gaps,
    w2_1d,
    w2_exact,
)


def cloud(rows):
    return ParticleMeasure(np.asarray(rows, dtype=float))


# Coordinates whose squared differences may or may not overflow.
_FAR_COORDS = st.one_of(
    st.floats(-1.0, 1.0),
    st.floats(-1.7e308, 1.7e308),
    st.sampled_from([0.0, 9e153, -9e153, 1.3e154, -1.3e154, 1e200, 1.7e308, -1.7e308]),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4), st.integers(1, 3), st.data())
def test_cost_check_refuses_exactly_the_matrices_with_an_entry_that_is_not_finite(n, d, data):
    # w2_exact tests only the largest squared distance; the full mask over
    # scipy's public cdist is the reference.
    v = np.array(data.draw(st.lists(_FAR_COORDS, min_size=2 * n * d, max_size=2 * n * d))).reshape(2, n, d)
    expected = not np.isfinite(cdist(v[0], v[1], "sqeuclidean")).all()
    try:
        w2_exact(cloud(v[0]), cloud(v[1]))
        refused = False
    except NumericalError as exc:
        refused = str(exc).startswith("a squared distance between two particles is not finite")
    assert refused == expected


class TestW2Exact:
    def test_self_distance_zero(self):
        m = cloud([[0.0, 1.0], [2.0, 3.0], [4.0, -1.0]])
        dist, perm = w2_exact(m, m)
        assert dist == 0.0
        assert perm.tolist() == [0, 1, 2]

    def test_two_diracs(self):
        x = np.array([[1.0, 2.0]])
        y = np.array([[4.0, 6.0]])
        dist, perm = w2_exact(cloud(x), cloud(y))
        assert dist == pytest.approx(5.0, rel=1e-14)
        assert perm.tolist() == [0]

    def test_monotone_matching_1d(self):
        m = cloud([[0.0], [1.0]])
        n = cloud([[2.0], [3.0]])
        dist, perm = w2_exact(m, n)
        assert dist == pytest.approx(2.0, rel=1e-14)
        assert perm.tolist() == [0, 1]
        assert dist**2 == pytest.approx(4.0, rel=1e-14)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(1, 8))
            d = int(rng.integers(1, 4))
            xs = rng.normal(size=(n, d))
            ys = rng.normal(size=(n, d))
            dist, perm = w2_exact(cloud(xs), cloud(ys))
            assert dist == pytest.approx(w2_brute_force(xs, ys), abs=1e-10)
            assert sorted(perm.tolist()) == list(range(n))
            matched = float(np.mean(np.sum((xs - ys[perm]) ** 2, axis=1)))
            assert dist**2 == pytest.approx(matched, rel=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = cloud(rng.normal(size=(16, 2)))
            b = cloud(rng.normal(size=(16, 2)))
            assert w2_exact(a, b)[0] == pytest.approx(w2_exact(b, a)[0], abs=1e-10)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            a = cloud(rng.normal(size=(12, 3)))
            b = cloud(rng.normal(size=(12, 3)))
            c = cloud(rng.normal(size=(12, 3)))
            dab = w2_exact(a, b)[0]
            dbc = w2_exact(b, c)[0]
            dac = w2_exact(a, c)[0]
            assert dac <= dab + dbc + 1e-8

    def test_identity_of_indiscernibles(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(9, 2))
        shuffled = pts[rng.permutation(9)]
        assert w2_exact(cloud(pts), cloud(shuffled))[0] == pytest.approx(0.0, abs=1e-12)
        other = pts.copy()
        other[0] += 0.5
        assert w2_exact(cloud(pts), cloud(other))[0] > 0.01

    def test_unequal_counts_rejected(self):
        with pytest.raises(ValueError, match="equal-size"):
            w2_exact(cloud([[0.0]]), cloud([[0.0], [1.0]]))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            w2_exact(cloud([[0.0]]), cloud([[0.0, 1.0]]))

    def test_overflowing_cost_is_numerical_error(self):
        with pytest.raises(NumericalError, match=(
            "^a squared distance between two particles is not finite: the clouds' coordinates are too large$"
        )):
            w2_exact(cloud([[1e200, 0.0], [0.0, 0.0]]), cloud([[-1e200, 0.0], [0.0, 1.0]]))

    def test_size_cap_mentions_subsampling(self):
        big = ParticleMeasure(np.zeros((MAX_EXACT_PARTICLES + 1, 1)))
        with pytest.raises(ValueError, match="[Ss]ubsample"):
            w2_exact(big, big)

    def test_subsample_above_the_cap_refused(self):
        check_subsample(10**6, MAX_EXACT_PARTICLES)
        with pytest.raises(ValueError, match=(
            f"^diag_subsample 5000 would measure {MAX_EXACT_PARTICLES + 1} particles, "
            f"above the exact-solver cap {MAX_EXACT_PARTICLES}; lower diag_subsample$"
        )):
            check_subsample(5000, MAX_EXACT_PARTICLES + 1)

    # Every squared distance is finite; their sum over n pairs is not, but
    # their mean is, and so is the distance.  At 256 pairs of cost 9e306
    # the costs divided by n sum to 9e306; at 108 pairs of cost
    # 1.7976931348623151e308, next to the float maximum, they overflow too.
    @pytest.mark.parametrize("n, distance", [(256, 3e153), (108, 1.3407807929942594e154)])
    def test_mean_cost_whose_sum_overflows_is_returned_without_warnings(self, n, distance):
        a = np.full((n, 1), distance / 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w2, perm = w2_exact(cloud(a), cloud(-a))
        assert w2 == pytest.approx(distance, rel=1e-12)
        assert sorted(perm.tolist()) == list(range(n))


def kernel_cases():
    """Pairs of clouds: C- and F-ordered, d = 1, 2, 3, n from 1 to 256, a
    Dirac reference (every cost row tied) and duplicated points."""
    rng = np.random.default_rng(17)
    cases = []
    for d in (1, 2, 3):
        for n in (*range(1, 10), 16, 31, 64, 100, 255, 256):
            a, b = rng.normal(size=(n, d)), rng.normal(size=(n, d))
            cases += [
                (a, b),
                (np.asfortranarray(a), np.asfortranarray(b)),
                (a, np.tile(rng.normal(size=d), (n, 1))),
                (a[rng.integers(0, -(-n // 2), size=n)], b[rng.integers(0, -(-n // 3), size=n)]),
            ]
    return cases


def public_w2(a, b):
    """The exact distance and matching through scipy's public functions."""
    cost = cdist(a, b, "sqeuclidean")
    rows, cols = linear_sum_assignment(cost)
    return math.sqrt(float(cost[rows, cols].mean())), cols


class TestExactKernels:
    def test_package_free_kernels_match_the_public_functions_bit_for_bit(self, tmp_path):
        # In a fresh process no scipy package is imported, so w2_exact runs
        # on the compiled modules it loads from their files; here, scipy's
        # public functions are imported (by this module).
        cases = kernel_cases()
        np.savez(tmp_path / "cases.npz", *[x for pair in cases for x in pair])
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from wgflow.measures import ParticleMeasure\n"
            "from wgflow.transport import w2_exact\n"
            "clouds = np.load(sys.argv[1])\n"
            "out = {}\n"
            "for i in range(len(clouds.files) // 2):\n"
            "    a, b = clouds[f'arr_{2 * i}'], clouds[f'arr_{2 * i + 1}']\n"
            "    out[f'dist{i}'], out[f'perm{i}'] = w2_exact(ParticleMeasure(a), ParticleMeasure(b))\n"
            "np.savez(sys.argv[2], **out)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(wgflow.__file__)))
        proc = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "cases.npz"), str(tmp_path / "out.npz")],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
        got = np.load(tmp_path / "out.npz")
        for i, (a, b) in enumerate(cases):
            dist, perm = public_w2(a, b)
            assert float(got[f"dist{i}"]) == dist, i
            assert np.array_equal(got[f"perm{i}"], perm), i

    def test_public_fallback_gives_the_same_bits(self, monkeypatch):
        # A scipy whose compiled modules the loader cannot find (another
        # layout) falls back to the public functions.
        transport._kernels.cache_clear()
        try:
            with monkeypatch.context() as patch:
                patch.setattr(
                    importlib.machinery.PathFinder,
                    "find_spec",
                    classmethod(lambda cls, *args, **kwargs: None),
                )
                cost, assignment = transport._kernels()
            assert assignment is linear_sum_assignment
            assert cost.func is cdist
            for a, b in kernel_cases():
                dist, perm = public_w2(a, b)
                got_dist, got_perm = w2_exact(cloud(a), cloud(b))
                assert got_dist == dist
                assert np.array_equal(got_perm, perm)
        finally:
            transport._kernels.cache_clear()


class TestW21d:
    def test_permuted_identical_sets(self):
        a = cloud([[3.0], [1.0], [2.0]])
        b = cloud([[2.0], [3.0], [1.0]])
        assert w2_1d(a, b) == 0.0

    def test_hand_computed(self):
        assert w2_1d(cloud([[0.0], [1.0]]), cloud([[2.0], [3.0]])) == pytest.approx(2.0)
        assert w2_1d(cloud([[-1.0], [1.0]]), cloud([[0.0], [0.0]])) == pytest.approx(1.0)

    def test_agrees_with_exact_solver(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            xs = rng.normal(size=(n, 1))
            ys = rng.normal(size=(n, 1))
            assert w2_1d(cloud(xs), cloud(ys)) == pytest.approx(
                w2_exact(cloud(xs), cloud(ys))[0], abs=1e-10
            )

    def test_rejects_higher_dimensions(self):
        m = cloud([[0.0, 1.0]])
        with pytest.raises(ValueError, match="1-d"):
            w2_1d(m, m)


class TestBures:
    def test_zero_on_equal_inputs(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(3, 3))
        s = a @ a.T
        assert bures_distance(s, s) == pytest.approx(0.0, abs=1e-8)

    def test_scalar_closed_form(self):
        assert bures_distance([[4.0]], [[1.0]]) == pytest.approx(1.0, abs=1e-12)

    def test_zero_versus_identity(self):
        for d in (1, 2, 5):
            got = bures_distance(np.zeros((d, d)), np.eye(d))
            assert got == pytest.approx(math.sqrt(d), rel=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            a = rng.normal(size=(4, 4))
            b = rng.normal(size=(4, 4))
            s1, s2 = a @ a.T, b @ b.T
            assert bures_distance(s1, s2) == pytest.approx(bures_distance(s2, s1), abs=1e-8)

    def test_matches_independent_square_root(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a = rng.normal(size=(3, 3))
            b = rng.normal(size=(3, 3))
            s1, s2 = a @ a.T + 0.1 * np.eye(3), b @ b.T + 0.1 * np.eye(3)
            assert bures_distance(s1, s2) == pytest.approx(bures_scipy(s1, s2), abs=1e-8)

    def test_rejects_indefinite_with_eigenvalue_report(self):
        s = np.diag([1.0, -0.5])
        with pytest.raises(NumericalError, match="-5"):
            bures_distance(s, np.eye(2))

    def test_rejects_asymmetric(self):
        s = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(NumericalError, match="symmetric"):
            bures_distance(s, np.eye(2))

    def test_rejects_non_finite_before_symmetry(self):
        with pytest.raises(NumericalError, match="^S1 is not finite$"):
            bures_distance(np.full((2, 2), np.nan), np.eye(2))
        with pytest.raises(NumericalError, match="^S2 is not finite$"):
            bures_distance(np.eye(2), np.diag([1.0, np.inf]))

    def test_tolerates_tiny_negative_eigenvalues(self):
        s = np.diag([1.0, -1e-12])
        assert bures_distance(s, s) == pytest.approx(0.0, abs=1e-6)


class TestGelbrich:
    def test_identical_measures(self):
        rng = np.random.default_rng(12)
        m = cloud(rng.normal(size=(20, 2)))
        assert gelbrich_lower_bound(m, m) == pytest.approx(0.0, abs=1e-10)

    def test_tight_for_diracs(self):
        m = cloud([[1.0, 2.0]])
        n = cloud([[4.0, 6.0]])
        assert gelbrich_lower_bound(m, n) == pytest.approx(5.0, rel=1e-12)

    def test_never_exceeds_exact(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            a = cloud(rng.normal(size=(64, 2)) + rng.normal(size=2))
            b = cloud(rng.normal(size=(64, 2)) * rng.uniform(0.5, 2.0))
            assert gelbrich_lower_bound(a, b) <= w2_exact(a, b)[0] + 1e-8

    def test_overflowing_covariance_is_numerical_error_without_warnings(self):
        m = cloud([[1e200, 0.0], [-1e200, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=(
                "^the Gelbrich bound is not finite: the clouds' coordinates are too large$"
            )):
                gelbrich_lower_bound(m, m)

    @given(
        sizes=st.tuples(st.integers(1, 30), st.integers(1, 30)),
        d=st.integers(1, 3),
        seed=st.integers(0, 2**16),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
    )
    def test_moment_gaps_build_the_bound(self, sizes, d, seed, scale):
        rng = np.random.default_rng(seed)
        a, b = (cloud(scale * rng.standard_normal((n, d)) + rng.normal(size=d)) for n in sizes)
        mean_gap, bures_gap, bound = moment_gaps(a, b)
        assert mean_gap == float(np.linalg.norm(mean(a) - mean(b)))
        assert bures_gap == bures_distance(covariance(a), covariance(b))
        assert np.float64(bound).tobytes() == np.float64(gelbrich_lower_bound(a, b)).tobytes()
        assert bound**2 == pytest.approx(mean_gap**2 + bures_gap**2, rel=1e-12, abs=1e-300)

    def test_moment_gaps_overflow_to_nan_without_warnings(self):
        m = cloud([[1e200, 0.0], [-1e200, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mean_gap, bures_gap, bound = moment_gaps(m, m)
        assert mean_gap == 0.0 and math.isnan(bures_gap) and math.isnan(bound)

    def test_overflowing_mean_gap_is_numerical_error_without_warnings(self):
        m, n = cloud([[1e300, 0.0]] * 2), cloud([[-1e300, 0.0]] * 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="^the Gelbrich bound is not finite"):
                gelbrich_lower_bound(m, n)


class TestLipschitzGap:
    def test_identical_measures(self):
        m = init_uniform_box([0, 0], [1, 1], 20, seed=0)
        assert lipschitz_norm_gap(m, m, lambda x: float(np.linalg.norm(x))) == 0.0

    def test_constant_function(self):
        a = init_uniform_box([0, 0], [1, 1], 20, seed=0)
        b = init_uniform_box([3, 3], [4, 4], 20, seed=1)
        assert lipschitz_norm_gap(a, b, lambda x: 2.5) == pytest.approx(0.0, abs=1e-15)

    def test_bounded_by_w2(self):
        rng = np.random.default_rng(19)
        phi = lambda x: float(np.linalg.norm(x))
        for _ in range(10):
            a = ParticleMeasure(rng.normal(size=(24, 2)))
            b = ParticleMeasure(rng.normal(size=(24, 2)) + rng.normal(size=2))
            gap = lipschitz_norm_gap(a, b, phi)
            assert gap <= w2_exact(a, b)[0] + 1e-8

    def test_overflowing_square_is_inf_without_warnings(self):
        far, near = cloud([[1e200, 0.0]]), cloud([[0.0, 0.0], [0.0, 1.0]])
        norm = lambda x: float(np.linalg.norm(x))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert lipschitz_norm_gap(far, near, lambda x: abs(x[0])) == math.inf
            assert lipschitz_norm_gap(far, near, norm) == math.inf
            assert math.isnan(lipschitz_norm_gap(far, far, norm))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: w2_1d(cloud([[0.0], [1.0]]), cloud([[0.0]])),
         "particle count of the second cloud is 1, expected 2"),
        (lambda: bures_distance(np.eye(2)[:1], np.eye(2)), "S1 must be a square matrix"),
        (lambda: bures_distance(np.eye(2), np.eye(3)), "S2 shape is (3, 3), expected (2, 2)"),
        (lambda: moment_gaps(cloud([[0.0, 0.0]]), cloud([[0.0]])), "dimension of the second cloud is 1, expected 2"),
    ],
    ids=["w2_1d-counts", "bures-not-square", "bures-shapes", "moment_gaps-dimensions"],
)
def test_argument_out_of_contract_is_refused_with_its_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
