import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wgflow import measures
from wgflow.errors import DataError, NumericalError
from wgflow.measures import (
    ParticleMeasure,
    covariance,
    frozen_vector,
    init_uniform_box,
    mean,
    nearest_rank_index,
)


def cloud(*rows):
    return ParticleMeasure(np.array(rows, dtype=float))


class TestConstruction:
    def test_basic(self):
        m = cloud((1.0, 2.0), (3.0, 4.0))
        assert m.n == 2 and m.d == 2

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="particle 1"):
            cloud((0.0, 0.0), (np.nan, 1.0))

    def test_rejects_inf(self):
        with pytest.raises(ValueError, match="non-finite"):
            cloud((math.inf,))

    def test_rejects_empty_and_flat(self):
        with pytest.raises(ValueError):
            ParticleMeasure(np.empty((0, 2)))
        with pytest.raises(ValueError):
            ParticleMeasure(np.array([1.0, 2.0]))

    def test_points_are_frozen(self):
        m = cloud((1.0, 2.0))
        with pytest.raises(ValueError):
            m.points[0, 0] = 9.0


class TestFrozenVector:
    def test_read_only_float_copy(self):
        value = np.array([1, 2])
        v = frozen_vector(value, "v", 2)
        assert v.dtype == float and np.array_equal(v, value)
        assert not v.flags.writeable and value.flags.writeable
        assert not np.shares_memory(v, value)

    def test_a_number_is_a_vector_of_one(self):
        assert frozen_vector(3, "v").tolist() == [3.0]

    @pytest.mark.parametrize(
        "value, size, message",
        [
            ([[1.0, 2.0]], None, "v must be a finite vector"),
            ([1.0, math.nan], None, "v must be a finite vector"),
            (None, None, "v must be a finite vector"),
            ([1.0, math.inf], 2, "v must be a finite vector of length 2"),
            ([1.0, 2.0, 3.0], 2, "v must be a finite vector of length 2"),
            ([], 1, "v must be a finite vector of length 1"),
            (["0", "0"], 2, "v must be a finite vector of length 2"),
            ([True, False], 2, "v must be a finite vector of length 2"),
            ([np.True_, 0.5], 2, "v must be a finite vector of length 2"),
            ([10**400, 0], 2, "v must be a finite vector of length 2"),
        ],
    )
    def test_refusal_names_the_value(self, value, size, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            frozen_vector(value, "v", size)


class TestMoments:
    def test_mean_symmetry(self):
        assert np.allclose(mean(cloud((0.0, 0.0), (2.0, 2.0))), [1.0, 1.0])

    def test_mean_single_dirac(self):
        assert np.allclose(mean(cloud((5.0,))), [5.0])

    def test_mean_origin_symmetric(self):
        m = cloud((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))
        assert np.allclose(mean(m), [0.0, 0.0], atol=1e-15)

    def test_covariance_dirac_zero(self):
        assert np.allclose(covariance(cloud((3.0, 7.0))), np.zeros((2, 2)))

    def test_covariance_1d_hand(self):
        assert np.allclose(covariance(cloud((-1.0,), (1.0,))), [[1.0]])

    def test_covariance_divisor_n(self):
        got = covariance(cloud((0.0, 0.0), (1.0, 1.0)))
        assert np.allclose(got, [[0.25, 0.25], [0.25, 0.25]])

    def test_covariance_eigenvalue_floor(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            m = ParticleMeasure(rng.normal(size=(rng.integers(1, 30), 3)))
            w = np.linalg.eigvalsh(covariance(m))
            assert w.min() >= -1e-12

    @given(
        n=st.integers(1, 64),
        d=st.integers(1, 3),
        seed=st.integers(0, 2**16),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
    )
    def test_covariance_is_exactly_symmetric(self, n, d, seed, scale):
        rng = np.random.default_rng(seed)
        c = covariance(ParticleMeasure(scale * rng.standard_normal((n, d)) + rng.normal(size=d)))
        assert np.array_equal(c, c.T)

    def test_covariance_is_finite_where_its_entries_are(self):
        # The centred squares sum to 4e308 before the division by N, which
        # the scaling before the product never forms.
        got = covariance(cloud((1e154, 0.0), (-1e154, 0.0), (1e154, 1.0), (-1e154, 1.0)))
        assert np.array_equal(got, [[1e308, 0.0], [0.0, 0.25]])

    def test_nearest_rank_examples(self):
        # Positions in 10 sorted values: ranks ceil(p n), at least 1.
        assert nearest_rank_index(10, 0.9) == 8
        assert nearest_rank_index(10, 0.1) == 0
        assert nearest_rank_index(10, 0.0) == 0
        assert nearest_rank_index(10, 1.0) == 9

    def test_nearest_rank_monotone_in_p(self):
        positions = [nearest_rank_index(23, p) for p in np.linspace(0, 1, 21)]
        assert all(a <= b for a, b in zip(positions, positions[1:]))
        assert positions[0] == 0 and positions[-1] == 22


class TestInitUniformBox:
    def test_degenerate_box(self):
        m = init_uniform_box([2.0, 2.0], [2.0, 2.0], 5, seed=0)
        assert np.array_equal(m.points, np.full((5, 2), 2.0))

    def test_deterministic(self):
        a = init_uniform_box([0, 0], [1, 1], 100, seed=42)
        b = init_uniform_box([0, 0], [1, 1], 100, seed=42)
        assert np.array_equal(a.points, b.points)

    def test_inside_closed_box(self):
        m = init_uniform_box([-1, 0], [1, 2], 500, seed=7)
        assert np.all(m.points >= [-1, 0]) and np.all(m.points <= [1, 2])

    def test_sample_mean_statistics(self):
        hi = 8.0 / 60.0
        m = init_uniform_box([0, 0], [hi, hi], 1000, seed=3)
        sigma = hi / math.sqrt(12.0)
        tol = 4.0 * sigma / math.sqrt(1000)
        assert np.all(np.abs(mean(m) - hi / 2) < tol)

    def test_invalid_box(self):
        with pytest.raises(ValueError, match="coordinate 1"):
            init_uniform_box([0, 1], [1, 0], 3, seed=0)

    @pytest.mark.parametrize(
        "lo, hi", [([-1.5e308, 0], [1.5e308, 1]), ([0, -1e308], [1, 1e308]), ([0, 0], [np.inf, 1])]
    )
    def test_box_whose_width_is_not_finite_refused(self, lo, hi):
        # The subtraction that finds the overflow must not warn about it.
        with pytest.raises(ValueError, match="hi - lo must be finite"):
            init_uniform_box(lo, hi, 3, seed=0)


class TestParticleCsv:
    def test_round_trip_bytes(self, tmp_path):
        rng = np.random.default_rng(13)
        m = ParticleMeasure(rng.normal(size=(37, 3)) * 1e-7)
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        measures.write_particles_csv(m, p1)
        again = measures.read_particles_csv(p1)
        assert np.array_equal(m.points, again.points)
        measures.write_particles_csv(again, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_and_order(self, tmp_path):
        m = cloud((1.0, 2.0), (3.0, 4.0))
        path = tmp_path / "m.csv"
        measures.write_particles_csv(m, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x1,x2"
        assert lines[1] == "1.0,2.0"

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError, match="empty"):
            measures.read_particles_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(DataError, match="header"):
            measures.read_particles_csv(path)

    def test_cloud_of_another_dimension_rejected_naming_the_file(self, tmp_path):
        path = tmp_path / "line.csv"
        measures.write_particles_csv(cloud((0.1,), (0.2,)), path)
        assert measures.read_particles_csv(path, 1).d == 1
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: particle dimension is 1, expected 2$"):
            measures.read_particles_csv(path, 2)


class TestStreams:
    def test_substream_order_independent(self):
        a = measures.substream(5, 1, 3).normal(size=4)
        _ = measures.substream(5, 2, 9).normal(size=100)
        b = measures.substream(5, 1, 3).normal(size=4)
        assert np.array_equal(a, b)

    def test_distinct_keys_differ(self):
        a = measures.substream(5, 1).normal(size=4)
        b = measures.substream(5, 2).normal(size=4)
        assert not np.array_equal(a, b)

    def test_substreams_are_sfc64(self):
        assert type(measures.substream(0).bit_generator).__name__ == "SFC64"

    def test_purpose_keys_are_distinct(self):
        # One stream per purpose: two purposes with one key would draw the same bits.
        keys = {name: value for name, value in vars(measures).items() if name.endswith("_STREAM")}
        assert sorted(keys) == [
            "BOX_STREAM", "DAY_STREAM", "DIAGNOSE_SUBSAMPLE_STREAM", "PERTURB_STREAM",
            "TRACE_SUBSAMPLE_STREAM", "TRAJECTORY_STREAM",
        ]
        assert len(set(keys.values())) == len(keys)

    def test_rng_tag_names_every_purpose_key(self):
        # A checkpoint drawn under other purpose keys must not resume.
        keys = sorted(value for name, value in vars(measures).items() if name.endswith("_STREAM"))
        assert measures.RNG_TAG.startswith(f"{measures.BIT_GENERATOR} ")
        assert measures.RNG_TAG.endswith(", purposes " + " ".join(map(str, keys)))

    def test_substream_builds_the_named_generator_at_call_time(self, monkeypatch):
        monkeypatch.setattr(measures, "BIT_GENERATOR", "PCG64")
        assert type(measures.substream(0).bit_generator).__name__ == "PCG64"

    def test_spawn_seed_deterministic(self):
        assert measures.spawn_seed(7, 1, 2) == measures.spawn_seed(7, 1, 2)
        assert measures.spawn_seed(7, 1, 2) != measures.spawn_seed(7, 2, 1)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            measures.substream(-1)


def test_finite_number_returns_a_float_inside_its_bound():
    value = measures.finite_number(np.float32(0.5), "x", above=0)
    assert type(value) is float and value == 0.5
    assert measures.finite_number(0, "x", at_least=0) == 0.0
    assert measures.finite_number(-1e308, "x") == -1e308
    with pytest.raises(ValueError, match="^x must be finite and > 0$"):
        measures.finite_number(0.0, "x", above=0)
    with pytest.raises(ValueError, match=r"^x must be finite and >= -0\.5$"):
        measures.finite_number(-1.0, "x", at_least=-0.5)
    # Two bounds would leave the message naming one of them only.
    with pytest.raises(TypeError, match="^finite_number takes one bound: above or at_least$"):
        measures.finite_number(1.0, "x", above=0, at_least=2)


@pytest.mark.parametrize("value", [3, np.int64(3), 3.0, np.float32(3.0)], ids=repr)
def test_whole_number_accepts_an_integer_or_an_integral_float_as_its_int(value):
    got = measures.whole_number(value, "x", at_least=0)
    assert type(got) is int and got == 3


def test_whole_number_keeps_a_large_int_exact():
    assert measures.whole_number(2**100 + 1, "x") == 2**100 + 1


@pytest.mark.parametrize(
    "value, at_least, message",
    [
        (2.5, None, "x must be a whole number"),
        (True, None, "x must be a whole number"),
        (np.True_, None, "x must be a whole number"),
        ("3", None, "x must be a whole number"),
        (math.nan, None, "x must be a whole number"),
        (math.inf, None, "x must be a whole number"),
        (-math.inf, None, "x must be a whole number"),
        (10**400, None, "x must be a whole number"),
        (-1, 0, "x must be a whole number >= 0"),
        (0.0, 1, "x must be a whole number >= 1"),
    ],
    ids=["fraction", "bool", "numpy-bool", "str", "nan", "inf", "-inf", "huge-int", "below-0",
         "below-1"],
)
def test_whole_number_refuses_anything_else_with_one_message(value, at_least, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        measures.whole_number(value, "x", at_least=at_least)


@given(st.floats(allow_nan=True, allow_infinity=True))
def test_whole_number_accepts_a_float_exactly_when_it_is_finite_and_integral(value):
    try:
        got = measures.whole_number(value, "x")
    except ValueError:
        assert not (math.isfinite(value) and value == math.floor(value))
    else:
        assert math.isfinite(value) and got == value and type(got) is int


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: measures.spawn_seed(-1), "seed must be a whole number >= 0"),
        (lambda: init_uniform_box([0, 0], [1, 1], 0, seed=0), "particle count n must be a whole number >= 1"),
        (lambda: init_uniform_box([0, 0, 0], [[1, 1, 1]], 3, seed=0),
         "hi must be a finite vector of length 3"),
        (lambda: init_uniform_box([0], [1, 1], 3, seed=0), "hi must be a finite vector of length 1"),
        (lambda: init_uniform_box([0, 0], [1, 1, 1], 3, seed=0), "hi must be a finite vector of length 2"),
        (lambda: init_uniform_box([0, math.nan], [1, 1], 3, seed=0), "lo must be a finite vector"),
    ],
    ids=["spawn_seed", "no-particles", "hi-not-a-vector", "hi-length", "hi-longer", "lo-not-finite"],
)
def test_argument_out_of_contract_is_refused_with_its_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize(
    "value",
    [math.inf, -math.inf, math.nan, np.float64(math.inf), np.float64(math.nan),
     np.array([0.5, math.inf]), np.array(math.nan)],
    ids=["inf", "-inf", "nan", "float64-inf", "float64-nan", "array", "0-d-array"],
)
def test_finite_result_refuses_a_float_or_an_array_with_one_message(value):
    # A float takes math.isfinite, an array np.isfinite: the same message.
    with pytest.raises(NumericalError, match=r"^the sum is not finite: too large$"):
        measures.finite_result(value, "the sum", "too large")
    with pytest.raises(NumericalError, match=r"^the sum is not finite$"):
        measures.finite_result(value, "the sum")


@pytest.mark.parametrize("value", [0.0, -1.7e308, 5e-324, np.float64(2.5), np.array([0.5, -1e308])])
def test_finite_result_returns_a_finite_value_itself(value):
    assert measures.finite_result(value, "the sum") is value
