import itertools
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from _oracles import inside
from wgflow import sets, transport
from wgflow.errors import ConfigError
from wgflow.measures import ParticleMeasure
from wgflow.sets import (
    Ball,
    Box,
    ConvexSet,
    FullSpace,
    Halfspace,
    NonnegativeOrthant,
    convex_set_from_config,
    project_measure,
)


def all_variants():
    return [
        Box([-1.0, -0.5], [1.0, 2.0]),
        NonnegativeOrthant(2),
        Halfspace([1.0, -2.0], 0.5),
        Ball([0.3, -0.2], 1.5),
        FullSpace(2),
    ]


class TestPointProjection:
    def test_orthant_clamps_negatives(self):
        got = NonnegativeOrthant(2).project_points(np.array([[-1.0, 2.0]]))[0]
        assert np.array_equal(got, [0.0, 2.0])

    def test_ball_radial_scaling(self):
        got = Ball([0.0, 0.0], 1.0).project_points(np.array([[3.0, 4.0]]))[0]
        assert np.allclose(got, [0.6, 0.8], rtol=1e-14)

    def test_halfspace_closed_form(self):
        got = Halfspace([1.0, 0.0], 0.0).project_points(np.array([[2.0, 5.0]]))[0]
        assert np.allclose(got, [0.0, 5.0], rtol=0, atol=1e-14)

    def test_inside_point_returned_unchanged(self):
        for s in all_variants():
            x = np.array([0.1, 0.2])
            assert inside(s, x)
            assert np.array_equal(s.project_points(x[None, :])[0], x)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            NonnegativeOrthant(2).project_points(np.array([[1.0, 2.0, 3.0]]))

    def test_idempotent_exactly(self):
        rng = np.random.default_rng(21)
        for s in all_variants():
            xs = rng.normal(scale=3.0, size=(200, 2))
            once = s.project_points(xs)
            twice = s.project_points(once)
            assert np.array_equal(once, twice)

    def test_membership_within_tolerance(self):
        rng = np.random.default_rng(22)
        for s in all_variants():
            for x in rng.normal(scale=5.0, size=(100, 2)):
                assert inside(s, s.project_points(x[None, :])[0], tol=1e-12)

    def test_nonexpansive(self):
        rng = np.random.default_rng(23)
        for s in all_variants():
            xs = rng.normal(scale=4.0, size=(1000, 2))
            ys = rng.normal(scale=4.0, size=(1000, 2))
            px = s.project_points(xs)
            py = s.project_points(ys)
            lhs = np.linalg.norm(px - py, axis=1)
            rhs = np.linalg.norm(xs - ys, axis=1)
            assert np.all(lhs <= rhs + 1e-12)


class TestMeasureProjection:
    def test_supported_measure_unchanged(self):
        m = ParticleMeasure(np.array([[0.5, 0.5], [1.0, 2.0]]))
        out = project_measure(NonnegativeOrthant(2), m)
        assert np.array_equal(out.points, m.points)

    def test_per_particle_clamp(self):
        m = ParticleMeasure(np.array([[-1.0, -1.0], [1.0, 1.0]]))
        out = project_measure(NonnegativeOrthant(2), m)
        assert np.array_equal(out.points, np.array([[0.0, 0.0], [1.0, 1.0]]))

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        m = ParticleMeasure(rng.normal(size=(50, 2)))
        for s in all_variants():
            once = project_measure(s, m)
            twice = project_measure(s, once)
            assert np.array_equal(once.points, twice.points)

    def test_optimal_among_feasible_candidates(self):
        # The particlewise projection must beat both perturbed-map
        # projections and independently sampled feasible clouds.
        rng = np.random.default_rng(77)
        for s in [Box([-1.0, -0.5], [1.0, 2.0]), NonnegativeOrthant(2),
                  Halfspace([1.0, -2.0], 0.5), Ball([0.3, -0.2], 1.5)]:
            m = ParticleMeasure(rng.normal(scale=2.0, size=(24, 2)))
            proj = project_measure(s, m)
            base, _ = transport.w2_exact(m, proj)
            for _ in range(20):
                noise = rng.normal(scale=rng.uniform(0.01, 1.0), size=(24, 2))
                perturbed = ParticleMeasure(s.project_points(m.points + noise))
                sampled = ParticleMeasure(s.project_points(rng.normal(scale=2.0, size=(24, 2))))
                for candidate in (perturbed, sampled):
                    dist, _ = transport.w2_exact(m, candidate)
                    assert base <= dist + 1e-9


class TestValidation:
    def test_box_bad_bounds(self):
        with pytest.raises(ValueError, match="coordinate 0"):
            Box([1.0, 0.0], [0.0, 1.0])

    def test_halfspace_zero_normal(self):
        with pytest.raises(ValueError):
            Halfspace([0.0, 0.0], 1.0)

    @pytest.mark.parametrize(
        "a",
        [[1.2e-163], [1e-155], [1e-170, 1e-170], [1e200], [1e200, 0.0], [1e160, 1e160]],
        ids=["square-0", "square-subnormal", "square-0-2d", "square-inf", "square-inf-2d", "sum-inf"],
    )
    def test_halfspace_normal_whose_square_is_not_a_normal_float(self, a):
        # 1/(a.a) would be inf (projecting to -inf) or a.a would be inf
        # (leaving outside points where they are).
        with pytest.raises(ValueError, match="normal"):
            Halfspace(a, -1.0)

    def test_halfspace_short_normal_projects_far_and_finite(self):
        # a.a = 2.56e-308 is a normal float, but 8 / (a.a) overflows; the
        # nearest point of {1.6e-154 x <= -8} to 0 is -8 / 1.6e-154 = -5e154.
        got = Halfspace([1.6e-154], -8.0).project_points(np.array([[0.0]]))[0]
        assert got[0] == pytest.approx(-5e154, rel=1e-15)

    def test_ball_negative_radius(self):
        with pytest.raises(ValueError):
            Ball([0.0], -0.1)

    def test_orthant_bad_dim(self):
        with pytest.raises(ValueError):
            NonnegativeOrthant(0)

    @pytest.mark.parametrize("kind", [NonnegativeOrthant, FullSpace])
    @pytest.mark.parametrize("d", [2.7, True], ids=["fraction", "bool"])
    def test_dimension_that_is_not_whole_refused_by_the_constructor(self, kind, d):
        with pytest.raises(ValueError, match="whole number"):
            kind(d)

    def test_zero_radius_ball_projects_to_center(self):
        got = Ball([1.0, 2.0], 0.0).project_points(np.array([[5.0, 5.0]]))[0]
        assert np.array_equal(got, [1.0, 2.0])


class TestConfigEncoding:
    def test_all_kinds(self):
        records = [
            {"kind": "box", "lo": [0, 0], "hi": [1, 1]},
            {"kind": "nonneg_orthant", "d": 2},
            {"kind": "halfspace", "a": [1, 0], "b": 1.0},
            {"kind": "ball", "center": [0, 0], "radius": 2.0},
            {"kind": "all", "d": 3},
        ]
        for record in records:
            s = convex_set_from_config(record)
            assert isinstance(s, ConvexSet)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown"):
            convex_set_from_config({"kind": "simplex"})

    def test_missing_field(self):
        with pytest.raises(ConfigError):
            convex_set_from_config({"kind": "ball", "center": [0, 0]})

    def test_field_the_kind_does_not_take(self):
        record = {"kind": "box", "lo": [0, 0], "hi": [1, 1], "hii": [0.01, 0.01]}
        with pytest.raises(ConfigError, match="^constraint kind 'box' has no field 'hii'$"):
            convex_set_from_config(record)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigError):
            convex_set_from_config({"kind": "box", "lo": [1], "hi": [0]})

    @pytest.mark.parametrize("kind", ["nonneg_orthant", "all"])
    @pytest.mark.parametrize(
        "d", [2.7, True, float("inf"), 10**400], ids=["fraction", "bool", "inf", "huge-int"]
    )
    def test_dimension_that_is_not_whole_refused(self, kind, d):
        with pytest.raises(ConfigError, match="invalid constraint parameters"):
            convex_set_from_config({"kind": kind, "d": d})

    @pytest.mark.parametrize("kind", ["nonneg_orthant", "all"])
    def test_dimension_given_as_text_refused(self, kind):
        message = "invalid constraint parameters: dimension d must be a whole number >= 1"
        with pytest.raises(ConfigError, match=f"^{message}$"):
            convex_set_from_config({"kind": kind, "d": "2"})

    @pytest.mark.parametrize("kind", ["nonneg_orthant", "all"])
    @pytest.mark.parametrize("d", [2, 2.0])
    def test_whole_dimension_builds(self, kind, d):
        s = convex_set_from_config({"kind": kind, "d": d})
        assert s.dim == 2 and type(s.d) is int


# JSON-like field values: bools, null, text, objects, nested and ragged
# lists, an integer beyond a float's range, nan and both infinities,
# beside numbers and vectors that some field takes.
_JSON_FIELDS = [
    True, False, None, "text", "2", {}, {"d": 2}, [], [[]], [[1, 2], [3, 4]], [[1], [2, 3]], [1, [2]],
    10**400, math.nan, math.inf, -math.inf, 0, 1, 2, 2.0, -1, 0.5,
    [0, 0], [1, 1], [0.5, 2.0], [True, 1], ["1", 2], [None, 0], [math.nan, 0], [math.inf, 0], [10**400, 0],
]


@pytest.mark.parametrize("kind", sorted(sets._KINDS))
def test_json_field_values_build_or_raise_config_error_alone(kind):
    names = sets._KINDS[kind].fields
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for values in itertools.product(_JSON_FIELDS, repeat=len(names)):
            try:
                convex_set_from_config({"kind": kind, **dict(zip(names, values))})
            except ConfigError:
                pass


def _kind_ids():
    return [s.kind for s in all_variants()]


@st.composite
def clouds(draw, n=None):
    """A (n, 2) cloud, row- or column-major, spread over every variant's
    inside and outside."""
    n = draw(st.integers(1, 12)) if n is None else n
    values = arrays(float, (n, 2), elements=st.floats(-4.0, 4.0, allow_subnormal=False))
    return np.asarray(draw(values), order=draw(st.sampled_from("CF")))


class TestProjectPointsProperties:
    @pytest.mark.parametrize("s", all_variants(), ids=_kind_ids())
    @given(p=clouds())
    def test_copying_projection_keeps_input_shape_and_layout(self, s, p):
        before = p.copy(order="K")
        got = s.project_points(p)
        assert got is not p and not np.shares_memory(got, p)
        assert np.array_equal(p, before)
        assert got.shape == p.shape
        assert (got.flags.c_contiguous, got.flags.f_contiguous) == (
            p.flags.c_contiguous,
            p.flags.f_contiguous,
        )

    @pytest.mark.parametrize("s", all_variants(), ids=_kind_ids())
    @given(p=clouds())
    def test_in_place_projection_is_bit_identical(self, s, p):
        want = s.project_points(p)
        inplace = p.copy(order="K")
        assert s.project_points(inplace, out=inplace) is inplace
        assert inplace.tobytes() == want.tobytes()

    @pytest.mark.parametrize("s", all_variants(), ids=_kind_ids())
    @given(p=clouds())
    def test_idempotent(self, s, p):
        once = s.project_points(p)
        assert s.project_points(once).tobytes() == once.tobytes()
        assert all(inside(s, x) for x in once)

    @pytest.mark.parametrize("s", all_variants(), ids=_kind_ids())
    @given(pq=st.integers(1, 12).flatmap(lambda n: st.tuples(clouds(n), clouds(n))))
    def test_nonexpansive(self, s, pq):
        p, q = pq
        gap = np.linalg.norm(s.project_points(p) - s.project_points(q), axis=1)
        dist = np.linalg.norm(p - q, axis=1)
        # A point within the snap slack of the boundary stays where it is,
        # so two nearby points may end up up to that slack apart.
        assert np.all(gap <= dist * (1.0 + 1e-12) + 1e-11)

    def test_out_other_than_the_points_refused(self):
        # Same shape, another shape, another layout: only out=pts projects in place.
        pts = np.full((3, 2), -1.0)
        for out in (np.zeros((3, 2)), np.zeros((4, 2)), np.zeros((3, 2), order="F")):
            with pytest.raises(ValueError, match="out must be None or the points array itself"):
                NonnegativeOrthant(2).project_points(pts, out=out)
            assert np.all(pts == -1.0) and not out.any()

    @pytest.mark.parametrize("s", all_variants(), ids=_kind_ids())
    def test_record_rebuilds_the_set(self, s):
        rebuilt = convex_set_from_config(s.record())
        assert type(rebuilt) is type(s) and rebuilt.record() == s.record()


@st.composite
def convex_sets(draw):
    """A set of any of the five kinds, of dimension 1 to 3, with drawn parameters."""
    d = draw(st.integers(1, 3))
    vec = arrays(float, d, elements=st.floats(-4.0, 4.0, allow_subnormal=False))
    kind = draw(st.sampled_from([s.kind for s in all_variants()]))
    if kind == "box":
        ends = np.sort(np.stack([draw(vec), draw(vec)]), axis=0)
        return Box(ends[0], ends[1])
    if kind == "halfspace":
        a, b = draw(vec), draw(st.floats(-4.0, 4.0))
        try:
            return Halfspace(a, b)
        except ValueError:  # a normal whose squared norm is not a normal float
            assume(False)
    if kind == "ball":
        return Ball(draw(vec), draw(st.floats(0.0, 4.0)))
    return NonnegativeOrthant(d) if kind == "nonneg_orthant" else FullSpace(d)


class TestConfigRoundTrip:
    @given(data=st.data(), s=convex_sets())
    def test_record_rebuilds_the_same_set(self, data, s):
        # Through JSON, as a --constraint value reaches the parser.
        rebuilt = convex_set_from_config(json.loads(json.dumps(s.record())))
        assert type(rebuilt) is type(s) and rebuilt.record() == s.record()
        n = data.draw(st.integers(1, 8))
        p = data.draw(arrays(float, (n, s.dim), elements=st.floats(-8.0, 8.0)))
        assert rebuilt.project_points(p).tobytes() == s.project_points(p).tobytes()


class TestProjectionOptimality:
    @given(data=st.data(), s=convex_sets())
    def test_variational_inequality(self, data, s):
        # P(x) is the nearest point of the set to x exactly when
        # <x - P(x), z - P(x)> <= 0 for every z in the set; here z = P(w).
        # The slack covers rounding in P(x) and the snap slack of z.
        n = data.draw(st.integers(1, 8))
        points = arrays(float, (n, s.dim), elements=st.floats(-8.0, 8.0))
        x, w = data.draw(points), data.draw(points)
        px, z = s.project_points(x), s.project_points(w)
        inner = np.sum((x - px) * (z - px), axis=1)
        norm = lambda v: np.linalg.norm(v, axis=1)
        scale = norm(x - px) * (norm(x) + norm(px) + norm(z) + 1.0)
        assert np.all(inner <= 1e-12 * scale), np.max(inner / scale)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: Box([0.0, 0.0], [1.0]), ValueError, "box bound hi must be a finite vector of length 2"),
        (lambda: Ball([0.0, math.nan], 1.0), ValueError, "ball center must be a finite vector"),
        (lambda: convex_set_from_config(["box"]), ConfigError,
         "constraint must be a record with a 'kind' field"),
    ],
    ids=["box-lengths", "ball-center", "record-not-a-dict"],
)
def test_argument_out_of_contract_is_refused_with_its_message(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
