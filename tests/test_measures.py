import math

import numpy as np
import pytest

from wgflow import measures
from wgflow.errors import DataError
from wgflow.measures import (
    ParticleMeasure,
    covariance,
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

    def test_spawn_seed_deterministic(self):
        assert measures.spawn_seed(7, 1, 2) == measures.spawn_seed(7, 1, 2)
        assert measures.spawn_seed(7, 1, 2) != measures.spawn_seed(7, 2, 1)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            measures.substream(-1)
