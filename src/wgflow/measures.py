"""Equal-weight particle measures on R^d and their basic statistics.

A measure is represented by the positions of ``N`` equally weighted
particles (an empirical measure, weight ``1/N`` each).  Measures are
immutable after construction and every operation here is pure, so values
can be shared freely across threads.
"""

from __future__ import annotations

import math

import numpy as np

from . import files
from .errors import DataError

# Spawn-key tag for the uniform-box sampler, keeping its draws disjoint
# from every other stream derived from the same seed.
_BOX_STREAM = 11


def substream(seed: int, *key: int) -> np.random.Generator:
    """Deterministic random generator for ``(seed, *key)``.

    Streams with distinct keys are statistically independent and do not
    depend on the order in which they are created, so callers may consume
    them in any schedule (including concurrently) with reproducible
    results.
    """
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def spawn_seed(seed: int, *key: int) -> int:
    """Derive a child integer seed from ``(seed, *key)``, deterministically."""
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    state = np.random.SeedSequence(seed, spawn_key=key).generate_state(2, np.uint32)
    return int(state[0]) * (1 << 32) + int(state[1])


class ParticleMeasure:
    """Uniformly weighted empirical measure ``(1/N) sum_i delta_{x_i}``.

    Parameters
    ----------
    points : array-like, shape (N, d)
        Particle positions; every coordinate must be finite and ``N >= 1``,
        ``d >= 1``.  The array is copied (row-major) and frozen.
    """

    __slots__ = ("_points",)

    def __init__(self, points):
        pts = np.array(points, dtype=float, order="C")
        if pts.ndim != 2:
            raise ValueError(
                f"points must form a 2-d array of shape (N, d), got ndim={pts.ndim}"
            )
        if pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError(f"need N >= 1 and d >= 1, got shape {pts.shape}")
        finite_rows = np.isfinite(pts).all(axis=1)
        if not finite_rows.all():
            bad = int(np.flatnonzero(~finite_rows)[0])
            raise ValueError(f"non-finite coordinate in particle {bad}")
        pts.setflags(write=False)
        self._points = pts

    @property
    def points(self) -> np.ndarray:
        """Read-only ``(N, d)`` array of particle positions."""
        return self._points

    @property
    def n(self) -> int:
        return self._points.shape[0]

    @property
    def d(self) -> int:
        return self._points.shape[1]

    def __repr__(self) -> str:
        return f"ParticleMeasure(n={self.n}, d={self.d})"


def mean(m: ParticleMeasure) -> np.ndarray:
    """Particle average, a ``(d,)`` vector."""
    return m.points.mean(axis=0)


def covariance(m: ParticleMeasure) -> np.ndarray:
    """Population covariance matrix (divisor ``N``), symmetrized."""
    centered = m.points - m.points.mean(axis=0)
    s = centered.T @ centered / m.n
    return (s + s.T) / 2.0


def nearest_rank_index(n: int, p: float) -> int:
    """Position of the nearest-rank ``p``-quantile in ``n`` sorted values.

    The 1-based rank is ``ceil(p * n)``, clamped to ``[1, n]`` (``p = 0``
    maps to the minimum); the result is that rank minus one.
    """
    t = p * n
    # Guard against float products landing a hair above an integer rank.
    k = int(round(t)) if abs(t - round(t)) < 1e-9 else int(math.ceil(t))
    return min(max(k, 1), n) - 1


def init_uniform_box(lo, hi, n: int, seed: int) -> ParticleMeasure:
    """Draw ``n`` i.i.d. uniform particles in the closed box ``[lo, hi]``.

    Deterministic for a fixed seed; a degenerate box (``lo == hi``) yields
    identical particles.
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    if lo.ndim != 1 or lo.shape != hi.shape:
        raise ValueError("lo and hi must be vectors of equal length")
    if n < 1:
        raise ValueError("need at least one particle")
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ValueError("box bounds must be finite")
    if np.any(lo > hi):
        j = int(np.flatnonzero(lo > hi)[0])
        raise ValueError(f"invalid box: lo > hi in coordinate {j}")
    rng = substream(seed, _BOX_STREAM)
    pts = rng.uniform(lo, hi, size=(n, lo.size))
    return ParticleMeasure(pts)


def write_particles_csv(m: ParticleMeasure, path) -> None:
    """Write a particle checkpoint: header ``x1,...,xd``, one row per
    particle in particle order, full round-trip precision."""
    files.write_table(path, [f"x{j + 1}" for j in range(m.d)], m.points.tolist())


def read_particles_csv(path) -> ParticleMeasure:
    """Read a particle checkpoint written by :func:`write_particles_csv`."""
    rows = files.read_table(
        path, "particle file", lambda h: h == [f"x{j + 1}" for j in range(len(h))]
    )
    points = files.float_rows(path, rows)
    try:
        return ParticleMeasure(points)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None
