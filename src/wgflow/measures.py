"""Equal-weight particle measures on R^d and their basic statistics.

A measure is represented by the positions of ``N`` equally weighted
particles (an empirical measure, weight ``1/N`` each).  Measures are
immutable after construction and every operation here is pure, so values
can be shared freely across threads.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from . import files
from .errors import DataError, NumericalError

# The first spawn key of each purpose that draws from a run's seed, and
# its user.  The values are distinct, so no two purposes share a stream.
BOX_STREAM = 11  # init_uniform_box
PERTURB_STREAM = 21  # flow.run's perturbation, keyed by iteration
TRACE_SUBSAMPLE_STREAM = 22  # flow.run's trace rows
TRAJECTORY_STREAM = 31  # pdm.simulate_trajectory
DAY_STREAM = 41  # pdm.daily_observations, keyed by day
DIAGNOSE_SUBSAMPLE_STREAM = 61  # cli.cmd_diagnose

# The bit generator behind every draw, and the tag a checkpoint sidecar
# records for it and for every purpose above (flow.checkpoint_fields).
BIT_GENERATOR = "SFC64"
RNG_TAG = f"{BIT_GENERATOR} substreams keyed by (seed, purpose, iteration), purposes " + " ".join(
    str(key) for name, key in globals().items() if name.endswith("_STREAM"))


def substream(seed: int, *key: int) -> np.random.Generator:
    """Deterministic :data:`BIT_GENERATOR` generator for ``(seed, *key)``.

    The key is the ``SeedSequence`` spawn key, so streams with distinct
    keys are statistically independent and do not depend on the order in
    which they are created: callers may consume them in any schedule
    (including concurrently) with reproducible results.  The first entry
    of every key the package draws from names its purpose:

    ===  =============================  ======================================
    key  constant                       drawn by
    ===  =============================  ======================================
    11   ``BOX_STREAM``                 :func:`init_uniform_box`
    21   ``PERTURB_STREAM``             ``flow.run``'s noise, then iteration
    22   ``TRACE_SUBSAMPLE_STREAM``     ``flow.run``'s trace rows
    31   ``TRAJECTORY_STREAM``          ``pdm.simulate_trajectory``
    41   ``DAY_STREAM``                 ``pdm.daily_observations``, then day
    61   ``DIAGNOSE_SUBSAMPLE_STREAM``  ``cli.cmd_diagnose``
    ===  =============================  ======================================

    NumPy does not promise the same bits across its versions, so a
    checkpoint sidecar records :data:`RNG_TAG` (the generator and every
    purpose key) and ``np.__version__`` (``flow.checkpoint_fields``), and a
    resume under any of them changed is refused.
    """
    seed = whole_number(seed, "seed", at_least=0)
    bits = getattr(np.random, BIT_GENERATOR)(np.random.SeedSequence(seed, spawn_key=key))
    return np.random.Generator(bits)


def spawn_seed(seed: int, *key: int) -> int:
    """Derive a child integer seed from ``(seed, *key)``, deterministically."""
    seed = whole_number(seed, "seed", at_least=0)
    state = np.random.SeedSequence(seed, spawn_key=key).generate_state(2, np.uint32)
    return int(state[0]) * (1 << 32) + int(state[1])


def _real(value) -> bool:
    # The one test of a number for the intakes below: a finite Python or
    # NumPy float, or a Python or NumPy int (not a bool) within a float's range.
    if isinstance(value, (float, np.floating)):
        return math.isfinite(value)
    return (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and abs(int(value)) <= sys.float_info.max)


def frozen_vector(value, what: str, size: int | None = None) -> np.ndarray:
    """A read-only float copy of ``value``, which must be a 1-d vector of
    finite numbers (of length ``size`` when given), no bool or text;
    anything else is refused with one ``ValueError``, ``<what> must be a
    finite vector`` (``... of length <size>``)."""
    v = np.array(value, dtype=object, ndmin=1)
    if v.ndim != 1 or (size is not None and v.size != size) or not all(map(_real, v)):
        length = "" if size is None else f" of length {size}"
        raise ValueError(f"{what} must be a finite vector{length}")
    v = v.astype(float)
    v.setflags(write=False)
    return v


def finite_number(value, what: str, above=None, at_least=None) -> float:
    """``float(value)``, which must be a finite number, not a bool or text,
    and, when given, ``> above`` or ``>= at_least`` (one bound at most);
    anything else is refused with one ``ValueError``, ``<what> must be
    finite`` (``... and > <above>``, ``... and >= <at_least>``)."""
    if above is not None and at_least is not None:
        raise TypeError("finite_number takes one bound: above or at_least")
    v = float(value) if _real(value) else math.nan
    if math.isfinite(v) and (above is None or v > above) and (at_least is None or v >= at_least):
        return v
    bound = f" and > {above}" if above is not None else "" if at_least is None else f" and >= {at_least}"
    raise ValueError(f"{what} must be finite{bound}")


def whole_number(value, what: str, at_least=None) -> int:
    """``value`` as an exact ``int``: a Python or NumPy integer (not a
    bool) or a finite float with no fractional part, within a float's
    range and, when given, ``>= at_least``; anything else is refused with
    one ``ValueError``, ``<what> must be a whole number`` (``... >=
    <at_least>``)."""
    value = int(value) if _real(value) and float(value).is_integer() else None
    if value is not None and (at_least is None or value >= at_least):
        return value
    bound = "" if at_least is None else f" >= {at_least}"
    raise ValueError(f"{what} must be a whole number{bound}")


def same_size(got, want, what: str) -> None:
    """Refuse ``got != want``, two sizes or two shape tuples that must
    agree, with one ``ValueError``: ``<what> is <got>, expected <want>``."""
    if got != want:
        raise ValueError(f"{what} is {got}, expected {want}")


def finite_result(value, what: str, cause: str | None = None):
    """``value``, a computed float or array, when every entry is finite;
    otherwise one ``NumericalError``: ``<what> is not finite``, followed by
    ``: <cause>`` when given.  A ``float`` (``np.float64`` included) is
    tested by ``math.isfinite``, without the array path's overhead."""
    if math.isfinite(value) if isinstance(value, float) else np.isfinite(value).all():
        return value
    raise NumericalError(f"{what} is not finite" + ("" if cause is None else f": {cause}"))


class Fixed:
    """Base of the read-only value objects: ``__init__`` sets each attribute
    (a slot of the subclass) once, and after that rebinding or deleting one
    raises ``AttributeError``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        if hasattr(self, name):
            raise AttributeError(f"cannot assign to field '{name}'")
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field '{name}'")


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
    """Population covariance (divisor ``N``): ``c.T @ c``, exactly symmetric, of the centred
    cloud scaled by ``1/sqrt(N)`` first, so that it overflows only where its entries do."""
    c = (m.points - m.points.mean(axis=0)) / math.sqrt(m.n)
    return c.T @ c


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
    n = whole_number(n, "particle count n", at_least=1)
    lo = frozen_vector(lo, "lo")
    # Before hi's own check, so a non-finite hi is refused as a non-finite width.
    with np.errstate(over="ignore", invalid="ignore"):
        if np.shape(hi) == lo.shape and not np.isfinite(np.subtract(hi, lo)).all():
            raise ValueError("box bounds and their widths hi - lo must be finite")
    hi = frozen_vector(hi, "hi", lo.size)
    if np.any(lo > hi):
        j = int(np.flatnonzero(lo > hi)[0])
        raise ValueError(f"invalid box: lo > hi in coordinate {j}")
    rng = substream(seed, BOX_STREAM)
    pts = rng.uniform(lo, hi, size=(n, lo.size))
    return ParticleMeasure(pts)


def write_particles_csv(m: ParticleMeasure, path) -> None:
    """Write a particle checkpoint: header ``x1,...,xd``, one row per
    particle in particle order, full round-trip precision."""
    files.write_table(path, [f"x{j + 1}" for j in range(m.d)], m.points.tolist())


def read_particles_csv(path, d: int | None = None) -> ParticleMeasure:
    """Read a particle checkpoint written by :func:`write_particles_csv`; a file
    of no valid cloud, or of a dimension other than ``d``, raises :class:`DataError`."""
    points = files.read_table(
        path, "particle file", lambda h: h == [f"x{j + 1}" for j in range(len(h))]
    )
    try:
        m = ParticleMeasure(points)
        if d is not None:
            same_size(m.d, d, "particle dimension")
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None
    return m
