"""Closed convex constraint sets with closed-form Euclidean projections.

Only variants whose projection has a closed form are provided, which keeps
the cost of projecting an ``N``-particle cloud at ``O(N d)``.  Point and
measure projections are pure (``project_points`` can also write in place);
projecting twice is a strict no-op.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError
from .measures import ParticleMeasure, finite_number, frozen_vector, same_size, whole_number

# Relative slack for "already inside" tests.  It absorbs the rounding of a
# freshly projected point, making repeated projection exactly idempotent.
_SNAP = 1e-13


class ConvexSet:
    """A closed convex subset of R^d with an exact nearest-point map.

    A kind defines ``_project_in_place``; ``kind`` and the dataclass fields
    form the record :func:`convex_set_from_config` reads.
    """

    kind = ""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # Each kind holds project_points in its own namespace, so wrapping
        # one kind's method (to instrument it) leaves the others alone.
        cls.project_points = ConvexSet.project_points

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def project_points(self, pts: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Project each row of ``pts`` onto the set.

        Without ``out`` the result is a new array of the same shape and
        memory layout, and ``pts`` is not modified.  With ``out=pts`` the
        points are projected in place and ``pts`` is returned.
        """
        pts = np.asarray(pts, dtype=float)
        same_size(pts.shape[1:], (self.dim,), "shape of each point")
        if out is None:
            out = pts.copy(order="K")
        elif out is not pts:
            raise ValueError("out must be None or the points array itself")
        self._project_in_place(out)
        return out

    def _project_in_place(self, pts: np.ndarray) -> None:
        raise NotImplementedError

    def record(self) -> dict:
        """The tagged record :func:`convex_set_from_config` builds this set from."""
        rec = {"kind": self.kind}
        for f in fields(self):
            value = getattr(self, f.name)
            rec[f.name] = value.tolist() if isinstance(value, np.ndarray) else value
        return rec


@dataclass(frozen=True, eq=False)
class Box(ConvexSet):
    """Axis-aligned box ``{x : lo <= x <= hi}``."""

    kind = "box"
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = frozen_vector(self.lo, "box bound lo")
        hi = frozen_vector(self.hi, "box bound hi", lo.size)
        if np.any(lo > hi):
            j = int(np.flatnonzero(lo > hi)[0])
            raise ValueError(f"invalid box: lo > hi in coordinate {j}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.size

    def _project_in_place(self, pts):
        np.clip(pts, self.lo, self.hi, out=pts)


@dataclass(frozen=True, eq=False)
class NonnegativeOrthant(ConvexSet):
    """The orthant ``{x : x >= 0}``."""

    kind = "nonneg_orthant"
    d: int

    def __post_init__(self):
        object.__setattr__(self, "d", whole_number(self.d, "dimension d", at_least=1))

    @property
    def dim(self) -> int:
        return self.d

    def _project_in_place(self, pts):
        np.maximum(pts, 0.0, out=pts)


@dataclass(frozen=True, eq=False)
class Halfspace(ConvexSet):
    """Halfspace ``{x : a . x <= b}``; ``a . a`` must be a normal float and ``b`` finite."""

    kind = "halfspace"
    a: np.ndarray
    b: float

    def __post_init__(self):
        a = frozen_vector(self.a, "halfspace normal a")
        b = finite_number(self.b, "halfspace offset b")
        norm = math.hypot(*a)
        # Projecting divides by |a|: refuse a squared norm that underflows
        # below the normal floats, or overflows.
        if not np.finfo(float).tiny <= norm * norm < math.inf:
            raise ValueError("halfspace normal must have a squared norm that is a normal float")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "_a_norm", norm)
        object.__setattr__(self, "_unit", a / norm)

    @property
    def dim(self) -> int:
        return self.a.size

    def _project_in_place(self, pts):
        # a.x - b and its magnitude scale, accumulated coordinate by
        # coordinate: elementwise, so a point gets the same bits in any batch.
        t = np.full(pts.shape[0], -self.b)
        s = np.full(pts.shape[0], abs(self.b))
        for j in range(self.dim):
            c = pts[:, j] * self.a[j]
            t = t + c
            s = s + np.abs(c)
        mask = t > _SNAP * s
        if mask.any():
            # Along the unit normal: t / |a|^2 overflows for a short normal.
            shift = t[mask] / self._a_norm
            pts[mask] = pts[mask] - shift[:, None] * self._unit[None, :]


@dataclass(frozen=True, eq=False)
class Ball(ConvexSet):
    """Euclidean ball ``{x : ||x - center|| <= radius}``."""

    kind = "ball"
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", frozen_vector(self.center, "ball center"))
        object.__setattr__(self, "radius", finite_number(self.radius, "ball radius", at_least=0))

    @property
    def dim(self) -> int:
        return self.center.size

    def _project_in_place(self, pts):
        r2 = np.zeros(pts.shape[0])
        for j in range(self.dim):
            diff = pts[:, j] - self.center[j]
            r2 = r2 + diff * diff
        dist = np.sqrt(r2)
        mask = dist > self.radius * (1.0 + _SNAP)
        if mask.any():
            scale = self.radius / dist[mask]
            pts[mask] = self.center[None, :] + scale[:, None] * (pts[mask] - self.center[None, :])


@dataclass(frozen=True, eq=False)
class FullSpace(ConvexSet):
    """All of R^d (no constraint)."""

    kind = "all"
    d: int

    def __post_init__(self):
        object.__setattr__(self, "d", whole_number(self.d, "dimension d", at_least=1))

    @property
    def dim(self) -> int:
        return self.d

    def _project_in_place(self, pts):
        pass


def project_measure(s: ConvexSet, m: ParticleMeasure) -> ParticleMeasure:
    """Project every particle of ``m`` onto ``s``.

    This realizes the Wasserstein-nearest measure supported in ``s``:
    projecting particles individually is optimal, and the operation is
    idempotent.
    """
    return ParticleMeasure(s.project_points(m.points))


_KINDS = {cls.kind: cls for cls in (Box, NonnegativeOrthant, Halfspace, Ball, FullSpace)}


def convex_set_from_config(record: dict) -> ConvexSet:
    """Build a set from a tagged record, e.g. ``{"kind": "nonneg_orthant", "d": 2}``.

    Kinds: ``box`` (lo, hi), ``nonneg_orthant`` (d), ``halfspace`` (a, b),
    ``ball`` (center, radius), ``all`` (d).
    """
    if not isinstance(record, dict) or "kind" not in record:
        raise ConfigError("constraint must be a record with a 'kind' field")
    kind = record["kind"]
    cls = _KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ConfigError(f"unknown constraint kind '{kind}'")
    try:
        return cls(*(record[f.name] for f in fields(cls)))
    except KeyError as exc:
        raise ConfigError(f"constraint kind '{kind}' is missing field {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"invalid constraint parameters: {exc}") from None
