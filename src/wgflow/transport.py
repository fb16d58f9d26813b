"""Exact Wasserstein-2 distances between equal-size particle clouds.

For two equal-weight empirical measures with the same particle count, an
optimal coupling is induced by a permutation, so the squared distance is
the optimal value of an assignment problem over the squared-distance cost
matrix.  The assignment is solved exactly (no entropic smoothing); a hard
particle cap keeps the cubic solve affordable, and callers are expected to
subsample diagnostic clouds beyond it.

The cost matrix and the assignment come from scipy's compiled kernels
(``scipy.spatial._distance_pybind.cdist_sqeuclidean``, which
``cdist(..., "sqeuclidean")`` calls, and ``scipy.optimize._lsap``, which
``linear_sum_assignment`` is).  They are loaded from their files on first
use without running ``scipy.optimize``'s or ``scipy.spatial``'s package
imports, which cost a cold process more than the rest of this package and
the solve together.  A scipy that lays them out otherwise gets the public
functions, with the same results.

The module also provides the Bures distance between covariance matrices,
the moment-based (Gelbrich) lower bound on the Wasserstein distance and the
Lipschitz norm gap, all used by convergence diagnostics.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys

import numpy as np

from . import measures
from .errors import NumericalError
from .measures import ParticleMeasure, finite_result, same_size

#: Hard cap on particle count for the exact assignment solve.
MAX_EXACT_PARTICLES = 4096

# The cause named when a quantity of two clouds is not finite.
_TOO_LARGE = "the clouds' coordinates are too large"
# Eigenvalues are clamped at zero when taking matrix square roots; inputs
# are rejected only when they are indefinite beyond this tolerance.
_PSD_TOL = 1e-10


def check_subsample(cap: int, k: int) -> None:
    """Refuse to measure ``k`` particles, from ``diag_subsample`` ``cap``, above the cap."""
    if k > MAX_EXACT_PARTICLES:
        raise ValueError(
            f"diag_subsample {cap} would measure {k} particles, above the exact-solver cap "
            f"{MAX_EXACT_PARTICLES}; lower diag_subsample"
        )


def subsample(m: ParticleMeasure, k: int, seed: int, key: int) -> ParticleMeasure:
    """``m`` itself if it has ``k`` particles, else ``k`` of them in particle order,
    drawn without replacement from ``measures.substream(seed, key)``.

    Each call draws from a fresh stream: ``flow.run``'s trace rows (key
    ``measures.TRACE_SUBSAMPLE_STREAM``) take the same particles at every row,
    and ``diagnose`` (``measures.DIAGNOSE_SUBSAMPLE_STREAM``) the same
    positions of its two clouds."""
    if m.n == k:
        return m
    idx = measures.substream(seed, key).choice(m.n, k, replace=False)
    return ParticleMeasure(m.points[np.sort(idx)])


def w2_exact(m: ParticleMeasure, n: ParticleMeasure) -> tuple[float, np.ndarray]:
    """Exact Wasserstein-2 distance and an optimal matching.

    Parameters
    ----------
    m, n : ParticleMeasure
        Clouds with equal particle counts and dimensions,
        ``N <= MAX_EXACT_PARTICLES``.

    Returns
    -------
    (float, ndarray of int)
        Distance (square root of the optimal mean squared matching cost)
        and a minimizing permutation: the target index matched to each
        source particle, as the solver returns it, not checked again.

    Raises
    ------
    NumericalError
        If a squared distance is not finite.  Their mean never exceeds the
        largest, so it is computed without overflowing their sum.
    """
    same_size(n.n, m.n, "particle count of the second cloud (exact transport needs equal-size clouds)")
    same_size(n.d, m.d, "dimension of the second cloud")
    if m.n > MAX_EXACT_PARTICLES:
        raise ValueError(
            f"cloud size {m.n} exceeds the exact-solver cap {MAX_EXACT_PARTICLES}; "
            "subsample the clouds (e.g. 256 particles) before measuring"
        )
    sqeuclidean, linear_sum_assignment = _kernels()
    cost_matrix = sqeuclidean(m.points, n.points)
    # Squared distances of finite points are >= 0 or inf, so the largest is
    # finite exactly when every one is, and costs one pass without a mask.
    largest = finite_result(
        float(cost_matrix.max()), "a squared distance between two particles", _TOO_LARGE
    )
    rows, cols = linear_sum_assignment(cost_matrix)
    matched = cost_matrix[rows, cols]
    with np.errstate(over="ignore"):  # finite costs can still overflow their sum
        cost = float(matched.mean())
        if cost == math.inf:
            # Their mean never exceeds the largest: sum them divided by N,
            # which can round past it and, next to the float maximum, overflow.
            cost = min(float((matched / m.n).sum()), largest)
    return math.sqrt(cost), cols


@functools.cache
def _kernels():
    # (cost, assignment): the squared-distance matrix of two (N, d) float64
    # arrays and scipy's linear_sum_assignment.
    try:
        cost = _scipy_extension("spatial", "_distance_pybind").cdist_sqeuclidean
        assignment = _scipy_extension("optimize", "_lsap").linear_sum_assignment
    except (ImportError, AttributeError):
        from scipy.optimize import linear_sum_assignment
        from scipy.spatial.distance import cdist

        return functools.partial(cdist, metric="sqeuclidean"), linear_sum_assignment
    return cost, assignment


def _scipy_extension(package: str, name: str):
    # The compiled module scipy.<package>.<name>, executed from its file
    # without importing scipy or scipy.<package> (a Python module of that
    # name would import them through its relative imports, so it is not
    # loaded).  A single-phase extension enters itself in sys.modules as
    # it loads; that entry is taken out again unless scipy had made it.
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None:
        raise ImportError("scipy is not installed")
    full = f"scipy.{package}.{name}"
    dirs = [os.path.join(p, package) for p in scipy_spec.submodule_search_locations]
    spec = importlib.machinery.PathFinder.find_spec(full, dirs)
    if spec is None or not isinstance(spec.loader, importlib.machinery.ExtensionFileLoader):
        raise ImportError(f"no compiled {full}")
    entered = full not in sys.modules
    try:
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        if entered:
            sys.modules.pop(full, None)
    return module


def w2_1d(m: ParticleMeasure, n: ParticleMeasure) -> float:
    """Wasserstein-2 distance in one dimension via the sorted coupling.

    The monotone matching of sorted samples is optimal in 1-d, which makes
    this both a fast path and an independent check of the assignment solver.
    """
    same_size((m.d, n.d), (1, 1), "pair of dimensions (the sorted coupling is 1-d only)")
    same_size(n.n, m.n, "particle count of the second cloud")
    a = np.sort(m.points[:, 0])
    b = np.sort(n.points[:, 0])
    return math.sqrt(float(np.mean((a - b) ** 2)))


def _check_psd(s: np.ndarray, name: str) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"{name} must be a square matrix")
    finite_result(s, name)
    scale = float(np.abs(s).max()) if s.size else 0.0
    if not np.allclose(s, s.T, atol=_PSD_TOL * max(1.0, scale), rtol=0.0):
        raise NumericalError(f"{name} is not symmetric")
    w = np.linalg.eigvalsh((s + s.T) / 2.0)
    tol = _PSD_TOL * max(1.0, float(w[-1]) if w.size else 0.0)
    if w[0] < -tol:
        raise NumericalError(
            f"{name} is not positive semidefinite: most negative eigenvalue {w[0]:.6e}"
        )
    return (s + s.T) / 2.0


def _psd_sqrt(s: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(s)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.T


def bures_distance(s1: np.ndarray, s2: np.ndarray) -> float:
    """Bures distance between symmetric positive semidefinite matrices.

    ``d(S, S') = sqrt(tr(S + S' - 2 (S^{1/2} S' S^{1/2})^{1/2}))``.
    Square roots are taken by symmetric eigendecomposition with eigenvalues
    clamped at zero.
    """
    s1 = _check_psd(s1, "S1")
    s2 = _check_psd(s2, "S2")
    same_size(s2.shape, s1.shape, "S2 shape")
    r = _psd_sqrt(s1)
    inner = r @ s2 @ r
    cross = _psd_sqrt((inner + inner.T) / 2.0)
    val = float(np.trace(s1) + np.trace(s2) - 2.0 * np.trace(cross))
    # The trace difference cancels catastrophically for nearby inputs; a
    # squared value below the formula's own rounding floor is a true zero.
    floor = 1e-13 * max(1.0, float(np.trace(s1) + np.trace(s2)))
    if val < floor:
        return 0.0
    return math.sqrt(val)


def moment_gaps(m: ParticleMeasure, n: ParticleMeasure) -> tuple[float, float, float]:
    """Mean gap, covariances' Bures gap and the Gelbrich bound ``sqrt(mean_gap^2 +
    bures_gap^2)``, which never exceeds W2 and is tight for Diracs (and Gaussians);
    nan or inf, without NumPy warnings, where the moments overflow."""
    same_size(n.d, m.d, "dimension of the second cloud")
    with np.errstate(all="ignore"):
        mean_diff = measures.mean(m) - measures.mean(n)
        covs = measures.covariance(m), measures.covariance(n)
        bures_gap = bures_distance(*covs) if np.isfinite(covs).all() else math.nan
        bound = math.sqrt(float(mean_diff @ mean_diff) + bures_gap * bures_gap)
        return float(np.linalg.norm(mean_diff)), bures_gap, bound


def gelbrich_lower_bound(m: ParticleMeasure, n: ParticleMeasure) -> float:
    """The Gelbrich bound of :func:`moment_gaps`, refused if it is not finite."""
    return finite_result(moment_gaps(m, n)[2], "the Gelbrich bound", _TOO_LARGE)


def lipschitz_norm_gap(m: ParticleMeasure, ref: ParticleMeasure, phi) -> float:
    """Absolute gap between the empirical L2 norms of ``phi`` under two clouds of one dimension.

    For an ``L``-Lipschitz ``phi`` the gap is bounded by ``L`` times the
    Wasserstein distance between the clouds.  ``phi`` is called per particle;
    an overflowing square gives inf or nan, with no exception or NumPy warning.
    """
    same_size(ref.d, m.d, "dimension of the reference cloud")
    with np.errstate(over="ignore", invalid="ignore"):
        # float_power squares by the C library's pow, as float ** 2 does, with no OverflowError.
        a, b = (math.sqrt(float(np.mean(np.float_power([float(phi(x)) for x in c.points], 2))))
                for c in (m, ref))
    return abs(a - b)
