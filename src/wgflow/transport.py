"""Exact Wasserstein-2 distances between equal-size particle clouds.

For two equal-weight empirical measures with the same particle count, an
optimal coupling is induced by a permutation, so the squared distance is
the optimal value of an assignment problem over the squared-distance cost
matrix.  The assignment is solved exactly (no entropic smoothing); a hard
particle cap keeps the cubic solve affordable, and callers are expected to
subsample diagnostic clouds beyond it.

The module also provides the Bures distance between covariance matrices
and the moment-based (Gelbrich) lower bound on the Wasserstein distance,
both used by convergence diagnostics.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError
from .measures import ParticleMeasure, covariance, mean

#: Hard cap on particle count for the exact assignment solve.
MAX_EXACT_PARTICLES = 4096

# Eigenvalues are clamped at zero when taking matrix square roots; inputs
# are rejected only when they are indefinite beyond this tolerance.
_PSD_TOL = 1e-10


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
        source particle.

    Raises
    ------
    NumericalError
        If a squared distance is not finite.
    """
    if m.n != n.n:
        raise ValueError(
            f"unsupported pair: particle counts differ ({m.n} vs {n.n}); "
            "exact transport needs equal-size clouds"
        )
    if m.d != n.d:
        raise ValueError(f"dimension mismatch: {m.d} vs {n.d}")
    if m.n > MAX_EXACT_PARTICLES:
        raise ValueError(
            f"cloud size {m.n} exceeds the exact-solver cap {MAX_EXACT_PARTICLES}; "
            "subsample the clouds (e.g. 256 particles) before measuring"
        )
    # Imported here: scipy costs more than the rest of the package to import,
    # and only the exact solve needs it.
    from scipy.optimize import linear_sum_assignment
    from scipy.spatial.distance import cdist

    cost_matrix = cdist(m.points, n.points, "sqeuclidean")
    if not math.isfinite(cost_matrix.max()):
        raise NumericalError(
            "squared distances between the clouds overflow; their coordinates are too large"
        )
    rows, cols = linear_sum_assignment(cost_matrix)
    return math.sqrt(float(cost_matrix[rows, cols].mean())), cols


def w2_1d(m: ParticleMeasure, n: ParticleMeasure) -> float:
    """Wasserstein-2 distance in one dimension via the sorted coupling.

    The monotone matching of sorted samples is optimal in 1-d, which makes
    this both a fast path and an independent check of the assignment solver.
    """
    if m.d != 1 or n.d != 1:
        raise ValueError("sorted coupling applies to 1-d measures only")
    if m.n != n.n:
        raise ValueError(f"unsupported pair: particle counts differ ({m.n} vs {n.n})")
    a = np.sort(m.points[:, 0])
    b = np.sort(n.points[:, 0])
    return math.sqrt(float(np.mean((a - b) ** 2)))


def _check_psd(s: np.ndarray, name: str) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"{name} must be a square matrix")
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
    if s1.shape != s2.shape:
        raise ValueError(f"dimension mismatch: {s1.shape} vs {s2.shape}")
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


def gelbrich_lower_bound(m: ParticleMeasure, n: ParticleMeasure) -> float:
    """Moment-based lower bound on the Wasserstein-2 distance.

    ``sqrt(||mean(m) - mean(n)||^2 + d_B(cov(m), cov(n))^2)`` never exceeds
    the exact distance; it is tight for Dirac measures (and Gaussians).
    """
    if m.d != n.d:
        raise ValueError(f"dimension mismatch: {m.d} vs {n.d}")
    return moment_bound(mean(m) - mean(n), bures_distance(covariance(m), covariance(n)))


def moment_bound(mean_diff: np.ndarray, bures_gap: float) -> float:
    """The Gelbrich bound from the mean difference and the covariances' Bures gap."""
    return math.sqrt(float(mean_diff @ mean_diff) + bures_gap * bures_gap)
