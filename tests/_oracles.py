"""Independent reference computations used by the tests.

These deliberately avoid the library's own code paths: the brute-force
transport cost enumerates every permutation, the matrix square root
comes from scipy rather than the package's eigendecomposition, the
plant is stepped one Euler transition at a time, the LS baseline's
damping ratio and the belief's damping band are evaluated one time point
at a time, and maintenance times are found by bisection instead of in
closed form.
"""

import itertools
import math

import numpy as np
import scipy.linalg

from wgflow.measures import substream
from wgflow.pdm import _B_FLOOR, _SCAN_CAP, _TRAJ_STREAM, CrossingTime


def w2_brute_force(xs, ys):
    """Exact Wasserstein-2 distance by enumerating all matchings."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    n = xs.shape[0]
    assert n == ys.shape[0] and n <= 9, "enumeration only for tiny clouds"
    diffs = xs[:, None, :] - ys[None, :, :]
    cost = np.sum(diffs * diffs, axis=2)
    perms = np.array(list(itertools.permutations(range(n))))
    totals = cost[np.arange(n)[None, :], perms].sum(axis=1)
    return math.sqrt(float(totals.min()) / n)


def bures_scipy(s1, s2):
    """Bures distance via scipy's matrix square root."""
    r = scipy.linalg.sqrtm(np.asarray(s1, dtype=float))
    inner = scipy.linalg.sqrtm(r @ np.asarray(s2, dtype=float) @ r)
    val = np.trace(s1) + np.trace(s2) - 2.0 * np.trace(inner)
    return math.sqrt(max(float(np.real(val)), 0.0))


def simulate_loop(p, x0, seed):
    """The plant trajectory as an explicit loop of Euler transitions.

    Draws the same reference noise as ``pdm.simulate_trajectory`` and
    returns the same ``(states, refs)`` pair.
    """
    n = int(p.horizon / p.dt + 1e-9)
    if p.eps_half_width > 0:
        eps = substream(seed, _TRAJ_STREAM).uniform(-p.eps_half_width, p.eps_half_width, n)
    else:
        eps = np.zeros(n)
    dt = p.dt
    a21 = -dt * p.b
    a22 = 1.0 - dt * p.a
    bcoef = dt * p.b
    r = p.r
    zs = np.empty(n + 1)
    vs = np.empty(n + 1)
    z = float(x0[0])
    v = float(x0[1])
    for k in range(n):
        zs[k] = z
        vs[k] = v
        u = r + eps[k]
        z, v = z + dt * v, a21 * z + a22 * v + bcoef * u
    zs[n] = z
    vs[n] = v
    return np.column_stack([zs, vs]), np.full(n + 1, r)


def ls_baseline_scalar(obs, a0, b0, zeta_min, tol=1e-6):
    """``pdm.ls_baseline`` with a scalar damping ratio called per grid point.

    The through-origin fit, then the last safe time: scan the 0.25-day
    grid up to ``_SCAN_CAP`` for the final safe point and bisect the step
    after it.  Returns ``(lam_hat, CrossingTime)``.
    """
    times = np.array([o.t for o in obs], dtype=float)
    denom = float(np.sum(times * times))
    a_inc = a0 - np.array([o.y_hat[0] for o in obs])
    b_inc = np.array([o.y_hat[1] for o in obs]) - b0
    lam_hat = np.array(
        [float(np.sum(times * a_inc)) / denom, float(np.sum(times * b_inc)) / denom]
    )

    def zeta(t):
        a = a0 - lam_hat[0] * t
        b = max(b0 + lam_hat[1] * t, _B_FLOOR)
        return a / (2.0 * math.sqrt(b))

    if zeta(0.0) < zeta_min:
        return lam_hat, CrossingTime(0.0, "immediate")
    grid = np.arange(0.0, _SCAN_CAP + 0.25, 0.25)
    safe = np.array([zeta(float(t)) >= zeta_min for t in grid])
    if safe[-1]:
        return lam_hat, CrossingTime(float("inf"), "never")
    last = int(np.flatnonzero(safe)[-1])
    lo, hi = float(grid[last]), float(grid[last + 1])
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if zeta(mid) >= zeta_min:
            lo = mid
        else:
            hi = mid
    return lam_hat, CrossingTime(0.5 * (lo + hi), "crossed")


def damping_band_rows(points, a0, b0, t_grid, p_lo, p_hi):
    """``pdm.predict_damping_band`` one grid time at a time.

    Each row holds ``(t, p_lo-quantile, mean, p_hi-quantile)`` of the
    particles' damping ratios at ``t``: the quantiles are read from one
    sorted copy at 1-based rank ``ceil(p * N)`` (at least 1), and the mean
    is taken over the ratios in particle order.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    rows = []
    for t in t_grid:
        a = a0 - points[:, 0] * t
        b = np.maximum(b0 + points[:, 1] * t, _B_FLOOR)
        z = a / (2.0 * np.sqrt(b))
        ranked = sorted(z.tolist())
        lo, hi = (ranked[max(math.ceil(p * n - 1e-9), 1) - 1] for p in (p_lo, p_hi))
        rows.append((t, lo, z.mean(), hi))
    return np.array(rows)


def _zeta(d, lam1, lam2, t):
    # Damping ratio along the drift of model d, stiffness floored at _B_FLOOR.
    return (d.a0 - lam1 * t) / (2.0 * np.sqrt(np.maximum(d.b0 + lam2 * t, _B_FLOOR)))


def _bisect(safe, lo, hi, tol):
    # Halve [lo, hi] down to tol, keeping safe(lo) true and safe(hi) false.
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if safe(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def true_maintenance_time_bisect(d, tol=1e-6):
    """``pdm.true_maintenance_time`` by doubling and bisection.

    Returns the midpoint of the final bracket, which is within ``tol / 2``
    of the crossing; ``inf`` (``"never"``) once the doubling passes 1e12.
    """
    def safe(t):
        return float(_zeta(d, *d.lam, t)) >= d.zeta_min

    if not safe(0.0):
        return CrossingTime(0.0, "immediate")
    hi = max(d.T, 1.0)
    while safe(hi):
        hi *= 2.0
        if hi > 1e12:
            return CrossingTime(float("inf"), "never")
    lo, hi = _bisect(safe, 0.0, hi, tol)
    return CrossingTime(0.5 * (lo + hi), "crossed")


def rule_holds(m, d, rule, level, t):
    """Whether a maintenance rule calls the belief safe at time ``t``.

    ``t`` is a scalar, or a column of shape ``(k, 1)`` for ``k`` answers.
    The ``"percentile"`` rule reads the damping ratios at 1-based rank
    ``ceil(level * N)`` (at least 1) of one sorted copy.
    """
    rates = m.points.mean(axis=0, keepdims=True) if rule == "mean" else m.points
    z = _zeta(d, *rates.T, t)
    if rule == "chance":
        return np.mean(z >= d.zeta_min, axis=-1) >= 1.0 - level
    rank = 1 if rule == "mean" else max(math.ceil(level * m.n - 1e-9), 1)
    return np.sort(z, axis=-1)[..., rank - 1] >= d.zeta_min


def suggested_maintenance_time_bisect(m, d, rule="percentile", level=0.1, tol=1e-3):
    """``pdm.suggested_maintenance_time`` by doubling and bisection.

    Bisects the rule's criterion (:func:`rule_holds`) and returns the safe
    end ``lo`` of the final bracket, so the crossing of a criterion that
    fails once lies in ``[lo, lo + tol]``; ``inf`` (``"never"``) once the
    doubling passes 1e9.
    """
    def safe(t):
        return bool(rule_holds(m, d, rule, level, t))

    if not safe(0.0):
        return CrossingTime(0.0, "immediate")
    hi = max(d.T, 1.0)
    while safe(hi):
        hi *= 2.0
        if hi > 1e9:
            return CrossingTime(float("inf"), "never")
    lo, _ = _bisect(safe, 0.0, hi, tol)
    return CrossingTime(lo, "crossed")
