"""Independent reference computations used by the tests.

These deliberately avoid the library's own code paths: the brute-force
transport cost enumerates every permutation, the matrix square root
comes from scipy rather than the package's eigendecomposition, the
plant is stepped one Euler transition at a time, the linear flow's
distance to its target follows its mean and covariance in closed form,
the coefficient fit is LAPACK's least-squares solver, the belief's
damping band is evaluated one time point at a time, maintenance times
are found by grid scans and bisection instead of in closed form, and set
membership is read off each kind's defining inequality.
"""
import itertools
import math

import numpy as np
import scipy.linalg

from wgflow.errors import NumericalError
from wgflow.measures import TRAJECTORY_STREAM, substream
from wgflow.pdm import _B_FLOOR, CrossingTime

#: Largest time (days) the LS oracle scans for its last safe point.
_SCAN_CAP = 2000.0


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


def inside(s, x, tol=1e-12):
    """Whether the point ``x`` lies in the convex set ``s`` within ``tol``,
    by the kind's defining inequality in ``np.dot`` / ``np.linalg.norm``."""
    x = np.asarray(x, dtype=float)
    if s.kind == "box":
        return bool(np.all(x >= s.lo - tol) and np.all(x <= s.hi + tol))
    if s.kind == "nonneg_orthant":
        return bool(np.all(x >= -tol))
    if s.kind == "halfspace":
        scale = np.dot(np.abs(s.a), np.abs(x)) + abs(s.b)
        return bool(np.dot(s.a, x) - s.b <= tol * max(1.0, scale))
    if s.kind == "ball":
        return bool(np.linalg.norm(x - s.center) <= s.radius + tol * max(1.0, s.radius))
    assert s.kind == "all", s.kind
    return True


def linear_flow_w2(points, w, theta_star, rho, tau, stream):
    """W2 to the Dirac at ``theta_star`` of the unprojected, unperturbed flow
    after each of its steps (``k = 0, 1, ...``), in closed form.

    Each step maps a particle to ``x A + tau (W^T y_k + rho mean)`` with
    ``A = I - tau H``, ``H = W^T W + rho I``.  So the mean error follows
    ``e' = (I - tau W^T W) e + tau W^T w_k`` with ``w_k = y_k - W theta*``,
    the spread ``S' = A S A^T``, and ``W2^2 = |e|^2 + tr S`` exactly: no
    particle is stepped.
    """
    points = np.asarray(points, dtype=float)
    w = np.asarray(w, dtype=float)
    d = w.shape[0]
    gram = w.T @ w
    mean_map = np.eye(d) - tau * gram
    spread_map = np.eye(d) - tau * (gram + rho * np.eye(d))
    e = points.mean(axis=0) - theta_star
    centered = points - points.mean(axis=0)
    spread = centered.T @ centered / points.shape[0]
    out = [math.sqrt(e @ e + np.trace(spread))]
    for y in stream:
        e = mean_map @ e + tau * (w.T @ (np.asarray(y, dtype=float) - w @ theta_star))
        spread = spread_map @ spread @ spread_map.T
        out.append(math.sqrt(e @ e + np.trace(spread)))
    return np.array(out)


def objective_direct(obj, points):
    """The streaming least-squares objective by its defining formula: half
    the particles' mean squared model error ``|W(x - theta*)|^2``, plus half
    ``rho`` times the summed coordinate variance (``np.var``), plus half
    ``sigma_w2``; no moment of the cloud is formed first.

    The cloud and ``theta*`` are scaled by a power of two, which is exact,
    and the sum is scaled back, so a far cloud whose squares overflow is
    still measured.
    """
    x = np.asarray(points, dtype=float)
    scale = 2.0 ** -math.frexp(max(np.abs(x).max(), np.abs(obj.theta_star).max()))[1]
    diff = x * scale - obj.theta_star * scale
    quad = np.mean(np.sum((diff @ obj.W.T) ** 2, axis=1))
    spread = obj.rho * np.var(x * scale, axis=0).sum()
    return float(0.5 * (quad + spread) / scale**2 + 0.5 * obj.sigma_w2)


def simulate_loop(p, x0, seed):
    """The plant trajectory as an explicit loop of Euler transitions.

    Draws the same reference noise as ``pdm.simulate_trajectory`` and
    returns the same ``(states, refs)`` pair.
    """
    n = int(p.horizon / p.dt + 1e-9)
    if p.eps_half_width > 0:
        eps = substream(seed, TRAJECTORY_STREAM).uniform(-p.eps_half_width, p.eps_half_width, n)
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


def ls_estimate_lstsq(traj, dt):
    """``pdm.ls_estimate`` by ``np.linalg.lstsq`` on the ``(n, 2)`` regressor.

    Refuses the fit when ``lstsq`` reports a rank below 2 (its default
    cutoff: singular values at most ``n * eps`` times the largest).
    """
    states, refs = traj
    targets = np.diff(states[:, 1]) / dt
    regressors = np.column_stack([-states[:-1, 1], refs[:-1] - states[:-1, 0]])
    sol, _, rank, _ = np.linalg.lstsq(regressors, targets, rcond=None)
    if rank < 2:
        raise NumericalError("rank-deficient regressor")
    return sol


def ls_baseline_scalar(obs, a0, b0, zeta_min, tol=1e-6):
    """``pdm.ls_baseline`` by a grid scan, one damping ratio per grid point.

    The through-origin fit, then the last safe time: scan the 0.25-day
    grid up to ``_SCAN_CAP`` for the final safe point and bisect the step
    after it.  Where the fitted path crosses the floor once within the
    scan, this is the first exit; a path that returns above the floor, or
    crosses after ``_SCAN_CAP``, gives a later time or ``"never"``.
    Returns ``(lam_hat, CrossingTime)``.
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
