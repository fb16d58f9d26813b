"""Independent reference computations used by the tests.

These deliberately avoid the library's own code paths: the brute-force
transport cost enumerates every permutation, the matrix square root
comes from scipy rather than the package's eigendecomposition, and the
plant is stepped one Euler transition at a time.
"""

import itertools
import math

import numpy as np
import scipy.linalg

from wgflow.measures import substream
from wgflow.pdm import _TRAJ_STREAM


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
