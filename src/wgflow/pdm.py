"""Damped-oscillator health monitoring at desk scale.

The monitored plant is a second-order system whose damping and stiffness
coefficients drift affinely with time since maintenance.  This module
simulates plant trajectories, estimates the coefficients from them by
least squares, differences the daily estimates into a zero-mean linear
observation model for the decay rates, and turns a particle belief over
those rates into damping-ratio bands and suggested maintenance times.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from . import files, measures
from .errors import DataError, NumericalError
from .measures import (
    Fixed, ParticleMeasure, finite_number, finite_result, frozen_vector, nearest_rank_index, same_size,
    spawn_seed, whole_number,
)

# Steps per block of the plant simulation's scan: the states of a block
# are one row of a (blocks, 2 + B) x (2 + B, 2B) product of its start and
# its noise, and the block starts are scanned again in blocks of as many.
_BLOCK = 32

# Particle values per block of grid rows in the damping band: 512 KB, so
# a block's temporaries stay in cache.
_BAND_BLOCK = 2**16

# Stiffness floor inside the damping ratio, so extrapolating a belief with
# particles near b = 0 stays defined.
_B_FLOOR = 1e-12

#: Most Euler transitions one simulated trajectory may take; a day's
#: arrays hold about 80 bytes per transition.
_MAX_TRANSITIONS = 10**7

#: The maintenance rules of :func:`suggested_maintenance_time`.
RULES = ("percentile", "mean", "chance")


class CrossingTime(NamedTuple):
    """A maintenance-time answer: days plus how the threshold was (not) met.

    ``status`` is ``"crossed"`` for a regular crossing, ``"never"`` when the
    criterion holds forever (``days`` is ``inf``), and ``"immediate"`` when
    it already fails at ``t = 0`` (``days`` is ``0``).
    """

    days: float
    status: str


class PlantParams(Fixed):
    """Parameters of one simulated trajectory of the second-order plant.

    ``a`` (1/s) and ``b`` (1/s^2) are the damping and stiffness
    coefficients, ``r`` the constant reference, ``dt`` the sampling period,
    ``horizon`` the trajectory duration (s) and ``eps_half_width`` the
    half-width of the uniform reference noise.  The Euler discretization
    must be stable; construction fails otherwise.
    """

    __slots__ = ("a", "b", "r", "dt", "horizon", "eps_half_width")

    def __init__(self, a, b, r, dt, horizon, eps_half_width):
        for name, value in (("a", a), ("b", b)):
            finite_number(value, name, above=0)
        _check_plant_settings(r, dt, horizon, eps_half_width)
        self.a = a
        self.b = b
        self.r = r
        self.dt = dt
        self.horizon = horizon
        self.eps_half_width = eps_half_width
        radius = max(abs(ev) for ev in np.linalg.eigvals(self.transition_matrix()))
        if radius >= 1.0:
            raise NumericalError(
                f"unstable discretization: spectral radius {radius:.6f} >= 1 "
                f"for dt={self.dt}; reduce the sampling period"
            )

    def transition_matrix(self) -> np.ndarray:
        return np.array([[1.0, self.dt], [-self.dt * self.b, 1.0 - self.dt * self.a]])


def _check_plant_settings(r: float, dt: float, horizon: float, eps_half_width: float) -> None:
    """Check the :class:`PlantParams` fields that do not depend on ``(a, b)``.

    Raises ``ValueError`` naming the first field out of range.
    """
    finite_number(dt, "dt", above=0)
    finite_number(horizon, "horizon", above=0)
    # The noise is drawn from [-eps, eps], whose width 2 eps must be finite.
    if not 2.0 * finite_number(eps_half_width, "eps_half_width", at_least=0) < math.inf:
        raise ValueError("eps_half_width must be nonnegative and at most half the float limit")
    finite_number(r, "r")
    if not horizon / dt <= _MAX_TRANSITIONS:
        raise ValueError(
            f"horizon {horizon} in steps of dt={dt} exceeds {_MAX_TRANSITIONS} transitions; raise dt"
        )


def _scan(m: np.ndarray, g, u: np.ndarray, start, out: np.ndarray) -> None:
    """Write the states ``e_1 .. e_{blocks B}`` of ``e_{k+1} = M e_k + g^T u_k``,
    ``e_0 = start``, into ``out``, one block of B states to a row, for inputs
    ``u`` zero-padded to ``(blocks, B c)`` (which may be ``out``'s memory)
    and ``g`` of shape ``(c, 2)``.

    In block ``j``, ``e_{jB+q+1} = M^{q+1} s_j + sum_{l <= q} M^{q-l} g^T
    u_{jB+l}`` with the start ``s_j = e_{jB}``: its start and its inputs in
    one row, times one ``(2 + B c, 2B)`` response.  The starts follow the
    same recurrence with ``M^B`` and the forced block ends as 2-d inputs
    (``g = I``), solved again until one block is left: four levels deep for
    a 10^5-step day and five at :data:`_MAX_TRANSITIONS`.  No Python loop
    runs over the blocks."""
    b = _BLOCK
    lagged = np.zeros((2 * b, 2, 2))  # row b - 1 + k is (M^k)^T
    lagged[b - 1] = np.eye(2)
    for k in range(b - 1, 2 * b - 1):
        np.matmul(m.T, lagged[k], out=lagged[k + 1])  # (M^k M)^T
    # window[r, a, 2q + i] = M^{q+1-r}[i, a], zero where q + 1 < r: row 0
    # responds to the start, row l + 1 to input l.
    window = np.lib.stride_tricks.sliding_window_view(lagged, b, axis=0)[::-1]
    window = window.transpose(0, 1, 3, 2).reshape(b + 1, 2, 2 * b)
    response = np.concatenate([window[0], np.matmul(g, window[1:]).reshape(-1, 2 * b)])
    blocks = len(u)
    rows = np.empty((blocks, 2 + u.shape[1]))
    rows[:, 2:] = u
    rows[:1, :2] = start  # no rows at all at a zero horizon
    if blocks > 1:
        ends = np.zeros((-(-(blocks - 1) // b), 2 * b))
        np.matmul(rows[:-1, 2:], response[2:, -2:], out=ends.reshape(-1, 2)[:blocks - 1])
        _scan(lagged[-1].T, np.eye(2), ends, start, ends)
        rows[1:, :2] = ends.reshape(-1, 2)[:blocks - 1]
    np.matmul(rows, response, out=out)


def simulate_trajectory(p: PlantParams, x0, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Simulate the Euler-discretized plant under uniform reference noise.

    The recurrence ``x_{k+1} = M x_k + g (r + eps_k)`` is linear, so a
    blocked scan (:func:`_scan`) evaluates it exactly rather than one step
    at a time; the states agree with a step-by-step loop to rounding.

    Parameters
    ----------
    p : PlantParams
    x0 : array-like, shape (2,)
        Initial state (position, velocity).
    seed : int
        Noise seed; runs are deterministic per seed.

    Returns
    -------
    (states, refs)
        ``states`` has shape ``(n+1, 2)`` with ``n = floor(horizon / dt)``
        transitions; ``refs`` is the constant reference, one entry per state,
        as a read-only view that holds no memory of its own.
    """
    x0 = frozen_vector(x0, "x0", 2)
    n = int(p.horizon / p.dt + 1e-9)
    nb = -(-n // _BLOCK)
    # The states padded to whole blocks: row 0 is x0, and rows 1.. hold the
    # deviations.  The noise is drawn into the same memory first.
    padded = np.empty((nb * _BLOCK + 1, 2))
    eps = padded.reshape(-1)[:nb * _BLOCK]
    if p.eps_half_width > 0:
        # uniform(-w, w) returns -w + 2w u for the doubles u that random
        # draws, so scaling them in place gives the same bits.
        measures.substream(seed, measures.TRAJECTORY_STREAM).random(out=eps[:n])
        eps[:n] *= 2.0 * p.eps_half_width
        eps[:n] -= p.eps_half_width
    else:
        eps[:n] = 0.0
    eps[n:] = 0.0
    # Deviations e = x - (r, 0) from the equilibrium follow
    # e_{k+1} = M e_k + g eps_k with g = (0, dt b): the step maps (r, 0) to
    # itself exactly, and the noise drives the velocity alone.
    dev = padded[1:].reshape(nb, 2 * _BLOCK)
    _scan(p.transition_matrix(), [[0.0, p.dt * p.b]], eps.reshape(nb, _BLOCK), x0 - (p.r, 0.0), dev)

    states = padded[:n + 1]
    states[0] = x0
    states[1:, 0] += p.r
    return states, np.broadcast_to(p.r, (n + 1,))


def ls_estimate(traj: tuple[np.ndarray, np.ndarray], dt: float) -> np.ndarray:
    """Least-squares estimate of ``(a, b)`` from one trajectory.

    Only the velocity transitions carry information (the position row of
    the discretization is an exact identity), so the fit regresses the
    discrete accelerations on ``[-velocity, reference - position]``.  It
    solves the 2 x 2 normal equations, built from dot products over the
    ``n`` transitions.

    Returns the estimate ``(a_hat, b_hat)``, which is not finite when the
    trajectory overflows.  Raises when the regressor is rank deficient (no
    excitation): when the smallest eigenvalue of its Gram matrix is at most
    ``n * eps`` times the largest, the order of the rounding error of the
    ``n``-term sums, so that it cannot be told from zero.
    """
    states, refs = traj
    states = np.asarray(states, dtype=float)
    refs = np.asarray(refs, dtype=float)
    if states.ndim != 2 or states.shape[1] != 2 or refs.shape != (states.shape[0],):
        raise ValueError("trajectory must pair (n+1, 2) states with n+1 references")
    if states.shape[0] < 3:
        raise ValueError("need at least two transitions to fit two parameters")
    dt = finite_number(dt, "dt", above=0)
    n = states.shape[0] - 1
    v = states[:-1, 1]
    e = refs[:-1] - states[:-1, 0]
    dv = np.diff(states[:, 1])
    ve = v @ e
    gram = np.array([[v @ v, -ve], [-ve, e @ e]])
    if not np.isfinite(gram).all():
        return np.full(2, np.nan)
    lo, hi = np.linalg.eigvalsh(gram)
    if not lo > n * np.finfo(float).eps * hi:
        raise NumericalError(
            "rank-deficient regressor: the trajectory does not excite both "
            "parameters; use a longer or richer trajectory"
        )
    return np.linalg.solve(gram, np.array([-(v @ dv), e @ dv]) / dt)


class DegradationModel(Fixed):
    """Ground truth of the slow parameter drift.

    ``(a0, b0)`` are the coefficients right after maintenance, ``lam`` the
    nonnegative decay rates, ``zeta_min >= 0`` the safe damping-ratio floor
    and ``T`` the spacing (days) between measurements.  The fresh system must
    start safe: ``a0 / (2 sqrt(b0)) >= zeta_min``.  ``a0**2`` must be finite,
    as the maintenance times solve a quadratic in it.
    """

    __slots__ = ("a0", "b0", "lam", "zeta_min", "T")

    def __init__(self, a0, b0, lam, zeta_min, T):
        lam = frozen_vector(lam, "lam", 2)
        if np.any(lam < 0):
            raise ValueError("decay rates must be nonnegative")
        self.b0 = finite_number(b0, "b0", above=0)
        self.T = finite_number(T, "T", above=0)
        a0 = finite_number(a0, "a0")
        if not abs(a0) <= math.sqrt(np.finfo(float).max):
            raise ValueError("a0 and a0**2 must be finite")
        self.zeta_min = finite_number(zeta_min, "zeta_min", at_least=0)
        if a0 / (2.0 * math.sqrt(self.b0)) < self.zeta_min:
            raise ValueError("the freshly maintained system must start in the safe set")
        self.lam = lam
        self.a0 = a0


class Observation(Fixed):
    """One day's coefficient estimate: time since maintenance plus (a, b)."""

    __slots__ = ("t", "y_hat")

    def __init__(self, t, y_hat):
        self.y_hat = frozen_vector(y_hat, "y_hat", 2)
        self.t = finite_number(t, "t", at_least=0)


def degrade(d: DegradationModel, t: float) -> np.ndarray:
    """Coefficients ``(a0 - lambda1 t, b0 + lambda2 t)`` at time ``t``."""
    t = finite_number(t, "t", at_least=0)
    return np.array([d.a0 - d.lam[0] * t, d.b0 + d.lam[1] * t])


def daily_observations(model: DegradationModel, days: int, x0, r: float, dt: float, horizon: float,
                       eps_half_width: float, seed: int) -> list[Observation]:
    """One least-squares estimate of ``(a, b)`` per day ``j < days``, at ``t = j T``.

    Day ``j`` simulates the plant of :func:`degrade` at ``t`` from ``x0``,
    with trajectory seed ``spawn_seed(seed, measures.DAY_STREAM, j)``.  The
    arguments that are the same on every day are checked first, so a fault in
    one names no day; a refused day re-raises its exception class with
    ``day j (t = ...): `` in front.  An overflowing trajectory is refused as a
    non-finite fit (:class:`NumericalError`), which NumPy's warnings would only repeat.
    """
    days = whole_number(days, "days", at_least=1)
    x0 = frozen_vector(x0, "x0", 2)
    _check_plant_settings(r, dt, horizon, eps_half_width)
    seed = whole_number(seed, "seed", at_least=0)
    observations = []
    with np.errstate(all="ignore"):
        for j in range(days):
            t = j * model.T
            try:
                a, b = degrade(model, t).tolist()
                plant = PlantParams(a, b, r, dt, horizon, eps_half_width)
                traj = simulate_trajectory(plant, x0, spawn_seed(seed, measures.DAY_STREAM, j))
                fit = finite_result(ls_estimate(traj, dt), "the least-squares fit",
                                    "the trajectory overflows")
                observations.append(Observation(t, fit))
            except (ValueError, NumericalError) as exc:
                raise type(exc)(f"day {j} (t = {t}): {exc}") from None
    return observations


def damping_ratio(y) -> float:
    """Damping ratio ``a / (2 sqrt(b))`` of coefficients ``y = (a, b)``."""
    y = np.asarray(y, dtype=float)
    a, b = float(y[0]), float(y[1])
    if b <= 0:
        raise ValueError(f"damping ratio undefined for nonpositive stiffness b={b}")
    return a / (2.0 * math.sqrt(b))


def _zeta_at(a0: float, b0: float, lam1, lam2, t):
    # Damping ratio along the drift from (a0, b0); any argument may be an array.
    a = a0 - lam1 * t
    b = np.maximum(b0 + lam2 * t, _B_FLOOR)
    return a / (2.0 * np.sqrt(b))


def _first_exits(a0: float, b0: float, zeta_min: float, lam1, lam2) -> np.ndarray:
    # First time t >= 0 at which each rate pair's ratio falls below zeta_min
    # (-inf: from the start; inf: never).  Above the stiffness floor it is the
    # smaller root of lam1^2 t^2 - B t + C, in stable form; on the floor, `edge`,
    # where a(t) falls below 2 zeta_min sqrt(_B_FLOOR).  `edge` is never before
    # the root, and is the root at zeta_min = 0, where disc may round below 0.
    # Signed rates may make the ratio return above the floor; this is still
    # its first exit.  Every overflow maps to inf or to `edge` in a `where`.
    with np.errstate(all="ignore"):
        c = 4.0 * zeta_min**2
        B = 2.0 * a0 * lam1 + c * lam2
        C = a0 * a0 - c * b0
        disc = B * B - 4.0 * lam1 * lam1 * C
        root = np.where((B > 0) & (disc >= 0), 2.0 * C / (B + np.sqrt(disc)), np.inf)
        edge = np.where(lam1 > 0, (a0 - 2.0 * zeta_min * math.sqrt(_B_FLOOR)) / lam1, np.inf)
        t = np.maximum(np.minimum(root, edge), 0.0)
        return np.where(_zeta_at(a0, b0, lam1, lam2, 0.0) < zeta_min, -np.inf, t)


def _crossing(days: float) -> CrossingTime:
    # One first exit time of _first_exits as an answer.
    status = "immediate" if days < 0 else "crossed" if days < math.inf else "never"
    return CrossingTime(max(days, 0.0), status)


def true_maintenance_time(d: DegradationModel) -> CrossingTime:
    """Last time the true coefficients stay safe, in closed form.

    With nonnegative decay rates the damping ratio falls and leaves the safe
    set once, at a root of a quadratic in ``t``: ``inf`` (``"never"``) when
    both rates vanish.
    """
    return _crossing(float(_first_exits(d.a0, d.b0, d.zeta_min, *d.lam)))


def process_matrix(T: float) -> np.ndarray:
    """Model matrix ``diag(-T, T)`` induced by differencing spaced estimates."""
    T = finite_number(T, "T", above=0)
    return np.diag([-T, T])


def difference_stream(obs: Sequence[Observation]) -> np.ndarray:
    """Consecutive estimate differences ``y_hat[k+1] - y_hat[k]``.

    The observations must be equally spaced in time; the differences then
    follow the linear model with matrix :func:`process_matrix` of the
    spacing and zero-mean noise (each raw noise term appears once with
    either sign).  Returns an ``(len(obs) - 1, 2)`` array.  Uneven times or
    a difference that overflows raise :class:`DataError` naming the times.
    """
    if len(obs) < 2:
        raise DataError("need at least two observations to difference")
    times = np.array([o.t for o in obs], dtype=float)
    gaps = np.diff(times)
    if np.any(gaps <= 0):
        i = int(np.flatnonzero(gaps <= 0)[0])
        raise DataError(
            f"observation times must be strictly increasing; offending gap after t={times[i]}"
        )
    spacing = gaps[0]
    off = np.abs(gaps - spacing) > 1e-9
    if np.any(off):
        i = int(np.flatnonzero(off)[0])
        raise DataError(
            f"irregular observation spacing: gap {gaps[i]} between t={times[i]} and "
            f"t={times[i + 1]}, expected {spacing}"
        )
    with np.errstate(over="ignore"):
        diffs = np.diff(np.stack([o.y_hat for o in obs]), axis=0)
    i = int(np.argmin(np.isfinite(diffs).all(axis=1)))  # the first that overflows, if any
    if not np.isfinite(diffs[i]).all():
        raise DataError(f"the estimate difference between t={times[i]} and t={times[i + 1]} is not finite")
    return diffs


def observation_residuals(obs: Sequence[Observation], d: DegradationModel) -> np.ndarray:
    """Raw estimate errors ``y_hat(t) - y_true(t)``, one row per observation."""
    return np.stack([o.y_hat - degrade(d, o.t) for o in obs])


@np.errstate(all="ignore")
def predict_damping_band(
    m: ParticleMeasure,
    d: DegradationModel,
    t_grid,
    p_lo: float = 0.1,
    p_hi: float = 0.9,
) -> np.ndarray:
    """Damping-ratio band of the belief pushed forward through the drift.

    For each ``t`` the particles map to damping ratios of the drifted
    coefficients (stiffness floored near zero) and the row records
    ``(t, lower quantile, mean, upper quantile)`` by the nearest-rank rule.
    Grid rows are evaluated in blocks of about ``_BAND_BLOCK`` values (at
    least one row each).

    Returns a ``(len(t_grid), 4)`` array; a row that overflows, or whose
    drifted stiffness overflows for some particle (its ratio would read 0),
    raises :class:`NumericalError` naming its ``t``.
    """
    same_size(m.d, 2, "belief dimension")
    p_lo, p_hi = finite_number(p_lo, "p_lo"), finite_number(p_hi, "p_hi")
    if not (0.0 <= p_lo <= p_hi <= 1.0):
        raise ValueError("quantile levels must satisfy 0 <= p_lo <= p_hi <= 1")
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if not (np.isfinite(t_grid) & (t_grid >= 0)).all():
        raise ValueError("t_grid must be finite and >= 0")
    lo, hi = nearest_rank_index(m.n, p_lo), nearest_rank_index(m.n, p_hi)
    rows = np.empty((t_grid.size, 4))
    rows[:, 0] = t_grid
    size = max(1, _BAND_BLOCK // m.n)
    for start in range(0, t_grid.size, size):
        block = rows[start:start + size]
        z = _zeta_at(d.a0, d.b0, *m.points.T, block[:, :1])
        # The mean first: sorting would change its summation order.
        block[:, 2] = z.mean(axis=1)
        z.sort(axis=1)
        block[:, 1] = z[:, lo]
        block[:, 3] = z[:, hi]
    # Rounding is monotone, so the largest stiffness rate overflows first.
    stiff = d.b0 + m.points[:, 1].max() * t_grid
    bad = t_grid[~(np.isfinite(rows).all(axis=1) & np.isfinite(stiff))]
    if bad.size:
        raise NumericalError(f"damping band at t = {bad[0]} is not finite: the belief's rates overflow")
    return rows


def suggested_maintenance_time(
    m: ParticleMeasure,
    d: DegradationModel,
    rule: str = "percentile",
    level: float = 0.1,
) -> CrossingTime:
    """Largest time at which the belief still calls the system safe.

    Rules
    -----
    ``"percentile"``
        The ``level``-quantile of the particle damping ratios stays above
        the floor (small levels are conservative).
    ``"mean"``
        The damping ratio at the mean decay rate stays above the floor (a
        mean that overflows raises :class:`NumericalError`).
    ``"chance"``
        At least a ``1 - level`` fraction of particles stays above the floor.

    Each particle leaves the safe set at a closed-form first exit time; the
    answer is the order statistic of those times at the nearest-rank
    ``level`` position (``"percentile"``) or at the most exits the fraction
    test allows (``"chance"``).  With nonnegative rates no particle returns,
    so this is the last time the criterion holds.  A particle with a
    negative rate may return, but its first exit still counts, so the time
    is never later than the criterion's first failure.
    """
    same_size(m.d, 2, "belief dimension")
    if rule not in RULES:
        raise ValueError(f"unknown rule '{rule}'")
    if rule != "mean" and not (0.0 < finite_number(level, "level") < 1.0):
        raise ValueError("level must lie in (0, 1)")
    if rule == "mean":
        with np.errstate(over="ignore"):
            rates = finite_result(m.points.mean(axis=0), "the belief's mean rate")
        return _crossing(float(_first_exits(d.a0, d.b0, d.zeta_min, *rates)))
    # For "chance": the most exits j after which (n - j) / n >= 1 - level.
    k = (nearest_rank_index(m.n, level) if rule == "percentile"
         else np.flatnonzero((m.n - np.arange(m.n)) / m.n >= 1.0 - level)[-1])
    return _crossing(float(np.sort(_first_exits(d.a0, d.b0, d.zeta_min, *m.points.T))[k]))


def ls_baseline(
    obs: Sequence[Observation], a0: float, b0: float, zeta_min: float
) -> tuple[np.ndarray, CrossingTime]:
    """Classical static least-squares comparator.

    Fits the decay rates by through-origin regression of the coefficient
    increments on time (``lambda1`` from ``a0 - a_hat``, ``lambda2`` from
    ``b_hat - b0``) and converts the *unclamped* fit into a maintenance
    time: the fit's first predicted failure, the closed-form first exit
    that the true and the suggested times use.  Negative fitted rates are
    deliberately kept, so the predicted ratio path need not be monotone;
    a path that dips below the floor and returns counts from its first dip.
    """
    if len(obs) < 1:
        raise ValueError("need at least one observation")
    a0 = finite_number(a0, "a0")
    b0 = finite_number(b0, "b0", above=0)
    zeta_min = finite_number(zeta_min, "zeta_min", at_least=0)
    times = np.array([o.t for o in obs], dtype=float)
    denom = float(np.sum(times * times))
    if denom == 0.0:
        raise NumericalError("all observations at t=0: decay rates are unidentifiable")
    a_inc = a0 - np.array([o.y_hat[0] for o in obs])
    b_inc = np.array([o.y_hat[1] for o in obs]) - b0
    lam_hat = np.array(
        [float(np.sum(times * a_inc)) / denom, float(np.sum(times * b_inc)) / denom]
    )
    return lam_hat, _crossing(float(_first_exits(a0, b0, zeta_min, *lam_hat)))


# -- observation files -----------------------------------------------------

_OBS_HEADER = ["t", "a_hat", "b_hat"]


def write_observations_csv(obs: Sequence[Observation], path) -> None:
    """Write observations: header ``t,a_hat,b_hat``, full precision."""
    files.write_table(path, _OBS_HEADER, ([o.t, *o.y_hat] for o in obs))


def read_observations_csv(path) -> list[Observation]:
    """Read observations written by :func:`write_observations_csv`."""
    table = files.read_table(path, "observation file", lambda h: h == _OBS_HEADER)
    out = []
    for i, (t, a, b) in enumerate(table.tolist()):
        try:
            out.append(Observation(t, (a, b)))
        except ValueError as exc:
            raise DataError(f"{path}: row {i}: {exc}") from None
    return out
