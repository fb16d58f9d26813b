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
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import files
from .errors import DataError, NumericalError
from .measures import ParticleMeasure, nearest_rank_index, substream

_TRAJ_STREAM = 31

# Steps per block of the plant simulation: the forced response of a block
# is one row of a (blocks, B) x (B, 2B) product, and a Python loop carries
# only the block starts.
_BLOCK = 128

# Particle values per block of grid rows in the damping band: 512 KB, so
# a block's temporaries stay in cache.
_BAND_BLOCK = 2**16

# Stiffness floor inside the damping ratio, so extrapolating a belief with
# particles near b = 0 stays defined.
_B_FLOOR = 1e-12

#: Most Euler transitions one simulated trajectory may take; a day's
#: arrays hold about 80 bytes per transition.
_MAX_TRANSITIONS = 10**7

#: Largest time (days) scanned when a decay fit need not be monotone.
_SCAN_CAP = 2000.0


class CrossingTime(NamedTuple):
    """A maintenance-time answer: days plus how the threshold was (not) met.

    ``status`` is ``"crossed"`` for a regular crossing, ``"never"`` when the
    criterion holds forever (``days`` is ``inf``), and ``"immediate"`` when
    it already fails at ``t = 0`` (``days`` is ``0``).
    """

    days: float
    status: str


@dataclass(frozen=True, eq=False)
class PlantParams:
    """Parameters of one simulated trajectory of the second-order plant.

    ``a`` (1/s) and ``b`` (1/s^2) are the damping and stiffness
    coefficients, ``r`` the constant reference, ``dt`` the sampling period,
    ``horizon`` the trajectory duration (s) and ``eps_half_width`` the
    half-width of the uniform reference noise.  The Euler discretization
    must be stable; construction fails otherwise.
    """

    a: float
    b: float
    r: float
    dt: float
    horizon: float
    eps_half_width: float

    def __post_init__(self):
        for name in ("a", "b", "dt", "horizon"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if not 0 <= self.eps_half_width < math.inf:
            raise ValueError("eps_half_width must be finite and nonnegative")
        if not np.isfinite(self.r):
            raise ValueError("r must be finite")
        if not self.horizon / self.dt <= _MAX_TRANSITIONS:
            raise ValueError(
                f"horizon {self.horizon} in steps of dt={self.dt} exceeds "
                f"{_MAX_TRANSITIONS} transitions; raise dt"
            )
        radius = max(abs(ev) for ev in np.linalg.eigvals(self.transition_matrix()))
        if radius >= 1.0:
            raise NumericalError(
                f"unstable discretization: spectral radius {radius:.6f} >= 1 "
                f"for dt={self.dt}; reduce the sampling period"
            )

    def transition_matrix(self) -> np.ndarray:
        return np.array([[1.0, self.dt], [-self.dt * self.b, 1.0 - self.dt * self.a]])


def simulate_trajectory(p: PlantParams, x0, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Simulate the Euler-discretized plant under uniform reference noise.

    The recurrence ``x_{k+1} = M x_k + g (r + eps_k)`` is linear, so it is
    evaluated exactly in blocks of steps rather than one step at a time:
    a matrix product gives every block's response to its noise, and only
    the block starts are carried from one block to the next.  The states
    agree with a step-by-step loop to rounding.

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
        transitions; ``refs`` is the constant reference, one entry per state.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (2,) or not np.all(np.isfinite(x0)):
        raise ValueError("x0 must be a finite state vector (position, velocity)")
    n = int(p.horizon / p.dt + 1e-9)
    nb = -(-n // _BLOCK)
    # Deviations e = x - (r, 0) from the equilibrium follow
    # e_{k+1} = M e_k + g eps_k: the step maps (r, 0) to itself exactly.
    # Within a block of B steps, e_{jB+q+1} = M^{q+1} e_{jB} + F[j, q] with
    # the forced response F[j, q] = sum_{l <= q} M^{q-l} g eps_{jB+l}.
    m = p.transition_matrix()
    powers = np.empty((_BLOCK + 1, 2, 2))  # M^0 .. M^B
    powers[0] = np.eye(2)
    for i in range(_BLOCK):
        powers[i + 1] = m @ powers[i]
    forced = np.zeros((nb, _BLOCK, 2))
    if p.eps_half_width > 0:
        eps = np.zeros(nb * _BLOCK)
        eps[:n] = substream(seed, _TRAJ_STREAM).uniform(-p.eps_half_width, p.eps_half_width, n)
        impulse = powers[:_BLOCK, :, 1] * (p.dt * p.b)  # M^i g
        lag = np.arange(_BLOCK)[None, :] - np.arange(_BLOCK)[:, None]  # q - l
        toeplitz = np.where((lag >= 0)[..., None], impulse[np.maximum(lag, 0)], 0.0)
        forced = (eps.reshape(nb, _BLOCK) @ toeplitz.reshape(_BLOCK, 2 * _BLOCK)).reshape(forced.shape)

    (c11, c12), (c21, c22) = powers[_BLOCK].tolist()
    starts = np.empty((nb, 2))
    e1 = float(x0[0]) - p.r
    e2 = float(x0[1])
    for j, (f1, f2) in enumerate(forced[:, -1].tolist()):
        starts[j] = e1, e2
        e1, e2 = c11 * e1 + c12 * e2 + f1, c21 * e1 + c22 * e2 + f2
    # Row b of the block propagator holds M^{q+1}[a, b] at column 2q + a.
    propagator = powers[1:].transpose(2, 0, 1).reshape(2, 2 * _BLOCK)
    dev = (starts @ propagator).reshape(forced.shape) + forced

    states = np.empty((n + 1, 2))
    states[0] = x0
    states[1:] = dev.reshape(-1, 2)[:n] + (p.r, 0.0)
    return states, np.full(n + 1, p.r)


def ls_estimate(traj: tuple[np.ndarray, np.ndarray], dt: float) -> np.ndarray:
    """Least-squares estimate of ``(a, b)`` from one trajectory.

    Only the velocity transitions carry information (the position row of
    the discretization is an exact identity), so the fit regresses the
    discrete accelerations on ``[-velocity, reference - position]``.

    Returns the estimate ``(a_hat, b_hat)``; raises when the regressor is
    rank deficient (no excitation).
    """
    states, refs = traj
    states = np.asarray(states, dtype=float)
    refs = np.asarray(refs, dtype=float)
    if states.ndim != 2 or states.shape[1] != 2 or refs.shape != (states.shape[0],):
        raise ValueError("trajectory must pair (n+1, 2) states with n+1 references")
    if states.shape[0] < 3:
        raise ValueError("need at least two transitions to fit two parameters")
    if not dt > 0:
        raise ValueError("dt must be positive")
    targets = np.diff(states[:, 1]) / dt
    regressors = np.column_stack([-states[:-1, 1], refs[:-1] - states[:-1, 0]])
    sol, _, rank, _ = np.linalg.lstsq(regressors, targets, rcond=None)
    if rank < 2:
        raise NumericalError(
            "rank-deficient regressor: the trajectory does not excite both "
            "parameters; use a longer or richer trajectory"
        )
    return sol


@dataclass(frozen=True, eq=False)
class DegradationModel:
    """Ground truth of the slow parameter drift.

    ``(a0, b0)`` are the coefficients right after maintenance, ``lam`` the
    nonnegative decay rates, ``zeta_min >= 0`` the safe damping-ratio floor
    and ``T`` the spacing (days) between measurements.  The fresh system must
    start safe: ``a0 / (2 sqrt(b0)) >= zeta_min``.
    """

    a0: float
    b0: float
    lam: np.ndarray
    zeta_min: float
    T: float

    def __post_init__(self):
        lam = np.atleast_1d(np.asarray(self.lam, dtype=float))
        if lam.shape != (2,) or not np.all(np.isfinite(lam)):
            raise ValueError("lam must be a finite vector (lambda1, lambda2)")
        if np.any(lam < 0):
            raise ValueError("decay rates must be nonnegative")
        if not self.b0 > 0:
            raise ValueError("b0 must be positive")
        if not self.T > 0:
            raise ValueError("T must be positive")
        if not np.isfinite(self.a0) or not 0 <= self.zeta_min < math.inf:
            raise ValueError("a0 must be finite and zeta_min finite and nonnegative")
        if self.a0 / (2.0 * math.sqrt(self.b0)) < self.zeta_min:
            raise ValueError("the freshly maintained system must start in the safe set")
        lam.setflags(write=False)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "a0", float(self.a0))
        object.__setattr__(self, "b0", float(self.b0))
        object.__setattr__(self, "zeta_min", float(self.zeta_min))
        object.__setattr__(self, "T", float(self.T))


@dataclass(frozen=True, eq=False)
class Observation:
    """One day's coefficient estimate: time since maintenance plus (a, b)."""

    t: float
    y_hat: np.ndarray

    def __post_init__(self):
        y = np.atleast_1d(np.asarray(self.y_hat, dtype=float))
        if y.shape != (2,) or not np.all(np.isfinite(y)):
            raise ValueError("y_hat must be a finite vector (a_hat, b_hat)")
        if not np.isfinite(self.t) or self.t < 0:
            raise ValueError("t must be a nonnegative time")
        y.setflags(write=False)
        object.__setattr__(self, "y_hat", y)
        object.__setattr__(self, "t", float(self.t))


def degrade(d: DegradationModel, t: float) -> np.ndarray:
    """Coefficients ``(a0 - lambda1 t, b0 + lambda2 t)`` at time ``t``."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    return np.array([d.a0 - d.lam[0] * t, d.b0 + d.lam[1] * t])


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


def _first_exits(d: DegradationModel, lam1, lam2) -> np.ndarray:
    # First time t >= 0 at which each rate pair's ratio falls below zeta_min
    # (-inf: from the start; inf: never).  Above the stiffness floor it is the
    # smaller root of lam1^2 t^2 - B t + C, in stable form; on the floor, `edge`,
    # where a(t) falls below 2 zeta_min sqrt(_B_FLOOR).  `edge` is never before
    # the root, and is the root at zeta_min = 0, where disc may round below 0.
    c = 4.0 * d.zeta_min**2
    B = 2.0 * d.a0 * lam1 + c * lam2
    C = d.a0 * d.a0 - c * d.b0
    disc = B * B - 4.0 * lam1 * lam1 * C
    with np.errstate(divide="ignore", invalid="ignore"):
        root = np.where((B > 0) & (disc >= 0), 2.0 * C / (B + np.sqrt(disc)), np.inf)
        edge = np.where(lam1 > 0, (d.a0 - 2.0 * d.zeta_min * math.sqrt(_B_FLOOR)) / lam1, np.inf)
    t = np.maximum(np.minimum(root, edge), 0.0)
    return np.where(_zeta_at(d.a0, d.b0, lam1, lam2, 0.0) < d.zeta_min, -np.inf, t)


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
    return _crossing(float(_first_exits(d, *d.lam)))


def process_matrix(T: float) -> np.ndarray:
    """Model matrix ``diag(-T, T)`` induced by differencing spaced estimates."""
    if not T > 0:
        raise ValueError("T must be positive")
    return np.diag([-float(T), float(T)])


def difference_stream(obs: Sequence[Observation]) -> np.ndarray:
    """Consecutive estimate differences ``y_hat[k+1] - y_hat[k]``.

    The observations must be equally spaced in time; the differences then
    follow the linear model with matrix :func:`process_matrix` of the
    spacing and zero-mean noise (each raw noise term appears once with
    either sign).  Returns an ``(len(obs) - 1, 2)`` array.
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
    return np.diff(np.stack([o.y_hat for o in obs]), axis=0)


def observation_residuals(obs: Sequence[Observation], d: DegradationModel) -> np.ndarray:
    """Raw estimate errors ``y_hat(t) - y_true(t)``, one row per observation."""
    return np.stack([o.y_hat - degrade(d, o.t) for o in obs])


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

    Returns a ``(len(t_grid), 4)`` array.
    """
    if m.d != 2:
        raise ValueError("belief particles must be 2-d decay rates")
    if not (0.0 <= p_lo <= p_hi <= 1.0):
        raise ValueError("quantile levels must satisfy 0 <= p_lo <= p_hi <= 1")
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if np.any(t_grid < 0):
        raise ValueError("t_grid must be nonnegative")
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
        The damping ratio at the mean decay rate stays above the floor.
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
    if m.d != 2:
        raise ValueError("belief particles must be 2-d decay rates")
    if rule not in ("percentile", "mean", "chance"):
        raise ValueError(f"unknown rule '{rule}'")
    if rule != "mean" and not (0.0 < level < 1.0):
        raise ValueError("level must lie in (0, 1)")
    if rule == "mean":
        return _crossing(float(_first_exits(d, *m.points.mean(axis=0))))
    # For "chance": the most exits j after which (n - j) / n >= 1 - level.
    k = (nearest_rank_index(m.n, level) if rule == "percentile"
         else np.flatnonzero((m.n - np.arange(m.n)) / m.n >= 1.0 - level)[-1])
    return _crossing(float(np.sort(_first_exits(d, *m.points.T))[k]))


def ls_baseline(
    obs: Sequence[Observation], a0: float, b0: float, zeta_min: float
) -> tuple[np.ndarray, CrossingTime]:
    """Classical static least-squares comparator.

    Fits the decay rates by through-origin regression of the coefficient
    increments on time (``lambda1`` from ``a0 - a_hat``, ``lambda2`` from
    ``b_hat - b0``) and converts the *unclamped* fit into a maintenance
    time.  Negative fitted rates are deliberately kept, so the predicted
    ratio path need not be monotone; the crossing search scans a grid
    before refining.
    """
    if len(obs) < 1:
        raise ValueError("need at least one observation")
    times = np.array([o.t for o in obs], dtype=float)
    denom = float(np.sum(times * times))
    if denom == 0.0:
        raise NumericalError("all observations at t=0: decay rates are unidentifiable")
    a_inc = a0 - np.array([o.y_hat[0] for o in obs])
    b_inc = np.array([o.y_hat[1] for o in obs]) - b0
    lam_hat = np.array(
        [float(np.sum(times * a_inc)) / denom, float(np.sum(times * b_inc)) / denom]
    )
    return lam_hat, _last_safe_time(lambda t: _zeta_at(a0, b0, *lam_hat, t), zeta_min)


def _last_safe_time(zeta, zeta_min: float) -> CrossingTime:
    # Robust "last time above the floor" for possibly non-monotone paths:
    # coarse grid scan (one call of zeta on the whole grid) for the final
    # safe point, then bisection of the step after it to 1e-6 days.
    if zeta(0.0) < zeta_min:
        return CrossingTime(0.0, "immediate")
    grid = np.arange(0.0, _SCAN_CAP + 0.25, 0.25)
    safe = zeta(grid) >= zeta_min
    if safe[-1]:
        return CrossingTime(float("inf"), "never")
    last = int(np.flatnonzero(safe)[-1])
    lo, hi = float(grid[last]), float(grid[last + 1])
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if zeta(mid) >= zeta_min else (lo, mid)
    return CrossingTime(0.5 * (lo + hi), "crossed")


# -- observation files -----------------------------------------------------

_OBS_HEADER = ["t", "a_hat", "b_hat"]


def write_observations_csv(obs: Sequence[Observation], path) -> None:
    """Write observations: header ``t,a_hat,b_hat``, full precision."""
    files.write_table(path, _OBS_HEADER, ([o.t, *o.y_hat] for o in obs))


def read_observations_csv(path) -> list[Observation]:
    """Read observations written by :func:`write_observations_csv`."""
    rows = files.read_table(path, "observation file", lambda h: h == _OBS_HEADER)
    out = []
    for i, (t, a, b) in enumerate(files.float_rows(path, rows)):
        try:
            out.append(Observation(t, np.array([a, b])))
        except ValueError as exc:
            raise DataError(f"{path}: row {i}: {exc}") from None
    return out
