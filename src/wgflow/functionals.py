"""Streaming least-squares objective over particle beliefs and its gradients.

The objective scores a belief ``mu`` over parameters ``theta`` by the
expected model-output error under observation noise plus a spread penalty:

    J(mu) = 1/2 E_mu ||W (theta - theta*)||^2 + 1/2 E||w||^2
            + rho/2 * sum_j Var_mu[theta_j].

The gradient field of ``J`` over the support is

    theta -> H theta - (W^T W theta* + rho E_mu[theta]),   H = W^T W + rho I,

and replacing ``W theta*`` by a noisy observation ``y = W theta* + w``
gives an unbiased estimate of it that needs no knowledge of ``theta*``.
The Hessian ``H`` also fixes the affine map of a flow step, and the
singular values of ``W`` the constants that govern the flow's convergence
(:func:`validate_tau`, :func:`convergence_bound`).

Note the spread penalty is the *summed coordinate variance* (the trace of
the covariance); that is the functional whose gradient field is the
``rho``-term above, and the one under which the second-moment bound used
by the step-size analysis holds.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from . import measures
from .errors import NumericalError
from .measures import Fixed, ParticleMeasure


def _rows_times(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Row-wise matrix-vector products: row i of the result is ``m @ x[i]``.

    Accumulated column by column with elementwise arithmetic, so a row's
    value does not depend on how many rows are evaluated together: a field
    evaluated on a batch equals its pointwise values bit for bit, which a
    BLAS product (one kernel for a vector, another for a matrix) does not
    guarantee.
    """
    out = np.zeros((x.shape[0], m.shape[0]))
    for j in range(x.shape[1]):
        out += x[:, j, None] * m[None, :, j]
    return out


class StreamingLSObjective(Fixed):
    """Streaming least-squares estimation objective, a read-only value object.

    Parameters
    ----------
    W : ndarray, shape (d, d)
        Invertible process matrix of the observation model ``y = W theta + w``.
    rho : float
        Positive weight on the belief-spread penalty.
    theta_star : ndarray, shape (d,), optional
        True parameter.  Only available in simulation; when absent the
        objective runs in deployment mode and exact evaluations are
        unavailable (stochastic gradients still work).
    sigma_w2 : float
        Total noise second moment ``E ||w||^2`` (summed over coordinates).

    Construction keeps read-only copies of ``W`` and ``theta_star`` and also
    sets the Hessian ``H = W^T W + rho I`` and ``W``'s extreme singular values
    ``sigma_min`` and ``sigma_max``; no attribute is rebound after it.
    """

    __slots__ = ("W", "rho", "theta_star", "sigma_w2", "H", "sigma_min", "sigma_max")

    def __init__(self, W, rho, theta_star=None, sigma_w2=0.0):
        w = np.array(W, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError("W must be a square matrix")
        if not np.all(np.isfinite(w)):
            raise ValueError("W must be finite")
        sv = np.linalg.svd(w, compute_uv=False)
        if sv[-1] <= 1e-12 * max(sv[0], 1.0):
            raise NumericalError(
                f"process matrix is numerically singular (min singular value {sv[-1]:.3e}); "
                "an invertible model is required"
            )
        rho = measures.finite_number(rho, "rho", above=0)
        sigma_w2 = measures.finite_number(sigma_w2, "sigma_w2", at_least=0)
        ts = None if theta_star is None else measures.frozen_vector(theta_star, "theta_star", w.shape[0])
        too_large = "the process matrix is too large"
        with np.errstate(over="ignore"):
            h = measures.finite_result(w.T @ w + rho * np.eye(w.shape[0]), "W^T W + rho I", too_large)
            measures.finite_result(sv[0] * sv[0], "sigma_max(W)^2", too_large)
        w.setflags(write=False)
        h.setflags(write=False)
        self.W = w
        self.rho = rho
        self.theta_star = ts
        self.sigma_w2 = sigma_w2
        self.H = h
        self.sigma_min = float(sv[-1])
        self.sigma_max = float(sv[0])

    @property
    def d(self) -> int:
        return self.W.shape[0]


class StepBoundReport(NamedTuple):
    """Derived constants of the estimation objective and a step size verdict.

    Attributes
    ----------
    alpha : float
        Strong convexity modulus, ``sigma_min(W)^2``.
    C : float
        Gradient second-moment growth constant, ``4 max(sigma_max(W)^2, rho)``.
    sigma2 : float
        Gradient noise floor, ``C * sigma_w2``.
    eta : float
        Condition-like ratio ``C / alpha``.
    tau : float
        The step size under scrutiny.
    tau_max : float
        Largest admissible step, ``min(1/alpha, 2/C)`` (open interval).
    ball_radius : float
        Asymptotic expected distance bound, ``sigma_w * sqrt(eta * tau)``.
    per_step_rate : float
        Squared-distance contraction factor per step, ``1 - alpha * tau``.
    tau_valid : bool
        Whether ``tau`` lies strictly inside ``(0, tau_max)``.
    """

    alpha: float
    C: float
    sigma2: float
    eta: float
    tau: float
    tau_max: float
    ball_radius: float
    per_step_rate: float
    tau_valid: bool


def validate_tau(W, rho: float, sigma_w2: float, tau: float) -> StepBoundReport:
    """Derive the convergence constants and check a step size against them;
    ``W``, ``rho`` and ``sigma_w2`` are checked by :class:`StreamingLSObjective`,
    and a report field that is not finite raises :class:`NumericalError`."""
    obj = StreamingLSObjective(W, rho, None, sigma_w2)
    tau = measures.finite_number(tau, "tau", above=0)
    alpha = obj.sigma_min ** 2
    c = 4.0 * max(obj.sigma_max ** 2, obj.rho)
    eta = c / alpha
    tau_max = min(1.0 / alpha, 2.0 / c)
    report = StepBoundReport(
        alpha=alpha,
        C=c,
        sigma2=c * obj.sigma_w2,
        eta=eta,
        tau=tau,
        tau_max=tau_max,
        ball_radius=math.sqrt(obj.sigma_w2) * math.sqrt(eta * tau),
        per_step_rate=1.0 - alpha * tau,
        tau_valid=bool(tau < tau_max),
    )
    for name, value in zip(report._fields, report):
        measures.finite_result(value, f"step-size report {name}", "W, rho, sigma_w2 or tau is too large")
    return report


def convergence_bound(report: StepBoundReport, w2_0: float, k: int) -> float:
    """Theoretical bound on the expected squared distance after ``k`` steps.

    ``(1 - tau*alpha)^k (w2_0^2 - tau*sigma2/alpha) + tau*sigma2/alpha``;
    at ``k = 0`` this is exactly ``w2_0^2`` and for large ``k`` it tends
    monotonically to the limit term.
    """
    w2_0 = measures.finite_number(w2_0, "w2_0", at_least=0)
    k = measures.whole_number(k, "k", at_least=0)
    limit = report.tau * report.sigma2 / report.alpha
    return (1.0 - report.tau * report.alpha) ** k * (w2_0 ** 2 - limit) + limit


def exact_gradient(obj: StreamingLSObjective, m: ParticleMeasure) -> Callable[[np.ndarray], np.ndarray]:
    """Gradient field of the objective with the belief mean frozen now.

    Requires the true parameter (simulation mode).  The exact field is the
    stochastic one at the noise-free observation ``y* = W theta*``, which
    is why the estimate is unbiased.  The returned field takes a ``(d,)``
    point or an ``(n, d)`` batch, like :func:`stochastic_gradient`.
    """
    if obj.theta_star is None:
        raise ValueError("true parameter unknown: exact gradient unavailable in deployment mode")
    measures.same_size(m.d, obj.d, "measure dimension")
    y_star = obj.W @ obj.theta_star
    mu_mean = measures.mean(m)
    return lambda theta: stochastic_gradient(obj, theta, y_star, mu_mean)


def stochastic_gradient(obj: StreamingLSObjective, theta, y_hat, mu_mean) -> np.ndarray:
    """Unbiased gradient estimate from one observation.

    ``H theta - (W^T y_hat + rho mu_mean)``; its expectation over
    ``y_hat = W theta* + w`` (zero-mean ``w``) is the exact gradient.
    Accepts a single ``(d,)`` point or an ``(n, d)`` batch.
    """
    th = np.asarray(theta, dtype=float)
    single = th.ndim == 1
    pts = th[None, :] if single else th
    measures.same_size(pts.shape[1:], (obj.d,), "shape of each point of theta")
    y = np.asarray(y_hat, dtype=float)
    mm = np.asarray(mu_mean, dtype=float)
    measures.same_size(y.shape, (obj.d,), "y_hat shape")
    measures.same_size(mm.shape, (obj.d,), "mu_mean shape")
    if not np.all(np.isfinite(y)):
        raise ValueError("y_hat must be finite")
    out = _rows_times(obj.H, pts) - (obj.W.T @ y + obj.rho * mm)
    return out[0] if single else out


def perturbed_gradient(base, noise_std: float, rng: np.random.Generator) -> np.ndarray:
    """Add i.i.d. Gaussian noise to a gradient evaluation.

    Zero-mean noise keeps the estimate unbiased but inflates its second
    moment.  ``noise_std = 0`` returns the input values unchanged.
    """
    b = np.asarray(base, dtype=float)
    noise_std = measures.finite_number(noise_std, "noise_std", at_least=0)
    if noise_std == 0:
        return np.array(b)
    # Drawn coordinate by coordinate, the order in which the flow draws its
    # noise into each column of a step's cloud, one chunk at a time.
    return b + rng.normal(0.0, noise_std, size=b.shape[::-1]).T


def evaluate_objective(obj: StreamingLSObjective, m: ParticleMeasure) -> float:
    """Objective value at a belief (simulation mode only).

    Equals ``1/2 E_mu ||W(theta - theta*)||^2 + 1/2 sigma_w2 +
    rho/2 * tr(cov(mu))``; the noise cross term vanishes because the noise
    is zero-mean.  It is computed from the belief's mean ``m`` and
    covariance ``G`` (:func:`measures.covariance`) alone, as ``1/2 tr(H G)
    + 1/2 ||W(m - theta*)||^2 + 1/2 sigma_w2`` with ``tr(H G) = tr(W G W^T)
    + rho tr G``: passes over the particles, then d x d arithmetic.  Every
    term is a non-negative form, so the value is at least ``sigma_w2 / 2``,
    attained exactly at the Dirac belief on ``theta*``.
    """
    if obj.theta_star is None:
        raise ValueError("true parameter unknown: objective unavailable in deployment mode")
    measures.same_size(m.d, obj.d, "measure dimension")
    e = obj.W @ (measures.mean(m) - obj.theta_star)
    return 0.5 * (float(np.vdot(obj.H, measures.covariance(m))) + float(e @ e) + obj.sigma_w2)
