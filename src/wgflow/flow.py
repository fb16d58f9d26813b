"""Stochastic projected gradient descent over particle beliefs.

One iteration consumes one observation: freeze the belief mean, evaluate
the stochastic gradient field on every particle, optionally perturb it
with zero-mean noise, take an explicit Euler step of size ``tau``, and
project every particle back onto the constraint set.  The constants
governing convergence (contraction rate, largest safe step, asymptotic
ball radius), by which a run is judged, are derived beside the objective
in :mod:`wgflow.functionals` and re-exported here.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from typing import Iterable, NamedTuple, Optional

import numpy as np

from . import files, functionals, measures, transport
from .errors import ConfigError, DataError, NumericalError, UnsafeStepError
from .functionals import StreamingLSObjective
# Defined beside the objective, so diagnose need not import this module.
from .functionals import StepBoundReport, convergence_bound, validate_tau  # noqa: F401
from .measures import ParticleMeasure, same_size, whole_number
from .sets import ConvexSet


def step(m: ParticleMeasure, field_values, tau: float, s: ConvexSet) -> ParticleMeasure:
    """One projected descent step: ``x_i -> proj_S(x_i - tau * xi_i)``.

    ``field_values`` holds the gradient field evaluated per particle, in
    particle order; the order is preserved in the result and every output
    particle lies in ``s``.
    """
    fv = np.asarray(field_values, dtype=float)
    same_size(fv.shape, (m.n, m.d), "field values shape")
    tau = measures.finite_number(tau, "tau", above=0)
    moved = m.points - tau * fv
    return ParticleMeasure(s.project_points(moved))


class TraceRow(NamedTuple):
    """One diagnostics record of a run (in-memory form)."""

    k: int
    objective: Optional[float]
    w2_ref: Optional[float]
    mean: np.ndarray
    grad_norm: Optional[float]


class FlowTrace(NamedTuple):
    """What :func:`run` returns beside the final cloud: the run's step-size
    report, its diagnostics rows (increasing ``k``) and the steps it really ran."""

    report: StepBoundReport
    rows: list
    iterations_run: int


class FlowConfig:
    """Run parameters for the descent loop.

    ``diag_every`` controls the trace stride; ``diag_subsample`` caps the
    cloud size of a row's exact W2, taken on one seeded :func:`transport.subsample`
    (a cap of at least the particle count measures the whole cloud; :func:`run`
    refuses one that would measure more than the exact solver's cap).  ``workers`` is
    accepted and validated but has no effect: every worker count runs the
    same single pass, so results are identical by construction.
    ``on_invalid`` chooses between aborting on a bad observation (default)
    and skipping it with a log message, for library streams: the command
    line's readers refuse a bad observation first.  Every integer field goes
    through :func:`measures.whole_number`, so a fraction, a bool or a value
    below its bound is refused and an integral float is kept as its ``int``.
    """

    def __init__(
        self, tau: float, max_iters: int, seed: int, constraint: ConvexSet, perturb_std: float = 0.0,
        diag_every: int = 10, diag_subsample: int = 256, allow_unsafe_tau: bool = False,
        on_invalid: str = "abort", workers: int = 1, checkpoint_every: int = 0,
        checkpoint_path: Optional[str] = None,
    ):
        self.tau = measures.finite_number(tau, "tau", above=0)
        self.max_iters = whole_number(max_iters, "max_iters", at_least=0)
        self.seed = whole_number(seed, "seed", at_least=0)
        self.constraint = constraint
        self.perturb_std = measures.finite_number(perturb_std, "perturb_std", at_least=0)
        self.diag_every = whole_number(diag_every, "diag_every", at_least=1)
        self.diag_subsample = whole_number(diag_subsample, "diag_subsample", at_least=1)
        self.allow_unsafe_tau = allow_unsafe_tau
        if on_invalid not in ("abort", "skip"):
            raise ValueError("on_invalid must be 'abort' or 'skip'")
        self.on_invalid = on_invalid
        self.workers = whole_number(workers, "workers", at_least=1)
        self.checkpoint_every = whole_number(checkpoint_every, "checkpoint_every", at_least=0)
        if self.checkpoint_every and checkpoint_path is None:
            raise ValueError("checkpoint_every needs a checkpoint_path to write to")
        self.checkpoint_path = checkpoint_path


# The most perturbation normals drawn at once (128 KB): one chunk buffer
# stands in for an (N, d) noise array.
_NOISE_CHUNK = 2**14


def _affine(x: np.ndarray, a: np.ndarray, c: np.ndarray, out: np.ndarray, rng, scale: float, chunk):
    """``x A + c`` into the column-major ``out``, less ``scale`` times the
    normals ``rng`` draws coordinate by coordinate through ``chunk``: a
    step's cloud before projection."""
    np.matmul(x, a, out=out)
    out += c
    if rng is not None:
        for col in out.T:
            for start in range(0, col.size, chunk.size):
                part = chunk[: col.size - start]
                rng.standard_normal(out=part)
                part *= scale
                col[start : start + part.size] -= part
    return out


def _grad_norm(prev: np.ndarray, moved: np.ndarray, tau: float, out=None) -> float:
    # The step moved every particle to ``prev - tau * xi`` before projecting,
    # so the perturbed field it followed is ``(prev - moved) / tau``.
    g = np.subtract(prev, moved, out=out)
    g *= g
    return math.sqrt(float(g.sum()) / g.shape[0]) / tau


# Overflow inside a step shows up as a non-finite mean, which run reports
# as divergence; NumPy's warnings about it would only repeat that.
@np.errstate(over="ignore", invalid="ignore")
def run(
    m0: ParticleMeasure,
    obj: StreamingLSObjective,
    stream: Iterable,
    cfg: FlowConfig,
    start_iteration: int = 0,
) -> tuple[ParticleMeasure, FlowTrace]:
    """Run the descent, consuming one observation per iteration.

    Iteration ``k`` is :func:`step` with the perturbed stochastic gradient
    of observation ``y_k``, written as one affine map and a projection:
    ``x -> proj_S(x A + c_k - tau eps_k)`` with ``A = I - tau H`` (``H`` the
    objective's Hessian), ``c_k = tau (W^T y_k + rho mean_k)`` and ``eps_k``
    the perturbation.

    The iteration index ``k`` counts observations (``start_iteration``
    offsets it when resuming from a checkpoint); perturbation noise is
    drawn from a stream keyed by ``(seed, k)``, so a resumed run reproduces
    the uninterrupted one bit for bit.  Diagnostics rows are recorded at
    ``k = 0``, every ``diag_every`` iterations and at the final iterate.
    If the stream runs out early the trace's ``iterations_run`` reports the
    actual count.  A particle mean or trace-row value that is not finite
    raises :class:`NumericalError` naming the iteration.

    The step size is judged by :func:`validate_tau` before any work: one
    outside ``(0, tau_max)`` raises :class:`UnsafeStepError` unless
    ``cfg.allow_unsafe_tau``, and the report is returned as the trace's
    ``report``.  A step (the affine map, the noise and the projection)
    works in two ``(N, d)`` buffers and one noise chunk of at most
    ``_NOISE_CHUNK`` values, allocated once, so it allocates no array of
    ``N`` particles; trace rows and checkpoints copy what they keep.  The
    noise keeps its bits whatever the chunk size: NumPy's float64 normals
    keep no spare value between calls, so filling the chunk again and again
    draws the values one fill of an ``(N, d)`` array would.
    """
    same_size(m0.d, obj.d, "measure dimension")
    same_size(cfg.constraint.dim, m0.d, "constraint dimension")
    start_iteration = whole_number(start_iteration, "start_iteration", at_least=0)

    report = validate_tau(obj.W, obj.rho, obj.sigma_w2, cfg.tau)
    if not report.tau_valid and not cfg.allow_unsafe_tau:
        raise UnsafeStepError(
            f"step size {cfg.tau} is not inside (0, {report.tau_max:.6g}); "
            "rerun with --force (allow_unsafe_tau=True) to override"
        )

    # Diagnostics subsample: the same seeded particles at every row.
    ref_measure = None
    if obj.theta_star is not None:
        ref_size = min(cfg.diag_subsample, m0.n)
        transport.check_subsample(cfg.diag_subsample, ref_size)
        ref_measure = ParticleMeasure(np.tile(obj.theta_star, (ref_size, 1)))

    rows = []

    def record(k, mean, grad_norm):
        objective = w2 = None
        if obj.theta_star is not None:
            m = ParticleMeasure(x)
            objective = functionals.evaluate_objective(obj, m)
            cloud = transport.subsample(m, ref_measure.n, cfg.seed, measures.TRACE_SUBSAMPLE_STREAM)
            w2, _ = transport.w2_exact(cloud, ref_measure)
        # A finite cloud far enough out overflows its squared norms.
        for name, value in (("objective", objective), ("grad_norm", grad_norm)):
            if value is not None:
                measures.finite_result(value, name)
        rows.append(TraceRow(k=k, objective=objective, w2_ref=w2, mean=mean, grad_norm=grad_norm))

    tau = cfg.tau
    d = m0.d
    # A is symmetric, so a row of particles multiplies it from the left.
    a = np.eye(d) - tau * obj.H
    tau_wt = tau * obj.W.T
    tau_rho = tau * obj.rho
    noise_scale = tau * cfg.perturb_std
    sidecar = checkpoint_fields(m0.n, obj, cfg) if cfg.checkpoint_every else None
    # Two column-major (N, d) buffers, the iterate x and the work buffer
    # moved, so every per-step pass runs over contiguous columns, and one
    # noise chunk, drawn into column by column.  A step builds its cloud in
    # moved, projects it in place and swaps the two, so the previous iterate
    # stays in moved until the next step overwrites it, or a recorded
    # step's grad_norm does.
    x = np.array(m0.points, order="F")
    moved = np.empty_like(x)
    chunk = np.empty(min(m0.n, _NOISE_CHUNK)) if noise_scale > 0 else None
    c = grad_norm = last_k = None  # of the last step taken
    k = start_iteration

    def draws(key):  # a step's perturbation normals, or None without noise
        return None if chunk is None else measures.substream(cfg.seed, measures.PERTURB_STREAM, key)

    # Every refusal while stepping or recording names the iteration here, once.
    try:
        mean = measures.finite_result(x.mean(axis=0), "the particle mean")
        record(k, mean, None)

        for y in itertools.islice(stream, cfg.max_iters):
            y = np.asarray(y, dtype=float)
            ok = y.shape == (d,) and bool(np.all(np.isfinite(y)))
            if not ok:
                if cfg.on_invalid == "abort":
                    raise DataError(f"invalid observation at iteration {k}: {y!r}")
                import logging  # only this path logs; no flow stage loads logging otherwise (~5 ms)

                logging.getLogger(__name__).warning(
                    "skipping invalid observation at iteration %d", k
                )
                k += 1
                continue

            c = tau_wt @ y + tau_rho * mean
            last_k = k
            _affine(x, a, c, moved, draws(k), noise_scale, chunk)
            k += 1
            record_due = (k - start_iteration) % cfg.diag_every == 0
            checkpoint_due = cfg.checkpoint_every and (k - start_iteration) % cfg.checkpoint_every == 0
            # Taken before the projection overwrites moved; the previous
            # iterate, spent once moved is built, holds the field.
            grad_norm = _grad_norm(x, moved, tau, x) if record_due else None
            cfg.constraint.project_points(moved, out=moved)
            x, moved = moved, x
            mean = measures.finite_result(x.mean(axis=0), "the particle mean")

            if record_due:
                record(k, mean, grad_norm)
            if checkpoint_due:
                write_checkpoint(cfg.checkpoint_path, ParticleMeasure(x), k, sidecar)

        if rows[-1].k != k:
            if grad_norm is None and c is not None:
                # Rebuild the last step's cloud before projection from the
                # iterate it started at, which moved still holds, with its
                # noise drawn again from the key of that step (skipped
                # observations advance k past it).
                pre = _affine(moved, a, c, np.empty_like(moved), draws(last_k), noise_scale, chunk)
                grad_norm = _grad_norm(moved, pre, tau, pre)
            record(k, mean, grad_norm)
    except NumericalError as exc:
        raise NumericalError(f"flow diverged at iteration {k}: {exc}") from None
    moved = pre = None  # freed before the final copy
    return ParticleMeasure(x), FlowTrace(report, rows, k - start_iteration)


# -- trace and checkpoint files ------------------------------------------

def write_trace_csv(trace: FlowTrace, path, d: int) -> None:
    """Write trace rows: ``k,objective,w2_ref,mean_1..mean_d,grad_norm``.

    Absent quantities become empty fields.
    """
    files.write_table(
        path,
        ["k", "objective", "w2_ref"] + [f"mean_{j + 1}" for j in range(d)] + ["grad_norm"],
        ([r.k, r.objective, r.w2_ref, *r.mean, r.grad_norm] for r in trace.rows),
    )


def checkpoint_fields(n: int, obj: StreamingLSObjective, cfg: FlowConfig) -> dict:
    """Every sidecar field that ties a checkpoint to its run, in sidecar
    order and as the sidecar spells them: the seed and the generator with
    its purpose keys (``measures.RNG_TAG``), which with the iteration fix
    every remaining random draw, then every setting that moves the
    particles of an ``n``-particle run of ``obj`` under ``cfg``, then
    ``numpy``, the NumPy version, since NumPy does not promise the same
    bits from one version to the next.  The observations are not among
    them (:func:`run` never sees their file), so a resume on another file
    of the same spacing is not refused."""
    return {
        "seed": str(cfg.seed),
        "rng": measures.RNG_TAG,
        "n": str(n),
        "d": str(obj.d),
        "tau": repr(cfg.tau),
        "constraint": json.dumps(cfg.constraint.record()),
        "perturb_std": repr(cfg.perturb_std),
        "rho": repr(obj.rho),
        "W": json.dumps(obj.W.tolist()),
        "numpy": np.__version__,
    }


def write_checkpoint(path_base: str, m: ParticleMeasure, iteration: int, fields: dict) -> None:
    """Write a resumable snapshot: particle CSV plus a key-value sidecar.

    The sidecar holds ``iteration``, then ``fields`` (see
    :func:`checkpoint_fields`), then the sha256 of the particle file, which
    :func:`read_checkpoint` checks; it is written last, after the particles.
    """
    particles = path_base + ".particles.csv"
    measures.write_particles_csv(m, particles)
    meta = {"iteration": iteration, **fields}
    meta["sha256"] = files.sha256(particles)
    files.write_settings(path_base + ".meta.txt", meta)


def read_checkpoint(path_base: str, expect: dict) -> tuple[ParticleMeasure, int]:
    """Read a snapshot written by :func:`write_checkpoint`: its cloud and
    the iteration to resume at.

    A missing particle file raises :class:`ConfigError`; one whose sha256
    differs from the sidecar's, or a sidecar without one, raises
    :class:`DataError` before anything is parsed, as does a sidecar that
    lacks a field of ``expect`` (see :func:`checkpoint_fields`) or holds
    another value, or whose iteration is not a whole number >= 0.
    """
    particles = path_base + ".particles.csv"
    if not os.path.isfile(particles):
        raise ConfigError(f"checkpoint not found: {particles}")
    meta_path = path_base + ".meta.txt"
    meta = files.read_settings(meta_path, DataError)
    if meta.get("sha256") != files.sha256(particles):
        raise DataError(f"{particles} does not match the sha256 in {meta_path}: damaged checkpoint")
    for key, value in expect.items():
        if key not in meta:
            raise DataError(f"{meta_path}: checkpoint does not record '{key}', so it cannot be resumed")
        if meta[key] != value:
            raise DataError(
                f"{meta_path}: checkpoint {key} = {meta[key]} does not match this run's {key} = {value}"
            )
    try:
        iteration = int(meta["iteration"])
    except (KeyError, ValueError) as exc:
        raise DataError(f"{meta_path}: bad checkpoint metadata ({exc})") from None
    if iteration < 0:
        raise DataError(f"{meta_path}: bad checkpoint metadata (iteration = {iteration} is negative)")
    return measures.read_particles_csv(particles), iteration
