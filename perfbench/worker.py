"""In-process workloads of the benchmark, run in a fresh child process.

Usage (normally started by ``run.py``, which pins BLAS/OpenMP threads to 1
and puts the checkout's ``src`` on ``PYTHONPATH``)::

    python3 perfbench/worker.py WORKLOAD SEED SECONDS MODE [SPANS_PATH]

``MODE`` is ``setup`` (import and generate inputs, then exit), ``run``
(untraced passes) or ``trace`` (untraced and traced passes alternating).
The last line of standard output is one JSON object with the timings,
the gate counts and, in ``trace`` mode, the per-layer metrics; the spans
themselves are written to ``SPANS_PATH``.

Each workload is a closed loop in one thread: the next observation is
pulled only after ``flow.run`` has finished with the previous one.  The
package receives only inputs generated here from the seed.  Times are in
reference seconds (``speed.py``): the stream calibrates inside a pull
every ``CAL_EVERY_S`` of work, and that time is left out of the work.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import sys
import time

_T_IMPORT = time.monotonic()
import wgflow.cli  # noqa: E402  (timed: this is the package's cold import)

IMPORT_S = time.monotonic() - _T_IMPORT

import numpy as np  # noqa: E402
from wgflow import flow, functionals, measures, pdm, sets  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from checks import Gate  # noqa: E402
from tracing import Tracer, layer_metrics, top_self_span  # noqa: E402

# Decay rates of the paper's case study, the same for every seed: the
# seed draws the noise and the initial cloud.  (Scaling them per seed made
# the cost of the exact-W2 trace rows differ by 10-15 % between seeds.)
THETA = np.array([2.0 / 60.0, 5.0 / 60.0])
SPACING = 5.0
RHO = 0.1
TAU = 0.01
INIT_HI = [8.0 / 60.0, 8.0 / 60.0]

# stream_bulk: deployment mode, one (N, d) float64 array is 1.6 MB.
BULK_N = 100_000
BULK_K = 200
BULK_PERTURB = 0.02
BULK_RAW_STD = 0.01  # per-coordinate noise of one daily coefficient estimate

# ensemble_diag: simulation mode, the setting of acceptance criterion 2.
ENS_N = 256
ENS_K = 200
ENS_SEEDS = 20
ENS_SIGMA_W2 = 0.005


class StampedStream:
    """Observation iterator that timestamps every pull made by ``flow.run``.

    With a clock, it calibrates inside a pull when one is due and leaves
    that time out of the work it records: ``pieces(t0, t1)`` are the
    stretches of work of a run called at ``t0`` that returned at ``t1``.
    """

    def __init__(self, rows, clock=None):
        self.rows = rows
        self.clock = clock
        self.enters: list[float] = []
        self.exits: list[float] = []

    def __iter__(self):
        for y in self.rows:
            self.enters.append(time.monotonic())
            if self.clock is not None:
                self.clock.maybe_calibrate()
            self.exits.append(time.monotonic())
            yield y
        self.enters.append(time.monotonic())
        self.exits.append(self.enters[-1])

    def pieces(self, t0: float, t1: float) -> list:
        return list(zip([t0] + self.exits, self.enters + [t1]))


def timed_run(m0, obj, rows, cfg, clock):
    """``flow.run`` on a stamped stream; returns its result, its pieces of
    work and the pieces between successive pulls (one step each)."""
    stream = StampedStream(rows, clock)
    if clock is not None:
        clock.maybe_calibrate()
    t0 = time.monotonic()
    final, trace = flow.run(m0, obj, stream, cfg)
    pieces = stream.pieces(t0, time.monotonic())
    return final, trace, pieces, pieces[1:len(stream.exits)]


# -- stream_bulk ---------------------------------------------------------------

def bulk_inputs(seed: int) -> dict:
    """K differenced daily estimates of the paper's plant, with noise drawn
    from the seed, plus the initial cloud."""
    rng = np.random.default_rng([seed, 2])
    theta = THETA
    model = pdm.DegradationModel(2.5, 1.0, theta, 0.4, SPACING)
    days = [
        pdm.Observation(j * SPACING, pdm.degrade(model, j * SPACING) + rng.normal(0.0, BULK_RAW_STD, 2))
        for j in range(BULK_K + 1)
    ]
    w = pdm.process_matrix(SPACING)
    # A difference of two estimates carries two raw noise terms per coordinate.
    sigma_w2 = 2 * 2 * BULK_RAW_STD**2
    return {
        "theta": theta,
        "obs": pdm.difference_stream(days),
        "obj": functionals.StreamingLSObjective(w, RHO, None, sigma_w2),
        "m0": measures.init_uniform_box([0.0, 0.0], INIT_HI, BULK_N, seed),
        "cfg": flow.FlowConfig(
            tau=TAU,
            max_iters=BULK_K,
            seed=seed,
            constraint=sets.NonnegativeOrthant(2),
            perturb_std=BULK_PERTURB,
            diag_every=BULK_K,
        ),
    }


def bulk_limit(inp: dict) -> float:
    """Largest accepted ``sqrt(mean |x - theta*|^2)`` after the run.

    The perturbation adds ``d * perturb_std^2`` to the gradient noise, which
    the bound sees as ``d * perturb_std^2 / sigma_max(W)^2`` of extra
    observation noise.  The limit is the root of the bound on the expected
    squared distance at ``K``.
    """
    obj, m0, theta = inp["obj"], inp["m0"], inp["theta"]
    sigma_eff = obj.sigma_w2 + obj.d * BULK_PERTURB**2 / obj.sigma_max**2
    report = flow.validate_tau(obj.W, obj.rho, sigma_eff, TAU)
    w2_0 = closed_form_w2(m0.points, theta)
    return math.sqrt(flow.convergence_bound(report, w2_0, BULK_K))


def closed_form_w2(points: np.ndarray, theta: np.ndarray) -> float:
    """W2 distance from a cloud to the Dirac measure at ``theta``."""
    return math.sqrt(float(np.mean(np.sum((points - theta) ** 2, axis=1))))


def check_bulk(gate: Gate, inp: dict, final, trace, limit: float) -> None:
    pts = final.points
    gate.check(trace.iterations_run == BULK_K, f"stream_bulk: ran {trace.iterations_run} of {BULK_K} steps")
    gate.check(pts.shape == (BULK_N, 2), f"stream_bulk: final cloud has shape {pts.shape}")
    gate.check(bool(np.all(pts >= 0.0)), "stream_bulk: particle outside the nonnegative orthant")
    dist = closed_form_w2(pts, inp["theta"])
    gate.check(dist <= limit, f"stream_bulk: distance {dist:.3g} to theta* exceeds {limit:.3g}")


def bulk_pass(inp: dict, gate: Gate, limit: float, clock) -> dict:
    final, trace, pieces, steps = timed_run(inp["m0"], inp["obj"], inp["obs"], inp["cfg"], clock)
    check_bulk(gate, inp, final, trace, limit)
    return {"pieces": pieces, "latencies": steps, "steps": BULK_N * trace.iterations_run}


# -- ensemble_diag -------------------------------------------------------------

def ensemble_inputs(seed: int) -> dict:
    """One initial cloud and ENS_SEEDS noisy streams around the paper's theta*."""
    rng = np.random.default_rng([seed, 3])
    theta = THETA
    w = pdm.process_matrix(SPACING)
    per_coord = math.sqrt(ENS_SIGMA_W2 / 2.0)
    clean = w @ theta
    return {
        "obj": functionals.StreamingLSObjective(w, RHO, theta, ENS_SIGMA_W2),
        "m0": measures.init_uniform_box([0.0, 0.0], INIT_HI, ENS_N, seed),
        "streams": [clean + rng.normal(0.0, per_coord, (ENS_K, 2)) for _ in range(ENS_SEEDS)],
        "cfgs": [
            flow.FlowConfig(
                tau=TAU, max_iters=ENS_K, seed=s, constraint=sets.NonnegativeOrthant(2), diag_every=1
            )
            for s in range(ENS_SEEDS)
        ],
    }


def check_ensemble(gate: Gate, obj, traces) -> None:
    """Acceptance criterion 2: the seed mean of ``w2_ref^2`` stays under the
    bound plus three standard errors at every recorded ``k``."""
    ks = [row.k for row in traces[0].rows]
    gate.check(ks == list(range(ENS_K + 1)), "ensemble_diag: trace does not record every k")
    gate.check(
        all([row.k for row in tr.rows] == ks for tr in traces),
        "ensemble_diag: seeds recorded different k",
    )
    w2_sq = np.array([[row.w2_ref**2 for row in tr.rows] for tr in traces])
    report = flow.validate_tau(obj.W, obj.rho, obj.sigma_w2, TAU)
    w2_0 = math.sqrt(w2_sq[0, 0])
    for j, k in enumerate(ks):
        sample = w2_sq[:, j]
        se = float(sample.std(ddof=1)) / math.sqrt(len(traces)) if k > 0 else 0.0
        bound = flow.convergence_bound(report, w2_0, k)
        gate.check(
            float(sample.mean()) <= bound + 3.0 * se + 1e-12,
            f"ensemble_diag: seed-mean w2^2 above bound + 3 se at k={k}",
        )


def ensemble_pass(inp: dict, gate: Gate, limit, clock) -> dict:
    pieces, latencies, traces = [], [], []
    for rows, cfg in zip(inp["streams"], inp["cfgs"]):
        _, trace, run_pieces, steps = timed_run(inp["m0"], inp["obj"], rows, cfg, clock)
        pieces += run_pieces
        latencies += steps
        traces.append(trace)
    check_ensemble(gate, inp["obj"], traces)
    return {"pieces": pieces, "latencies": latencies, "steps": ENS_N * ENS_K * ENS_SEEDS}


WORKLOADS = {
    "stream_bulk": (bulk_inputs, bulk_limit, bulk_pass),
    "ensemble_diag": (ensemble_inputs, lambda inp: None, ensemble_pass),
}


def _quantile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv) -> int:
    workload, seed, seconds, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]
    spans_path = argv[4] if len(argv) > 4 else None
    # The cold pipeline runs its stages as processes of their own from run.py;
    # its set-up is process start and package import only.
    make_inputs, make_limit, one_pass = WORKLOADS.get(workload, (lambda s: None, None, None))
    inp = make_inputs(seed)
    ready = time.monotonic()
    out = {
        "ready": ready,
        "import_s": IMPORT_S,
        "versions": {"numpy": np.__version__, "scipy": _scipy_version(), "wgflow": wgflow.__version__},
    }
    if mode == "setup" or one_pass is None:
        print(json.dumps(out))
        return 0

    from speed import RefClock  # after ``ready``: not part of the package's set-up

    out["array_mb"] = inp["m0"].points.nbytes / 1e6
    limit = make_limit(inp)
    gate = Gate()
    clock = RefClock()
    tracer = Tracer() if mode == "trace" else None
    one_pass(inp, gate, limit, clock)  # warm-up: lazy set-up and caches, not timed
    plain, traced = [], []
    deadline = ready + seconds
    while True:
        plain.append(one_pass(inp, gate, limit, clock))
        if tracer is not None:
            tracer.run += 1
            tracer.install()
            try:
                with tracer.span("pass"):
                    traced.append(one_pass(inp, gate, limit, None))
            finally:
                tracer.uninstall()
        if time.monotonic() >= deadline:
            break
    clock.calibrate()  # brackets the last piece of work

    def wall(pieces):
        return sum(b - a for a, b in pieces)

    def ref(pieces):
        return sum(clock.ref_seconds(a, b) for a, b in pieces)

    pass_ref = [ref(p["pieces"]) for p in plain]
    latencies = [clock.ref_seconds(a, b) for p in plain for a, b in p["latencies"]]
    out.update(
        passes=len(plain),
        pass_s=pass_ref,
        pass_wall_s=[wall(p["pieces"]) for p in plain],
        speed=clock.speed(),
        calibration_s=clock.spent_s,
        steps_per_s=sum(p["steps"] for p in plain) / sum(pass_ref),
        latency_ms_p50=statistics.median(latencies) * 1e3,
        latency_ms_p95=_quantile(latencies, 95) * 1e3,
        latency_samples=len(latencies),
        attempted=gate.attempted,
        failures=gate.failures[:20],
        failed=len(gate.failures),
    )
    if tracer is not None:
        m = layer_metrics(tracer.spans, tracer.counters, len(traced))
        traced_wall = statistics.median(wall(p["pieces"]) for p in traced)
        m["trace.overhead_frac"] = traced_wall / statistics.median(out["pass_wall_s"]) - 1.0
        m["measures.init_uniform_box.busy_s"] = _time_init(workload, seed)
        out["layers"] = m
        out["top_span"] = top_self_span(tracer.spans)
        tracer.dump(spans_path)
    print(json.dumps(out))
    return 0


def _scipy_version() -> str:
    import scipy

    return scipy.__version__


def _time_init(workload: str, seed: int) -> float:
    """Time of the initial-cloud draw, which belongs to set-up, not a pass."""
    n = BULK_N if workload == "stream_bulk" else ENS_N
    t0 = time.monotonic()
    measures.init_uniform_box([0.0, 0.0], INIT_HI, n, seed)
    return time.monotonic() - t0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
