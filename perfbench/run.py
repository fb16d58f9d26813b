"""The wgflow benchmark: one workload, one seed, one line of JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (the reasons are also stored in ``BENCHMARK.json``):

``pipeline_cold``
    The paper case study as a maintenance operator runs it: ``simulate``,
    ``flow``, ``predict`` and ``diagnose --reference OUT/particles.csv``,
    each a cold ``python3 -m wgflow.cli`` process with ``--paper-preset
    --seed N``, one after the other.  Dominated by the package import and
    the plant simulation loop.
``stream_bulk``
    ``flow.run`` in deployment mode at N = 100 000 particles, d = 2, on
    K = 200 differenced observations, no diagnostics until the end.
    Dominated by the step (gradient, perturbation, projection).  One
    (N, d) float64 array is 1.6 MB, far inside the last-level cache, so
    this measures compute and NumPy dispatch, not memory bandwidth.
``ensemble_diag``
    20 seeds of ``flow.run`` at N = 256, K = 200, in simulation mode with
    a trace row at every step, as acceptance criterion 2 runs it.
    Dominated by trace recording (exact W2 by assignment) and per-run
    overhead.

Every workload is a closed loop from one process and one thread (BLAS and
OpenMP are pinned to one thread), repeated as whole passes on the same
seeded inputs until ``--seconds`` have passed.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median of
``SETUP_SAMPLES`` fresh processes, each from spawn through ``import
wgflow`` to generated inputs), ``pass_s`` (median time of one pass),
``particle_steps_per_s``, ``latency_ms_p50``/``latency_ms_p95`` (one
closed-loop operation: a step between two observations pulled by
``flow.run``, or one cold CLI stage on ``pipeline_cold``) and
``peak_rss_mb`` (largest child process).  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of the traced
ones, per pass, plus ``trace.overhead_frac``; the spans go to
``.perfbench_out/``.

Every time among the end-to-end metrics is in reference seconds: the
benchmark pins itself and its children to one CPU and scales each piece
of work by a calibration kernel run next to it (see ``speed.py``), because
the speed of the shared machine the bounds were set on drifts within a
run and between runs by more than the bounds.  The raw wall times, and
the machine's speed against the reference, are printed with each result.
Per-layer times are raw wall times of the traced passes.

Every pass runs the workload's correctness gate; ``attempted`` and
``failed`` in the result count the checks made (on ``pipeline_cold`` the
exit status of each stage is one), and ``failed / attempted`` is printed
as ``failed_frac``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)
THREAD_VARS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
# Before NumPy is imported (by ``speed``): the calibration kernel runs in
# this process too, and must not start BLAS threads on the pinned CPU.
os.environ.update(THREAD_VARS)

from checks import PRESET_DAYS, PRESET_PARTICLES, Gate, check_pipeline  # noqa: E402
from speed import REF_S, RefClock, pin_cpu  # noqa: E402
from tracing import Tracer, layer_metrics, maybe_span, top_self_span  # noqa: E402

WORKLOADS = ("pipeline_cold", "stream_bulk", "ensemble_diag")
STAGES = ("simulate", "flow", "predict", "diagnose")
SETUP_SAMPLES = 7
STAGE_TIMEOUT_S = 120
WORKER_SLACK_S = 120

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "particle_steps_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p95": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark could not run (not a per-pass correctness failure)."""


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC)


def run_child(cmd, timeout: float, check: bool = True) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=timeout,
    )
    if check and proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[1:3])} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc


def worker(workload: str, seed: int, seconds: float, mode: str, spans_path=None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), str(seconds), mode]
    if spans_path:
        cmd.append(spans_path)
    spawn = time.monotonic()
    proc = run_child(cmd, seconds + WORKER_SLACK_S)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["spawn"] = spawn
    return out


def measure_setup(workload: str, seed: int, clock: RefClock) -> dict:
    """Median set-up of fresh processes, each between two calibrations,
    after one untimed process that lets the interpreter write its
    bytecode caches."""
    worker(workload, seed, 0, "setup")
    samples = []
    for _ in range(SETUP_SAMPLES):
        clock.calibrate()
        samples.append(worker(workload, seed, 0, "setup"))
    clock.calibrate()
    return {
        "setup_s": statistics.median(clock.ref_seconds(s["spawn"], s["ready"]) for s in samples),
        "setup_wall_s": statistics.median(s["ready"] - s["spawn"] for s in samples),
        "import_s": statistics.median(s["import_s"] for s in samples),
        "versions": samples[0]["versions"],
    }


# -- pipeline_cold -------------------------------------------------------------

def stage_args(stage: str, seed: int, out_dir: str) -> list:
    args = [stage, "--paper-preset", "--seed", str(seed), "--out", out_dir]
    if stage == "diagnose":
        args += ["--reference", os.path.join(out_dir, "particles.csv")]
    return args


def pipeline_pass(seed: int, workdir: str, gate: Gate, tracer: Tracer | None, clock: RefClock | None) -> dict:
    """Run the four stages as cold processes, calibrating before each when
    given a clock; return each stage's ``(start, end)``."""
    out_dir = tempfile.mkdtemp(dir=workdir)
    times = {}
    for stage in STAGES:
        args = stage_args(stage, seed, out_dir)
        if tracer is None:
            cmd = [sys.executable, "-m", "wgflow.cli", *args]
        else:
            spans_path = os.path.join(workdir, f"{stage}.spans.json")
            cmd = [sys.executable, os.path.join(HERE, "cli_shim.py"), spans_path, *args]
        if clock is not None:
            clock.calibrate()
        start = time.monotonic()
        proc = run_child(cmd, STAGE_TIMEOUT_S, check=False)
        end = time.monotonic()
        times[stage] = (start, end)
        ok = gate.check(proc.returncode == 0, f"{stage} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
        if tracer is not None:
            parent = tracer.add_span(f"proc.{stage}", start, end)
            if ok:
                merge_spans(tracer, spans_path, parent)
    with maybe_span(tracer, "bench.gate"):
        check_pipeline(gate, out_dir)
    shutil.rmtree(out_dir)
    return times


def merge_spans(tracer: Tracer, path: str, parent: int) -> None:
    """Append a child process's spans under ``parent``, re-indexed."""
    with open(path) as fh:
        data = json.load(fh)
    base = len(tracer.spans)
    for name, start, end, p, _ in data["spans"]:
        tracer.spans.append((name, start, end, parent if p < 0 else p + base, tracer.run))
    for key, value in data["counters"].items():
        tracer.counters[key] += value


def run_pipeline(seed: int, seconds: float, trace: bool, workdir: str, clock: RefClock) -> dict:
    gate = Gate()
    tracer = Tracer() if trace else None
    plain, traced = [], []
    deadline = time.monotonic() + seconds
    while True:
        plain.append(pipeline_pass(seed, workdir, gate, None, clock))
        if tracer is not None:
            tracer.run += 1
            with tracer.span("pass"):
                times = pipeline_pass(seed, workdir, gate, tracer, None)
            traced.append(sum(b - a for a, b in times.values()))
        if time.monotonic() >= deadline:
            break
    clock.calibrate()  # brackets the last stage
    ref = [{stage: clock.ref_seconds(a, b) for stage, (a, b) in p.items()} for p in plain]
    pass_s = [sum(r.values()) for r in ref]
    pass_wall_s = [sum(b - a for a, b in p.values()) for p in plain]
    stage_s = [x for r in ref for x in r.values()]
    out = {
        "passes": len(plain),
        "pass_s": pass_s,
        "pass_wall_s": pass_wall_s,
        "speed": clock.speed(),
        "calibration_s": clock.spent_s,
        # The flow stage alone is a single short cold process per pass, too
        # noisy to divide by; the pipeline's throughput uses whole passes.
        "steps_per_s": PRESET_PARTICLES * (PRESET_DAYS - 1) * len(pass_s) / sum(pass_s),
        "latency_ms_p50": statistics.median(stage_s) * 1e3,
        "latency_ms_p95": quantile(stage_s, 95) * 1e3,
        "latency_samples": len(stage_s),
        "attempted": gate.attempted,
        "failed": len(gate.failures),
        "failures": gate.failures[:20],
        "notes": gate.notes[:20],
    }
    if tracer is not None:
        m = layer_metrics(tracer.spans, tracer.counters, len(traced))
        m["trace.overhead_frac"] = statistics.median(traced) / statistics.median(pass_wall_s) - 1.0
        for stage in STAGES:
            m[f"cli.{stage}.wall_s"] = statistics.median(b - a for a, b in (p[stage] for p in plain))
        out["layers"] = m
        out["top_span"] = top_self_span(tracer.spans)
        tracer.dump(os.path.join(OUT, "pipeline_cold.spans.json"))
    return out


# -- report ----------------------------------------------------------------------

def quantile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def environment(versions: dict) -> dict:
    """Machine and software facts recorded next to every result."""
    model = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    cache = "/sys/devices/system/cpu/cpu0/cache"
    caches = {}
    for index in sorted(os.listdir(cache)) if os.path.isdir(cache) else ():
        level = _read(os.path.join(cache, index, "level"))
        kind = _read(os.path.join(cache, index, "type"))
        if kind in ("Data", "Unified") and level != "unknown":
            caches[f"L{level}"] = _read(os.path.join(cache, index, "size"))
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        **versions,
        "threads": THREAD_VARS,
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "wgflow", "cli.py")):
        print(f"perfbench: no wgflow sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2

    # On SIGTERM, unwind so subprocess.run kills and reaps the running child
    # and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    cpu = pin_cpu()
    clock = RefClock()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        setup = measure_setup(args.workload, args.seed, clock)
        if args.workload == "pipeline_cold":
            res = run_pipeline(args.seed, args.seconds, bool(args.trace), workdir, clock)
        else:
            spans = os.path.join(OUT, f"{args.workload}.spans.json") if args.trace else None
            res = worker(args.workload, args.seed, args.seconds, "trace" if args.trace else "run", spans)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    e2e = {
        "setup_s": setup["setup_s"],
        "pass_s": statistics.median(res["pass_s"]),
        "particle_steps_per_s": res["steps_per_s"],
        "latency_ms_p50": res["latency_ms_p50"],
        "latency_ms_p95": res["latency_ms_p95"],
        "peak_rss_mb": peak_rss_mb,
    }
    env = environment(setup["versions"])
    print(f"workload {args.workload}, seed {args.seed}, {res['passes']} passes in {args.seconds:g} s, "
          f"{res['latency_samples']} latency samples, pinned to CPU {cpu}")
    print("environment " + json.dumps(env))
    print(f"machine speed {res['speed']:.3f} of the reference (kernel {REF_S * 1e3:g} ms), "
          f"{res['calibration_s']:.2f} s spent calibrating; raw wall times: "
          f"setup {setup['setup_wall_s']:.4f} s, pass median {statistics.median(res['pass_wall_s']):.4f} s")
    if "array_mb" in res:
        print(f"working set: one (N, d) float64 particle array is {res['array_mb']:.3g} MB "
              f"against L3 {env['caches'].get('L3', 'unknown')}")
    for name, value in e2e.items():
        print(f"{name} = {value:.6g} {END_TO_END_UNITS[name]}")
    print(f"failed_frac = {res['failed'] / res['attempted']:.6g} "
          f"({res['failed']} of {res['attempted']} operations and checks)")
    for msg in res["failures"]:
        print(f"FAILED: {msg}")
    for msg in res.get("notes", ()):
        print(f"NOTE: {msg}")

    if args.trace:
        layers = dict(res["layers"])
        layers["cli.import_s"] = setup["import_s"]
        for stage in STAGES:
            layers.setdefault(f"cli.{stage}.wall_s", 0.0)  # cold stages run on pipeline_cold only
        for name in sorted(layers):
            print(f"{name} = {layers[name]:.6g}")
        print(f"self times add up to {layers['trace.self_sum_s']:.6f} s per traced pass, "
              f"traced wall {layers['trace.wall_s']:.6f} s")
        top, share = res["top_span"]
        print(f"top self-time span: {top} ({share:.1%} of traced wall)")
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}

    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ns_per_particle"):
        return "ns"
    if name.endswith("ms_p50"):
        return "ms"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith("_frac"):
        return "fraction"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
