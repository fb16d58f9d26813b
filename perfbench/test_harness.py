"""Self-test of the benchmark harness.

Run from the root of a checkout with ``python3 -m pytest perfbench -q``
(about a minute: it runs two short workloads end to end).
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from checks import Gate, check_particles  # noqa: E402
from speed import REF_S, RefClock  # noqa: E402
from tracing import self_times  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


@pytest.mark.parametrize(
    "workload,trace,key",
    [("ensemble_diag", "0", "end_to_end"), ("ensemble_diag", "1", "per_layer"), ("pipeline_cold", "0", "end_to_end")],
)
def test_printed_metrics_match_benchmark_json(workload, trace, key):
    proc = _run("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = {m["name"]: m["unit"] for m in _spec()[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec


def test_workload_names_match_benchmark_json():
    from run import WORKLOADS

    assert [w["name"] for w in _spec()["workloads"]] == list(WORKLOADS)


def _write_particles(path, rows):
    with open(path, "w") as fh:
        fh.write("x1,x2\n")
        for a, b in rows:
            fh.write(f"{a!r},{b!r}\n")


def test_particle_gate_accepts_orthant_cloud(tmp_path):
    path = tmp_path / "particles.csv"
    _write_particles(path, [(0.0, 0.1)] * 5)
    gate = Gate()
    check_particles(gate, str(path), 5)
    assert gate.failures == [] and gate.attempted == 2


@pytest.mark.parametrize(
    "rows,n",
    [
        ([(0.0, 0.1)] * 4 + [(-1e-9, 0.1)], 5),  # one negative coordinate
        ([(0.0, 0.1)] * 4, 5),  # truncated file
        ([(0.0, float("nan"))] * 5, 5),  # non-finite value
    ],
)
def test_particle_gate_rejects_corrupted_file(tmp_path, rows, n):
    path = tmp_path / "particles.csv"
    _write_particles(path, rows)
    gate = Gate()
    check_particles(gate, str(path), n)
    assert len(gate.failures) == 1


def test_self_times_add_up_to_root():
    spans = [
        ("pass", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("b", 2.0, 3.0, 1, 0),
        ("c", 5.0, 9.0, 0, 0),
    ]
    selfs = self_times(spans)
    assert selfs == [3.0, 2.0, 1.0, 4.0]
    assert sum(selfs) == 10.0


def test_ref_seconds_scale_by_nearby_calibrations():
    clock = RefClock()
    clock.ends = [0.0, 100.8, 101.0, 101.2, 110.0]
    clock.kernel_s = [REF_S, 2 * REF_S, 2 * REF_S, 8 * REF_S, 3 * REF_S]
    # Near t = 101 the machine ran at half the reference speed (median of
    # the three calibrations within the window).
    assert abs(clock.ref_seconds(100.5, 101.5) - 0.5) < 1e-12
    # Far from every calibration, the two that bracket the work apply.
    assert abs(clock.ref_seconds(50.0, 51.0) - 1.0 / 1.5) < 1e-12
    # After the last one, only the last.
    assert abs(clock.ref_seconds(200.0, 201.0) - 1.0 / 3.0) < 1e-12


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "stream_bulk", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
