import ast
import contextlib
import csv
import errno
import io
import math
import os
import re
import resource
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wgflow
from wgflow import cli, measures, pdm, transport
from wgflow.errors import EngineError
from wgflow.pdm import DegradationModel, Observation, degrade, write_observations_csv

LAM = np.array([2.0 / 60.0, 5.0 / 60.0])
SRC = os.path.dirname(os.path.dirname(os.path.abspath(wgflow.__file__)))


def run_cli(*argv):
    return cli.main(list(argv))


def fast_sim_args(out, days=3, extra=()):
    return [
        "simulate", "--paper-preset", "--out", str(out),
        "--days", str(days), "--horizon", "2.0",
        *extra,
    ]


def run_cli_process(*args, **kwargs):
    """Run a fresh ``python`` on the package, capturing its output."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120, **kwargs
    )


def write_noise_free_observations(path, days, spacing=5.0):
    model = DegradationModel(2.5, 1.0, LAM, 0.4, spacing)
    obs = [Observation(j * spacing, degrade(model, j * spacing)) for j in range(days)]
    write_observations_csv(obs, path)


class TestSimulate:
    def test_writes_observations(self, tmp_path, capsys):
        assert run_cli(*fast_sim_args(tmp_path)) == 0
        rows = list(csv.reader(open(tmp_path / "observations.csv")))
        assert rows[0] == ["t", "a_hat", "b_hat"]
        assert len(rows) == 4
        out = capsys.readouterr().out
        assert "raw estimate noise" in out

    def test_noise_free_day_zero_recovery(self, tmp_path):
        assert run_cli(*fast_sim_args(tmp_path, extra=("--eps_half_width", "0"))) == 0
        obs = pdm.read_observations_csv(tmp_path / "observations.csv")
        assert abs(obs[0].y_hat[0] - 2.5) < 1e-8
        assert abs(obs[0].y_hat[1] - 1.0) < 1e-8

    def test_byte_identical_rerun(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run_cli(*fast_sim_args(out_a)) == 0
        assert run_cli(*fast_sim_args(out_b)) == 0
        assert (out_a / "observations.csv").read_bytes() == (out_b / "observations.csv").read_bytes()

    # dt = 1 puts the spectral radius on the bound, which is refused too.
    @pytest.mark.parametrize("dt, radius", [("3.0", "5.000000"), ("1", "1.000000")])
    def test_unstable_dt_exits_4(self, tmp_path, capsys, dt, radius):
        code = run_cli(*fast_sim_args(tmp_path / "x", extra=("--dt", dt)))
        assert code == 4
        assert capsys.readouterr().err.splitlines() == [
            f"numerical error: day 0 (t = 0.0): unstable discretization: spectral radius {radius} >= 1 "
            f"for dt={float(dt)}; reduce the sampling period"
        ]
        assert not (tmp_path / "x").exists()

    def test_missing_required_key_exits_2(self, tmp_path):
        assert run_cli("simulate", "--out", str(tmp_path / "y")) == 2
        assert not (tmp_path / "y").exists()

    def test_refused_day_is_named_with_its_time(self, tmp_path, capsys):
        # Day 15 (t = 75) drives the damping a0 - lambda1 t to 0.
        out = tmp_path / "out"
        assert run_cli(*fast_sim_args(out, days=16)) == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["config error: day 15 (t = 75.0): a must be finite and > 0"]
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("x0", "1e308,1e308"), ("r", "1e308")])
    def test_overflowing_day_is_named_in_one_line(self, tmp_path, capsys, key, value):
        # A huge but finite x0 or reference r overflows day 0's fit.  NumPy's
        # warning about it must not escape: pyproject turns a RuntimeWarning
        # into an error, which would raise out of cli.main and fail the test.
        out = tmp_path / "out"
        assert run_cli(*fast_sim_args(out, days=2, extra=(f"--{key}", value))) == 4
        assert capsys.readouterr().err == (
            "numerical error: day 0 (t = 0.0): the least-squares fit is not finite: the trajectory overflows\n"
        )
        assert not out.exists()


class TestFlow:
    def test_noise_free_convergence_to_truth(self, tmp_path):
        write_noise_free_observations(tmp_path / "observations.csv", days=60)
        code = run_cli(
            "flow", "--paper-preset", "--out", str(tmp_path),
            "--n_particles", "128", "--perturb_std", "0", "--diag_every", "10",
        )
        assert code == 0
        final = measures.read_particles_csv(tmp_path / "particles.csv")
        assert np.max(np.abs(measures.mean(final) - LAM)) < 1e-4
        trace = (tmp_path / "trace.csv").read_text().splitlines()
        assert trace[0] == "k,objective,w2_ref,mean_1,mean_2,grad_norm"

    def test_zero_iterations_returns_initialization(self, tmp_path):
        write_noise_free_observations(tmp_path / "observations.csv", days=4)
        code = run_cli(
            "flow", "--paper-preset", "--out", str(tmp_path),
            "--n_particles", "32", "--max_iters", "0",
        )
        assert code == 0
        final = measures.read_particles_csv(tmp_path / "particles.csv")
        init = measures.init_uniform_box([0, 0], [8 / 60, 8 / 60], 32, seed=0)
        assert np.array_equal(final.points, init.points)

    def test_unsafe_tau_refused_then_forced(self, tmp_path, capsys):
        write_noise_free_observations(tmp_path / "observations.csv", days=4)
        args = [
            "flow", "--paper-preset", "--out", str(tmp_path),
            "--n_particles", "16", "--tau", "0.05",
        ]
        assert run_cli(*args) == 5
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("unsafe step size:"), lines
        assert "--force" in lines[0] and "0.02" in lines[0]
        assert sorted(os.listdir(tmp_path)) == ["observations.csv"]
        assert run_cli(*args, "--force") == 0
        assert (tmp_path / "particles.csv").exists()

    # At 40000 particles each noise column spans several draw chunks.
    @pytest.mark.parametrize("n_particles", ["64", "40000"])
    def test_resume_matches_uninterrupted(self, tmp_path, n_particles):
        write_noise_free_observations(tmp_path / "observations.csv", days=12)
        full = tmp_path / "full"
        split = tmp_path / "split"
        common = ["--paper-preset", "--n_particles", n_particles, "--seed", "4"]
        assert run_cli(
            "flow", *common, "--out", str(full),
            "--observations", str(tmp_path / "observations.csv"),
        ) == 0
        assert run_cli(
            "flow", *common, "--out", str(split),
            "--observations", str(tmp_path / "observations.csv"),
            "--max_iters", "6", "--checkpoint_every", "6",
        ) == 0
        assert run_cli(
            "flow", *common, "--out", str(split),
            "--observations", str(tmp_path / "observations.csv"),
            "--resume", str(split / "checkpoint"),
        ) == 0
        assert (full / "particles.csv").read_bytes() == (split / "particles.csv").read_bytes()

    def test_resume_with_max_iters_past_the_stream_stops_where_it_ends(self, tmp_path):
        # 9 differences.  Uninterrupted, diag_every 4 records rows at k = 0,
        # 4, 8 and the final 9, whose grad_norm was not due, and moves no
        # particle.  Resumed at 6: rows at k = 6, then the uninterrupted
        # run's rows 8 and 9, whatever max_iters allows beyond them.
        write_noise_free_observations(tmp_path / "observations.csv", days=10)
        common = ["--paper-preset", "--n_particles", "64", "--observations", str(tmp_path / "observations.csv")]
        every = {n: tmp_path / f"every-{n}" for n in ("1", "4")}
        for n, out in every.items():
            assert run_cli("flow", *common, "--out", str(out), "--diag_every", n) == 0
        batch = list(csv.reader(open(every["4"] / "trace.csv")))
        assert [row[0] for row in batch[1:]] == ["0", "4", "8", "9"]
        assert batch[-1][-1] == ""
        assert (every["4"] / "particles.csv").read_bytes() == (every["1"] / "particles.csv").read_bytes()
        first = tmp_path / "first"
        assert run_cli("flow", *common, "--out", str(first), "--max_iters", "6", "--checkpoint_every", "6") == 0
        resumed = [tmp_path / "to-the-end", tmp_path / "max-iters-50"]
        for out, extra in zip(resumed, ([], ["--max_iters", "50"])):
            resume = ["--resume", str(first / "checkpoint"), "--diag_every", "4", *extra]
            assert run_cli("flow", *common, "--out", str(out), *resume) == 0
        rows = list(csv.reader(open(resumed[0] / "trace.csv")))
        assert [row[0] for row in rows[1:]] == ["6", "8", "9"]
        assert rows[-2:] == batch[-2:]
        for name in ("particles.csv", "trace.csv"):
            assert (resumed[0] / name).read_bytes() == (resumed[1] / name).read_bytes(), name

    def test_divergence_exits_4_with_one_line(self, tmp_path):
        write_noise_free_observations(tmp_path / "observations.csv", days=8)
        out = tmp_path / "new"
        proc = run_cli_process(
            "-m", "wgflow.cli", "flow", "--paper-preset", "--out", str(out),
            "--observations", str(tmp_path / "observations.csv"),
            "--n_particles", "64", "--force", "--tau", "1e200",
        )
        assert proc.returncode == 4
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical error:"), proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("max_iters", ["0", "2"])
    def test_overflowing_initial_mean_exits_4_naming_iteration_0(self, tmp_path, capsys, max_iters):
        # Deployment mode (no preset, so no theta*): only the mean check
        # stands between this belief and a trace row of inf.
        write_noise_free_observations(tmp_path / "observations.csv", days=4)
        out = tmp_path / "out"
        assert run_cli(
            "flow", "--out", str(out), "--observations", str(tmp_path / "observations.csv"),
            "--init_lo", "1e308,1e308", "--init_hi", "1.7e308,1.7e308", "--max_iters", max_iters,
        ) == 4
        assert capsys.readouterr().err.splitlines() == [
            "numerical error: flow diverged at iteration 0: the particle mean is not finite"
        ]
        assert not out.exists()

    def test_trace_row_divergence_names_the_iteration(self, tmp_path, capsys):
        # The first step already overflows the squared distances of the
        # k = 1 trace row, before the cloud itself turns non-finite.  A NumPy
        # warning on the way would raise out of cli.main: pyproject turns a
        # RuntimeWarning into an error.
        write_noise_free_observations(tmp_path / "observations.csv", days=8)
        assert run_cli(
            "flow", "--paper-preset", "--out", str(tmp_path), "--n_particles", "64", "--force", "--tau", "1e200",
        ) == 4
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and "iteration 1" in lines[0], lines
        assert not (tmp_path / "particles.csv").exists()

    def test_truncated_checkpoint_refused_on_resume(self, tmp_path, capsys):
        write_noise_free_observations(tmp_path / "observations.csv", days=12)
        obs = str(tmp_path / "observations.csv")
        first = tmp_path / "first"
        assert run_cli(
            "flow", "--paper-preset", "--out", str(first), "--observations", obs,
            "--max_iters", "6", "--checkpoint_every", "6",
        ) == 0
        checkpoint = first / "checkpoint.particles.csv"
        checkpoint.write_bytes(checkpoint.read_bytes()[:20000])  # cuts a row mid-number
        capsys.readouterr()
        resumed = tmp_path / "resumed"
        assert run_cli(
            "flow", "--paper-preset", "--out", str(resumed), "--observations", obs,
            "--resume", str(first / "checkpoint"),
        ) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and "sha256" in lines[0], lines
        assert not (resumed / "particles.csv").exists()

    @pytest.mark.parametrize(
        "field, override",
        [
            ("tau", ("--tau", "0.015")),
            ("n", ("--n_particles", "65")),
            ("constraint", ("--constraint", '{"kind": "all", "d": 2}')),
            ("seed", ("--seed", "9")),
            ("perturb_std", ("--perturb_std", "0.5")),
            ("rho", ("--rho", "3")),
            ("W", ("--observations", "spacing_4.csv")),
        ],
    )
    def test_resume_of_another_run_exits_3(self, tmp_path, monkeypatch, capsys, field, override):
        monkeypatch.chdir(tmp_path)
        write_noise_free_observations(tmp_path / "observations.csv", days=12)
        write_noise_free_observations(tmp_path / "spacing_4.csv", days=12, spacing=4.0)
        common = ["--paper-preset", "--n_particles", "64", "--observations", str(tmp_path / "observations.csv")]
        first = tmp_path / "first"
        assert run_cli(
            "flow", *common, "--out", str(first), "--max_iters", "6", "--checkpoint_every", "6",
        ) == 0
        capsys.readouterr()
        resumed = tmp_path / "resumed"
        assert run_cli(
            "flow", *common, "--out", str(resumed), "--resume", str(first / "checkpoint"), *override,
        ) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and f"checkpoint {field} = " in lines[0], lines
        assert not (resumed / "particles.csv").exists()

    def test_resume_from_sidecar_without_run_fields_exits_3(self, tmp_path, capsys):
        write_noise_free_observations(tmp_path / "observations.csv", days=12)
        common = ["--paper-preset", "--n_particles", "64", "--observations", str(tmp_path / "observations.csv")]
        first = tmp_path / "first"
        assert run_cli(
            "flow", *common, "--out", str(first), "--max_iters", "6", "--checkpoint_every", "6",
        ) == 0
        meta = first / "checkpoint.meta.txt"
        meta.write_text("".join(
            line for line in meta.read_text().splitlines(keepends=True) if not line.startswith("tau")
        ))
        capsys.readouterr()
        assert run_cli("flow", *common, "--out", str(first), "--resume", str(first / "checkpoint")) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and "does not record 'tau'" in lines[0], lines

    def test_resume_from_a_checkpoint_of_another_generator_exits_3(self, tmp_path, capsys):
        write_noise_free_observations(tmp_path / "observations.csv", days=12)
        common = ["--paper-preset", "--n_particles", "64", "--observations", str(tmp_path / "observations.csv")]
        first = tmp_path / "first"
        assert run_cli(
            "flow", *common, "--out", str(first), "--max_iters", "6", "--checkpoint_every", "6",
        ) == 0
        # The sidecar line of a build that drew from PCG64 substreams.
        meta = first / "checkpoint.meta.txt"
        meta.write_text(re.sub(
            r"(?m)^rng = .*$", "rng = substreams keyed by (seed, purpose, iteration)", meta.read_text()
        ))
        capsys.readouterr()
        resumed = tmp_path / "resumed"
        assert run_cli("flow", *common, "--out", str(resumed), "--resume", str(first / "checkpoint")) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("data error:") and "checkpoint rng = " in lines[0], lines
        assert not resumed.exists()

    def test_resume_from_a_checkpoint_of_other_purpose_keys_exits_3(self, tmp_path, capsys):
        write_noise_free_observations(tmp_path / "observations.csv", days=12)
        common = ["--paper-preset", "--n_particles", "64", "--observations", str(tmp_path / "observations.csv")]
        first = tmp_path / "first"
        assert run_cli(
            "flow", *common, "--out", str(first), "--max_iters", "6", "--checkpoint_every", "6",
        ) == 0
        # The sidecar of a build whose perturbation drew under purpose 23.
        meta = first / "checkpoint.meta.txt"
        meta.write_text(meta.read_text().replace(measures.RNG_TAG, measures.RNG_TAG.replace(" 21 ", " 23 ")))
        capsys.readouterr()
        resumed = tmp_path / "resumed"
        assert run_cli("flow", *common, "--out", str(resumed), "--resume", str(first / "checkpoint")) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("data error:") and "purposes 11 23 22" in lines[0], lines
        assert not resumed.exists()

    def test_resume_from_a_checkpoint_of_another_numpy_exits_3(self, tmp_path, capsys):
        write_noise_free_observations(tmp_path / "observations.csv", days=12)
        common = ["--paper-preset", "--n_particles", "64", "--observations", str(tmp_path / "observations.csv")]
        first = tmp_path / "first"
        assert run_cli(
            "flow", *common, "--out", str(first), "--max_iters", "6", "--checkpoint_every", "6",
        ) == 0
        meta = first / "checkpoint.meta.txt"
        meta.write_text(re.sub(r"(?m)^numpy = .*$", "numpy = 0.0", meta.read_text()))
        capsys.readouterr()
        resumed = tmp_path / "resumed"
        assert run_cli("flow", *common, "--out", str(resumed), "--resume", str(first / "checkpoint")) == 3
        lines = capsys.readouterr().err.splitlines()
        assert lines == [
            f"data error: {meta}: checkpoint numpy = 0.0 does not match this run's numpy = {np.__version__}"
        ]
        assert not resumed.exists()

    @pytest.mark.parametrize(
        "iteration, code, message",
        [
            (None, 2, "checkpoint not found"),
            ("99", 3, "checkpoint iteration 99 exceeds available observations"),
            ("six", 3, "bad checkpoint metadata"),
            ("-3", 3, "bad checkpoint metadata"),
        ],
        ids=["missing", "beyond-the-observations", "not-an-integer", "negative"],
    )
    def test_resume_refused_with_one_line_and_nothing_written(self, tmp_path, capsys, iteration, code, message):
        write_noise_free_observations(tmp_path / "observations.csv", days=12)
        common = ["--paper-preset", "--n_particles", "64", "--observations", str(tmp_path / "observations.csv")]
        first = tmp_path / "first"
        assert run_cli(
            "flow", *common, "--out", str(first), "--max_iters", "6", "--checkpoint_every", "6",
        ) == 0
        if iteration is None:
            base = first / "absent"
        else:
            base = first / "checkpoint"
            meta = first / "checkpoint.meta.txt"
            meta.write_text(re.sub(r"(?m)^iteration = .*$", f"iteration = {iteration}", meta.read_text()))
        capsys.readouterr()
        resumed = tmp_path / "resumed"
        assert run_cli("flow", *common, "--out", str(resumed), "--resume", str(base)) == code
        lines = capsys.readouterr().err.splitlines()
        prefix = {2: "config error:", 3: "data error:"}[code]
        assert len(lines) == 1 and lines[0].startswith(prefix) and message in lines[0], lines
        assert not resumed.exists()

    def test_missing_observations_exits_2(self, tmp_path):
        assert run_cli("flow", "--paper-preset", "--out", str(tmp_path / "z")) == 2
        assert not (tmp_path / "z").exists()

    def test_malformed_observations_exits_3(self, tmp_path):
        (tmp_path / "observations.csv").write_text("t,a_hat,b_hat\n0,not_a_number,1\n")
        assert run_cli("flow", "--paper-preset", "--out", str(tmp_path)) == 3
        assert not (tmp_path / "particles.csv").exists()

    def test_observations_whose_difference_overflows_exit_3_with_one_line(self, tmp_path):
        # Finite estimates whose first difference is not.  A fresh process
        # under warnings-as-errors shows that no NumPy warning reaches stderr.
        obs = tmp_path / "observations.csv"
        obs.write_text("t,a_hat,b_hat\n0,1e308,1\n5,-1e308,1\n10,1e308,1\n")
        out = tmp_path / "out"
        proc = run_cli_process("-W", "error::RuntimeWarning", "-m", "wgflow.cli", "flow", "--paper-preset",
                               "--observations", str(obs), "--out", str(out))
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.splitlines() == [
            "data error: the estimate difference between t=0.0 and t=5.0 is not finite"
        ]
        assert not out.exists()

    def test_overflowing_step_report_exits_4_with_the_line_diagnose_prints(self, tmp_path, capsys):
        # rho = 1e308 makes the report's C = 4 max(sigma_max^2, rho) overflow.
        write_noise_free_observations(tmp_path / "observations.csv", days=4)
        measures.write_particles_csv(measures.ParticleMeasure(np.tile(LAM, (8, 1))), tmp_path / "particles.csv")
        lines = []
        for command in ("flow", "diagnose"):
            out = tmp_path / command
            assert run_cli(command, "--paper-preset", "--observations", str(tmp_path / "observations.csv"),
                           "--particles", str(tmp_path / "particles.csv"),
                           "--reference", str(tmp_path / "particles.csv"),
                           "--out", str(out), "--rho", "1e308") == 4
            lines.append(capsys.readouterr().err.splitlines())
            assert not out.exists()
        assert lines[0] == lines[1] == [
            "numerical error: step-size report C is not finite: W, rho, sigma_w2 or tau is too large"
        ]


class TestPredict:
    def test_dirac_belief_matches_truth(self, tmp_path):
        measures.write_particles_csv(
            measures.ParticleMeasure(np.tile(LAM, (32, 1))), tmp_path / "particles.csv"
        )
        assert run_cli("predict", "--paper-preset", "--out", str(tmp_path)) == 0
        rows = list(csv.DictReader(open(tmp_path / "tstar.csv")))
        assert len(rows) == 1
        ours = float(rows[0]["ours"])
        true = float(rows[0]["true"])
        assert abs(ours - true) <= 2e-3
        band = list(csv.DictReader(open(tmp_path / "prediction.csv")))
        first = band[0]
        assert float(first["t"]) == 0.0
        assert float(first["p10"]) == float(first["mean"]) == float(first["p90"]) == pytest.approx(1.25)
        assert float(first["zeta_true"]) == pytest.approx(1.25)

    @pytest.mark.parametrize(
        "p_lo, p_hi, header",
        [("0.25", "0.75", "t,p25,mean,p75,zeta_true"), ("0.125", "0.9", "t,p12.5,mean,p90,zeta_true")],
    )
    def test_band_columns_are_named_by_their_levels(self, tmp_path, p_lo, p_hi, header):
        measures.write_particles_csv(
            measures.ParticleMeasure(np.tile(LAM, (8, 1))), tmp_path / "particles.csv"
        )
        argv = ("--out", str(tmp_path), "--p_lo", p_lo, "--p_hi", p_hi)
        assert run_cli("predict", "--paper-preset", *argv) == 0
        assert (tmp_path / "prediction.csv").read_text().splitlines()[0] == header

    def test_ls_column_present_with_observations(self, tmp_path):
        write_noise_free_observations(tmp_path / "observations.csv", days=4)
        measures.write_particles_csv(
            measures.ParticleMeasure(np.tile(LAM, (8, 1))), tmp_path / "particles.csv"
        )
        assert run_cli("predict", "--paper-preset", "--out", str(tmp_path)) == 0
        row = next(csv.DictReader(open(tmp_path / "tstar.csv")))
        assert float(row["day"]) == 15.0
        assert abs(float(row["ls"]) - float(row["true"])) < 1e-3

    @pytest.mark.parametrize("rule", ["percentile", "mean", "chance"])
    def test_written_rule_is_the_printed_rule(self, tmp_path, capsys, rule):
        # rule_level is the level of every printed rule, and tstar.csv
        # holds the printed time of the chosen one.
        cloud = np.abs(LAM + np.random.default_rng(8).normal(scale=0.01, size=(64, 2)))
        measures.write_particles_csv(measures.ParticleMeasure(cloud), tmp_path / "particles.csv")
        argv = ("--out", str(tmp_path), "--rule", rule, "--rule_level", "0.3")
        assert run_cli("predict", "--paper-preset", *argv) == 0
        out = capsys.readouterr().out
        assert "percentile(0.3)=" in out and "chance(0.3)=" in out
        printed = dict(re.findall(r"(\w+)(?:\([\d.]+\))?=([\d.]+) \[", out))
        ours = float(next(csv.DictReader(open(tmp_path / "tstar.csv")))["ours"])
        assert f"{ours:.3f}" == printed[rule]

    @pytest.mark.parametrize("key", ["lambda1", "lambda2"])
    def test_overflowing_true_ratio_exits_4_with_one_line(self, tmp_path, capsys, key):
        # The drift lambda t overflows from t = 2 on the default grid, where
        # the true damping ratio would be written as -inf or rounded to 0.
        path = tmp_path / "particles.csv"
        measures.write_particles_csv(measures.ParticleMeasure(np.tile(LAM, (8, 1))), path)
        out = tmp_path / "out"
        args = ["--particles", str(path), "--out", str(out), f"--{key}", "1e308"]
        assert run_cli("predict", "--paper-preset", *args) == 4
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith("numerical error: true damping ratio overflows"), lines
        assert not out.exists()

    def test_overflowing_particle_stiffness_exits_4_with_one_line(self, tmp_path, capsys):
        # The particle's stiffness b0 + 1e308 t overflows from t = 2 on the
        # default grid, where its damping ratio would be written as 0.
        path = tmp_path / "particles.csv"
        measures.write_particles_csv(measures.ParticleMeasure(np.array([[0.03, 1e308]])), path)
        out = tmp_path / "out"
        assert run_cli("predict", "--paper-preset", "--particles", str(path), "--out", str(out)) == 4
        assert capsys.readouterr().err.splitlines() == [
            "numerical error: damping band at t = 2.0 is not finite: the belief's rates overflow"
        ]
        assert not out.exists()

    def test_empty_particle_file_exits_3(self, tmp_path):
        (tmp_path / "particles.csv").write_text("x1,x2\n")
        assert run_cli("predict", "--paper-preset", "--out", str(tmp_path)) == 3

    # Both stages that read a belief read it as the 2-d model's rates.
    @pytest.mark.parametrize("command, keys", [
        ("predict", ["--particles"]),
        ("diagnose", ["--particles", "--reference"]),
    ], ids=["predict", "diagnose"])
    def test_particle_file_of_another_dimension_exits_3_naming_it(self, tmp_path, capsys, command, keys):
        path = tmp_path / "particles.csv"
        measures.write_particles_csv(measures.ParticleMeasure([[0.1], [0.2]]), path)
        out = tmp_path / "out"
        inputs = [arg for key in keys for arg in (key, str(path))]
        assert run_cli(command, "--paper-preset", *inputs, "--out", str(out)) == 3
        assert capsys.readouterr().err.splitlines() == [f"data error: {path}: particle dimension is 1, expected 2"]
        assert not out.exists()

    def test_without_truth_columns_empty(self, tmp_path):
        measures.write_particles_csv(
            measures.ParticleMeasure(np.tile(LAM, (8, 1))), tmp_path / "particles.csv"
        )
        code = run_cli(
            "predict", "--out", str(tmp_path),
            "--a0", "2.5", "--b0", "1", "--zeta_min", "0.4",
        )
        assert code == 0
        row = next(csv.DictReader(open(tmp_path / "tstar.csv")))
        assert row["true"] == "" and row["ls"] == ""
        band_row = next(csv.DictReader(open(tmp_path / "prediction.csv")))
        assert band_row["zeta_true"] == ""


class TestDiagnose:
    def test_identical_clouds_have_zero_gaps(self, tmp_path, capsys):
        m = measures.init_uniform_box([0, 0], [0.2, 0.3], 64, seed=2)
        measures.write_particles_csv(m, tmp_path / "particles.csv")
        measures.write_particles_csv(m, tmp_path / "reference.csv")
        assert run_cli("diagnose", "--paper-preset", "--out", str(tmp_path)) == 0
        metrics = dict(
            (r["metric"], float(r["value"]))
            for r in csv.DictReader(open(tmp_path / "diagnostics.csv"))
        )
        assert metrics["w2_subsampled"] == 0.0
        assert metrics["gelbrich_lower_bound_subsampled"] == pytest.approx(0.0, abs=1e-8)
        assert metrics["mean_gap_full"] == 0.0
        assert metrics["bures_gap_full"] == pytest.approx(0.0, abs=1e-8)
        assert metrics["lipschitz_norm_gap"] == 0.0
        assert metrics["gelbrich_lower_bound_full"] == pytest.approx(0.0, abs=1e-8)

    def test_rows_are_the_report_then_the_measurements(self, tmp_path):
        m = measures.init_uniform_box([0, 0], [0.2, 0.3], 16, seed=2)
        measures.write_particles_csv(m, tmp_path / "particles.csv")
        measures.write_particles_csv(m, tmp_path / "reference.csv")
        assert run_cli("diagnose", "--paper-preset", "--out", str(tmp_path)) == 0
        names = [r["metric"] for r in csv.DictReader(open(tmp_path / "diagnostics.csv"))]
        assert names == [
            "alpha", "C", "sigma2", "eta", "tau", "tau_max", "ball_radius", "per_step_rate",
            "tau_valid", "w2_subsampled", "subsample", "gelbrich_lower_bound_subsampled",
            "gelbrich_lower_bound_full", "mean_gap_full", "bures_gap_full", "lipschitz_norm_gap",
        ]

    def test_ball_radius_hand_value(self, tmp_path):
        m = measures.init_uniform_box([0, 0], [0.2, 0.3], 16, seed=2)
        measures.write_particles_csv(m, tmp_path / "particles.csv")
        measures.write_particles_csv(m, tmp_path / "reference.csv")
        assert run_cli(
            "diagnose", "--paper-preset", "--out", str(tmp_path),
            "--sigma_w2", "0.005", "--tau", "0.01",
        ) == 0
        metrics = dict(
            (r["metric"], float(r["value"]))
            for r in csv.DictReader(open(tmp_path / "diagnostics.csv"))
        )
        # sigma_w * sqrt(eta * tau) with eta = 100/25, tau = 0.01
        assert metrics["ball_radius"] == pytest.approx(math.sqrt(0.005) * math.sqrt(0.04), rel=1e-12)
        assert metrics["gelbrich_lower_bound_subsampled"] <= metrics["w2_subsampled"] + 1e-8

    @pytest.mark.parametrize("cap, covariances, bures", [(16, 4, 2), (256, 2, 1)])
    def test_each_moment_gap_computed_once(self, tmp_path, monkeypatch, cap, covariances, bures):
        # Each Gelbrich bound is built from its pair's mean and Bures gaps, so
        # for the subsamples and for the full clouds each cloud's covariance
        # and the pair's Bures distance are computed once.  A cap that covers
        # both 32-particle clouds measures them whole: one pair, measured once.
        calls = {"covariance": 0, "bures_distance": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for module, name in ((measures, "covariance"), (transport, "bures_distance")):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        measures.write_particles_csv(
            measures.init_uniform_box([0, 0], [0.2, 0.3], 32, seed=2), tmp_path / "particles.csv"
        )
        measures.write_particles_csv(
            measures.init_uniform_box([0, 0], [0.1, 0.4], 32, seed=3), tmp_path / "reference.csv"
        )
        assert run_cli("diagnose", "--paper-preset", "--out", str(tmp_path), "--diag_subsample", str(cap)) == 0
        assert calls == {"covariance": covariances, "bures_distance": bures}

    @given(
        n=st.integers(1, 40),
        n_ref=st.integers(1, 40),
        cap=st.integers(1, 48),
        seed=st.integers(0, 2**16),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
    )
    def test_subsample_bound_never_exceeds_the_subsample_w2(self, n, n_ref, cap, seed, scale):
        rng = np.random.default_rng(seed)
        with tempfile.TemporaryDirectory() as tmp:
            for name, size in (("particles.csv", n), ("reference.csv", n_ref)):
                cloud = measures.ParticleMeasure(scale * rng.standard_normal((size, 2)))
                measures.write_particles_csv(cloud, os.path.join(tmp, name))
            with contextlib.redirect_stdout(io.StringIO()):
                code = run_cli("diagnose", "--paper-preset", "--out", tmp, "--diag_subsample", str(cap))
            assert code == 0
            with open(os.path.join(tmp, "diagnostics.csv")) as f:
                metrics = {r["metric"]: float(r["value"]) for r in csv.DictReader(f)}
        w2 = metrics["w2_subsampled"]
        assert metrics["gelbrich_lower_bound_subsampled"] <= w2 + 1e-12 * max(1.0, scale)

    def test_no_printed_bound_exceeds_the_w2_printed_beside_it(self, tmp_path, capsys):
        # Seeds 0 and 7 of the preset: the full clouds' bound, 0.00314,
        # lies above the 256-particle subsamples' W2, 0.00310.
        for seed in ("0", "7"):
            out = str(tmp_path / seed)
            assert run_cli("simulate", "--paper-preset", "--seed", seed, "--out", out) == 0
            assert run_cli("flow", "--paper-preset", "--seed", seed, "--out", out) == 0
        capsys.readouterr()
        assert run_cli(
            "diagnose", "--paper-preset", "--out", str(tmp_path),
            "--particles", str(tmp_path / "0" / "particles.csv"),
            "--reference", str(tmp_path / "7" / "particles.csv"),
        ) == 0
        printed = capsys.readouterr().out
        full = float(re.search(r"full clouds .*gelbrich bound=(\S+)", printed)[1])
        claims = [line for line in printed.splitlines() if "never exceeds" in line]
        assert len(claims) == 1
        w2 = float(re.search(r"W2=([^,\s]+)", claims[0])[1])
        bound = float(re.search(r"bound=(\S+)", claims[0])[1])
        assert bound <= w2 < full
        # A cap above both cloud sizes measures the whole clouds, so their
        # bound is the full clouds' one, and nothing is called subsampled.
        assert run_cli(
            "diagnose", "--paper-preset", "--out", str(tmp_path),
            "--particles", str(tmp_path / "0" / "particles.csv"),
            "--reference", str(tmp_path / "7" / "particles.csv"), "--diag_subsample", "5000",
        ) == 0
        printed = capsys.readouterr().out
        assert "subsampled" not in printed
        claims = [line for line in printed.splitlines() if "never exceeds" in line]
        assert len(claims) == 1 and claims[0].startswith("measured on the whole clouds (1000 particles)")
        w2 = float(re.search(r"W2=([^,\s]+)", claims[0])[1])
        bound = float(re.search(r"bound=(\S+)", claims[0])[1])
        assert bound == full <= w2

    @pytest.mark.parametrize("overrides", [("--tau", "1e308"), ("--tau", "1e308", "--sigma_w2", "0.01")])
    def test_overflowing_step_report_exits_4_with_one_line(self, tmp_path, capsys, overrides):
        # The ball radius is nan (0 * inf) or inf; nothing may be written.
        path = tmp_path / "particles.csv"
        measures.write_particles_csv(measures.init_uniform_box([0, 0], [0.2, 0.3], 16, seed=2), path)
        out = tmp_path / "out"
        args = ["--particles", str(path), "--reference", str(path), "--out", str(out), *overrides]
        assert run_cli("diagnose", "--paper-preset", *args) == 4
        lines = capsys.readouterr().err.splitlines()
        assert lines == [
            "numerical error: step-size report ball_radius is not finite: W, rho, sigma_w2 or tau is too large"
        ]
        assert not out.exists()

    @pytest.mark.parametrize("n", [1, 256, 1000])
    def test_norm_gap_is_the_library_value_bit_for_bit(self, tmp_path, n):
        m = measures.init_uniform_box([-1.0, 0.0], [0.2, 3.0], n, seed=n)
        ref = measures.init_uniform_box([0.0, -2.0], [0.1, 0.4], n, seed=n + 1)
        measures.write_particles_csv(m, tmp_path / "particles.csv")
        measures.write_particles_csv(ref, tmp_path / "reference.csv")
        assert run_cli("diagnose", "--paper-preset", "--out", str(tmp_path)) == 0
        rows = {r["metric"]: r["value"] for r in csv.DictReader(open(tmp_path / "diagnostics.csv"))}
        want = transport.lipschitz_norm_gap(m, ref, lambda x: float(np.linalg.norm(x)))
        assert rows["lipschitz_norm_gap"] == repr(want)

    @pytest.mark.parametrize(
        "cloud",
        # Clouds whose gap to the origin rounds differently when the norms
        # come from another kernel (einsum, norm(axis=1)) or are squared by
        # x * x: found by a search over small clouds.
        [[[-0.307, 1.311], [-0.363, 0.198]], [[-0.606, -0.868], [-0.115, -0.269], [1.424, 1.353]]],
    )
    def test_norm_gap_where_other_kernels_round_differently(self, tmp_path, cloud):
        m = measures.ParticleMeasure(cloud)
        ref = measures.ParticleMeasure([[0.0, 0.0]])
        measures.write_particles_csv(m, tmp_path / "particles.csv")
        measures.write_particles_csv(ref, tmp_path / "reference.csv")
        assert run_cli("diagnose", "--paper-preset", "--out", str(tmp_path)) == 0
        rows = {r["metric"]: r["value"] for r in csv.DictReader(open(tmp_path / "diagnostics.csv"))}
        want = transport.lipschitz_norm_gap(m, ref, lambda x: float(np.linalg.norm(x)))
        assert rows["lipschitz_norm_gap"] == repr(want)

    def test_dimension_mismatch_exits_3(self, tmp_path, capsys):
        measures.write_particles_csv(
            measures.ParticleMeasure(np.zeros((4, 2))), tmp_path / "particles.csv"
        )
        measures.write_particles_csv(
            measures.ParticleMeasure(np.zeros((4, 3))), tmp_path / "reference.csv"
        )
        assert run_cli("diagnose", "--paper-preset", "--out", str(tmp_path)) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"data error: {tmp_path / 'reference.csv'}: particle dimension is 3, expected 2"
        ]


# Each command's input files, named relative to the directory the rows of
# CONFIG_REFUSALS run in.
_INPUTS = {
    "simulate": [],
    "flow": ["--observations", "observations.csv"],
    "predict": ["--particles", "particles.csv"],
    "diagnose": ["--particles", "particles.csv", "--reference", "particles.csv"],
}

_P = "--paper-preset"
_CAP = transport.MAX_EXACT_PARTICLES
# Every refusal of a setting: (command, arguments, line).  The command
# runs with its _INPUTS and the arguments, exits 2, prints nothing but
# "config error: <line>" and writes nothing.  Library argument checks
# raise ValueError, which the CLI reports as a configuration error.
CONFIG_REFUSALS = [
    ("simulate", (_P, "--T", "inf"), "T must be finite and > 0"),
    ("simulate", (_P, "--b0", "inf", "--zeta_min", "0"), "b0 must be finite and > 0"),
    ("simulate", (_P, "--days", "0"), "days must be a whole number >= 1"),
    ("simulate", (_P, "--days", "1" + "0" * 400), "days must be a whole number >= 1"),
    ("simulate", (_P, "--dt", "inf"), "dt must be finite and > 0"),
    ("simulate", (_P, "--eps_half_width", "nan"), "eps_half_width must be finite and >= 0"),
    ("simulate", (_P, "--eps_half_width", "inf"), "eps_half_width must be finite and >= 0"),
    # Finite, but the noise width 2 eps is not.
    ("simulate", (_P, "--eps_half_width", "1e308"),
     "eps_half_width must be nonnegative and at most half the float limit"),
    ("simulate", (_P, "--horizon", "-1"), "horizon must be finite and > 0"),
    ("simulate", (_P, "--horizon", "0.0015"), "day 0 (t = 0.0): need at least two transitions to fit two parameters"),
    ("simulate", (_P, "--lambda1", "nan"), "lambda1 must be finite"),
    ("simulate", (_P, "--r", "nan"), "r must be finite"),
    ("simulate", (_P, "--seed", "-1"), "seed must be a whole number >= 0"),
    ("simulate", (_P, "--seed", "abc"), "config key 'seed' must be an integer, got 'abc'"),
    ("simulate", (_P, "--seed=5"), "overrides must come in '--key value' pairs, got ['--seed=5']"),
    ("simulate", (_P, "seed", "5"), "expected an override flag, got 'seed'"),
    ("simulate", (_P, "--x0", "nan,0"), "x0 must be a finite vector of length 2"),
    ("simulate", (_P, "--zeta_min", "2"), "the freshly maintained system must start in the safe set"),
    ("flow", (), "missing required config key 'init_hi'"),
    ("flow", (_P, "--checkpoint_every", "-1"), "checkpoint_every must be a whole number >= 0"),
    ("flow", (_P, "--config", "bad.cfg"), "bad.cfg:1: expected 'key = value', got 'tau'"),
    ("flow", (_P, "--constraint", "[1]"), "config key 'constraint' must be a JSON object, got '[1]'"),
    ("flow", (_P, "--constraint", "{"), "config key 'constraint' must be a JSON object, got '{'"),
    ("flow", (_P, "--constraint", '{"lo": [0, 0]}'), "constraint must be a record with a 'kind' field"),
    ("flow", (_P, "--constraint", '{"kind": "sphere"}'), "unknown constraint kind 'sphere'"),
    ("flow", (_P, "--constraint", '{"kind": "box", "lo": [0, 0]}'), "constraint kind 'box' is missing field 'hi'"),
    ("flow", (_P, "--constraint", '{"kind":"box","lo":[0],"hi":[1]}'), "constraint dimension is 1, expected 2"),
    ("flow", (_P, "--constraint", '{"kind": "box", "lo": [0, 0], "hi": [1, 1], "hii": [0.01, 0.01]}'),
     "constraint kind 'box' has no field 'hii'"),
    ("flow", (_P, "--constraint", '{"kind":"nonneg_orthant","d":2.7}'),
     "invalid constraint parameters: dimension d must be a whole number >= 1"),
    ("flow", (_P, "--constraint", '{"kind":"halfspace","a":[1e200,0],"b":1}'),
     "invalid constraint parameters: halfspace normal must have a squared norm that is a normal float"),
    ("flow", (_P, "--constraint", '{"kind": "halfspace", "a": [1, 0], "b": NaN}'),
     "invalid constraint parameters: halfspace offset b must be finite"),
    ("flow", (_P, "--constraint", '{"kind": "ball", "center": [0, 0, 0], "radius": 1}'),
     "constraint dimension is 3, expected 2"),
    ("flow", (_P, "--constraint", '{"kind": "ball", "center": [0, 0, 0], "radius": true}'),
     "invalid constraint parameters: ball radius must be finite and >= 0"),
    ("flow", (_P, "--diag_every", "0"), "diag_every must be a whole number >= 1"),
    ("flow", (_P, "--diag_subsample", "0"), "diag_subsample must be a whole number >= 1"),
    ("flow", (_P, "--init_hi", "1,nan"), "init_hi must be a finite vector of length 2"),
    ("flow", (_P, "--init_hi", "inf,1"), "init_hi must be a finite vector of length 2"),
    ("flow", (_P, "--init_lo", "-inf,0"), "init_lo must be a finite vector"),
    ("flow", (_P, "--init_lo", "0,x"), "config key 'init_lo' must be comma-separated numbers, got '0,x'"),
    ("flow", (_P, "--init_lo", "0,0,0"), "init_hi must be a finite vector of length 3"),
    ("flow", (_P, "--init_lo", "-1.5e308,0", "--init_hi", "1.5e308,1"),
     "box bounds and their widths hi - lo must be finite"),
    ("flow", (_P, "--max_iters", "-1"), "max_iters must be a whole number >= 0"),
    ("flow", (_P, "--n_particles", "0"), "n_particles must be a whole number >= 1"),
    ("flow", (_P, "--n_particles", "5000", "--diag_subsample", "5000"),
     f"diag_subsample 5000 would measure 5000 particles, above the exact-solver cap {_CAP}; lower diag_subsample"),
    ("flow", (_P, "--observations", "absent.csv"), "input file for 'observations' not found: absent.csv"),
    ("flow", (_P, "--perturb_std", "nan"), "perturb_std must be finite and >= 0"),
    ("flow", (_P, "--perturb_std", "inf"), "perturb_std must be finite and >= 0"),
    ("flow", (_P, "--resume", "absent"), "checkpoint not found: absent.particles.csv"),
    ("flow", (_P, "--rho", "0"), "rho must be finite and > 0"),
    ("flow", (_P, "--rho", "inf"), "rho must be finite and > 0"),
    ("flow", (_P, "--seed", "-1"), "seed must be a whole number >= 0"),
    ("flow", (_P, "--sigma_w2", "-1"), "sigma_w2 must be finite and >= 0"),
    ("flow", (_P, "--tau", "abc"), "config key 'tau' must be a number, got 'abc'"),
    ("flow", (_P, "--tau", "inf"), "tau must be finite and > 0"),
    ("flow", (_P, "--theta_star", "nan,0"), "theta_star must be a finite vector of length 2"),
    ("flow", (_P, "--workers", "0"), "workers must be a whole number >= 1"),
    ("predict", (_P, "--a0", "1e200"), "a0 and a0**2 must be finite"),
    ("predict", (_P, "--chance_alpha", "0"), "unknown config key 'chance_alpha'"),
    ("predict", (_P, "--day", "nan"), "day must be finite and >= 0"),
    ("predict", (_P, "--day", "inf"), "day must be finite and >= 0"),
    ("predict", (_P, "--day", "-inf"), "day must be finite and >= 0"),
    ("predict", (_P, "--day", "-3"), "day must be finite and >= 0"),
    ("predict", (_P, "--day", "-1"), "day must be finite and >= 0"),
    ("predict", (_P, "--lambda1", "nan"), "lambda1 must be finite"),
    ("predict", (_P, "--lambda2", "inf"), "lambda2 must be finite"),
    ("predict", (_P, "--observations", "absent.csv"), "input file for 'observations' not found: absent.csv"),
    ("predict", (_P, "--particles", "absent.csv"), "input file for 'particles' not found: absent.csv"),
    ("predict", (_P, "--p_hi", "nan"), "p_hi must be finite"),
    ("predict", (_P, "--p_hi", "1.5"), "quantile levels must satisfy 0 <= p_lo <= p_hi <= 1"),
    ("predict", (_P, "--p_lo", "-0.1"), "quantile levels must satisfy 0 <= p_lo <= p_hi <= 1"),
    ("predict", (_P, "--p_lo", "0.95"), "quantile levels must satisfy 0 <= p_lo <= p_hi <= 1"),
    # Two levels that agree to six significant digits would name two columns alike.
    ("predict", (_P, "--p_lo", "0.1234561", "--p_hi", "0.1234562"),
     "p_lo=0.1234561 and p_hi=0.1234562 both name the band column 'p12.3456'"),
    ("predict", (_P, "--rule", "foo"), "unknown maintenance rule 'foo'"),
    ("predict", (_P, "--rule", "chance", "--rule_level", "0"), "rule_level must lie in (0, 1)"),
    ("predict", (_P, "--rule_level", "1.5"), "rule_level must lie in (0, 1)"),
    ("predict", (_P, "--rule_level", "1"), "rule_level must lie in (0, 1)"),
    ("predict", (_P, "--rule_level", "nan"), "rule_level must lie in (0, 1)"),
    ("predict", (_P, "--t_start", "nan"), "t_start must be finite and >= 0"),
    ("predict", (_P, "--t_start", "-1"), "t_start must be finite and >= 0"),
    ("predict", (_P, "--t_start", "5", "--t_stop", "4"), "t_stop must be finite and >= 5.0"),
    ("predict", (_P, "--t_stop", "inf"), "t_stop must be finite and >= 0.0"),
    ("predict", (_P, "--t_step", "0"), "t_step must be finite and > 0"),
    ("predict", (_P, "--t_step", "inf"), "t_step must be finite and > 0"),
    ("predict", (_P, "--t_step", "1e-300"),
     "prediction grid from t_start=0.0 to t_stop=60.0 in steps of 1e-300 exceeds 1000000 points; raise t_step"),
    ("predict", (_P, "--zeta_min", "-0.1"), "zeta_min must be finite and >= 0"),
    ("diagnose", (_P, "--T", "0"), "T must be finite and > 0"),
    ("diagnose", (_P, "--T", "inf"), "T must be finite and > 0"),
    ("diagnose", (_P, "--diag_subsample", "0"), "diag_subsample must be a whole number >= 1"),
    ("diagnose", (_P, "--diag_subsample", "-1"), "diag_subsample must be a whole number >= 1"),
    ("diagnose", (_P, "--reference", "absent.csv"), "input file for 'reference' not found: absent.csv"),
    ("diagnose", (_P, "--particles", "big.csv", "--reference", "big.csv", "--diag_subsample", "5000"),
     f"diag_subsample 5000 would measure 5000 particles, above the exact-solver cap {_CAP}; lower diag_subsample"),
    # Refused although the 8-particle clouds are measured whole.
    ("diagnose", (_P, "--seed", "-1"), "seed must be a whole number >= 0"),
]


@pytest.fixture(scope="module")
def refusal_inputs(tmp_path_factory):
    """The directory of the input files every row of CONFIG_REFUSALS reads."""
    inputs = tmp_path_factory.mktemp("refusal-inputs")
    write_noise_free_observations(inputs / "observations.csv", days=4)
    measures.write_particles_csv(measures.ParticleMeasure(np.tile(LAM, (8, 1))), inputs / "particles.csv")
    measures.write_particles_csv(measures.init_uniform_box([0, 0], [0.1, 0.1], 5000, seed=0), inputs / "big.csv")
    (inputs / "bad.cfg").write_text("tau\n")
    return inputs


@pytest.mark.parametrize(
    "command, arguments, line", CONFIG_REFUSALS,
    ids=[" ".join([command, *arguments])[:60] for command, arguments, _ in CONFIG_REFUSALS],
)
def test_refused_setting_exits_2_with_its_line(refusal_inputs, tmp_path, monkeypatch, capsys, command, arguments,
                                              line):
    # Any warning is an error, so one that would reach a fresh process's
    # stderr beside the line raises out of cli.main and fails the row.
    monkeypatch.chdir(refusal_inputs)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main([command, "--out", str(out), *_INPUTS[command], *arguments])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"config error: {line}\n")
    assert not out.exists()


def test_refusal_table_sets_every_key_and_repeats_no_row():
    # A key none of the rows sets has no refusal checked; a new key fails
    # here until it brings one.
    flags = {argument for _, arguments, _ in CONFIG_REFUSALS for argument in arguments}
    assert sorted(key for key in cli.CONFIG_KEYS if f"--{key}" not in flags) == []
    assert len({(command, arguments) for command, arguments, _ in CONFIG_REFUSALS}) == len(CONFIG_REFUSALS)


@pytest.mark.parametrize(
    "command, cloud, quantity",
    [
        ("predict", [[1.7e308, 1.7e308]] * 2, "damping band at t = 1.5"),
        ("predict", [[-1e307, -1e307]], "damping band at t = 0.5"),
        ("diagnose", [[1.7e308, 1.7e308]] * 2, "gelbrich_lower_bound"),
        ("diagnose", [[-1e307, -1e307]], "lipschitz_norm_gap"),
    ],
)
def test_overflowing_belief_exits_4_with_one_line(tmp_path, capsys, command, cloud, quantity):
    # The clouds are finite, but their moments, norms or drifted damping
    # ratios overflow; nothing may be written as nan or inf.
    path = tmp_path / "particles.csv"
    measures.write_particles_csv(measures.ParticleMeasure(np.array(cloud)), path)
    out = tmp_path / "out"
    args = ["--particles", str(path), "--reference", str(path), "--out", str(out)]
    assert run_cli(command, "--paper-preset", *args) == 4
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical error:"), lines
    assert quantity in lines[0] and "is not finite" in lines[0]
    assert not out.exists()


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """Each command's input flags, over files that the paper preset accepts."""
    inputs = tmp_path_factory.mktemp("in")
    write_noise_free_observations(inputs / "observations.csv", days=10)
    particles = str(inputs / "particles.csv")
    measures.write_particles_csv(measures.init_uniform_box([0, 0], [0.2, 0.2], 64, seed=0), particles)
    return {
        "simulate": ["--horizon", "2"],  # the preset's 10 days, each 50 times shorter
        "flow": ["--observations", str(inputs / "observations.csv")],
        "predict": ["--particles", particles],
        "diagnose": ["--particles", particles, "--reference", particles],
    }


_EXTREMES = ("0", "-0", "1e308", "-1e308", "inf", "-inf", "nan", "5e-324")
# A number, or a vector of one to three of them (two fit a 2-d key).
_FUZZ_VALUES = st.one_of(
    st.sampled_from(_EXTREMES),
    st.lists(st.sampled_from(_EXTREMES), min_size=1, max_size=3).map(",".join),
)
# The same extremes as JSON numbers, in a record of each constraint kind.
_JSON_NUMBER = st.sampled_from(
    ("0", "-0.0", "1e308", "-1e308", "Infinity", "-Infinity", "NaN", "5e-324")
)
_JSON_VECTOR = st.lists(_JSON_NUMBER, min_size=1, max_size=3).map(lambda v: "[" + ",".join(v) + "]")
_FUZZ_RECORDS = st.one_of(
    st.builds('{{"kind": "box", "lo": {}, "hi": {}}}'.format, _JSON_VECTOR, _JSON_VECTOR),
    st.builds('{{"kind": "halfspace", "a": {}, "b": {}}}'.format, _JSON_VECTOR, _JSON_NUMBER),
    st.builds('{{"kind": "ball", "center": {}, "radius": {}}}'.format, _JSON_VECTOR, _JSON_NUMBER),
    st.builds(
        '{{"kind": "{}", "d": {}}}'.format,
        st.sampled_from(("nonneg_orthant", "all")), st.sampled_from(("0", "1", "2", "3", "2.0")),
    ),
)
_FUZZ_SETTINGS = st.sampled_from(sorted(cli.CONFIG_KEYS)).flatmap(
    lambda key: st.tuples(st.just(key), _FUZZ_RECORDS if key == "constraint" else _FUZZ_VALUES)
)


def _numbers(text):
    for token in re.findall(r"[^\s,=:\[\]{}\"]+", text):
        try:
            yield float(token)
        except ValueError:
            pass


# The shared profile draws the same examples on every run (derandomized).
@settings(max_examples=200)
@given(
    command=st.sampled_from(sorted(_INPUTS)),
    overrides=st.lists(_FUZZ_SETTINGS, min_size=1, max_size=3, unique_by=lambda kv: kv[0]),
)
@example(command="simulate", overrides=[("eps_half_width", "1e308")])
@example(command="predict", overrides=[("lambda1", "1e308")])
@example(command="predict", overrides=[("lambda2", "1e308")])
@example(command="predict", overrides=[("t_step", "inf")])
@example(command="flow", overrides=[("init_hi", "1e154,1e-300")])
def test_extreme_values_exit_cleanly(fuzz_inputs, command, overrides):
    # Any command with up to three keys set to extreme values either
    # succeeds and writes no nan (inf only as tstar.csv's "never"), or
    # exits with a documented code and one line, writing nothing.  No
    # warning may escape.
    flags = [arg for key, value in overrides for arg in (f"--{key}", value)]
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        argv = [command, "--paper-preset", "--out", out, *fuzz_inputs[command], *flags]
        err = io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        assert code in (0, 2, 3, 4, 5)
        if code:
            assert len(err.getvalue().splitlines()) == 1, err.getvalue()
            assert not os.path.exists(out) or not os.listdir(out)
            return
        for name in os.listdir(out):
            with open(os.path.join(out, name)) as fh:
                values = list(_numbers(fh.read()))
            assert not any(math.isnan(v) for v in values), name
            assert name == "tstar.csv" or all(math.isfinite(v) for v in values), name


def test_day_over_the_transition_cap_exits_2_before_simulating(tmp_path, capsys, monkeypatch):
    def unreachable(*args):
        raise AssertionError("a day over the transition cap was simulated")

    monkeypatch.setattr(pdm, "simulate_trajectory", unreachable)
    out = tmp_path / "out"
    assert run_cli("simulate", "--paper-preset", "--out", str(out), "--dt", "1e-12") == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and "transitions" in lines[0], lines
    assert not out.exists()


def test_allocation_failure_exits_2_with_one_line(tmp_path, capsys, monkeypatch):
    def too_large(*args):
        raise MemoryError("Unable to allocate 1.46 TiB for an array")

    monkeypatch.setattr(measures, "init_uniform_box", too_large)
    write_noise_free_observations(tmp_path / "observations.csv", days=4)
    out = tmp_path / "out"
    args = ["flow", "--paper-preset", "--observations", str(tmp_path / "observations.csv")]
    assert run_cli(*args, "--out", str(out), "--n_particles", "100000000000") == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["config error: Unable to allocate 1.46 TiB for an array"]
    assert not out.exists()


@pytest.mark.parametrize("error", EngineError.__subclasses__(), ids=lambda cls: cls.__name__)
def test_every_engine_error_exits_with_a_documented_code(capsys, monkeypatch, error):
    # main has one handler per error class; a class without one would
    # escape as a traceback.
    def refuse(cfg, out_dir, force):
        raise error("refused")

    monkeypatch.setitem(cli._COMMANDS, "simulate", refuse)
    assert run_cli("simulate") in (2, 3, 4, 5)
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].endswith(": refused"), lines


class TestConfigHandling:
    def test_config_file_plus_overrides(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# pipeline configuration\n"
            "a0 = 2.5\nb0 = 1\nlambda1 = 0.03333333333333333\n"
            "lambda2 = 0.08333333333333333\nzeta_min = 0.4\nT = 5\n"
            "days = 2\ndt = 0.001\nhorizon = 1.0\neps_half_width = 0\n"
            "r = 1\nx0 = -2.5,0\nseed = 1\n"
        )
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", str(cfg), "--out", str(out), "--days", "3") == 0
        rows = list(csv.reader(open(out / "observations.csv")))
        assert len(rows) == 4  # header + 3 days (override wins)

    def test_bad_override_pairing_exits_2(self, tmp_path):
        assert run_cli("simulate", "--paper-preset", "--out", str(tmp_path), "--days") == 2

    def test_bad_numeric_value_exits_2(self, tmp_path):
        assert run_cli(
            "simulate", "--paper-preset", "--out", str(tmp_path / "q"), "--days", "many"
        ) == 2
        assert not (tmp_path / "q").exists()

    def test_missing_config_file_exits_2(self, tmp_path):
        assert run_cli("simulate", "--config", str(tmp_path / "nope.cfg")) == 2

    @pytest.mark.parametrize("source", ["override", "config file"])
    def test_unknown_key_exits_2_naming_the_closest(self, tmp_path, capsys, source):
        if source == "override":
            args = ["--tua", "0.5"]
        else:
            (tmp_path / "run.cfg").write_text("tua = 0.5\n")
            args = ["--config", str(tmp_path / "run.cfg")]
        out = tmp_path / "out"
        assert run_cli("flow", "--paper-preset", "--out", str(out), *args) == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["config error: unknown config key 'tua'; did you mean 'tau'?"]
        assert not out.exists()

    def test_unknown_key_without_a_close_match(self, tmp_path, capsys):
        assert run_cli("simulate", "--paper-preset", "--out", str(tmp_path), "--zzzz", "1") == 2
        assert capsys.readouterr().err.splitlines() == ["config error: unknown config key 'zzzz'"]

    def test_on_invalid_is_not_a_key(self, tmp_path, capsys):
        # No setting of that name exists: the run refuses every bad
        # observation, and the flow stage's reader refuses one first.
        write_noise_free_observations(tmp_path / "observations.csv", days=4)
        out = tmp_path / "out"
        assert run_cli("flow", "--paper-preset", "--out", str(out), "--observations",
                       str(tmp_path / "observations.csv"), "--on_invalid", "skip") == 2
        assert capsys.readouterr().err.splitlines() == ["config error: unknown config key 'on_invalid'"]
        assert not out.exists()

    def test_one_config_file_serves_every_stage(self, tmp_path):
        # Keys that only flow, predict or diagnose read do not stop simulate.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tau = 0.01\nrule = mean\nreference = elsewhere.csv\ndays = 2\nhorizon = 1.0\n")
        assert run_cli("simulate", "--paper-preset", "--config", str(cfg), "--out", str(tmp_path)) == 0

    def test_key_table_holds_every_key_a_command_reads(self):
        # Keys appear as literals in cfg.<accessor>("key") and
        # _input_path(cfg, "key", ...).  A default lives only in DEFAULTS,
        # so no accessor call passes one.
        read = set()
        for node in ast.walk(ast.parse(open(cli.__file__).read())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "cfg":
                assert len(node.args) == 1 and not node.keywords, ast.unparse(node)
                key = node.args[0]
            elif getattr(func, "id", None) == "_input_path":
                key = node.args[1]
            else:
                continue
            if isinstance(key, ast.Constant):
                read.add(key.value)
        assert {"tau", "resume", "particles", "reference"} <= read
        assert read <= cli.CONFIG_KEYS
        assert set(cli.DEFAULTS) <= read
        computed = {"observations", "particles", "reference", "resume", "day", "max_iters"}
        assert cli.CONFIG_KEYS == set(cli.DEFAULTS) | set(cli.CASE_STUDY_PRESET) | computed

    def test_seed_flag_overrides_preset(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run_cli(*fast_sim_args(out_a), "--seed", "9") == 0
        assert run_cli(*fast_sim_args(out_b), "--seed", "10") == 0
        assert (out_a / "observations.csv").read_bytes() != (out_b / "observations.csv").read_bytes()


def _limit_file_size(size):
    # For preexec_fn: the child alone may write no file past size bytes.
    return lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (size, size))


def _too_large(path):
    return f"config error: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}: {str(path)!r}\n"


def test_write_over_the_file_size_limit_exits_2_naming_the_file(tmp_path):
    # The child alone gets a 1 KiB file-size limit, so writing particles.csv
    # fails with EFBIG, an OSError that names no file of its own.
    obs = tmp_path / "observations.csv"
    write_noise_free_observations(obs, 3)
    out = tmp_path / "out"
    proc = run_cli_process("-m", "wgflow.cli", "flow", "--paper-preset", "--out", str(out),
                           "--observations", str(obs), preexec_fn=_limit_file_size(1024))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == _too_large(out / "particles.csv")
    assert not out.exists()


def test_flow_rerun_whose_second_write_fails_leaves_no_earlier_output(tmp_path):
    # The rerun's particles.csv (10 particles) fits under 700 bytes and its
    # trace.csv (11 rows) does not; the earlier run's trace must not stay
    # beside the new particles.
    obs = tmp_path / "observations.csv"
    write_noise_free_observations(obs, 11)
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    common = ["flow", "--paper-preset", "--observations", str(obs)]
    assert run_cli(*common, "--out", str(out)) == 0
    rerun = [*common, "--seed", "1", "--n_particles", "10", "--diag_every", "1"]
    assert run_cli(*rerun, "--out", str(fresh)) == 0
    assert (fresh / "particles.csv").stat().st_size < 700 < (fresh / "trace.csv").stat().st_size

    proc = run_cli_process("-m", "wgflow.cli", *rerun, "--out", str(out), preexec_fn=_limit_file_size(700))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == _too_large(out / "trace.csv")
    assert sorted(os.listdir(out)) == ["particles.csv"]
    assert (out / "particles.csv").read_bytes() == (fresh / "particles.csv").read_bytes()


def test_predict_rerun_whose_first_write_fails_leaves_neither_output(tmp_path):
    particles = tmp_path / "particles.csv"
    measures.write_particles_csv(measures.ParticleMeasure(np.tile(LAM, (8, 1))), particles)
    out = tmp_path / "out"
    args = ["-m", "wgflow.cli", "predict", "--paper-preset", "--particles", str(particles), "--out", str(out)]
    assert run_cli_process(*args).returncode == 0
    assert sorted(os.listdir(out)) == ["prediction.csv", "tstar.csv"]

    proc = run_cli_process(*args, preexec_fn=_limit_file_size(1024))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == _too_large(out / "prediction.csv")
    assert os.listdir(out) == []


def test_help_lists_each_command_with_its_docstring(capsys):
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    out = " ".join(capsys.readouterr().out.split())
    for name, command in cli._COMMANDS.items():
        assert f"{name} {command.__doc__}" in out


@pytest.mark.parametrize("command", ["simulate", "predict"])
def test_unwritable_output_exits_2_with_one_line(tmp_path, command):
    # simulate: the output directory would sit under a regular file;
    # predict: the output directory is an existing regular file.
    (tmp_path / "file").write_text("")
    if command == "simulate":
        args = ["--days", "1", "--horizon", "1.0", "--out", str(tmp_path / "file" / "sub")]
    else:
        measures.write_particles_csv(
            measures.ParticleMeasure(np.tile(LAM, (8, 1))), tmp_path / "particles.csv"
        )
        args = ["--particles", str(tmp_path / "particles.csv"), "--out", str(tmp_path / "file")]
    proc = run_cli_process("-m", "wgflow.cli", command, "--paper-preset", *args)
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error:"), proc.stderr
