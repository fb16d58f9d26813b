import ast
import csv
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

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

    def test_unstable_dt_exits_4(self, tmp_path, capsys):
        code = run_cli(*fast_sim_args(tmp_path / "x", extra=("--dt", "3.0")))
        assert code == 4
        assert "spectral radius" in capsys.readouterr().err
        assert not (tmp_path / "x" / "observations.csv").exists()

    def test_missing_required_key_exits_2(self, tmp_path):
        assert run_cli("simulate", "--out", str(tmp_path / "y")) == 2
        assert not (tmp_path / "y").exists()

    def test_refused_day_is_named_with_its_time(self, tmp_path, capsys):
        # Day 15 (t = 75) drives the damping a0 - lambda1 t to 0.
        out = tmp_path / "out"
        assert run_cli(*fast_sim_args(out, days=16)) == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["config error: day 15 (t = 75.0): a must be positive"]
        assert not out.exists()

    def test_overflowing_day_is_named_in_one_line(self, tmp_path):
        # A huge but finite x0 overflows day 0's fit.  NumPy's warning
        # about it must not reach stderr, which a fresh process shows.
        out = tmp_path / "out"
        args = fast_sim_args(out, days=2, extra=("--x0", "1e308,1e308"))
        proc = run_cli_process("-m", "wgflow.cli", *args)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.splitlines() == [
            "config error: day 0 (t = 0.0): y_hat must be a finite vector (a_hat, b_hat)"
        ]
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

    def test_unsafe_tau_refused_then_forced(self, tmp_path):
        write_noise_free_observations(tmp_path / "observations.csv", days=4)
        args = [
            "flow", "--paper-preset", "--out", str(tmp_path),
            "--n_particles", "16", "--tau", "0.05",
        ]
        assert run_cli(*args) == 5
        assert not (tmp_path / "particles.csv").exists()
        assert run_cli(*args, "--force") == 0
        assert (tmp_path / "particles.csv").exists()

    def test_resume_matches_uninterrupted(self, tmp_path):
        write_noise_free_observations(tmp_path / "observations.csv", days=12)
        full = tmp_path / "full"
        split = tmp_path / "split"
        common = ["--paper-preset", "--n_particles", "64", "--seed", "4"]
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

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        write_noise_free_observations(tmp_path / "observations.csv", days=8)
        outs = []
        for workers in ("1", "4"):
            out = tmp_path / f"w{workers}"
            assert run_cli(
                "flow", "--paper-preset", "--out", str(out),
                "--observations", str(tmp_path / "observations.csv"),
                "--n_particles", "64", "--workers", workers,
            ) == 0
            outs.append(out)
        assert (outs[0] / "particles.csv").read_bytes() == (outs[1] / "particles.csv").read_bytes()
        assert (outs[0] / "trace.csv").read_bytes() == (outs[1] / "trace.csv").read_bytes()

    def test_divergence_exits_4_with_one_line(self, tmp_path):
        write_noise_free_observations(tmp_path / "observations.csv", days=8)
        proc = run_cli_process(
            "-m", "wgflow.cli", "flow", "--paper-preset", "--out", str(tmp_path),
            "--n_particles", "64", "--force", "--tau", "1e200",
        )
        assert proc.returncode == 4
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical error:"), proc.stderr
        assert not (tmp_path / "particles.csv").exists()

    def test_trace_row_divergence_names_the_iteration(self, tmp_path):
        # The first step already overflows the squared distances of the
        # k = 1 trace row, before the cloud itself turns non-finite.
        write_noise_free_observations(tmp_path / "observations.csv", days=8)
        proc = run_cli_process(
            "-m", "wgflow.cli", "flow", "--paper-preset", "--out", str(tmp_path),
            "--n_particles", "64", "--force", "--tau", "1e200",
        )
        assert proc.returncode == 4
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and "iteration 1" in lines[0], proc.stderr
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
        ],
    )
    def test_resume_of_another_run_exits_3(self, tmp_path, capsys, field, override):
        write_noise_free_observations(tmp_path / "observations.csv", days=12)
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

    def test_missing_observations_exits_2(self, tmp_path):
        assert run_cli("flow", "--paper-preset", "--out", str(tmp_path / "z")) == 2
        assert not (tmp_path / "z").exists()

    def test_malformed_observations_exits_3(self, tmp_path):
        (tmp_path / "observations.csv").write_text("t,a_hat,b_hat\n0,not_a_number,1\n")
        assert run_cli("flow", "--paper-preset", "--out", str(tmp_path)) == 3
        assert not (tmp_path / "particles.csv").exists()


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

    def test_oversized_grid_exits_2_with_one_line(self, tmp_path):
        measures.write_particles_csv(
            measures.ParticleMeasure(np.tile(LAM, (8, 1))), tmp_path / "particles.csv"
        )
        proc = run_cli_process(
            "-m", "wgflow.cli", "predict", "--paper-preset", "--out", str(tmp_path),
            "--t_step", "1e-300",
        )
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error:"), proc.stderr
        assert not (tmp_path / "prediction.csv").exists()

    def test_empty_particle_file_exits_3(self, tmp_path):
        (tmp_path / "particles.csv").write_text("x1,x2\n")
        assert run_cli("predict", "--paper-preset", "--out", str(tmp_path)) == 3

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
        assert metrics["mean_gap"] == 0.0
        assert metrics["bures_gap"] == pytest.approx(0.0, abs=1e-8)
        assert metrics["lipschitz_norm_gap"] == 0.0
        assert metrics["gelbrich_lower_bound"] == pytest.approx(0.0, abs=1e-8)

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
        assert metrics["gelbrich_lower_bound"] <= metrics["w2_subsampled"] + 1e-8

    def test_each_moment_gap_computed_once(self, tmp_path, monkeypatch):
        # The Gelbrich bound is built from the reported mean and Bures gaps,
        # so each cloud's covariance and their Bures distance are computed once.
        calls = {"covariance": 0, "bures_distance": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for module, name in ((measures, "covariance"), (transport, "covariance"),
                             (transport, "bures_distance")):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        measures.write_particles_csv(
            measures.init_uniform_box([0, 0], [0.2, 0.3], 32, seed=2), tmp_path / "particles.csv"
        )
        measures.write_particles_csv(
            measures.init_uniform_box([0, 0], [0.1, 0.4], 32, seed=3), tmp_path / "reference.csv"
        )
        assert run_cli("diagnose", "--paper-preset", "--out", str(tmp_path)) == 0
        assert calls == {"covariance": 2, "bures_distance": 1}

    def test_dimension_mismatch_exits_3(self, tmp_path):
        measures.write_particles_csv(
            measures.ParticleMeasure(np.zeros((4, 2))), tmp_path / "particles.csv"
        )
        measures.write_particles_csv(
            measures.ParticleMeasure(np.zeros((4, 3))), tmp_path / "reference.csv"
        )
        assert run_cli("diagnose", "--paper-preset", "--out", str(tmp_path)) == 3


# Library argument checks raise ValueError; the CLI reports each as a
# configuration error.  Inputs per command: config key -> file under in/.
_INPUTS = {
    "simulate": {},
    "flow": {"observations": "observations.csv"},
    "predict": {"particles": "particles.csv"},
    "diagnose": {"particles": "particles.csv", "reference": "particles.csv"},
}


@pytest.mark.parametrize(
    "command, overrides",
    [
        ("predict", ("--t_start", "-1")),
        ("predict", ("--p_lo", "0.95")),
        ("predict", ("--rule_level", "1.5")),
        ("predict", ("--chance_alpha", "0")),
        ("flow", ("--constraint", '{"kind":"box","lo":[0],"hi":[1]}')),
        ("diagnose", ("--diag_subsample", "0")),
        ("diagnose", ("--T", "0")),
        ("simulate", ("--horizon", "0.0015")),
        ("flow", ("--constraint", '{"kind":"nonneg_orthant","d":2.7}')),
        ("flow", ("--constraint", '{"kind":"halfspace","a":[1e200,0],"b":1}')),
        ("predict", ("--rule", "chance", "--rule_level", "0")),
        ("simulate", ("--seed", "abc")),
        ("simulate", ("--seed=5",)),
        ("predict", ("--day", "nan")),
        ("predict", ("--day", "inf")),
        ("predict", ("--day", "-3")),
        ("predict", ("--zeta_min", "-0.1")),
    ],
)
def test_argument_error_exits_2_with_one_line(tmp_path, command, overrides):
    inputs = tmp_path / "in"
    inputs.mkdir()
    write_noise_free_observations(inputs / "observations.csv", days=4)
    measures.write_particles_csv(
        measures.ParticleMeasure(np.tile(LAM, (8, 1))), inputs / "particles.csv"
    )
    args = [arg for k, name in _INPUTS[command].items() for arg in (f"--{k}", str(inputs / name))]
    out = tmp_path / "out"
    proc = run_cli_process(
        "-m", "wgflow.cli", command, "--paper-preset", "--out", str(out), *args, *overrides
    )
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error:"), proc.stderr
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "command, overrides",
    [
        ("flow", ("--init_hi", "1,nan")),
        ("flow", ("--init_hi", "inf,1")),
        ("flow", ("--init_lo", "-inf,0")),
        ("flow", ("--perturb_std", "nan")),
        ("flow", ("--perturb_std", "inf")),
        ("flow", ("--rho", "inf")),
        ("simulate", ("--eps_half_width", "nan")),
        ("simulate", ("--eps_half_width", "inf")),
    ],
)
def test_nonfinite_value_exits_2_with_one_line(tmp_path, capsys, command, overrides):
    obs = tmp_path / "observations.csv"
    write_noise_free_observations(obs, days=4)
    out = tmp_path / "out"
    assert run_cli(command, "--paper-preset", "--observations", str(obs), "--out", str(out), *overrides) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error:"), lines
    assert not out.exists()


def test_day_over_the_transition_cap_exits_2_before_simulating(tmp_path, capsys, monkeypatch):
    def unreachable(*args):
        raise AssertionError("a day over the transition cap was simulated")

    monkeypatch.setattr(pdm, "simulate_trajectory", unreachable)
    out = tmp_path / "out"
    assert run_cli("simulate", "--paper-preset", "--out", str(out), "--dt", "1e-12") == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and "transitions" in lines[0], lines
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
