"""Command-line front end: simulate, flow, predict, diagnose.

Configuration is a flat ``key = value`` text file; any key, ``seed``
included, can be overridden on the command line as ``--key value``.
Values are layered: :data:`DEFAULTS`, then with ``--paper-preset`` the
desk-scale case-study constants of :data:`CASE_STUDY_PRESET` (so each
pipeline stage runs with one command), then the config file, then the
overrides.  A key none of them sets is missing, and a command that needs
it refuses to run.  Every command checks its keys before writing anything;
the module that reads an input file or computes a value refuses a bad one.
All outputs are deterministic given (config, seed).

Each command imports the modules it runs: ``simulate`` and ``predict``
never load ``flow``, ``functionals``, ``sets`` or ``transport``, and
``diagnose`` never loads ``flow`` or ``sets`` (its norm gap is
``transport.lipschitz_norm_gap`` with the Euclidean norm).

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
error, 5 refused unsafe step size.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

import numpy as np

# The other modules are imported by the commands that run them.
from . import files, measures, pdm
from .errors import ConfigError, DataError, NumericalError, UnsafeStepError

#: Most time points `predict` evaluates the damping band on.
_MAX_GRID_POINTS = 10**6

#: The default of every key that has one, loaded under everything else.
DEFAULTS = {
    "x0": "0,0",
    "perturb_std": "0",
    "n_particles": "1000",
    "rho": "0.1",
    "tau": "0.01",
    "sigma_w2": "0",
    "init_lo": "0,0",
    "constraint": '{"kind": "nonneg_orthant", "d": 2}',
    "T": "5",
    "p_lo": "0.1",
    "p_hi": "0.9",
    "rule": "percentile",
    "rule_level": "0.1",
    "t_start": "0",
    "t_stop": "60",
    "t_step": "0.5",
    "diag_every": "1",
    "diag_subsample": "256",
    "checkpoint_every": "0",
    "workers": "1",
    "seed": "0",
}

#: Desk-scale case-study constants --paper-preset sets over the defaults.
CASE_STUDY_PRESET = {
    "a0": "2.5",
    "b0": "1",
    "lambda1": repr(2.0 / 60.0),
    "lambda2": repr(5.0 / 60.0),
    "zeta_min": "0.4",
    "days": "10",
    "dt": "0.001",
    "horizon": "100",
    "eps_half_width": "3",
    "r": "1",
    "x0": "-2.5,0",
    "perturb_std": "0.02",
    "init_hi": repr(8.0 / 60.0) + "," + repr(8.0 / 60.0),
    "theta_star": repr(2.0 / 60.0) + "," + repr(5.0 / 60.0),
}


#: Every key some command reads; one config file can serve all four.
CONFIG_KEYS = frozenset(DEFAULTS) | frozenset(CASE_STUDY_PRESET) | {
    "observations", "particles", "reference", "resume", "day", "max_iters",
}


def _json_object(raw: str) -> dict:
    import json  # only the flow's constraint is JSON; at module level every stage would load it

    record = json.loads(raw)
    if not isinstance(record, dict):
        raise ValueError("not an object")
    return record


class Config:
    """Flat string-to-string configuration with typed accessors.

    A key is set or missing; reading a missing key is a configuration error.
    """

    def __init__(self, values: dict[str, str]):
        self.values = values

    def has(self, key: str) -> bool:
        return key in self.values

    def _get(self, key: str, parse, what: str):
        if key not in self.values:
            raise ConfigError(f"missing required config key '{key}'")
        raw = self.values[key]
        try:
            return parse(raw)
        except ValueError:
            raise ConfigError(f"config key '{key}' must be {what}, got {raw!r}") from None

    def get_str(self, key: str) -> str:
        return self._get(key, str, "text")

    def get_float(self, key: str) -> float:
        return self._get(key, float, "a number")

    def get_int(self, key: str) -> int:
        return self._get(key, int, "an integer")

    def get_vec(self, key: str) -> np.ndarray:
        return self._get(
            key, lambda raw: np.array([float(v) for v in raw.split(",")]), "comma-separated numbers"
        )

    def get_record(self, key: str) -> dict:
        return self._get(key, _json_object, "a JSON object")


def _parse_overrides(extra: list[str]) -> dict[str, str]:
    if len(extra) % 2 != 0:
        raise ConfigError(f"overrides must come in '--key value' pairs, got {extra!r}")
    values = {}
    for flag, value in zip(extra[0::2], extra[1::2]):
        if not flag.startswith("--"):
            raise ConfigError(f"expected an override flag, got {flag!r}")
        values[flag[2:].replace("-", "_")] = value
    return values


def _build_config(args, extra: list[str]) -> Config:
    values = dict(DEFAULTS)
    if args.paper_preset:
        values.update(CASE_STUDY_PRESET)
    if args.config:
        values.update(files.read_settings(args.config, ConfigError))
    values.update(_parse_overrides(extra))
    for key in values:
        if key not in CONFIG_KEYS:
            import difflib  # only on this error path, to keep the import fast

            close = difflib.get_close_matches(key, CONFIG_KEYS, n=1)
            hint = f"; did you mean '{close[0]}'?" if close else ""
            raise ConfigError(f"unknown config key '{key}'{hint}")
    return Config(values)


def _input_path(cfg: Config, key: str, out_dir: str, default_name: str) -> str:
    path = cfg.get_str(key) if cfg.has(key) else os.path.join(out_dir, default_name)
    if not os.path.isfile(path):
        raise ConfigError(f"input file for '{key}' not found: {path}")
    return path


# -- commands ---------------------------------------------------------------

def cmd_simulate(cfg: Config, out_dir: str, force: bool) -> int:
    """simulate daily plant trajectories and write observations.csv"""
    model = _degradation_model(cfg, require_truth=True)
    dt = cfg.get_float("dt")
    horizon = cfg.get_float("horizon")
    eps = cfg.get_float("eps_half_width")
    r = cfg.get_float("r")
    x0 = cfg.get_vec("x0")
    days = cfg.get_int("days")
    seed = cfg.get_int("seed")
    observations = pdm.daily_observations(model, days, x0, r, dt, horizon, eps, seed)

    path = os.path.join(out_dir, "observations.csv")
    pdm.write_observations_csv(observations, path)

    residuals = pdm.observation_residuals(observations, model)
    print(f"wrote {path} ({len(observations)} observations, spacing {model.T} days)")
    print(
        "raw estimate noise: mean "
        f"({residuals[:, 0].mean():.3e}, {residuals[:, 1].mean():.3e}), "
        f"std ({residuals[:, 0].std():.3e}, {residuals[:, 1].std():.3e})"
    )
    return 0


def cmd_flow(cfg: Config, out_dir: str, force: bool) -> int:
    """run the belief flow on an observation file"""
    from . import flow, functionals, sets

    obs_path = _input_path(cfg, "observations", out_dir, "observations.csv")
    observations = pdm.read_observations_csv(obs_path)
    diffs = pdm.difference_stream(observations)
    spacing = observations[1].t - observations[0].t
    w = pdm.process_matrix(spacing)

    theta_star = cfg.get_vec("theta_star") if cfg.has("theta_star") else None
    rho = cfg.get_float("rho")
    sigma_w2 = cfg.get_float("sigma_w2")
    obj = functionals.StreamingLSObjective(w, rho, theta_star, sigma_w2)

    run_cfg = flow.FlowConfig(
        constraint=sets.convex_set_from_config(cfg.get_record("constraint")),
        seed=cfg.get_int("seed"),
        tau=cfg.get_float("tau"),
        perturb_std=cfg.get_float("perturb_std"),
        max_iters=cfg.get_int("max_iters") if cfg.has("max_iters") else len(diffs),
        checkpoint_every=cfg.get_int("checkpoint_every"),
        diag_every=cfg.get_int("diag_every"),
        diag_subsample=cfg.get_int("diag_subsample"),
        allow_unsafe_tau=force,
        workers=cfg.get_int("workers"),
        checkpoint_path=os.path.join(out_dir, "checkpoint"),
    )

    n_particles = measures.whole_number(cfg.get_int("n_particles"), "n_particles", at_least=1)
    start_iteration = 0
    if cfg.has("resume"):
        fields = flow.checkpoint_fields(n_particles, obj, run_cfg)
        m0, start_iteration = flow.read_checkpoint(cfg.get_str("resume"), fields)
        if start_iteration > len(diffs):
            raise DataError(
                f"checkpoint iteration {start_iteration} exceeds available observations"
            )
    else:
        init_lo = measures.frozen_vector(cfg.get_vec("init_lo"), "init_lo")
        init_hi = measures.frozen_vector(cfg.get_vec("init_hi"), "init_hi", size=init_lo.size)
        m0 = measures.init_uniform_box(init_lo, init_hi, n_particles, run_cfg.seed)

    final, trace = flow.run(m0, obj, diffs[start_iteration:], run_cfg, start_iteration)
    particles_path = os.path.join(out_dir, "particles.csv")
    trace_path = os.path.join(out_dir, "trace.csv")
    files.remove(particles_path, trace_path)
    measures.write_particles_csv(final, particles_path)
    flow.write_trace_csv(trace, trace_path, final.d)

    print(
        f"ran {trace.iterations_run} iterations (tau={run_cfg.tau}, "
        f"alpha={trace.report.alpha:.6g}, rate={trace.report.per_step_rate:.6g}, "
        f"ball radius={trace.report.ball_radius:.6g})"
    )
    print(f"wrote {particles_path} and {trace_path}")
    return 0


def _degradation_model(cfg: Config, require_truth: bool) -> pdm.DegradationModel:
    lam = np.zeros(2)
    if cfg.has("lambda1") or cfg.has("lambda2"):
        lam = [measures.finite_number(cfg.get_float("lambda1"), "lambda1"),
               measures.finite_number(cfg.get_float("lambda2"), "lambda2")]
    elif require_truth:
        raise ConfigError("missing required config keys 'lambda1'/'lambda2'")
    return pdm.DegradationModel(
        a0=cfg.get_float("a0"),
        b0=cfg.get_float("b0"),
        lam=lam,
        zeta_min=cfg.get_float("zeta_min"),
        T=cfg.get_float("T"),
    )


def cmd_predict(cfg: Config, out_dir: str, force: bool) -> int:
    """turn a particle belief into damping bands and maintenance times"""
    particles_path = _input_path(cfg, "particles", out_dir, "particles.csv")
    belief = measures.read_particles_csv(particles_path, 2)

    have_truth = cfg.has("lambda1") and cfg.has("lambda2")
    model = _degradation_model(cfg, require_truth=False)

    t_start = measures.finite_number(cfg.get_float("t_start"), "t_start", at_least=0)
    t_stop = measures.finite_number(cfg.get_float("t_stop"), "t_stop", at_least=t_start)
    t_step = measures.finite_number(cfg.get_float("t_step"), "t_step", above=0)
    span = (t_stop - t_start) / t_step
    if not span < _MAX_GRID_POINTS:
        raise ConfigError(
            f"prediction grid from t_start={t_start} to t_stop={t_stop} in steps of "
            f"{t_step} exceeds {_MAX_GRID_POINTS} points; raise t_step"
        )
    count = int(span + 1e-9) + 1
    t_grid = t_start + t_step * np.arange(count)
    p_lo = cfg.get_float("p_lo")
    p_hi = cfg.get_float("p_hi")
    rule = cfg.get_str("rule")
    rule_level = cfg.get_float("rule_level")
    if rule not in pdm.RULES:
        raise ConfigError(f"unknown maintenance rule '{rule}'")
    if not 0 < rule_level < 1:
        raise ConfigError("rule_level must lie in (0, 1)")

    observations = None
    if cfg.has("observations") or os.path.isfile(os.path.join(out_dir, "observations.csv")):
        observations = pdm.read_observations_csv(
            _input_path(cfg, "observations", out_dir, "observations.csv")
        )

    band = pdm.predict_damping_band(belief, model, t_grid, p_lo, p_hi)
    zeta_true = [None] * count
    if have_truth:
        truth = measures.ParticleMeasure([model.lam])  # the belief of one particle at the true rates
        try:
            zeta_true = pdm.predict_damping_band(truth, model, t_grid)[:, 2].tolist()
        except NumericalError:
            raise NumericalError(
                "true damping ratio overflows on the grid: lambda1 or lambda2 is too large"
            ) from None

    by_rule = {name: pdm.suggested_maintenance_time(belief, model, name, rule_level) for name in pdm.RULES}

    ls_time = None
    lam_hat = None
    if observations is not None:
        lam_hat, ls_time = pdm.ls_baseline(observations, model.a0, model.b0, model.zeta_min)

    true_time = pdm.true_maintenance_time(model) if have_truth else None
    day = observations[-1].t if observations else 0.0
    if cfg.has("day"):
        day = measures.finite_number(cfg.get_float("day"), "day", at_least=0)

    prediction_path = os.path.join(out_dir, "prediction.csv")
    tstar_path = os.path.join(out_dir, "tstar.csv")
    files.remove(prediction_path, tstar_path)
    files.write_table(
        prediction_path,
        ["t", f"p{100 * p_lo:g}", "mean", f"p{100 * p_hi:g}", "zeta_true"],
        ([*row.tolist(), z] for row, z in zip(band, zeta_true)),
    )
    baselines = [None if c is None else c.days for c in (ls_time, true_time)]
    files.write_table(tstar_path, ["day", "ours", "ls", "true"], [[day, by_rule[rule].days, *baselines]])

    print(f"wrote {prediction_path} and {tstar_path}")
    print("suggested maintenance (days): " + ", ".join(
        f"{name}{'' if name == 'mean' else f'({rule_level})'}={time.days:.3f} [{time.status}]"
        for name, time in by_rule.items()
    ))
    if lam_hat is not None:
        flag = " (negative component!)" if np.any(lam_hat < 0) else ""
        print(
            f"ls baseline: lambda_hat=({lam_hat[0]:.6g}, {lam_hat[1]:.6g}){flag}, "
            f"t*={ls_time.days:.3f} [{ls_time.status}]"
        )
    if true_time is not None:
        print(f"true maintenance time: {true_time.days:.3f} [{true_time.status}]")
    return 0


def cmd_diagnose(cfg: Config, out_dir: str, force: bool) -> int:
    """report convergence constants and measured distances"""
    from . import functionals, transport

    cap = measures.whole_number(cfg.get_int("diag_subsample"), "diag_subsample", at_least=1)
    particles_path = _input_path(cfg, "particles", out_dir, "particles.csv")
    reference_path = _input_path(cfg, "reference", out_dir, "reference.csv")
    m = measures.read_particles_csv(particles_path, 2)
    ref = measures.read_particles_csv(reference_path, 2)

    w = pdm.process_matrix(cfg.get_float("T"))
    report = functionals.validate_tau(
        w, cfg.get_float("rho"), cfg.get_float("sigma_w2"), cfg.get_float("tau")
    )
    metrics = [(name, float(getattr(report, name))) for name in report._fields]

    k = min(cap, m.n, ref.n)
    transport.check_subsample(cap, k)
    seed = measures.whole_number(cfg.get_int("seed"), "seed", at_least=0)
    sub_m, sub_r = (transport.subsample(c, k, seed, measures.DIAGNOSE_SUBSAMPLE_STREAM) for c in (m, ref))
    whole = k == m.n == ref.n
    w2, _ = transport.w2_exact(sub_m, sub_r)
    mean_gap, bures_gap, gelbrich = transport.moment_gaps(m, ref)
    # The Gelbrich bound governs the W2 of the same pair: the subsamples'.
    sub_gelbrich = gelbrich if whole else transport.moment_gaps(sub_m, sub_r)[2]
    lipschitz_gap = transport.lipschitz_norm_gap(m, ref, lambda x: float(np.linalg.norm(x)))
    measured = [
        ("w2_subsampled", w2),
        ("subsample", float(k)),
        ("gelbrich_lower_bound_subsampled", sub_gelbrich),
        ("gelbrich_lower_bound_full", gelbrich),
        ("mean_gap_full", mean_gap),
        ("bures_gap_full", bures_gap),
        ("lipschitz_norm_gap", lipschitz_gap),
    ]
    for name, value in measured:
        measures.finite_result(value, name, "the clouds' coordinates are too large")

    diag_path = os.path.join(out_dir, "diagnostics.csv")
    files.write_table(diag_path, ["metric", "value"], metrics + measured)

    print(f"step-size report: tau={report.tau} valid={report.tau_valid} "
          f"(tau_max={report.tau_max:.6g})")
    print(f"  alpha={report.alpha:.6g} C={report.C:.6g} eta={report.eta:.6g} "
          f"sigma2={report.sigma2:.6g} ball_radius={report.ball_radius:.6g} "
          f"rate={report.per_step_rate:.6g}")
    measured_on = f"the whole clouds ({k} particles)" if whole else f"{k} subsampled particles"
    print(f"measured on {measured_on}: W2={w2:.6g}, "
          f"gelbrich lower bound={sub_gelbrich:.6g} (never exceeds that W2)")
    print(f"full clouds ({m.n} and {ref.n} particles): gelbrich bound={gelbrich:.6g} "
          f"mean gap={mean_gap:.6g} bures gap={bures_gap:.6g}")
    print(f"lipschitz norm gap (|x|, L=1)={lipschitz_gap:.6g}")
    print(f"wrote {diag_path}")
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "flow": cmd_flow,
    "predict": cmd_predict,
    "diagnose": cmd_diagnose,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wgflow",
        description="Particle belief flows over streaming data, desk-scale maintenance pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.__doc__)
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--paper-preset", action="store_true",
                       help="set the desk-scale case-study constants over the defaults")
        p.add_argument("--force", action="store_true",
                       help="run even if the step size fails validation")

    args, extra = parser.parse_known_args(argv)
    try:
        cfg = _build_config(args, extra)
        return _COMMANDS[args.command](cfg, args.out, args.force)
    # Library code raises ValueError only for arguments out of contract,
    # and every argument here comes from the configuration; so does every
    # path, such as an output directory that cannot be made or written, and
    # every size, such as a particle count too large to allocate.
    except (ConfigError, ValueError, OSError, MemoryError) as exc:
        print(f"config error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4
    except UnsafeStepError as exc:
        print(f"unsafe step size: {exc}", file=sys.stderr)
        return 5


def entry() -> None:
    """The ``wgflow`` script and ``python -m wgflow.cli``: :func:`main`, after
    ``gc.freeze()``.  The import-time heap lives until exit, so the
    collector's sweeps, the last one at exit included, need not walk it."""
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    entry()
