"""Guards on the package surface: what it exports and what it imports."""

import ast
import glob
import importlib
import os
import shutil
import subprocess
import sys
import tempfile
import warnings

import math
import re

import numpy as np
import pytest

import wgflow
from wgflow import cli, measures
from wgflow.errors import NumericalError
from wgflow.flow import FlowConfig, run, step
from wgflow.functionals import (
    StreamingLSObjective, convergence_bound, evaluate_objective, exact_gradient, perturbed_gradient,
    stochastic_gradient, validate_tau,
)
from wgflow.pdm import (
    DegradationModel, Observation, PlantParams, daily_observations, degrade, ls_estimate,
    predict_damping_band, process_matrix, simulate_trajectory, suggested_maintenance_time,
)
from wgflow.sets import Ball, Box, FullSpace, Halfspace, NonnegativeOrthant
from wgflow.transport import (
    bures_distance, gelbrich_lower_bound, lipschitz_norm_gap, moment_gaps, w2_1d, w2_exact,
)

SRC = os.path.dirname(os.path.dirname(os.path.abspath(wgflow.__file__)))


def test_cli_import_loads_no_scipy():
    # scipy's packages cost more to import than the rest of this one, and
    # no stage needs them: w2_exact, which a simulation-mode flow and
    # diagnose call, loads the two compiled kernels it needs from their
    # files (see the next test).
    code = "import sys, wgflow.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_loads_no_logging():
    # Only flow.run's skip path logs, and it imports logging there: at
    # module level the import would cost the flow stage several ms.
    code = "import sys, wgflow.cli; print('logging' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_import_loads_no_json():
    # Only the flow's constraint key is JSON, and cmd_flow's parse imports
    # json there, so simulate, predict and diagnose never load it.
    proc = _python("import sys, wgflow.cli; print('json' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_four_stages_load_no_scipy(tmp_path):
    # The cold pipeline: a simulation-mode flow (a W2 trace row at each of
    # its 10 iterates) and diagnose both solve exact transport problems,
    # and scipy's packages would about triple the cost of either.  All
    # four stages run in one process, and the modules loaded by the end
    # are checked.
    code = (
        "import sys\n"
        "from wgflow.cli import main\n"
        "out = sys.argv[1]\n"
        "for argv in (['simulate'], ['flow'], ['predict'],\n"
        "             ['diagnose', '--reference', out + '/particles.csv']):\n"
        "    assert main([*argv, '--paper-preset', '--out', out]) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    trace = (tmp_path / "trace.csv").read_text().splitlines()
    assert len(trace) == 11 and all(row.split(",")[2] for row in trace[1:])
    assert (tmp_path / "tstar.csv").is_file() and (tmp_path / "diagnostics.csv").is_file()


def test_all_lists_exactly_the_public_imports():
    # The package imports its public names lazily, through one table.
    for name in wgflow.__all__:
        assert hasattr(wgflow, name), name
    assert set(wgflow._SOURCES) == set(wgflow.__all__)


def _python(code, *args):
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_simulate_and_predict_load_only_their_modules(tmp_path):
    # Neither stage runs the flow, so a cold process of either should not
    # pay to import it, its sets or transport.
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from wgflow import measures\n"
        "from wgflow.cli import main\n"
        "out = sys.argv[1]\n"
        "assert main(['simulate', '--paper-preset', '--out', out]) == 0\n"
        "belief = measures.init_uniform_box(np.zeros(2), np.full(2, 8 / 60), 100, 0)\n"
        "measures.write_particles_csv(belief, out + '/particles.csv')\n"
        "assert main(['predict', '--paper-preset', '--out', out]) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('wgflow.')))\n"
    )
    proc = _python(code, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.splitlines()[-1]
    assert loaded == "['wgflow.cli', 'wgflow.errors', 'wgflow.files', 'wgflow.measures', 'wgflow.pdm']"
    assert (tmp_path / "tstar.csv").is_file()


def test_diagnose_loads_neither_the_flow_nor_the_sets(tmp_path):
    # diagnose reports the step-size constants, which functionals derives,
    # and measures two clouds; it runs no flow and projects nothing.
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from wgflow import measures\n"
        "from wgflow.cli import main\n"
        "out = sys.argv[1]\n"
        "belief = measures.init_uniform_box(np.zeros(2), np.full(2, 8 / 60), 100, 0)\n"
        "measures.write_particles_csv(belief, out + '/particles.csv')\n"
        "assert main(['diagnose', '--paper-preset', '--out', out,\n"
        "             '--reference', out + '/particles.csv']) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('wgflow.')))\n"
    )
    proc = _python(code, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.splitlines()[-1]
    assert loaded == (
        "['wgflow.cli', 'wgflow.errors', 'wgflow.files', 'wgflow.functionals', "
        "'wgflow.measures', 'wgflow.pdm', 'wgflow.transport']"
    )
    assert (tmp_path / "diagnostics.csv").is_file()


def test_step_bound_names_resolve_from_the_flow_and_the_package():
    # They moved beside the objective; the flow re-exports them.
    from wgflow import flow, functionals

    for name in ("StepBoundReport", "convergence_bound", "validate_tau"):
        assert getattr(flow, name) is getattr(functionals, name) is getattr(wgflow, name), name


def test_package_import_loads_no_numpy():
    # Each public name is imported from its module on first use.
    code = "import sys, wgflow; print('numpy' in sys.modules, [m for m in sys.modules if 'wgflow' in m])"
    proc = _python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False ['wgflow']"


def test_star_import_binds_each_name_to_its_module_object():
    namespace = {}
    exec("from wgflow import *", namespace)
    for name in wgflow.__all__:
        module = importlib.import_module(f"wgflow.{wgflow._SOURCES[name]}")
        assert namespace[name] is vars(module)[name], name
        assert namespace[name].__module__ == module.__name__, name


def test_unknown_attribute_raises_and_submodules_still_import():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        wgflow.no_such_name
    from wgflow import flow

    assert flow is sys.modules["wgflow.flow"]


def test_entry_point_freezes_the_import_time_heap():
    code = "import gc, wgflow.cli as c; c.main = lambda: print(gc.get_freeze_count()) or 0; c.entry()"
    proc = _python(code)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 0


def _tracer_table(name):
    # Read from the benchmark's tracer without importing it.
    with open(os.path.join(os.path.dirname(SRC), "perfbench", "tracing.py")) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/tracing.py defines no {name}")


def test_every_name_the_benchmark_tracer_wraps_exists():
    # `perfbench/run.py --trace 1` wraps each of these by owner.__dict__
    # lookup and fails on a missing one.
    from wgflow import sets

    for module, attr, _ in _tracer_table("_FUNCTIONS"):
        assert attr in vars(importlib.import_module(f"wgflow.{module}")), f"{module}.{attr}"
    assert "__init__" in vars(measures.ParticleMeasure)
    for kind in _tracer_table("_SET_CLASSES"):
        assert "project_points" in vars(getattr(sets, kind)), kind


def test_every_demo_runs_cleanly(tmp_path):
    # Each demo runs from a copy, so its demo_out/ lands under tmp_path.
    demos = os.path.join(os.path.dirname(SRC), "demos")
    names = sorted(n for n in os.listdir(demos) if n.endswith(".py"))
    assert len(names) == 3, names
    for name in names:
        shutil.copy(os.path.join(demos, name), tmp_path)
        proc = subprocess.run(
            [sys.executable, name],
            cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=SRC),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0 and proc.stderr == "", (name, proc.stderr)


@pytest.mark.parametrize(
    "build, kept",
    [
        (lambda a: StreamingLSObjective(a["W"], 0.1, a["theta_star"]), {"W": "W", "theta_star": "theta_star"}),
        (lambda a: Box(a["lo"], a["hi"]), {"lo": "lo", "hi": "hi"}),
        (lambda a: Halfspace(a["a"], 1.0), {"a": "a"}),
        (lambda a: Ball(a["center"], 0.5), {"center": "center"}),
        (lambda a: DegradationModel(2.5, 1.0, a["lam"], 0.4, 5.0), {"lam": "lam"}),
        (lambda a: Observation(5.0, a["y_hat"]), {"y_hat": "y_hat"}),
    ],
    ids=["StreamingLSObjective", "Box", "Halfspace", "Ball", "DegradationModel", "Observation"],
)
def test_no_value_object_freezes_or_aliases_its_callers_arrays(build, kept):
    # Each kept array is the object's own read-only copy: the caller's
    # array stays writable, and writing to it later changes nothing kept.
    args = {
        "W": np.diag([-5.0, 5.0]), "theta_star": np.array([2.0, 5.0]) / 60.0,
        "lo": np.zeros(2), "hi": np.ones(2), "a": np.array([1.0, 2.0]),
        "center": np.array([0.5, 0.5]), "lam": np.array([2.0, 5.0]) / 60.0,
        "y_hat": np.array([2.4, 1.1]),
    }
    value = build(args)
    for arg, attr in kept.items():
        mine, theirs = args[arg], getattr(value, attr)
        assert mine.flags.writeable, arg
        assert not np.shares_memory(mine, theirs), arg
        assert not theirs.flags.writeable, attr
        assert np.array_equal(mine, theirs), arg


_W = np.diag([-5.0, 5.0])
_LAM = np.array([2.0, 5.0]) / 60.0
_MODEL = DegradationModel(2.5, 1.0, _LAM, 0.4, 5.0)
_BELIEF = measures.ParticleMeasure(np.full((4, 2), 0.05))
# Every float setting whose check is a plain range, as the one intake
# (measures.finite_number) names it: each is built once with the value.
_FLOAT_SETTINGS = {
    "Halfspace.b": (lambda v: Halfspace([1.0, 0.0], v), "halfspace offset b must be finite"),
    "Ball.radius": (lambda v: Ball([0.0, 0.0], v), "ball radius must be finite and >= 0"),
    "rho": (lambda v: StreamingLSObjective(_W, v), "rho must be finite and > 0"),
    "sigma_w2": (lambda v: StreamingLSObjective(_W, 0.1, None, v), "sigma_w2 must be finite and >= 0"),
    "validate_tau": (lambda v: validate_tau(_W, 0.1, 0.0, v), "tau must be finite and > 0"),
    "convergence_bound": (lambda v: convergence_bound(validate_tau(_W, 0.1, 0.0, 0.01), v, 3),
                          "w2_0 must be finite and >= 0"),
    "perturbed_gradient": (lambda v: perturbed_gradient(np.zeros(2), v, np.random.default_rng(0)),
                           "noise_std must be finite and >= 0"),
    "FlowConfig.tau": (lambda v: FlowConfig(tau=v, max_iters=1, seed=0, constraint=FullSpace(2)),
                       "tau must be finite and > 0"),
    "FlowConfig.perturb_std": (
        lambda v: FlowConfig(tau=0.01, max_iters=1, seed=0, constraint=FullSpace(2), perturb_std=v),
        "perturb_std must be finite and >= 0"),
    "step": (lambda v: step(measures.ParticleMeasure(np.zeros((4, 2))), np.zeros((4, 2)), v, FullSpace(2)),
             "tau must be finite and > 0"),
    "PlantParams.a": (lambda v: PlantParams(v, 1.0, 1.0, 0.001, 1.0, 0.0), "a must be finite and > 0"),
    "PlantParams.b": (lambda v: PlantParams(2.5, v, 1.0, 0.001, 1.0, 0.0), "b must be finite and > 0"),
    "PlantParams.r": (lambda v: PlantParams(2.5, 1.0, v, 0.001, 1.0, 0.0), "r must be finite"),
    "PlantParams.dt": (lambda v: PlantParams(2.5, 1.0, 1.0, v, 1.0, 0.0), "dt must be finite and > 0"),
    "PlantParams.horizon": (lambda v: PlantParams(2.5, 1.0, 1.0, 0.001, v, 0.0),
                            "horizon must be finite and > 0"),
    "PlantParams.eps_half_width": (lambda v: PlantParams(2.5, 1.0, 1.0, 0.001, 1.0, v),
                                   "eps_half_width must be finite and >= 0"),
    "ls_estimate": (lambda v: ls_estimate((np.zeros((5, 2)), np.zeros(5)), v), "dt must be finite and > 0"),
    "DegradationModel.a0": (lambda v: DegradationModel(v, 1.0, _LAM, 0.0, 5.0), "a0 must be finite"),
    "DegradationModel.b0": (lambda v: DegradationModel(2.5, v, _LAM, 0.0, 5.0), "b0 must be finite and > 0"),
    "DegradationModel.T": (lambda v: DegradationModel(2.5, 1.0, _LAM, 0.4, v), "T must be finite and > 0"),
    "DegradationModel.zeta_min": (lambda v: DegradationModel(2.5, 1.0, _LAM, v, 5.0),
                                  "zeta_min must be finite and >= 0"),
    "Observation.t": (lambda v: Observation(v, [2.5, 1.0]), "t must be finite and >= 0"),
    "degrade": (lambda v: degrade(_MODEL, v), "t must be finite and >= 0"),
    "process_matrix": (lambda v: process_matrix(v), "T must be finite and > 0"),
    "predict_damping_band.p_lo": (lambda v: predict_damping_band(_BELIEF, _MODEL, [0.0], v, 0.9),
                                  "p_lo must be finite"),
    "predict_damping_band.p_hi": (lambda v: predict_damping_band(_BELIEF, _MODEL, [0.0], 0.1, v),
                                  "p_hi must be finite"),
    "suggested_maintenance_time.level": (
        lambda v: suggested_maintenance_time(_BELIEF, _MODEL, "percentile", v), "level must be finite"),
}


def _float_cases():
    # Non-finite values, values that are not numbers or lie beyond a
    # float's range, and the first value out of range where there is a
    # range: 0 for "> 0", the largest negative float for ">= 0".
    refused = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "True": True,
               "np.True_": np.True_, "'0.5'": "0.5", "huge": 10**400}
    for site, (_, message) in _FLOAT_SETTINGS.items():
        for name, value in refused.items():
            yield pytest.param(site, value, id=f"{site}-{name}")
        edge = {"> 0": 0.0, ">= 0": -5e-324}.get(message.rsplit(" and ")[-1])
        if edge is not None:
            yield pytest.param(site, edge, id=f"{site}-{edge}")


@pytest.mark.parametrize("site, value", _float_cases())
def test_every_float_setting_is_refused_with_the_one_message(site, value):
    build, message = _FLOAT_SETTINGS[site]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build(value)


def _flow_config(**kwargs):
    return FlowConfig(
        **{"tau": 0.01, "max_iters": 1, "seed": 0, "constraint": FullSpace(2),
           "checkpoint_path": "unused", **kwargs}
    )


def _trace_ks(start_iteration):
    cloud = measures.ParticleMeasure(np.zeros((4, 2)))
    obj = StreamingLSObjective(_W, 0.1, _LAM)
    _, trace = run(cloud, obj, [_W @ _LAM], _flow_config(), start_iteration)
    return [row.k for row in trace.rows]


def _days(**kwargs):
    plant = dict(days=2, x0=(-2.5, 0.0), r=1.0, dt=0.01, horizon=2.0, eps_half_width=0.5, seed=0)
    return [obs.y_hat.tolist() for obs in daily_observations(_MODEL, **{**plant, **kwargs})]


# Every integer setting, as the one intake (measures.whole_number) names
# it, with its lower bound: each is built once with the value, and what
# it builds shows the value it kept.
_WHOLE_SETTINGS = {
    "substream": (lambda v: measures.substream(v).random(), "seed", 0),
    "spawn_seed": (lambda v: measures.spawn_seed(v), "seed", 0),
    "init_uniform_box": (lambda v: measures.init_uniform_box([0, 0], [1, 1], v, 0).points.tolist(),
                         "particle count n", 1),
    "NonnegativeOrthant.d": (lambda v: NonnegativeOrthant(v).d, "dimension d", 1),
    "FullSpace.d": (lambda v: FullSpace(v).d, "dimension d", 1),
    **{
        f"FlowConfig.{name}": (lambda v, name=name: getattr(_flow_config(**{name: v}), name), name, bound)
        for name, bound in [("max_iters", 0), ("seed", 0), ("checkpoint_every", 0),
                            ("diag_every", 1), ("diag_subsample", 1), ("workers", 1)]
    },
    "run.start_iteration": (_trace_ks, "start_iteration", 0),
    "convergence_bound": (lambda v: convergence_bound(validate_tau(_W, 0.1, 0.0, 0.01), 1.0, v), "k", 0),
    "daily_observations.days": (lambda v: _days(days=v), "days", 1),
    "daily_observations.seed": (lambda v: _days(seed=v), "seed", 0),
}


def _integer_cases():
    for site, (_, _, bound) in _WHOLE_SETTINGS.items():
        for value in (2.5, True, math.nan, math.inf, 10**400, bound - 1):
            name = "huge" if value == 10**400 else repr(value)
            yield pytest.param(site, value, id=f"{site}-{name}")


@pytest.mark.parametrize("site, value", _integer_cases())
def test_every_integer_setting_is_refused_with_the_one_message(site, value):
    build, name, bound = _WHOLE_SETTINGS[site]
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be a whole number >= {bound}$"):
        build(value)


@pytest.mark.parametrize("site", _WHOLE_SETTINGS)
@pytest.mark.parametrize("value", [np.int64(3), 3.0], ids=["int64", "float"])
def test_every_integer_setting_keeps_an_integral_value_as_its_int(site, value):
    build = _WHOLE_SETTINGS[site][0]
    assert repr(build(value)) == repr(build(3))


def _cloud(n, d):
    return measures.ParticleMeasure(np.arange(n * d, dtype=float).reshape(n, d) / (n * d))


# Every pairing of sizes that must agree, as the one refusal
# (measures.same_size) names it: each site gets one mismatched partner,
# and the message is "<what> is <got>, expected <want>".
_SAME_SIZE_SITES = {
    "step.field_values": (lambda: step(_cloud(4, 2), np.zeros((3, 2)), 0.01, FullSpace(2)),
                          "field values shape", (3, 2), (4, 2)),
    "step.constraint": (lambda: step(_cloud(4, 2), np.zeros((4, 2)), 0.01, FullSpace(3)),
                        "shape of each point", (2,), (3,)),
    "run.objective": (lambda: run(_cloud(4, 3), StreamingLSObjective(_W, 0.1), [], _flow_config()),
                      "measure dimension", 3, 2),
    "run.constraint": (
        lambda: run(_cloud(4, 2), StreamingLSObjective(_W, 0.1), [], _flow_config(constraint=FullSpace(3))),
        "constraint dimension", 3, 2),
    "exact_gradient": (lambda: exact_gradient(StreamingLSObjective(_W, 0.1, _LAM), _cloud(4, 3)),
                       "measure dimension", 3, 2),
    "evaluate_objective": (lambda: evaluate_objective(StreamingLSObjective(_W, 0.1, _LAM), _cloud(4, 3)),
                           "measure dimension", 3, 2),
    "stochastic_gradient.theta": (
        lambda: stochastic_gradient(StreamingLSObjective(_W, 0.1), np.zeros((4, 3)), np.zeros(2), np.zeros(2)),
        "shape of each point of theta", (3,), (2,)),
    "stochastic_gradient.y_hat": (
        lambda: stochastic_gradient(StreamingLSObjective(_W, 0.1), np.zeros(2), np.zeros(3), np.zeros(2)),
        "y_hat shape", (3,), (2,)),
    "stochastic_gradient.mu_mean": (
        lambda: stochastic_gradient(StreamingLSObjective(_W, 0.1), np.zeros(2), np.zeros(2), np.zeros((1, 2))),
        "mu_mean shape", (1, 2), (2,)),
    "project_points": (lambda: FullSpace(2).project_points(np.zeros((4, 3))), "shape of each point", (3,), (2,)),
    "project_points.1d": (lambda: Ball([0.0, 0.0], 1.0).project_points(np.zeros(2)),
                          "shape of each point", (), (2,)),
    "project_points.0d": (lambda: Box([0.0], [1.0]).project_points(0.5), "shape of each point", (), (1,)),
    "w2_exact.counts": (lambda: w2_exact(_cloud(4, 2), _cloud(3, 2)),
                        "particle count of the second cloud (exact transport needs equal-size clouds)", 3, 4),
    "w2_exact.dimensions": (lambda: w2_exact(_cloud(4, 2), _cloud(4, 1)), "dimension of the second cloud", 1, 2),
    "w2_1d.dimensions": (lambda: w2_1d(_cloud(4, 1), _cloud(4, 2)),
                         "pair of dimensions (the sorted coupling is 1-d only)", (1, 2), (1, 1)),
    "w2_1d.counts": (lambda: w2_1d(_cloud(4, 1), _cloud(5, 1)), "particle count of the second cloud", 5, 4),
    "moment_gaps": (lambda: moment_gaps(_cloud(4, 2), _cloud(4, 3)), "dimension of the second cloud", 3, 2),
    "bures_distance": (lambda: bures_distance(np.eye(2), np.eye(3)), "S2 shape", (3, 3), (2, 2)),
    "lipschitz_norm_gap": (lambda: lipschitz_norm_gap(_cloud(4, 2), _cloud(4, 3), lambda x: float(x[0])),
                           "dimension of the reference cloud", 3, 2),
    "predict_damping_band": (lambda: predict_damping_band(_cloud(4, 3), _MODEL, [0.0]), "belief dimension", 3, 2),
    "suggested_maintenance_time": (lambda: suggested_maintenance_time(_cloud(4, 1), _MODEL),
                                   "belief dimension", 1, 2),
}


@pytest.mark.parametrize("site", _SAME_SIZE_SITES)
def test_every_size_pairing_is_refused_with_the_one_message(site):
    call, what, got, want = _SAME_SIZE_SITES[site]
    with pytest.raises(ValueError, match=f"^{re.escape(f'{what} is {got}, expected {want}')}$"):
        call()


def _diagnose(cloud, **overrides):
    # The diagnose stage on one cloud against itself, under the paper preset.
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "particles.csv")
        measures.write_particles_csv(measures.ParticleMeasure(np.array(cloud)), path)
        values = {**cli.DEFAULTS, **cli.CASE_STUDY_PRESET, "particles": path, "reference": path, **overrides}
        cli.cmd_diagnose(cli.Config(values), os.path.join(tmp, "out"), False)


def _far(value, n=2, d=2):
    return measures.ParticleMeasure(np.full((n, d), value))


_TOO_LARGE = "the clouds' coordinates are too large"
# Every computed value refused when it is not finite, as the one refusal
# (measures.finite_result) names it: each site gets one input that
# overflows, and the message is "<what> is not finite[: <cause>]".
_NOT_FINITE_SITES = {
    "run.mean": (lambda: run(_far(1.7e308), StreamingLSObjective(_W, 0.1), [], _flow_config()),
                 "flow diverged at iteration 0: the particle mean is not finite"),
    "run.objective": (lambda: run(_far(5e153), StreamingLSObjective(_W, 0.1, _LAM), [], _flow_config()),
                      "flow diverged at iteration 0: objective is not finite"),
    "run.w2_exact": (
        lambda: run(_far(1e200), StreamingLSObjective(_W, 0.1, _LAM), [], _flow_config()),
        f"flow diverged at iteration 0: a squared distance between two particles is not finite: {_TOO_LARGE}"),
    "run.grad_norm": (
        lambda: run(measures.init_uniform_box([0, 0], [1e156, 1e156], 16, seed=1), StreamingLSObjective(_W, 0.1),
                    [_W @ _LAM] * 3, _flow_config(max_iters=3, diag_every=1)),
        "flow diverged at iteration 1: grad_norm is not finite"),
    "StreamingLSObjective.H": (lambda: StreamingLSObjective(np.diag([-1e200, 1e200]), 0.1),
                               "W^T W + rho I is not finite: the process matrix is too large"),
    "StreamingLSObjective.sigma_max": (
        lambda: StreamingLSObjective(np.array([[9.487e153, 9.487e153], [0.0, 1e150]]), 0.1),
        "sigma_max(W)^2 is not finite: the process matrix is too large"),
    "w2_exact.cost": (lambda: w2_exact(_far(1e200), _far(-1e200)),
                      f"a squared distance between two particles is not finite: {_TOO_LARGE}"),
    "bures_distance": (lambda: bures_distance(np.full((2, 2), np.inf), np.eye(2)), "S1 is not finite"),
    "gelbrich_lower_bound": (lambda: gelbrich_lower_bound(_far(1e300), _far(-1e300)),
                             f"the Gelbrich bound is not finite: {_TOO_LARGE}"),
    "suggested_maintenance_time": (lambda: suggested_maintenance_time(_far(1.7e308), _MODEL, "mean"),
                                   "the belief's mean rate is not finite"),
    "diagnose.report": (lambda: _diagnose([[0.05, 0.05]], tau="1e308"),
                        "step-size report ball_radius is not finite: T, rho, sigma_w2 or tau is too large"),
    "diagnose.measured": (lambda: _diagnose([[1.7e308, 1.7e308]] * 2),
                          f"gelbrich_lower_bound_subsampled is not finite: {_TOO_LARGE}"),
}


@pytest.mark.parametrize("site", _NOT_FINITE_SITES)
def test_every_value_that_is_not_finite_is_refused_with_the_one_message(site):
    call, message = _NOT_FINITE_SITES[site]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=f"^{re.escape(message)}$"):
            call()


def test_w2_exact_whose_cost_sum_overflows_is_the_finite_mean():
    # The matched costs (9e306 each) overflow their sum over 256 pairs, not
    # their mean, which never exceeds the largest: no refusal and no warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w2, _ = w2_exact(_far(1.5e153, 256, 1), _far(-1.5e153, 256, 1))
    assert w2 == pytest.approx(3e153, rel=1e-12)


# Every vector a value object or a function keeps, as the one intake
# (measures.frozen_vector) names it: each is built once with one vector
# that is not finite, holds a bool or text, or has the wrong length.
_VECTOR_SETTINGS = {
    "StreamingLSObjective.theta_star": (lambda v: StreamingLSObjective(_W, 0.1, v), [0.0, math.nan],
                                        "theta_star must be a finite vector of length 2"),
    "init_uniform_box.lo": (lambda v: measures.init_uniform_box(v, [1.0, 1.0], 4, 0), [0.0, math.inf],
                            "lo must be a finite vector"),
    # Of another length than lo, so the width check does not see it first.
    "init_uniform_box.hi": (lambda v: measures.init_uniform_box([0.0, 0.0], v, 4, 0), [1.0, 1.0, 1.0],
                            "hi must be a finite vector of length 2"),
    "Box.lo": (lambda v: Box(v, [1.0, 1.0]), [math.nan, 0.0], "box bound lo must be a finite vector"),
    "Box.hi": (lambda v: Box([0.0, 0.0], v), [1.0], "box bound hi must be a finite vector of length 2"),
    "Halfspace.a": (lambda v: Halfspace(v, 1.0), [math.inf, 0.0], "halfspace normal a must be a finite vector"),
    "Ball.center": (lambda v: Ball(v, 1.0), [0.0, "0"], "ball center must be a finite vector"),
    "DegradationModel.lam": (lambda v: DegradationModel(2.5, 1.0, v, 0.4, 5.0), [True, 0.1],
                             "lam must be a finite vector of length 2"),
    "Observation.y_hat": (lambda v: Observation(5.0, v), [2.5], "y_hat must be a finite vector of length 2"),
    "simulate_trajectory.x0": (lambda v: simulate_trajectory(PlantParams(2.5, 1.0, 1.0, 0.01, 1.0, 0.0), v, 0),
                               [-2.5, math.nan], "x0 must be a finite vector of length 2"),
    "daily_observations.x0": (lambda v: _days(x0=v), [-2.5], "x0 must be a finite vector of length 2"),
}


@pytest.mark.parametrize("site", _VECTOR_SETTINGS)
def test_every_vector_setting_is_refused_with_the_one_message(site):
    build, value, message = _VECTOR_SETTINGS[site]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build(value)


# Every float that the CLI reads from its own keys, as text, rather than
# through a library object: each refused value exits 2 with one line.
_CLI_FLOAT_KEYS = {
    "t_start": (["--t_start", "nan"], "t_start must be finite"),
    "t_stop": (["--t_start", "5", "--t_stop", "4"], "t_stop must be finite and >= 5.0"),
    "t_step": (["--t_step", "0"], "t_step must be finite and > 0"),
    "day": (["--day", "-1"], "day must be finite and >= 0"),
}


@pytest.mark.parametrize("key", _CLI_FLOAT_KEYS)
def test_every_float_the_cli_reads_is_refused_with_the_one_message(key, tmp_path, capsys):
    args, message = _CLI_FLOAT_KEYS[key]
    path = str(tmp_path / "particles.csv")
    measures.write_particles_csv(_BELIEF, path)
    assert cli.main(["predict", "--paper-preset", "--particles", path, "--out", str(tmp_path / "out"), *args]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


# Each intake helper, the position of its ``what`` argument and the words
# that follow ``what`` in its refusal.
_INTAKES = {
    "finite_number": (1, " must be finite"),
    "whole_number": (1, " must be a whole number"),
    "frozen_vector": (1, " must be a finite vector"),
    "same_size": (2, " is "),
    "finite_result": (1, " is not finite"),
}
# The intake calls whose ``what`` is computed, as (file, ast.unparse of
# it): each names an item of a list its function walks, so no literal
# can be matched against the tables.
_COMPUTED_WHAT = {
    ("cli.py", "f'step-size report {name}'"),
    ("cli.py", "name"),
    ("flow.py", "name"),
    ("pdm.py", "name"),
    ("transport.py", "name"),
}


def _intake_calls():
    # (file, line, helper, what node) of every intake call in the package.
    for path in sorted(glob.glob(os.path.join(SRC, "wgflow", "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                helper = getattr(node.func, "id", getattr(node.func, "attr", None))
                if helper in _INTAKES:
                    i = _INTAKES[helper][0]
                    what = node.args[i] if len(node.args) > i else {k.arg: k.value for k in node.keywords}["what"]
                    yield os.path.basename(path), node.lineno, helper, what


def test_every_intake_site_has_a_refusal_case():
    # The literal what of each call heads (at the start or after ": ") the
    # expected message of a case in one of the refusal tables above; so a
    # new intake site with no case fails here.
    messages = [
        *(message for _, message in _FLOAT_SETTINGS.values()),
        *(message for _, message in _CLI_FLOAT_KEYS.values()),
        *(f"{name} must be a whole number >= {bound}" for _, name, bound in _WHOLE_SETTINGS.values()),
        *(message for _, _, message in _VECTOR_SETTINGS.values()),
        *(f"{what} is {got}, expected {want}" for _, what, got, want in _SAME_SIZE_SITES.values()),
        *(message for _, message in _NOT_FINITE_SITES.values()),
    ]
    untested, computed = [], set()
    for file, line, helper, what in _intake_calls():
        if not isinstance(what, ast.Constant):
            computed.add((file, ast.unparse(what)))
            continue
        head = re.compile(f"(^|: ){re.escape(what.value + _INTAKES[helper][1])}")
        if not any(head.search(message) for message in messages):
            untested.append(f"{file}:{line} {helper}({what.value!r})")
    assert untested == []
    assert computed == _COMPUTED_WHAT
