"""Guards on the package surface: what it exports and what it imports."""

import ast
import os
import subprocess
import sys

import wgflow

SRC = os.path.dirname(os.path.dirname(os.path.abspath(wgflow.__file__)))


def test_cli_import_loads_no_scipy():
    # scipy is imported on first use only: it costs more to import than the
    # rest of the package, and simulate, flow and predict never need it.
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


def test_all_lists_exactly_the_public_imports():
    for name in wgflow.__all__:
        assert hasattr(wgflow, name), name
    with open(wgflow.__file__) as fh:
        tree = ast.parse(fh.read())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert {name for name in imported if not name.startswith("_")} == set(wgflow.__all__)
