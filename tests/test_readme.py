"""Guards that README agrees with the code and the CI pipeline step it documents."""

import os
import re
import shlex

from wgflow import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _read(*parts):
    with open(os.path.join(ROOT, *parts), encoding="utf-8") as fh:
        return fh.read()


def _section(heading):
    # The lines of README under ``heading`` up to the next heading.
    lines = _read("README.md").splitlines()
    start = lines.index(heading) + 1
    end = next((i for i in range(start, len(lines)) if lines[i].startswith("#")), len(lines))
    return lines[start:end]


def _table_cells(heading, column):
    # The given column of each body row of the first table under ``heading``.
    rows = [line for line in _section(heading) if line.startswith("|")]
    return [row.strip("|").split("|")[column].strip() for row in rows[2:]]


def _commands(lines):
    # The ``wgflow`` commands of shell lines, continuations joined and
    # comments dropped, each as its tokens without the ``--out`` and
    # ``--reference`` paths.
    text = re.sub(r"\\\n", " ", "\n".join(lines))
    commands = []
    for line in text.splitlines():
        tokens = shlex.split(line, comments=True)
        if tokens[:1] == ["wgflow"]:
            kept = [t for i, t in enumerate(tokens) if t not in ("--out", "--reference")
                    and tokens[i - 1] not in ("--out", "--reference")]
            commands.append(kept)
    return commands


def test_config_keys_table_lists_every_key_once():
    keys = [key for cell in _table_cells("### Config keys", 1) for key in re.findall(r"`([^`]+)`", cell)]
    assert sorted(keys) == sorted(cli.CONFIG_KEYS)


def test_exit_code_table_has_the_codes_of_the_cli_docstring():
    documented = cli.__doc__.split("Exit codes:")[1].split("\n\n")[0]
    table = _table_cells("### Exit codes", 0)
    assert [code.strip("`") for code in table] == re.findall(r"\b(\d+) ", documented)
    assert all(_table_cells("### Exit codes", 2)), "every exit code needs an example line"


def test_readme_pipeline_is_the_ci_pipeline():
    block = _section("## Command line")
    start = block.index("```sh") + 1
    readme = _commands(block[start:block.index("```", start)])
    workflow = _read(".github", "workflows", "tests.yml").splitlines()
    step = workflow.index("      - name: README pipeline through the installed script")
    end = next(i for i in range(step + 1, len(workflow)) if workflow[i].startswith("      - name:"))
    assert [c[1] for c in readme] == ["simulate", "flow", "predict", "diagnose"]
    assert _commands(workflow[step:end])[:4] == readme
