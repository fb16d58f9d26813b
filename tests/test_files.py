import ast
import csv
import math
import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import wgflow
from wgflow import files, measures
from wgflow.errors import ConfigError, DataError

PACKAGE = os.path.dirname(os.path.abspath(wgflow.__file__))


class TestWriteTable:
    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "t.csv"
        files.write_table(path, ["a"], [[1.5]])
        before = path.read_bytes()

        def rows():
            yield [1, 2]
            raise RuntimeError("source failed halfway")

        with pytest.raises(RuntimeError, match="halfway"):
            files.write_table(path, ["a", "b"], rows())
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["t.csv"]

    def test_failed_write_removes_only_the_directories_it_made(self, tmp_path):
        def rows():
            raise RuntimeError("source failed")
            yield

        (tmp_path / "kept").mkdir()
        for target in (tmp_path / "made" / "deeper" / "t.csv", tmp_path / "kept" / "made" / "t.csv"):
            with pytest.raises(RuntimeError, match="source failed"):
                files.write_table(target, ["a"], rows())
        assert os.listdir(tmp_path) == ["kept"]
        assert os.listdir(tmp_path / "kept") == []

    def test_remove_takes_present_and_absent_files(self, tmp_path):
        files.write_table(tmp_path / "a.csv", ["a"], [[1]])
        files.remove(tmp_path / "a.csv", tmp_path / "b.csv")
        assert os.listdir(tmp_path) == []

    def test_fields_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        values = [None, 7, 0.1, -2.5e-300, 1e16, "name"]
        files.write_table(path, ["a", "b", "c", "d", "e", "f"], [values])
        assert path.read_bytes() == b"a,b,c,d,e,f\r\n,7,0.1,-2.5e-300,1e+16,name\r\n"
        with pytest.raises(DataError, match="row 0: could not convert string to float: 'name'"):
            files.read_table(path, "table", lambda h: True)
        files.write_table(path, ["a", "b", "c", "d", "e"], [values[:5]])
        parsed = files.read_table(path, "table", lambda h: True)
        assert parsed.shape == (1, 5) and math.isnan(parsed[0, 0])
        assert parsed[0, 1:].tolist() == [7.0, 0.1, -2.5e-300, 1e16]

    def test_new_file_gets_the_mode_open_would_give(self, tmp_path):
        files.write_table(tmp_path / "a.csv", ["a"], [[1]])
        with open(tmp_path / "b.csv", "w"):
            pass
        assert os.stat(tmp_path / "a.csv").st_mode == os.stat(tmp_path / "b.csv").st_mode


# Fields in write_table's domain: the float edge cases are drawn often by name.
_EDGE_FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, math.inf, -math.inf, math.nan])
_PLAIN_FIELDS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(),
    _EDGE_FLOATS,
    _EDGE_FLOATS.map(np.float64),
    st.floats().map(np.float64),
    st.text(st.characters(exclude_categories=("Cs",))),
)


def _documented_field(v) -> str:
    if v is None:
        return ""
    return str(v) if isinstance(v, (str, int)) else repr(float(v))


class TestCsvFields:
    @given(rows=st.lists(st.lists(_PLAIN_FIELDS, min_size=1, max_size=5), min_size=1, max_size=5))
    def test_fields_are_written_as_documented(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("rows") / "t.csv"
        files.write_table(path, ["a"], rows)
        with open(path, newline="") as fh:
            assert list(csv.reader(fh))[1:] == [[_documented_field(v) for v in row] for row in rows]

    @given(
        coords=st.lists(
            st.one_of(st.floats(allow_nan=False, allow_infinity=False), _EDGE_FLOATS.filter(math.isfinite)),
            min_size=2, max_size=12,
        )
    )
    def test_particles_read_back_bit_exact(self, tmp_path_factory, coords):
        points = np.array(coords[: len(coords) // 2 * 2]).reshape(-1, 2)
        path = tmp_path_factory.mktemp("particles") / "p.csv"
        measures.write_particles_csv(measures.ParticleMeasure(points), path)
        assert measures.read_particles_csv(path).points.tobytes() == points.tobytes()
        want = "".join(f"{a!r},{b!r}\n" for a, b in points.tolist())
        assert path.read_text() == "x1,x2\n" + want

    @pytest.mark.parametrize("field, match", [("", "non-finite coordinate in particle 1"),
                                              ("one", "row 1: could not convert")])
    def test_particle_parse_errors_name_the_row(self, tmp_path, field, match):
        path = tmp_path / "p.csv"
        path.write_text(f"x1,x2\n1,2\n3,{field}\n")
        with pytest.raises(DataError, match=match):
            measures.read_particles_csv(path)


class TestReadTable:
    @pytest.mark.parametrize(
        "text, match",
        [
            (b"", "empty"),
            (b"a,b\n1,2\n", "header"),
            (b"x,y\n", "no rows"),
            (b"x,y\n1,2\n3\n", "row 1 has 1 fields"),
            (b"x,y\n1,\xff2\n", "unreadable"),
        ],
    )
    def test_rejects_malformed_tables(self, tmp_path, text, match):
        path = tmp_path / "t.csv"
        path.write_bytes(text)
        with pytest.raises(DataError, match=match):
            files.read_table(path, "table", lambda h: h == ["x", "y"])

    def test_names_the_row_that_is_not_a_number(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x,y\n1,2\n3,\n4,one\n")
        with pytest.raises(DataError, match="row 2: could not convert"):
            files.read_table(path, "table", lambda h: True)


class TestSettings:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "s.txt"
        files.write_settings(path, {"iteration": 8, "rng": "keyed by (seed, k)"})
        assert path.read_text() == "iteration = 8\nrng = keyed by (seed, k)\n"
        assert files.read_settings(path, DataError) == {
            "iteration": "8",
            "rng": "keyed by (seed, k)",
        }

    def test_skips_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("# a comment\n\n  a = 1 \n")
        assert files.read_settings(path, ConfigError) == {"a": "1"}

    @pytest.mark.parametrize("error", [ConfigError, DataError])
    def test_errors_take_the_callers_class(self, tmp_path, error):
        with pytest.raises(error, match="cannot read"):
            files.read_settings(tmp_path / "missing.txt", error)
        path = tmp_path / "s.txt"
        path.write_text("a = 1\nno equals sign\n")
        with pytest.raises(error, match=":2: expected"):
            files.read_settings(path, error)


# Numeric table fields in the documented domain: None, an int, or a float
# (Python or np.float64, NaN and the infinities included).
_FIELDS = st.one_of(
    st.none(),
    st.integers(-(2**70), 2**70),
    st.floats(),
    st.floats().map(np.float64),
)
_NAMES = st.from_regex(r"[a-z_][a-z0-9_]*", fullmatch=True)
# Settings strings: no line break, no outer whitespace (ASCII, so any
# locale's default encoding writes them).
_LINE = st.text(st.characters(codec="ascii", exclude_characters="\r\n")).filter(
    lambda v: v == v.strip()
)


class TestRoundTrips:
    @given(data=st.data(), header=st.lists(_NAMES, min_size=1, max_size=4))
    def test_table_reads_back_bit_exact(self, tmp_path_factory, data, header):
        row = st.lists(_FIELDS, min_size=len(header), max_size=len(header))
        rows = data.draw(st.lists(row, min_size=1, max_size=4))
        path = tmp_path_factory.mktemp("table") / "t.csv"
        files.write_table(path, header, rows)
        got = files.read_table(path, "table", lambda h: h == header)
        want = np.array([[math.nan if v is None else float(v) for v in r] for r in rows])
        # NaN compares by being NaN (repr writes every NaN as 'nan');
        # every other value by its bits, so -0.0 stays -0.0.
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert got[~np.isnan(got)].tobytes() == want[~np.isnan(want)].tobytes()

    @given(
        settings=st.dictionaries(
            _LINE.filter(lambda k: "=" not in k and not k.startswith("#")), _LINE, max_size=5
        )
    )
    def test_settings_read_back_the_same_dict(self, tmp_path_factory, settings):
        path = tmp_path_factory.mktemp("settings") / "s.txt"
        files.write_settings(path, settings)
        assert files.read_settings(path, DataError) == settings


def _write_sites(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module]
            if "csv" in names:
                yield node.lineno, "imports csv"
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ("write_text", "write_bytes"):
                yield node.lineno, name
            if name not in ("open", "fdopen"):
                continue
            mode = node.args[1] if len(node.args) > 1 else None
            mode = next((k.value for k in node.keywords if k.arg == "mode"), mode)
            if isinstance(mode, ast.Constant) and set(str(mode.value)) & set("wax+"):
                yield node.lineno, f"opens a file with mode {mode.value!r}"


def test_only_the_files_module_writes_files():
    found = []
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py") and name != "files.py":
            with open(os.path.join(PACKAGE, name)) as fh:
                tree = ast.parse(fh.read())
            found += [f"{name}:{line}: {what}" for line, what in _write_sites(tree)]
    assert found == []


def test_write_guard_sees_each_kind_of_write():
    source = (
        "import csv\nopen(p, 'w')\nopen(p, mode='a')\nio.open(p, 'r+')\n"
        "p.write_text('x')\nopen(p)\nopen(p, 'rb')\n"
    )
    assert [line for line, _ in _write_sites(ast.parse(source))] == [1, 2, 3, 4, 5]
