"""The reach census's keep list (``benchmarks/reach_keep.txt``), checked
without running the census: every line parses, names a function that is
still defined, and gives one reason from the closed set. Also the
census's naming: the qualnames it derives are the compiler's, on every
Python version, and a traced code object is found under its own."""

import os
import sys

import pytest

from tests.bench import load_script

reach = load_script("reach")


def test_keep_file_parses_with_known_reasons():
    keep = reach.read_keep()
    assert keep
    assert set(keep.values()) <= set(reach.REASONS)


def test_every_listed_path_exists():
    for key in reach.read_keep():
        path = key.split("::", 1)[0]
        assert os.path.isfile(os.path.join(reach.ROOT, path)), key


def test_every_entry_is_a_defined_function():
    functions = {d["key"] for d in reach.defined().values() if d["function"]}
    gone = sorted(set(reach.read_keep()) - functions)
    assert gone == []


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="co_qualname is new in Python 3.11")
def test_derived_qualnames_match_the_compiler():
    for directory, _dirs, files in os.walk(reach.PACKAGE):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                with open(path, encoding="utf-8") as handle:
                    module = compile(handle.read(), path, "exec")
                for code, qualname in reach._walk(module):
                    assert qualname == code.co_qualname, path


def test_reached_finds_live_code_under_its_derived_qualname():
    from repro.workflow.dag import WorkflowDAG

    census = reach.Census()
    census.codes = {WorkflowDAG.add_task.__code__,
                    reach.read_keep.__code__}   # outside the package
    reached = census.reached(reach.defined())
    assert [qualname for _rel, _line, qualname in reached] == [
        "WorkflowDAG.add_task"]


@pytest.mark.parametrize("line, message", [
    ("src/repro/x.py::f", "expected"),
    ("src/repro/x.py f branch", "expected"),
    ("src/repro/x.py::f because", "reason"),
])
def test_malformed_lines_rejected(tmp_path, line, message):
    path = tmp_path / "keep.txt"
    path.write_text(f"# header\n\n{line}\n")
    with pytest.raises(ValueError, match=message):
        reach.read_keep(str(path))


def test_duplicate_entry_rejected(tmp_path):
    path = tmp_path / "keep.txt"
    path.write_text("src/repro/x.py::f branch\nsrc/repro/x.py::f dunder\n")
    with pytest.raises(ValueError, match="twice"):
        reach.read_keep(str(path))


def test_check_keep_reports_each_kind_of_drift():
    defs = {
        ("a.py", 1, "kept"): {"key": "a.py::kept", "function": True},
        ("a.py", 5, "missing"): {"key": "a.py::missing", "function": True},
        ("a.py", 9, "hot"): {"key": "a.py::hot", "function": True},
    }
    reached = {("a.py", 9, "hot")}
    keep = {"a.py::kept": "branch", "a.py::hot": "branch",
            "a.py::deleted": "safety"}
    assert reach.check_keep(defs, reached, keep) == [
        "unreached and not in the keep list: a.py::missing",
        "in the keep list but gone: a.py::deleted",
        "in the keep list but reached: a.py::hot",
    ]
