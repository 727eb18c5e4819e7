"""The reach census's keep list (``benchmarks/reach_keep.txt``), checked
without running the census: every line parses, names a function that is
still defined, and gives one reason from the closed set."""

import importlib.util
import os
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)
spec = importlib.util.spec_from_file_location(
    "reach", os.path.join(ROOT, "benchmarks", "reach.py"))
reach = importlib.util.module_from_spec(spec)
spec.loader.exec_module(reach)


def test_keep_file_parses_with_known_reasons():
    keep = reach.read_keep()
    assert keep
    assert set(keep.values()) <= set(reach.REASONS)


def test_every_listed_path_exists():
    for key in reach.read_keep():
        path = key.split("::", 1)[0]
        assert os.path.isfile(os.path.join(ROOT, path)), key


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="the census keys code objects by co_qualname")
def test_every_entry_is_a_defined_function():
    functions = {d["key"] for d in reach.defined().values() if d["function"]}
    gone = sorted(set(reach.read_keep()) - functions)
    assert gone == []


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
