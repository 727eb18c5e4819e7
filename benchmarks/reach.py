"""Reach census: which functions in ``src/repro`` does the real traffic call?

Runs the repository's own traffic under a call tracer from the standard
library and lists every function that none of it reaches, per file with
its line span. The traffic is what the experiments, the CLI, the
examples and the end-to-end benchmark run:

- ``tables``: every experiment in the mode its table in ``results/`` was
  committed in (``benchmarks/e2e/workloads.prepare_tables``);
- ``suite``: ``python -m repro.bench``, every experiment quick;
- ``metrics``: E13 and E16 quick with ``--metrics``;
- ``jobs``: E14 quick with ``--jobs 2``;
- ``stream``, ``shuffle``, ``chaos``, ``metadata``: the end-to-end
  workloads at seed 0, full size;
- ``cli``, ``examples`` and ``docs``: ``tests/test_cli.py``,
  ``tests/test_examples.py`` and ``tests/test_docs.py`` (the README and
  tutorial code blocks), run by pytest in this process.

Every function no traffic reaches must be listed, with the reason it
stays, in ``benchmarks/reach_keep.txt``: one ``path::qualname reason``
a line, the reason one of ``REASONS``. The census fails when an
unreached function is missing from the list, and when a listed one is
now reached or no longer defined, so the list always names exactly
what no run reaches.

Usage::

    python benchmarks/reach.py                       # report and check
    python benchmarks/reach.py --out reach.json      # also save the sets
    python benchmarks/reach.py diff parent.json change.json

The hook is ``sys.settrace`` (and ``threading.settrace`` for E9's and
the thread executor's workers), not ``sys.setprofile``: ``bench
--profile`` runs cProfile, which replaces a setprofile hook and would
silently drop the rest of its traffic. A source that replaces the trace
hook anyway fails the census. Work done in worker processes
(``--jobs 2``) is not traced; their parent's side is.

"Functions" are named ``def``s. The saved sets also hold module and
class bodies, lambdas and comprehensions, keyed ``path::qualname``
(``#k`` numbers repeated names within a file), so ``diff`` can show
which entries two trees reach differently.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import json
import os
import sys
import tempfile
import threading
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")
KEEP = os.path.join(HERE, "reach_keep.txt")

# why a function no run reaches stays (see the keep file's header)
REASONS = ("branch", "safety", "reference", "worker", "dunder")


# ---------------------------------------------------------------------------
# what is defined
# ---------------------------------------------------------------------------

_COMPREHENSIONS = ("<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>")


def _walk(code: types.CodeType, qualname: str | None = None):
    """Yield ``(code, qualname)`` for a module's ``code`` and every code
    object nested in it. The qualname is derived the way the compiler
    derives ``co_qualname``, which Python 3.10 lacks: the bare name at
    module level, ``Parent.<locals>.name`` under a function or lambda,
    ``Parent.name`` under a class body or a comprehension."""
    if qualname is None:
        qualname, prefix = code.co_name, ""
    elif (code.co_flags & inspect.CO_OPTIMIZED
          and code.co_name not in _COMPREHENSIONS):
        prefix = f"{qualname}.<locals>."
    else:
        prefix = f"{qualname}."
    yield code, qualname
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _walk(const, prefix + const.co_name)


def _is_function(code: types.CodeType) -> bool:
    return (not code.co_name.startswith("<")
            and bool(code.co_flags & inspect.CO_OPTIMIZED))


def defined() -> dict[tuple[str, int, str], dict]:
    """Every code object in the package, by (file, first line, qualname).
    Each entry's ``name`` is its ``co_name``, which :meth:`Census.reached`
    uses to find it again."""
    out = {}
    for directory, _dirs, files in os.walk(PACKAGE):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            rel = os.path.relpath(path, ROOT)
            with open(path, encoding="utf-8") as handle:
                module = compile(handle.read(), path, "exec")
            seen: dict[str, int] = {}
            codes = sorted(_walk(module), key=lambda c: c[0].co_firstlineno)
            for code, qualname in codes:
                lines = [l for _s, _e, l in code.co_lines() if l is not None]
                k = seen.get(qualname, 0)
                seen[qualname] = k + 1
                key = f"{rel}::{qualname}" + (f"#{k}" if k else "")
                out[(rel, code.co_firstlineno, qualname)] = {
                    "key": key, "function": _is_function(code),
                    "name": code.co_name, "first": code.co_firstlineno,
                    "last": max(lines, default=code.co_firstlineno),
                }
    return out


# ---------------------------------------------------------------------------
# what is reached
# ---------------------------------------------------------------------------

class Census:
    """Collects the code object of every call while installed."""

    def __init__(self):
        self.codes: set[types.CodeType] = set()

    def hook(self, frame, event, arg):
        self.codes.add(frame.f_code)
        return None

    @contextlib.contextmanager
    def tracing(self, source: str):
        hook = self.hook   # one bound method, so ``is`` can recognise it
        sys.settrace(hook)
        threading.settrace(hook)
        try:
            yield
        finally:
            displaced = sys.gettrace() is not hook
            sys.settrace(None)
            threading.settrace(None)
            if displaced:
                raise RuntimeError(f"source {source!r} replaced the trace "
                                   f"hook; its census would be incomplete")

    def reached(self, defs: dict) -> set[tuple[str, int, str]]:
        """The keys of ``defs`` (see :func:`defined`) whose code ran,
        each found by its file, first line and ``co_name``. Two named
        functions never share all three; nested comprehensions or
        lambdas on one line may, and then each counts as reached."""
        table: dict[tuple[str, int, str], list] = {}
        for key, d in defs.items():
            table.setdefault((key[0], key[1], d["name"]), []).append(key)
        out = set()
        for code in self.codes:
            path = os.path.realpath(code.co_filename)
            if path.startswith(PACKAGE + os.sep):
                out.update(table.get((os.path.relpath(path, ROOT),
                                      code.co_firstlineno, code.co_name), ()))
        return out


# ---------------------------------------------------------------------------
# the traffic
# ---------------------------------------------------------------------------

def _e2e_ops(ops) -> None:
    from sample import check_ops, run_pass

    results, records = run_pass(ops)
    check_ops(ops, results, records)
    bad = [r for r in records if r["error"] is not None]
    if bad:
        raise RuntimeError(f"{bad[0]['name']}: {bad[0]['error']}")


def _bench(*argv: str) -> None:
    from repro.bench.__main__ import main

    if main(list(argv)) != 0:
        raise RuntimeError(f"repro.bench {' '.join(argv)} failed")


def _pytest(path: str) -> None:
    import pytest

    code = pytest.main(["-q", "-p", "no:cacheprovider",
                        os.path.join(ROOT, path)])
    if code != 0:
        raise RuntimeError(f"pytest {path} exited {code}")


def _workload(name: str):
    def run(_tmp: str) -> None:
        from workloads import WORKLOADS

        _e2e_ops(WORKLOADS[name](0, False))
    return run


def _tables(_tmp: str) -> None:
    from workloads import prepare_tables

    _e2e_ops(prepare_tables())


TRAFFIC = {
    "tables": _tables,
    "suite": lambda tmp: _bench("--save", tmp),
    "metrics": lambda tmp: _bench("E13", "E16", "--quick", "--metrics",
                                  os.path.join(tmp, "metrics.json")),
    "jobs": lambda _tmp: _bench("E14", "--quick", "--jobs", "2"),
    "stream": _workload("stream"),
    "shuffle": _workload("shuffle"),
    "chaos": _workload("chaos"),
    "metadata": _workload("metadata"),
    "cli": lambda _tmp: _pytest("tests/test_cli.py"),
    "examples": lambda _tmp: _pytest("tests/test_examples.py"),
    "docs": lambda _tmp: _pytest("tests/test_docs.py"),
}


def census(defs: dict) -> set[tuple[str, int, str]]:
    sys.path[:0] = [SRC, os.path.join(HERE, "e2e"), ROOT]
    tracer = Census()
    for name, source in TRAFFIC.items():
        print(f"# traffic {name}", file=sys.stderr, flush=True)
        with tempfile.TemporaryDirectory() as tmp, \
                contextlib.redirect_stdout(io.StringIO()), \
                tracer.tracing(name):
            source(tmp)
    return tracer.reached(defs)


# ---------------------------------------------------------------------------
# the keep list
# ---------------------------------------------------------------------------

def read_keep(path: str = KEEP) -> dict[str, str]:
    """``{path::qualname: reason}`` from the keep file.

    Blank lines and lines starting with ``#`` are skipped. Raises
    ``ValueError`` on a line that is not ``path::qualname reason``, on a
    reason outside ``REASONS`` and on an entry listed twice.
    """
    keep: dict[str, str] = {}
    with open(path, encoding="utf-8") as handle:
        for number, raw in enumerate(handle, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            where = f"{os.path.basename(path)}:{number}"
            if len(fields) != 2 or "::" not in fields[0]:
                raise ValueError(f"{where}: expected 'path::qualname "
                                 f"reason', got {line!r}")
            key, reason = fields
            if reason not in REASONS:
                raise ValueError(f"{where}: reason {reason!r} is not one "
                                 f"of {REASONS}")
            if key in keep:
                raise ValueError(f"{where}: {key} is listed twice")
            keep[key] = reason
    return keep


def check_keep(defs: dict, reached: set, keep: dict[str, str]) -> list[str]:
    """What the keep list gets wrong about this census (empty if
    nothing): unreached functions it misses, and listed entries that are
    reached or gone."""
    functions = {key: d["key"] for key, d in defs.items() if d["function"]}
    unreached = {name for key, name in functions.items()
                 if key not in reached}
    defined_names = set(functions.values())
    problems = [f"unreached and not in the keep list: {name}"
                for name in sorted(unreached - set(keep))]
    for name in sorted(keep):
        if name not in defined_names:
            problems.append(f"in the keep list but gone: {name}")
        elif name not in unreached:
            problems.append(f"in the keep list but reached: {name}")
    return problems


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def report(defs: dict, reached: set) -> None:
    unreached = [(key, d) for key, d in defs.items()
                 if d["function"] and key not in reached]
    by_file: dict[str, list] = {}
    for (rel, _first, qualname), d in sorted(unreached):
        by_file.setdefault(rel, []).append((d["first"], d["last"], qualname))
    for rel, rows in by_file.items():
        print(rel)
        for first, last, qualname in rows:
            print(f"    {first:>5}-{last:<5} {qualname}")
    n_funcs = sum(d["function"] for d in defs.values())
    span = sum(d["last"] - d["first"] + 1 for _k, d in unreached)
    print(f"# {n_funcs} functions defined, {n_funcs - len(unreached)} "
          f"reached, {len(unreached)} unreached ({span} lines by span)")


def diff(path_a: str, path_b: str) -> int:
    """Entries reached in A but not in B, and the other way round."""
    docs = []
    for path in (path_a, path_b):
        with open(path, encoding="utf-8") as handle:
            docs.append(json.load(handle))
    a, b = (set(doc["reached"]) for doc in docs)
    defined_b = set(docs[1]["defined"])
    lost = sorted(a - b)
    for key in lost:
        why = "reached only in A" if key in defined_b else "gone from B"
        print(f"- {key}  ({why})")
    for key in sorted(b - a):
        print(f"+ {key}  (reached only in B)")
    print(f"# A reaches {len(a)}, B reaches {len(b)}; {len(lost)} lost "
          f"({sum(k in defined_b for k in lost)} still defined in B), "
          f"{len(b - a)} gained")
    return int(any(k in defined_b for k in lost))


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["diff"]:
        if len(argv) != 3:
            print("usage: reach.py diff A.json B.json", file=sys.stderr)
            return 2
        return diff(argv[1], argv[2])
    parser = argparse.ArgumentParser(prog="reach.py", description=__doc__,
                                     formatter_class=argparse.
                                     RawDescriptionHelpFormatter)
    parser.add_argument("--out", default=None,
                        help="write the defined and reached sets as JSON")
    args = parser.parse_args(argv)
    os.chdir(ROOT)   # the CLI and example tests resolve paths from here
    keep = read_keep()
    defs = defined()
    reached = census(defs)
    report(defs, reached)
    if args.out is not None:
        doc = {"defined": sorted(d["key"] for d in defs.values()),
               "reached": sorted(defs[k]["key"] for k in reached
                                 if k in defs)}
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=1)
            handle.write("\n")
    problems = check_keep(defs, reached, keep)
    for problem in problems:
        print(f"reach: {problem}", file=sys.stderr)
    print(f"# keep list: {len(keep)} entries, {len(problems)} problems",
          file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
