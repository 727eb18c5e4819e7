"""numpy is the only runtime dependency.

networkx and scipy are dev-only (networkx is a test oracle for routing
and DAG order). These checks run in a fresh interpreter so modules
imported by other tests cannot hide a runtime import.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_python(code: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": SRC},
    )


def test_runs_with_networkx_and_scipy_unimportable():
    # a None entry in sys.modules makes any import of that name fail
    proc = run_python("""
        import sys
        sys.modules["networkx"] = None
        sys.modules["scipy"] = None

        import repro
        import repro.bench
        import repro.cli
        from repro.continuum import geo_random_continuum
        from repro.datafabric import Dataset
        from repro.workflow import TaskSpec, WorkflowDAG

        topo = geo_random_continuum(12, seed=0)
        topo.validate()
        topo.path_block(topo.site_names[:1], [0])
        dag = WorkflowDAG("guard")
        dag.add_task(TaskSpec("a", 1.0, outputs=(Dataset("x", 1),)))
        dag.add_task(TaskSpec("b", 1.0, inputs=("x",)))
        assert dag.topological_order() == ["a", "b"]

        from repro.bench.__main__ import main
        assert main(["E2", "--quick"]) == 0
    """)
    assert proc.returncode == 0, proc.stderr


def test_import_loads_neither_networkx_nor_scipy():
    proc = run_python("""
        import sys
        import repro.bench
        print(sorted({"networkx", "scipy"} & set(sys.modules)))
    """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
