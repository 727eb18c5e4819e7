import importlib.util
import os

BENCH_DIR = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                         "benchmarks")


def load_script(name):
    """Import ``benchmarks/<name>.py`` as a fresh module."""
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(BENCH_DIR, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
