import os

import pytest

from tests.bench import BENCH_DIR, load_script


@pytest.fixture
def load_bench(monkeypatch):
    """:func:`load_script` for the benchmark scripts: what one changes
    in ``sys.path`` and the environment at import is undone after the
    test."""
    monkeypatch.syspath_prepend(BENCH_DIR)
    monkeypatch.setattr(os, "environ", os.environ.copy())
    return load_script
