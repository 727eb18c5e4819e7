"""Executable docs: every Python block of the README and the tutorial
runs, in order, the way a reader pastes them into one interpreter.

Each document gets one namespace, so a block sees what the blocks
above it defined, and runs in a fresh working directory, so the files
a block writes (checkpoints, exports) land nowhere else.
"""

import os
import re

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
DOCUMENTS = ("README.md", os.path.join("docs", "tutorial.md"))
PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```$", re.DOTALL | re.MULTILINE)


def python_blocks(document):
    with open(os.path.join(ROOT, document), encoding="utf-8") as handle:
        text = handle.read()
    # pad each block to its place in the document, so tracebacks point
    # at document lines
    return ["\n" * (text.count("\n", 0, m.start()) + 1) + m.group(1)
            for m in PYTHON_BLOCK.finditer(text)]


@pytest.mark.parametrize("document", DOCUMENTS)
def test_python_blocks_run_in_order(document, tmp_path, monkeypatch, capsys):
    blocks = python_blocks(document)
    assert blocks, f"{document} has no python blocks"
    monkeypatch.chdir(tmp_path)
    namespace = {"__name__": "__main__"}
    for source in blocks:
        exec(compile(source, document, "exec"), namespace)
    assert capsys.readouterr().out.strip()
