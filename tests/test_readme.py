"""The python code blocks of README.md run as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_block_runs(index):
    # each block in a fresh namespace, so none leans on an earlier one
    exec(compile(BLOCKS[index], f"README.md block {index + 1}", "exec"), {})
