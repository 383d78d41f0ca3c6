"""The README's Python examples run and print what their comments claim.

Each ``python`` block is executed on its own with stdout captured; every
``print(...)`` line prints one line, and a ``print(...)  # <value>`` line
must have printed ``<value>``."""

import contextlib
import io
import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
BLOCK_RE = re.compile(r"^```python\n(.*?)^```$", re.DOTALL | re.MULTILINE)
PRINT_RE = re.compile(r"print\(.*?\)(?:\s+#\s*(.*))?")


def python_blocks():
    """Each ``python`` block, named by its position in the README, so that
    an edit to the prose around it does not rename its test."""
    text = README.read_text(encoding="utf-8")
    return [
        pytest.param(m.group(1), id=f"block-{i}")
        for i, m in enumerate(BLOCK_RE.finditer(text), 1)
    ]


def test_readme_has_python_blocks():
    assert len(python_blocks()) >= 2


@pytest.mark.parametrize("source", python_blocks())
def test_readme_block_prints_what_it_claims(source):
    claims = [
        m.group(1)
        for m in map(PRINT_RE.fullmatch, source.splitlines())
        if m is not None
    ]
    assert any(claim is not None for claim in claims)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(source, str(README), "exec"), {"__name__": "readme"})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(claims)
    for line, claim in zip(printed, claims):
        if claim is not None:
            assert line == claim
