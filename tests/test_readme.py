"""The README's Python examples run and print what their comments claim.

Each ``python`` block is executed on its own with stdout captured; every
``print(...)`` line prints one line, and a ``print(...)  # <value>`` line
must have printed ``<value>``. The folded program sizes that the README
quotes for the reconfigurable units are the compiler's."""

import contextlib
import io
import pathlib
import re

import pytest

from vedicfft.fft import build_unit

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


SIMULATES_RE = re.compile(
    r"`reconfigurable_q3`\s+simulates (\d+) of its (\d+) gates\s+and `reconfigurable` (\d+) of (\d+)\."
)
SELECT_ROW_RE = re.compile(r"^\| `(reconfigurable\w*)` \| (\d+) \| (\d+) \(= `\w+`\) \| (\d+) ", re.MULTILINE)


def test_readme_program_sizes():
    # The folded program sizes the README quotes are the compiler's: with
    # select untied in the prose, beside the raw gate count, and untied,
    # tied to 1 and tied to 0 in the table.
    def sizes(name, *ties):
        net = build_unit(name)
        return [len(net._compile(tied).ops) for tied in ties]

    text = README.read_text(encoding="utf-8")
    q3, q3_raw, plain, plain_raw = map(int, SIMULATES_RE.search(text).groups())
    for name, folded, raw in (("reconfigurable_q3", q3, q3_raw), ("reconfigurable", plain, plain_raw)):
        assert [folded, raw] == sizes(name, {}) + [len(build_unit(name).gates)]
    rows = SELECT_ROW_RE.findall(text)
    assert [name for name, *_ in rows] == ["reconfigurable", "reconfigurable_q3"]
    for name, *counts in rows:
        assert list(map(int, counts)) == sizes(name, {}, {"select": 1}, {"select": 0})
