"""Exhaustive and randomized verification suites.

Each unit is checked against an independent oracle: Python integer
arithmetic for the multipliers/adders (the signed multipliers must give
a*b on every pair, -8 included) and the direct DFT sum for the FFT
datapaths (the Q1.F datapath must give exactly 2^F times it: Q1.F holds
its twiddle -j exactly). Exhaustive sweeps are used where the input space
is small (every 4-bit operand pair); fixed-seed random sweeps elsewhere, so
every run, on every supported Python, checks the same cases and results
are reproducible.

Every suite works by column. It enumerates its operands
(:func:`_exhaustive`) or draws them as columns, simulates them in one
batch per netlist (``Netlist.evaluate_batch``), computes the oracle as
columns, and records each check with one ``_Tally.check_all`` call, which
formats the detail of the first failing case only, naming its operands.
The only per-case objects are the digit-serial traces that are the
vedic4x4 oracle. Each random column comes from one ``Random.getrandbits``
call whose bytes are read as items: the FFT samples are its nibbles,
sign-extended by ``bytes.translate`` (:func:`_draw`). The FFT suite
simulates its columns with ``fft._transform_columns`` and takes the oracle
from ``fft._dft_columns``, the column form of ``dft_oracle``.

Every netlist is built once per process: the catalog units by
:func:`_unit`, the signed multipliers by ``arith._signed_unit`` and the FFT
datapaths by ``fft._reconfigurable_cached``. So is the vedic4x4 oracle
column (:func:`_digit_serial_products`), so a second pass builds and
compiles nothing.
"""

from __future__ import annotations

import functools
import itertools
import random
import sys
from array import array
from dataclasses import dataclass
from operator import add, eq, mul, sub
from typing import Callable, Sequence

from . import arith, fft
from .netlist import to_signed

_RANDOM_VECTORS = 1000

# The catalog unit of a name, built on first use and shared by every pass.
_unit = functools.cache(fft.build_unit)


@dataclass(frozen=True)
class UnitResult:
    """Outcome of one unit's suite: cases checked, failures, first detail."""

    unit: str
    checked: int
    failed: int
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def summary(self) -> str:
        passed = self.checked - self.failed
        line = f"{self.unit}: {passed}/{self.checked} pass"
        if self.failed and self.detail:
            line += f" (first failure: {self.detail})"
        return line


class _Tally:
    def __init__(self, unit: str):
        self.unit = unit
        self.checked = 0
        self.failed = 0
        self.detail = ""

    def check_all(self, oks: list[bool], detail: Callable[[int], str]):
        """One check per case i, failed where ``oks[i]`` is false;
        ``detail(i)`` describes the first failing case."""
        self.checked += len(oks)
        failed = oks.count(False)
        if failed:
            self.failed += failed
            if not self.detail:
                self.detail = detail(oks.index(False))

    def result(self) -> UnitResult:
        return UnitResult(self.unit, self.checked, self.failed, self.detail)


def _exhaustive(*ranges: range) -> list[list[int]]:
    """Every combination of one value per range, the first range slowest,
    as one column per range."""
    return [list(col) for col in zip(*itertools.product(*ranges))]


def _verify_vedic2x2() -> UnitResult:
    t = _Tally("vedic2x2")
    a, b = _exhaustive(range(4), range(4))
    got = _unit("vedic2x2").evaluate_batch({"a": a, "b": b})["p"]
    want = list(map(mul, a, b))
    t.check_all(
        list(map(eq, got, want)), lambda i: f"{a[i]}*{b[i]}: got {got[i]}, want {want[i]}"
    )
    return t.result()


@functools.cache
def _digit_serial_products() -> tuple[int, ...]:
    """The product of the digit-serial base-2 run for every pair of 4-bit
    operands, in the order of ``_exhaustive(range(16), range(16))``."""
    a, b = _exhaustive(range(16), range(16))
    return tuple(arith.urdhva_decimal(x, y, base=2).product for x, y in zip(a, b))


def _verify_4x4(unit: str) -> UnitResult:
    t = _Tally(unit)
    a, b = _exhaustive(range(16), range(16))
    got = _unit(unit).evaluate_batch({"a": a, "b": b})["p"]
    want = list(map(mul, a, b))
    if unit == "vedic4x4":
        # The digit-serial base-2 run must give the netlist's product.
        cross = _digit_serial_products()
        label = "digit-serial"
    else:
        cross = _unit("vedic4x4").evaluate_batch({"a": a, "b": b})["p"]
        label = "vedic cross-check"
    t.check_all(
        [g == w == c for g, w, c in zip(got, want, cross)],
        lambda i: f"{a[i]}*{b[i]}: got {got[i]}, want {want[i]} "
        f"({label} {'ok' if cross[i] == got[i] else 'differs'})",
    )
    return t.result()


def _random_column(rng: random.Random, n: int, width: int) -> list[int]:
    """n values uniform over [0, 2**width), width 1, 8 or 16, from one
    ``getrandbits`` call: its little-endian bytes read as n items."""
    bits = rng.getrandbits(width * n)
    if width == 1:
        return [(bits >> i) & 1 for i in range(n)]
    items = array("B" if width == 8 else "H", bits.to_bytes(width * n // 8, "little"))
    if sys.byteorder == "big":
        items.byteswap()
    return items.tolist()


def _verify_adder() -> UnitResult:
    t = _Tally("adder")
    sections = [(4, *_exhaustive(range(16), range(16), range(2)))]
    rng = random.Random(41)
    for width in (8, 16):
        n = _RANDOM_VECTORS // 2
        columns = [_random_column(rng, n, w) for w in (width, width, 1)]
        sections.append((width, *columns))
    for width, a, b, cin in sections:
        out = _unit(f"adder{width}").evaluate_batch({"a": a, "b": b, "cin": cin})
        mask = (1 << width) - 1
        want = [(s & mask, s >> width) for s in map(add, map(add, a, b), cin)]
        got = list(zip(out["sum"], out["cout"]))
        t.check_all(
            list(map(eq, got, want)),
            lambda i: f"w{width} {a[i]}+{b[i]}+{cin[i]}: got sum, cout {got[i]}, want {want[i]}",
        )
    return t.result()


def _verify_subtractor() -> UnitResult:
    t = _Tally("subtractor")
    sections = [(4, *_exhaustive(range(16), range(16)))]
    rng = random.Random(43)
    for width in (8, 16):
        n = _RANDOM_VECTORS // 2
        sections.append((width, _random_column(rng, n, width), _random_column(rng, n, width)))
    for width, a, b in sections:
        out = _unit(f"subtractor{width}").evaluate_batch({"a": a, "b": b})
        mask = (1 << width) - 1
        want = [(d & mask, int(d < 0)) for d in map(sub, a, b)]
        got = list(zip(out["diff"], out["borrow"]))
        t.check_all(
            list(map(eq, got, want)),
            lambda i: f"w{width} {a[i]}-{b[i]}: got diff, borrow {got[i]}, want {want[i]}",
        )
    return t.result()


def _verify_signed4x4() -> UnitResult:
    t = _Tally("signed4x4")
    a, b = _exhaustive(range(-8, 8), range(-8, 8))
    want = list(map(mul, a, b))
    columns = {"a": [x & 15 for x in a], "b": [y & 15 for y in b]}
    for impl in ("vedic", "array"):
        net = arith._signed_unit(impl)
        width = net.output_width("p")
        got = [to_signed(p, width) for p in net.evaluate_batch(columns)["p"]]
        t.check_all(
            list(map(eq, got, want)),
            lambda i: f"{impl} {a[i]}*{b[i]}: got {got[i]}, want {want[i]}",
        )
    return t.result()


def _sign_table(bits: int, shift: int) -> bytes:
    """Byte b to the two's-complement value of its ``bits``-bit field at
    bit ``shift``, as a byte that ``array("b")`` reads back signed."""
    h = 1 << (bits - 1)
    return bytes(((((b >> shift) & (2 * h - 1)) ^ h) - h) & 0xFF for b in range(256))


# Per component bit count: the tables of the re (low) and im (high) nibble.
_SIGN_TABLES = {bits: (_sign_table(bits, 0), _sign_table(bits, 4)) for bits in (3, 4)}


def _draw(rng: random.Random, n: int, bits: int = 4) -> list[array]:
    """n random 4-sample vectors as the 8 columns x0_re, x0_im, .. x3_im,
    every component uniform over [-2**(bits - 1), 2**(bits - 1)).

    One ``getrandbits(32 * n)`` call: byte 4i + k of its little-endian
    bytes is sample k of vector i, re in the low nibble and im in the high
    one, sign-extended by one ``bytes.translate`` per part.
    """
    raw = rng.getrandbits(32 * n).to_bytes(4 * n, "little")
    re, im = (array("b", raw.translate(table)) for table in _SIGN_TABLES[bits])
    return [part[k::4] for k in range(4) for part in (re, im)]


def _fft_sections() -> dict[str, list[array]]:
    """The FFT suite's sample columns, section by section, drawn in this
    order from one rng seeded 47."""
    rng = random.Random(47)
    # Basis vectors and DC, real and imaginary: vector k (k < 4) is 1 at
    # sample k, vector 4 + k is j at sample k, vector 8 is 1 everywhere.
    basis = [array("b", bytes(9)) for _ in range(8)]
    for k in range(4):
        basis[2 * k][k] = basis[2 * k][8] = 1
        basis[2 * k + 1][4 + k] = 1
    exact4 = [b + x for b, x in zip(basis, _draw(rng, _RANDOM_VECTORS))]
    # select=2 reads x0 and x1 only.
    exact2 = _draw(rng, 400)[:4] + [array("b", bytes(400))] * 4
    # Linearity: x is the first 200 vectors and y the last 200; components
    # in [-4, 3] keep x + y in range.
    linearity = _draw(rng, 400, bits=3)
    # Time reversal on real vectors.
    time_reversal = _draw(rng, 200)
    time_reversal[1::2] = [array("b", bytes(200))] * 4
    quantized = _draw(rng, _RANDOM_VECTORS)
    return {
        "exact4": exact4,
        "exact2": exact2,
        "linearity": linearity,
        "time_reversal": time_reversal,
        "quantized": quantized,
    }


def _vector(columns: Sequence[Sequence[int]], i: int) -> list[tuple[int, int]]:
    """Vector i of re/im column pairs, as (re, im) pairs."""
    return [(re[i], im[i]) for re, im in zip(columns[::2], columns[1::2])]


def _same_rows(got: Sequence[Sequence[int]], want: Sequence[Sequence[int]]) -> list[bool]:
    """Per case i, whether row i of the columns ``got`` equals that of ``want``."""
    return list(map(eq, zip(*got), zip(*want)))


def _energy(columns: Sequence[Sequence[int]]) -> list[int]:
    """Per case, the sum of the squares of its components."""
    return [sum(map(mul, row, row)) for row in zip(*columns)]


def _reversed_index(columns: list) -> list:
    """Sample (or bin) columns in the order 0, 3, 2, 1: index -k mod 4."""
    return columns[0:2] + columns[6:8] + columns[4:6] + columns[2:4]


def _verify_fft() -> UnitResult:
    t = _Tally("fft")
    exact4 = fft.FftConfig(select=4)
    exact2 = fft.FftConfig(select=2)
    quant4 = fft.FftConfig(4, "quantized", 3, 4)
    run = fft._transform_columns
    sections = _fft_sections()

    xs = sections["exact4"]
    got = run(exact4, xs)
    want = fft._dft_columns(xs, 4)
    t.check_all(
        _same_rows(got, want),
        lambda i: f"select=4 x={_vector(xs, i)}: "
        f"got {_vector(got, i)}, want {_vector(want, i)}",
    )
    # Parseval: sum |X|^2 == 4 * sum |x|^2, exact in integers.
    energy_in, energy_out = _energy(xs), _energy(got)
    t.check_all(
        [e_out == 4 * e_in for e_out, e_in in zip(energy_out, energy_in)],
        lambda i: f"Parseval x={_vector(xs, i)}: {energy_out[i]} != 4*{energy_in[i]}",
    )

    xs = sections["exact2"]
    got = run(exact2, xs)
    want = fft._dft_columns(xs[:4], 2)
    t.check_all(
        _same_rows(got[:4], want),
        lambda i: f"select=2 x={_vector(xs[:4], i)}: "
        f"got {_vector(got[:4], i)}, want {_vector(want, i)}",
    )
    t.check_all(
        [not any(row) for row in zip(*got[4:])],
        lambda i: f"upper slots not zero for x={_vector(xs[:4], i)}: {_vector(got[4:], i)}",
    )
    butterfly = _unit("butterfly2")
    bf = butterfly.evaluate_batch(
        {bus: [v & 15 for v in col] for bus, col in zip(fft._SAMPLE_BUSES, xs[:4])}
    )
    bf_width = butterfly.output_width("X0_re")
    standalone = [[to_signed(v, bf_width) for v in bf[bus]] for bus in fft._BIN_BUSES[:4]]
    t.check_all(
        _same_rows(got[:4], standalone),
        lambda i: f"select=2 disagrees with butterfly for x={_vector(xs[:4], i)}: "
        f"{_vector(got[:4], i)} vs {_vector(standalone, i)}",
    )

    # Linearity: one batch of x, y and x + y.
    xs = sections["linearity"]
    m = len(xs[0]) // 2
    sums = [array("b", map(add, col[:m], col[m:])) for col in xs]
    out = run(exact4, [col + s for col, s in zip(xs, sums)])
    fx, fy, fs = ([col[j * m : (j + 1) * m] for col in out] for j in range(3))
    t.check_all(
        _same_rows(fs, [list(map(add, a, b)) for a, b in zip(fx, fy)]),
        lambda i: f"linearity broken for x={_vector(xs, i)}, y={_vector(xs, m + i)}",
    )

    # Time reversal: the spectrum of x(-n mod 4) is X(-k mod 4).
    xs = sections["time_reversal"]
    m = len(xs[0])
    out = run(exact4, [a + b for a, b in zip(xs, _reversed_index(xs))])
    fx, frev = [col[:m] for col in out], [col[m:] for col in out]
    t.check_all(
        _same_rows(frev, _reversed_index(fx)),
        lambda i: f"time reversal broken for x={_vector(xs, i)}",
    )

    # Q1.F holds -j exactly, so the raw outputs are 2^F times the DFT.
    xs = sections["quantized"]
    f = quant4.fraction_bits
    got = run(quant4, xs)
    want = [[w << f for w in col] for col in fft._dft_columns(xs, 4)]
    t.check_all(
        _same_rows(got, want),
        lambda i: f"q{f} x={_vector(xs, i)}: got {_vector(got, i)}, want {_vector(want, i)}",
    )
    return t.result()


_VERIFIERS: dict[str, Callable[[], UnitResult]] = {
    "vedic2x2": _verify_vedic2x2,
    "vedic4x4": lambda: _verify_4x4("vedic4x4"),
    "array4x4": lambda: _verify_4x4("array4x4"),
    "adder": _verify_adder,
    "subtractor": _verify_subtractor,
    "signed4x4": _verify_signed4x4,
    "fft": _verify_fft,
}


def unit_names() -> tuple[str, ...]:
    return tuple(_VERIFIERS)


def verify_unit(unit: str) -> UnitResult:
    """Run one unit's suite. Raises ValueError for an unknown unit name."""
    try:
        runner = _VERIFIERS[unit]
    except KeyError:
        raise ValueError(f"unknown unit {unit!r}; choose from {', '.join(_VERIFIERS)}") from None
    return runner()


def verify_all() -> list[UnitResult]:
    """Run every suite in a fixed order."""
    return [runner() for runner in _VERIFIERS.values()]
