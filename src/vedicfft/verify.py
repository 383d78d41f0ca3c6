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
batch per netlist, computes the oracle as columns, and records each check
with one ``_Tally`` call, which formats the detail of the first failing
case only, naming its operands. The integer suites go through
``Netlist.evaluate_batch`` and ``_Tally.check_all`` with lists.
The only per-case objects are the digit-serial traces that are the
vedic4x4 oracle. Each random column comes from one ``Random.getrandbits``
call whose bytes are read as items: the FFT samples are its nibbles,
sign-extended by ``bytes.translate`` (:func:`_draw`).

The FFT suite checks packed columns: one int per column, with one
fixed-width field per vector, from the bytes of the drawn column through
the simulation (``Netlist._evaluate_packed``), the DFT oracle
(``fft._dft_quarter_turns``, which ``dft_oracle`` runs on numbers) and the
compare (``_Tally.check_packed``), where the XOR of two columns is 0 when
every case passes. Its only per-case work is the Parseval check and, when
a check fails, finding the failing cases.

Every netlist is built once per process: the catalog units by
:func:`_unit`, the signed multipliers by ``arith._signed_unit`` and the
FFT datapaths by ``fft._reconfigurable_cached``. So is the vedic4x4 oracle
column (:func:`_digit_serial_products`), so a second pass builds nothing
and compiles no slot program. A pass evaluates the exact 4-point program
three times, vedic4x4's twice and every other program once, each as a
batch, so the gate loop ``Netlist._run`` interprets every one of them,
however many passes a process makes.
"""

from __future__ import annotations

import functools
import itertools
import random
from array import array
from dataclasses import dataclass
from operator import add, eq, mul, not_, sub
from typing import Callable, Iterable, Sequence

from . import arith, fft
from .netlist import _BIG_ENDIAN, Netlist, _field_values, _item_size, to_signed

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

    def check_packed(
        self,
        pairs: Iterable[tuple[int, int]],
        lanes: _Layout,
        detail: Callable[[int], str],
    ):
        """One check per case i of ``lanes``, failed where field i of the
        buffer forms (got, want) of some pair differs. When no field of
        any pair differs, the n cases pass with no per-case work; else the
        per-case results go to :meth:`check_all`."""
        diff = 0
        for got, want in pairs:
            diff |= got ^ want
        if not diff:
            self.checked += lanes.n
            return
        self.check_all(list(map(not_, lanes.items(diff))), detail)

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
    ``getrandbits`` call: its bits read as n fields of a packed column
    (:func:`vedicfft.netlist._field_values`), or as n bits at width 1."""
    bits = rng.getrandbits(width * n)
    if width == 1:
        return [(bits >> i) & 1 for i in range(n)]
    return _field_values(bits, n, width)


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


# The FFT suite keeps every column packed: one int per column, with one
# field of ``step`` bits (8, or 16 for the Q1.3 outputs and oracle) per
# vector, vector i in bits [step * i, step * (i + 1)), as
# ``Netlist._evaluate_packed`` takes and returns them. With R the int that
# holds 1 in every field, a column of signed values v_i is kept in its
# buffer form, sum (v_i + 2**(step - 1)) * 2**(step * i): every field is
# non-negative, so a field is sliced out with a mask, and two columns are
# equal field by field where their XOR is 0. Its signed form, the buffer
# form less 2**(step - 1) * R, is the exact int sum v_i * 2**(step * i), on
# which ``+``, ``-`` and ``<< F`` act field by field while every |v_i|
# stays below 2**(step - 1). Headroom, the largest |v_i| the suite makes:
# at step 8, 8 for a sample, 32 for an exact bin or a 6-bit netlist output
# and 64 for the sum of two of those in the linearity check; at step 16,
# 2**3 * 32 for a Q1.3 bin and 2**10 for an 11-bit netlist output.


class _Layout:
    """n signed fields of ``step`` bits, 8 or 16, packed in one int."""

    def __init__(self, n: int, step: int):
        self.n = n
        self.step = step
        self.ones = ((1 << step * n) - 1) // ((1 << step) - 1)  # R
        self.half = self.ones << (step - 1)
        self.code = "b" if step == 8 else "h"

    def buffer(self, col: array) -> int:
        """The buffer form of an ``array("b")`` column of n values.

        Its bytes, the two's complement of each value, are spread one to a
        field; flipping bit 7 of every field makes each v + 128, and adding
        the rest of 2**(step - 1) * R makes it v + 2**(step - 1).
        """
        data = col.tobytes()
        if self.step > 8:
            spread = bytearray(self.n * self.step // 8)
            spread[:: self.step // 8] = data
            data = spread
        low = self.ones << 7
        return (int.from_bytes(data, "little") ^ low) + self.half - low

    def from_raw(self, raw: int, width: int) -> int:
        """The buffer form of the packed int of a netlist output bus: fields
        of ``width``-bit two's complement patterns."""
        return raw - ((raw & (self.ones << (width - 1))) << 1) + self.half

    def items(self, x: int) -> array:
        """The n fields of ``x``, read as signed array items."""
        items = array(self.code, x.to_bytes(self.step // 8 * self.n, "little"))
        if _BIG_ENDIAN:
            items.byteswap()
        return items

    def values(self, buffer: int) -> array:
        """The n signed values of a buffer form: XOR with 2**(step - 1) * R
        gives the two's complement items."""
        return self.items(buffer ^ self.half)

    def value(self, buffer: int, i: int) -> int:
        """The signed value of field i of a buffer form."""
        return ((buffer >> self.step * i) & ((1 << self.step) - 1)) - (1 << (self.step - 1))

    def vector(self, buffers: Sequence[int], i: int) -> list[tuple[int, int]]:
        """Vector i of re/im column pairs in buffer form, as (re, im) pairs."""
        return [
            (self.value(re, i), self.value(im, i)) for re, im in zip(buffers[::2], buffers[1::2])
        ]


def _simulate(
    net: Netlist, key: tuple[tuple[str, int], ...], xs: Sequence[int], lanes: _Layout
) -> tuple[list[int], _Layout]:
    """Evaluate ``net`` on the 4-bit sample columns ``xs``, buffer forms of
    ``lanes`` at step 8, the buses in ``key`` tied.

    Every sample must lie in [-8, 7]: the field v + 136 of v then has upper
    nibble 8, a test of one column at a time. Else the ValueError of
    ``FixedComplex.check_range`` names the first component outside, in
    vector order. A field's low nibble is the sample's two's complement.
    Returns the buffer forms of the output buses, in output order, and
    their layout.
    """
    ones = lanes.ones
    for x in xs:
        if (x + 8 * ones) & (0xF0 * ones) != 0x80 * ones:
            for row in zip(*map(lanes.values, xs)):
                for re, im in zip(row[::2], row[1::2]):
                    fft.FixedComplex(re, im).check_range(4)
    raw = net._evaluate_packed(key, [x & 0x0F * ones for x in xs], lanes.n)
    width = net.output_width(next(iter(net.outputs)))
    out = _Layout(lanes.n, 8 * _item_size(width))
    return [out.from_raw(u, width) for u in raw], out


def _run_fft(
    config: fft.FftConfig, xs: Sequence[int], lanes: _Layout
) -> tuple[list[int], _Layout]:
    """:func:`_simulate` on the reconfigurable netlist of ``config``,
    ``select`` tied as ``fft.run_fft`` ties it."""
    return _simulate(fft._net_for(config), fft._SELECT_KEYS[config.select], xs, lanes)


def _dft(xs: Sequence[int], n: int, lanes: _Layout, shift: int = 0) -> list[int]:
    """The buffer forms of 2**shift times the DFT of the n samples whose
    buffer forms are ``xs``."""
    signed = [x - lanes.half for x in xs]
    return [(d << shift) + lanes.half for d in fft._dft_quarter_turns(signed, n)]


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
    sections = _fft_sections()

    cols = sections["exact4"]
    lanes = _Layout(len(cols[0]), 8)
    xs = [lanes.buffer(col) for col in cols]
    got, out = _run_fft(exact4, xs, lanes)
    want = _dft(xs, 4, out)
    t.check_packed(
        zip(got, want),
        out,
        lambda i: f"select=4 x={lanes.vector(xs, i)}: "
        f"got {out.vector(got, i)}, want {out.vector(want, i)}",
    )
    # Parseval: sum |X|^2 == 4 * sum |x|^2, exact in integers.
    energy_in, energy_out = _energy(cols), _energy([out.values(g) for g in got])
    t.check_all(
        [e_out == 4 * e_in for e_out, e_in in zip(energy_out, energy_in)],
        lambda i: f"Parseval x={lanes.vector(xs, i)}: {energy_out[i]} != 4*{energy_in[i]}",
    )

    cols = sections["exact2"]
    lanes = _Layout(len(cols[0]), 8)
    xs = [lanes.buffer(col) for col in cols]
    got, out = _run_fft(exact2, xs, lanes)
    want = _dft(xs[:4], 2, out)
    t.check_packed(
        zip(got[:4], want),
        out,
        lambda i: f"select=2 x={lanes.vector(xs[:4], i)}: "
        f"got {out.vector(got[:4], i)}, want {out.vector(want, i)}",
    )
    t.check_packed(
        ((g, out.half) for g in got[4:]),
        out,
        lambda i: f"upper slots not zero for x={lanes.vector(xs[:4], i)}: "
        f"{out.vector(got[4:], i)}",
    )
    standalone, bf = _simulate(_unit("butterfly2"), (), xs[:4], lanes)
    t.check_packed(
        zip(got[:4], standalone),
        out,
        lambda i: f"select=2 disagrees with butterfly for x={lanes.vector(xs[:4], i)}: "
        f"{out.vector(got[:4], i)} vs {bf.vector(standalone, i)}",
    )

    # Linearity: one batch of x, y and x + y, each m vectors. Exact
    # outputs are 6 bits wide, so they too come at step 8.
    cols = sections["linearity"]
    m = len(cols[0]) // 2
    lanes, half = _Layout(2 * m, 8), _Layout(m, 8)
    xs = [lanes.buffer(col) for col in cols]
    low = (1 << 8 * m) - 1
    sums = [(x & low) + (x >> 8 * m) - half.half for x in xs]
    batch = [x | s << 16 * m for x, s in zip(xs, sums)]
    out, _ = _run_fft(exact4, batch, _Layout(3 * m, 8))
    fx, fy, fs = ([(b >> 8 * m * j) & low for b in out] for j in range(3))
    t.check_packed(
        zip(fs, [a + b - half.half for a, b in zip(fx, fy)]),
        half,
        lambda i: f"linearity broken for x={lanes.vector(xs, i)}, y={lanes.vector(xs, m + i)}",
    )

    # Time reversal: the spectrum of x(-n mod 4) is X(-k mod 4).
    cols = sections["time_reversal"]
    m = len(cols[0])
    lanes = _Layout(m, 8)
    xs = [lanes.buffer(col) for col in cols]
    low = (1 << 8 * m) - 1
    batch = [a | b << 8 * m for a, b in zip(xs, _reversed_index(xs))]
    out, _ = _run_fft(exact4, batch, _Layout(2 * m, 8))
    fx, frev = [b & low for b in out], [b >> 8 * m for b in out]
    t.check_packed(
        zip(frev, _reversed_index(fx)),
        lanes,
        lambda i: f"time reversal broken for x={lanes.vector(xs, i)}",
    )

    # Q1.F holds -j exactly, so the raw outputs are 2^F times the DFT,
    # taken at the outputs' step.
    cols = sections["quantized"]
    f = quant4.fraction_bits
    lanes = _Layout(len(cols[0]), 8)
    xs = [lanes.buffer(col) for col in cols]
    got, out = _run_fft(quant4, xs, lanes)
    want = _dft([out.buffer(col) for col in cols], 4, out, f)
    t.check_packed(
        zip(got, want),
        out,
        lambda i: f"q{f} x={lanes.vector(xs, i)}: "
        f"got {out.vector(got, i)}, want {out.vector(want, i)}",
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
