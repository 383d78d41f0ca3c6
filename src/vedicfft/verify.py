"""Exhaustive and randomized verification suites.

Each unit is checked against an independent oracle: Python integer
arithmetic for the multipliers/adders (the signed multipliers must give
a*b on every pair, -8 included) and the direct DFT sum for the FFT
datapaths (the Q1.F datapath must give exactly 2^F times it: Q1.F holds
its twiddle -j exactly). Exhaustive sweeps are used where the input space
is small (every 4-bit operand pair); fixed-seed random sweeps elsewhere, so
every run, on every supported Python, checks the same cases and results
are reproducible.

Every suite checks packed columns: one int per column, with one
fixed-width field per vector, from the enumeration
(:func:`_exhaustive_fields`) or the draw through the simulation
(``Netlist._evaluate_packed``) and the oracle to the compare
(``_Tally.check_packed``), where the XOR of two columns is 0 when every
case passes. Each check is one ``_Tally`` call, which formats the detail
of the first failing case only, naming its operands. A multiplier's
product column must equal ``a*b & 0xFF`` (:func:`_product_fields`), and so
must the cross column of vedic4x4 (the digit-serial Urdhva run) and of
array4x4 (the vedic4x4 netlist). A random adder or subtractor column is
the int of one ``Random.getrandbits`` call (:func:`_random_fields`), and
the sums and differences of its oracle are taken on fields twice the bus
step wide. Each FFT column comes from one ``getrandbits`` call whose bytes
are read as items: the samples are its nibbles, sign-extended by
``bytes.translate`` (:func:`_draw`). Its oracle is the DFT
(``fft._dft_quarter_turns``, which ``dft_oracle`` runs on numbers), and
its Parseval check squares bytes by ``bytes.translate`` tables
(:func:`_energy`). A passing suite does no per-case work; only a failing
check decodes its cases one by one, to count them and name the first.

Everything a pass reads that depends only on its fixed inputs is built
once per process and held read-only, every pass sharing it:
- the netlists: the catalog units by :func:`_unit`, the signed multipliers
  by ``arith._signed_unit`` and the FFT datapaths by
  ``fft._reconfigurable_cached``;
- the exhaustive operand columns and the seeded adder and subtractor
  sections, at the step they are compared at, with their oracle columns
  (:func:`_exhaustive_fields`, :func:`_integer_sections`), and the product
  and digit-serial oracle columns;
- the FFT suite's seeded sample columns (:func:`_fft_sections`) and, per
  section, their buffer forms, the netlist input columns, the DFT
  references and the input energies (:func:`_fft_checks`);
- one :class:`_Layout` per lane count and step (:func:`_layout`).
A pass then only simulates, reads the outputs and compares. Each netlist
takes its input columns at the step of the compare and lays out its
outputs at that step (``Netlist._evaluate_packed``), so no column is moved
between steps, and a second pass builds, draws and compiles nothing. A
pass evaluates the exact 4-point program three times, vedic4x4's twice and
every other program once, each as a batch, so the gate loop
``Netlist._run`` interprets every one of them, however many passes a
process makes.
"""

from __future__ import annotations

import functools
import itertools
import random
from array import array
from dataclasses import dataclass
from operator import not_
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from . import arith, fft
from .netlist import (
    _BIG_ENDIAN,
    Netlist,
    _column_fields,
    _item_size,
    _lanes_to_fields,
    to_signed,
)

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
        packed columns (got, want) of some pair differs. When no field of
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


# Every suite keeps every column packed, from operands to compare: one int
# per column, with one field of ``step`` bits per vector, vector i in bits
# [step * i, step * (i + 1)), as ``Netlist._evaluate_packed`` takes and
# returns them. With R the int that holds 1 in every field, a column of
# non-negative values v_i below 2**step is the exact int sum
# v_i * 2**(step * i), on which ``+``, ``-`` and ``<< k`` act field by field
# while every result stays in [0, 2**step); two columns are equal field by
# field where their XOR is 0. The FFT suite keeps a column of signed values
# in its buffer form, sum (v_i + 2**(step - 1)) * 2**(step * i): every field
# is non-negative, so a field is sliced out with a mask. Its signed form,
# the buffer form less 2**(step - 1) * R, is the exact int
# sum v_i * 2**(step * i), on which ``+``, ``-`` and ``<< F`` act field by
# field while every |v_i| stays below 2**(step - 1). Headroom, the largest
# |v_i| the suite makes: at step 8, 8 for a sample, 32 for an exact bin or a
# 6-bit netlist output and 64 for the sum of two of those in the linearity
# check; at step 16, 2**3 * 32 for a Q1.3 bin and 2**10 for an 11-bit
# netlist output. The Parseval energies are unsigned at step 16: at most
# 8 * 32**2 = 8192 for the 8 components of a 6-bit output vector, faulty or
# not, and 4 * 8 * 8**2 = 2048 for 4 times an input vector's. A w-bit adder
# or subtractor is checked at twice its bus step (16, or 32 for w = 16),
# in fields below 2**(w + 1): a + b + cin and sum + (cout << w) for the
# adder, a - b + 2**w and diff + ((1 - borrow) << w) for the subtractor,
# whatever the netlist outputs, since sum and diff are w-bit buses and
# cout and borrow 1-bit ones. A multiplier's 8-bit product is at step 16.

# The signed C type code of each item size in bytes, for ``array``.
_SIGNED_CODE = {array(code).itemsize: code for code in "bhilq"}


class _Layout:
    """n fields of ``step`` bits, 8, 16 or 32, packed in one int."""

    def __init__(self, n: int, step: int):
        self.n = n
        self.step = step
        self.ones = ((1 << step * n) - 1) // ((1 << step) - 1)  # R
        self.half = self.ones << (step - 1)
        self.code = _SIGNED_CODE[step // 8]

    def _spread(self, data: bytes, size: int) -> int:
        """The int whose field i holds item i of ``data``, ``size`` bytes
        each, zero-extended."""
        step = self.step // 8
        if size == step:
            return int.from_bytes(data, "little")
        spread = bytearray(step * self.n)
        for j in range(size):
            spread[j::step] = data[j::size]
        return int.from_bytes(spread, "little")

    def buffer(self, col: array | memoryview) -> int:
        """The buffer form of a column of n values: an ``array("b")``, or a
        signed byte view.

        Its bytes, the two's complement of each value, are spread one to a
        field; flipping bit 7 of every field makes each v + 128, and adding
        the rest of 2**(step - 1) * R makes it v + 2**(step - 1).
        """
        low = self.ones << 7
        return (self._spread(col.tobytes(), 1) ^ low) + self.half - low

    def widen(self, x: int, width: int) -> int:
        """The packed int ``x`` of n values of a ``width``-bit bus, one field
        of ``8 * _item_size(width)`` bits each, with every value moved to a
        field of this layout."""
        size = _item_size(width)
        return self._spread(x.to_bytes(size * self.n, "little"), size)

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

    def field(self, x: int, i: int) -> int:
        """Field i of ``x``, unsigned."""
        return (x >> self.step * i) & ((1 << self.step) - 1)

    def value(self, buffer: int, i: int) -> int:
        """The signed value of field i of a buffer form."""
        return self.field(buffer, i) - (1 << (self.step - 1))

    def vector(self, buffers: Sequence[int], i: int) -> list[tuple[int, int]]:
        """Vector i of re/im column pairs in buffer form, as (re, im) pairs."""
        return [
            (self.value(re, i), self.value(im, i)) for re, im in zip(buffers[::2], buffers[1::2])
        ]


@functools.cache
def _layout(n: int, step: int) -> _Layout:
    """The one :class:`_Layout` of n fields of ``step`` bits per process."""
    return _Layout(n, step)


@functools.cache
def _exhaustive_fields(*ranges: range) -> tuple[int, ...]:
    """Every combination of one value per range, the first range slowest,
    as one packed int per range with one 16-bit field per case: each value
    mod the length of its range (so ``range(-8, 8)`` gives the 4-bit two's
    complement). Built once per process."""
    cols = zip(*itertools.product(*ranges))
    return tuple(_column_fields([v % len(r) for v in col], 16) for r, col in zip(ranges, cols))


@functools.cache
def _product_fields(*ranges: range) -> int:
    """``a*b & 0xFF`` for every operand pair, in the order of
    :func:`_exhaustive_fields`, one 16-bit field per case, built once per
    process."""
    return _column_fields([x * y & 0xFF for x, y in itertools.product(*ranges)], 16)


@functools.cache
def _digit_serial_products() -> int:
    """The digit-serial base-2 product of every pair of 4-bit operands,
    packed as :func:`_product_fields` packs a*b."""
    pairs = itertools.product(range(16), repeat=2)
    return _column_fields([arith.urdhva_decimal(x, y, base=2).product for x, y in pairs], 16)


def _random_fields(rng: random.Random, n: int, width: int) -> int:
    """n values uniform over [0, 2**width), width 1, 8 or 16, as the packed
    int of a ``width``-bit bus: one ``getrandbits`` call, whose bits are the
    n fields, or at width 1 the n lane bits, spread one to a byte
    (:func:`vedicfft.netlist._lanes_to_fields`)."""
    bits = rng.getrandbits(width * n)
    return _lanes_to_fields([[bits]], n, 1)[0] if width == 1 else bits


@functools.cache
def _integer_sections(suite: str) -> tuple[tuple[int, _Layout, tuple[int, ...], int], ...]:
    """The sections of the adder or subtractor suite, built once per
    process: (bus width, layout, operand columns, oracle column) for every
    4-bit operand pair (and carry in), then for 500 vectors at width 8 and
    500 at width 16, drawn in that order from one rng seeded 41 (adder) or
    43 (subtractor). Each section is laid out at twice the step of its
    netlist's widest bus, the sum or difference: the operand columns as
    :func:`_simulate_wide` takes them, and the oracle ``a + b + cin`` or
    ``a - b + 2**w`` against which the suite checks ``sum + (cout << w)``
    or ``diff + ((1 - borrow) << w)``."""
    adder = suite == "adder"
    rng = random.Random(41 if adder else 43)
    sections = []
    for width in (4, 8, 16):
        widths = (width, width, 1) if adder else (width, width)
        if width == 4:
            wide = _layout(1 << sum(widths), 16)
            columns = _exhaustive_fields(*(range(1 << w) for w in widths))
        else:
            wide = _layout(_RANDOM_VECTORS // 2, 16 * _item_size(width))
            columns = tuple(wide.widen(_random_fields(rng, wide.n, w), w) for w in widths)
        a, b, *cin = columns
        want = a + b + cin[0] if adder else a - b + (wide.ones << width)
        sections.append((width, wide, columns, want))
    return tuple(sections)


def _simulate_wide(net: Netlist, columns: Sequence[int], wide: _Layout) -> list[int]:
    """Evaluate ``net`` on the packed ints of its input buses, in input
    order, laid out at ``wide``. Returns every input then every output bus
    at that layout."""
    return [*columns, *net._evaluate_packed((), columns, wide.n, wide.step // 8)]


def _verify_unsigned(unit: str, bits: int) -> UnitResult:
    """The catalog multiplier ``unit`` on every pair of ``bits``-bit
    operands. A 4x4 product must also equal a cross column: the
    digit-serial run's for vedic4x4, the vedic4x4 netlist's for array4x4."""
    t = _Tally(unit)
    ranges = (range(1 << bits),) * 2
    columns, wide = _exhaustive_fields(*ranges), _layout(1 << 2 * bits, 16)
    a, b, got = _simulate_wide(_unit(unit), columns, wide)
    want = _product_fields(*ranges)
    label, cross = "", got  # vedic2x2 has no cross column
    if unit == "vedic4x4":
        label, cross = "digit-serial", _digit_serial_products()
    elif unit == "array4x4":
        label, cross = "vedic cross-check", _simulate_wide(_unit("vedic4x4"), columns, wide)[2]

    def detail(i: int) -> str:
        g = wide.field(got, i)
        line = f"{wide.field(a, i)}*{wide.field(b, i)}: got {g}, want {wide.field(want, i)}"
        if label:
            line += f" ({label} {'ok' if wide.field(cross, i) == g else 'differs'})"
        return line

    t.check_packed([(got, want), (cross, want)], wide, detail)
    return t.result()


def _verify_signed4x4() -> UnitResult:
    t = _Tally("signed4x4")
    ranges = (range(-8, 8),) * 2
    columns, wide = _exhaustive_fields(*ranges), _layout(256, 16)
    want = _product_fields(*ranges)
    for impl in ("vedic", "array"):
        a, b, got = _simulate_wide(arith._signed_unit(impl), columns, wide)

        def detail(i: int) -> str:
            x, y = to_signed(wide.field(a, i), 4), to_signed(wide.field(b, i), 4)
            return f"{impl} {x}*{y}: got {to_signed(wide.field(got, i), 8)}, want {x * y}"

        t.check_packed([(got, want)], wide, detail)
    return t.result()


def _verify_adder() -> UnitResult:
    t = _Tally("adder")
    for width, wide, columns, want in _integer_sections("adder"):
        a, b, cin, total, cout = _simulate_wide(_unit(f"adder{width}"), columns, wide)

        def detail(i: int) -> str:
            x, y, c = wide.field(a, i), wide.field(b, i), wide.field(cin, i)
            s = x + y + c
            got = (wide.field(total, i), wide.field(cout, i))
            want = (s % (1 << width), s >> width)
            return f"w{width} {x}+{y}+{c}: got sum, cout {got}, want {want}"

        t.check_packed([(total + (cout << width), want)], wide, detail)
    return t.result()


def _verify_subtractor() -> UnitResult:
    t = _Tally("subtractor")
    for width, wide, columns, want in _integer_sections("subtractor"):
        a, b, diff, borrow = _simulate_wide(_unit(f"subtractor{width}"), columns, wide)

        def detail(i: int) -> str:
            x, y = wide.field(a, i), wide.field(b, i)
            got = (wide.field(diff, i), wide.field(borrow, i))
            return (
                f"w{width} {x}-{y}: got diff, borrow {got}, "
                f"want {((x - y) % (1 << width), int(x < y))}"
            )

        t.check_packed([(diff + ((wide.ones - borrow) << width), want)], wide, detail)
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


@functools.cache
def _fft_sections() -> Mapping[str, tuple[memoryview, ...]]:
    """The FFT suite's sample columns, section by section, drawn in this
    order from one rng seeded 47, once per process. Every pass shares them,
    so they are read-only: each column a signed byte view of ``bytes``,
    each section a tuple and the sections a mapping proxy."""
    rng = random.Random(47)
    # Basis vectors and DC, real and imaginary: vector k (k < 4) is 1 at
    # sample k, vector 4 + k is j at sample k, vector 8 is 1 everywhere.
    basis = [array("b", bytes(9)) for _ in range(8)]
    for k in range(4):
        basis[2 * k][k] = basis[2 * k][8] = 1
        basis[2 * k + 1][4 + k] = 1
    exact4 = [b + x for b, x in zip(basis, _draw(rng, _RANDOM_VECTORS))]
    # select=2 reads x0 and x1 only; x2 and x3, drawn last, must not matter.
    exact2 = _draw(rng, 400)[:4]
    # Linearity: x is the first 200 vectors and y the last 200; components
    # in [-4, 3] keep x + y in range.
    linearity = _draw(rng, 400, bits=3)
    # Time reversal on real vectors.
    time_reversal = _draw(rng, 200)
    time_reversal[1::2] = [array("b", bytes(200))] * 4
    quantized = _draw(rng, _RANDOM_VECTORS)
    exact2 += _draw(rng, 400)[4:]
    sections = {
        "exact4": exact4,
        "exact2": exact2,
        "linearity": linearity,
        "time_reversal": time_reversal,
        "quantized": quantized,
    }
    return MappingProxyType(
        {
            name: tuple(memoryview(col.tobytes()).cast("b") for col in cols)
            for name, cols in sections.items()
        }
    )


def _nibbles(xs: Sequence[int], lanes: _Layout) -> tuple[int, ...]:
    """The 4-bit netlist input columns of the sample columns whose buffer
    forms at ``lanes`` are ``xs``: the low nibble of each field, the
    sample's two's complement.

    Every sample must lie in [-8, 7]: its field plus 8 then differs from
    2**(step - 1) in its low nibble only, a test of one column at a time.
    Else the ValueError of ``FixedComplex.check_range`` names the first
    component outside, in vector order.
    """
    ones = lanes.ones
    high = ((1 << lanes.step) - 16) * ones
    for x in xs:
        if (x + 8 * ones) & high != lanes.half:
            for row in zip(*map(lanes.values, xs)):
                for re, im in zip(row[::2], row[1::2]):
                    fft.FixedComplex(re, im).check_range(4)
    return tuple(x & 0x0F * ones for x in xs)


def _dft(xs: Sequence[int], n: int, lanes: _Layout, shift: int = 0) -> tuple[int, ...]:
    """The buffer forms of 2**shift times the DFT of the n samples whose
    buffer forms are ``xs``."""
    signed = [x - lanes.half for x in xs]
    return tuple((d << shift) + lanes.half for d in fft._dft_quarter_turns(signed, n))


# The low and the high byte of v**2, per two's-complement byte of v.
_SQUARES = [((b ^ 0x80) - 0x80) ** 2 for b in range(256)]
_SQUARE_LOW = bytes(v & 0xFF for v in _SQUARES)
_SQUARE_HIGH = bytes(v >> 8 for v in _SQUARES)


def _energy(buffers: Sequence[int], lanes: _Layout) -> int:
    """Per vector, the sum of the squares of its components, as one
    unsigned 16-bit field per vector; ``buffers`` are the buffer forms of
    its component columns at step 8. Each column's two's complement bytes
    are squared by two ``bytes.translate`` tables into the low and high
    byte of a field; the sum must stay below 2**16."""
    spread = bytearray(2 * lanes.n)
    energy = 0
    for x in buffers:
        data = (x ^ lanes.half).to_bytes(lanes.n, "little")
        spread[::2] = data.translate(_SQUARE_LOW)
        spread[1::2] = data.translate(_SQUARE_HIGH)
        energy += int.from_bytes(spread, "little")
    return energy


def _reversed_index(columns: list) -> list:
    """Sample (or bin) columns in the order 0, 3, 2, 1: index -k mod 4."""
    return columns[0:2] + columns[6:8] + columns[4:6] + columns[2:4]


_EXACT4 = fft.FftConfig(select=4)
_EXACT2 = fft.FftConfig(select=2)
_QUANT4 = fft.FftConfig(4, "quantized", 3, 4)


class _FftCheck(NamedTuple):
    """What one section of the FFT suite checks against, given its sample
    columns alone."""

    lanes: _Layout  # of the samples, the netlist's inputs and outputs
    xs: tuple[int, ...]  # the buffer forms of the sample columns
    inputs: tuple[int, ...]  # the netlist's input columns (:func:`_nibbles`)
    want: tuple[int, ...] = ()  # the DFT of each vector, in buffer form
    energy: int = 0  # 4 times each vector's energy, for Parseval (exact4)


@functools.cache
def _fft_checks() -> Mapping[str, _FftCheck]:
    """Per section of :func:`_fft_sections`, the columns its checks read
    that depend on its samples alone, built once per process and held
    read-only like them. The linearity section simulates x, y and x + y
    (m vectors each) in one batch, and the time-reversal section x and
    x(-n mod 4), so their samples are those batches. Exact outputs are 6
    bits wide and come at step 8; Q1.3 outputs are 11 bits wide, so the
    quantized section is laid out at step 16, where its DFT is taken
    2**3 times: Q1.F holds -j exactly, so the raw outputs are 2**F times
    the DFT."""
    sections = _fft_sections()

    def check(lanes: _Layout, xs: Sequence[int], *refs) -> _FftCheck:
        return _FftCheck(lanes, tuple(xs), _nibbles(xs, lanes), *refs)

    lanes = _layout(len(sections["exact4"][0]), 8)
    xs = [lanes.buffer(col) for col in sections["exact4"]]
    checks = {"exact4": check(lanes, xs, _dft(xs, 4, lanes), _energy(xs, lanes) << 2)}
    lanes = _layout(len(sections["exact2"][0]), 8)
    xs = [lanes.buffer(col) for col in sections["exact2"]]
    checks["exact2"] = check(lanes, xs, _dft(xs[:4], 2, lanes))
    cols = sections["linearity"]
    m = len(cols[0]) // 2
    pairs, half = _layout(2 * m, 8), _layout(m, 8)
    low = (1 << 8 * m) - 1
    xs = [pairs.buffer(col) for col in cols]
    sums = [(x & low) + (x >> 8 * m) - half.half for x in xs]
    checks["linearity"] = check(_layout(3 * m, 8), [x | s << 16 * m for x, s in zip(xs, sums)])
    cols = sections["time_reversal"]
    m = len(cols[0])
    xs = [_layout(m, 8).buffer(col) for col in cols]
    batch = [a | b << 8 * m for a, b in zip(xs, _reversed_index(xs))]
    checks["time_reversal"] = check(_layout(2 * m, 8), batch)
    lanes = _layout(len(sections["quantized"][0]), 16)
    xs = [lanes.buffer(col) for col in sections["quantized"]]
    checks["quantized"] = check(lanes, xs, _dft(xs, 4, lanes, _QUANT4.fraction_bits))
    return MappingProxyType(checks)


def _simulate(
    net: Netlist, key: tuple[tuple[str, int], ...], inputs: Sequence[int], lanes: _Layout
) -> list[int]:
    """Evaluate ``net`` on the 4-bit sample columns ``inputs``
    (:func:`_nibbles`) at ``lanes``, the buses in ``key`` tied. Returns the
    buffer forms at ``lanes`` of the output buses, in output order; every
    output must fit a field."""
    width = net.output_width(next(iter(net.outputs)))
    raw = net._evaluate_packed(key, inputs, lanes.n, lanes.step // 8)
    return [lanes.from_raw(u, width) for u in raw]


def _run_fft(config: fft.FftConfig, inputs: Sequence[int], lanes: _Layout) -> list[int]:
    """:func:`_simulate` on the reconfigurable netlist of ``config``,
    ``select`` tied as ``fft.run_fft`` ties it."""
    return _simulate(fft._net_for(config), fft._SELECT_KEYS[config.select], inputs, lanes)


def _verify_fft() -> UnitResult:
    t = _Tally("fft")
    checks = _fft_checks()

    lanes, xs, inputs, want, energy = checks["exact4"]
    got = _run_fft(_EXACT4, inputs, lanes)
    t.check_packed(
        zip(got, want),
        lanes,
        lambda i: f"select=4 x={lanes.vector(xs, i)}: "
        f"got {lanes.vector(got, i)}, want {lanes.vector(want, i)}",
    )
    # Parseval: sum |X|^2 == 4 * sum |x|^2, exact in integers.
    energy_out = _energy(got, lanes)
    fields = _layout(lanes.n, 16)
    t.check_packed(
        [(energy_out, energy)],
        fields,
        lambda i: f"Parseval x={lanes.vector(xs, i)}: "
        f"{fields.field(energy_out, i)} != 4*{fields.field(energy, i) >> 2}",
    )

    lanes, xs, inputs, want, _ = checks["exact2"]
    got = _run_fft(_EXACT2, inputs, lanes)
    t.check_packed(
        zip(got[:4], want),
        lanes,
        lambda i: f"select=2 x={lanes.vector(xs[:4], i)}: "
        f"got {lanes.vector(got[:4], i)}, want {lanes.vector(want, i)}",
    )
    t.check_packed(
        ((g, lanes.half) for g in got[4:]),
        lanes,
        lambda i: f"upper slots not zero for x={lanes.vector(xs[:4], i)}: "
        f"{lanes.vector(got[4:], i)}",
    )
    standalone = _simulate(_unit("butterfly2"), (), inputs[:4], lanes)
    t.check_packed(
        zip(got[:4], standalone),
        lanes,
        lambda i: f"select=2 disagrees with butterfly for x={lanes.vector(xs[:4], i)}: "
        f"{lanes.vector(got[:4], i)} vs {lanes.vector(standalone, i)}",
    )

    # Linearity: the outputs of x + y against the sums of those of x and y.
    lanes, xs, inputs, _, _ = checks["linearity"]
    m = lanes.n // 3
    half = _layout(m, 8)
    low = (1 << 8 * m) - 1
    out = _run_fft(_EXACT4, inputs, lanes)
    fx, fy, fs = ([(b >> 8 * m * j) & low for b in out] for j in range(3))
    t.check_packed(
        zip(fs, [a + b - half.half for a, b in zip(fx, fy)]),
        half,
        lambda i: f"linearity broken for x={lanes.vector(xs, i)}, y={lanes.vector(xs, m + i)}",
    )

    # Time reversal: the spectrum of x(-n mod 4) is X(-k mod 4).
    lanes, xs, inputs, _, _ = checks["time_reversal"]
    m = lanes.n // 2
    low = (1 << 8 * m) - 1
    out = _run_fft(_EXACT4, inputs, lanes)
    fx, frev = [b & low for b in out], [b >> 8 * m for b in out]
    t.check_packed(
        zip(frev, _reversed_index(fx)),
        _layout(m, 8),
        lambda i: f"time reversal broken for x={lanes.vector(xs, i)}",
    )

    lanes, xs, inputs, want, _ = checks["quantized"]
    got = _run_fft(_QUANT4, inputs, lanes)
    t.check_packed(
        zip(got, want),
        lanes,
        lambda i: f"q{_QUANT4.fraction_bits} x={lanes.vector(xs, i)}: "
        f"got {lanes.vector(got, i)}, want {lanes.vector(want, i)}",
    )
    return t.result()


_VERIFIERS: dict[str, Callable[[], UnitResult]] = {
    "vedic2x2": lambda: _verify_unsigned("vedic2x2", 2),
    "vedic4x4": lambda: _verify_unsigned("vedic4x4", 4),
    "array4x4": lambda: _verify_unsigned("array4x4", 4),
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
