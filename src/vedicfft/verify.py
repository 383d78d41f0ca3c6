"""Exhaustive and randomized verification suites.

Each unit is checked against an independent oracle: Python integer
arithmetic for the multipliers/adders (the signed multipliers must give
a*b on every pair, -8 included) and the direct DFT sum for the FFT
datapaths (the Q1.F datapath must give exactly 2^F times it: Q1.F holds
its twiddle -j exactly). Exhaustive sweeps are used where the input space
is small (every 4-bit operand pair); fixed-seed random sweeps elsewhere, so
every run, on every supported Python, checks the same cases and results
are reproducible.

Every suite is lane-major: case i is lane i, bit i of every lane word.
The buses of one side of a check are one flat tuple of lane words, bus
after bus and LSB first (word k of a bus holds bit k of the bus in every
lane): the layout ``Netlist._evaluate_lanes`` takes and returns. Once per
process, each section's input lane words and the lane words of its
oracle's outputs are built from the enumeration or the seeded draw
(:func:`_lanes`). The oracles: ``a*b`` at the product's width for a
multiplier (:func:`_product_lanes`), and the cross columns of vedic4x4
(the digit-serial Urdhva run) and of array4x4 (the vedic4x4 netlist);
``a + b + cin`` for an adder, against its sum then its carry out;
``a - b`` mod ``2**(w + 1)`` for a subtractor, against its difference then
its borrow; for the FFT datapaths the DFT, taken by
``fft._dft_quarter_turns`` on packed signed columns (which ``dft_oracle``
runs on numbers) and turned into lane words bin by bin
(:func:`_dft_lanes`).

Each suite is a table of checks (:class:`_Check`), built on its first run
and held for the process: per check, its lane count, its input and oracle
words, each netlist it simulates as a lookup, its argument and a program
key, the lanes that fail whatever the netlists give, and a describer of
one lane. A pass (:func:`_run_suite`) loops over the table. Per check it
looks each netlist up, evaluates it on the held input words and compares
the flat output tuple with the oracle tuple by one ``==``: a passing
check costs one lane evaluation per netlist and that compare. Only where
the words differ does it OR together the XORs of the words
(:func:`_diff`), add the set bits of that difference as failures and
decode the first failing lane to name its operands or samples
(``_Tally.check``). No column is transposed in a pass. The lookups
(:func:`_unit`, ``arith._signed_unit`` and ``fft._net_for``) run on every
pass, so a netlist replaced there is the one the next pass checks.

The FFT suite checks every lane against the DFT. Its select-4 run holds
the exact 4-point lanes (basis vectors, DC and random vectors), then the
linearity lanes x, y and x + y and the time-reversal lanes x and
x(-n mod 4): a lane that breaks linearity, Parseval's identity or time
reversal has an output that differs from the DFT of its input, so these
properties need no check of their own. The select-2 run must give the
2-point DFT of x0 and x1 and X2 = X3 = 0 whatever x2 and x3 are; the
standalone ``butterfly2`` unit must give the same 2-point DFT, at its
5-bit width, on the same lanes; the Q1.3 run must give 2**3 times the
4-point DFT.

Everything a pass reads that depends only on its fixed inputs is built
once per process and held read-only, every pass sharing it:
- the netlists: the catalog units by :func:`_unit`, the signed multipliers
  by ``arith._signed_unit`` and the FFT datapaths by
  ``fft._reconfigurable_cached``;
- the exhaustive operand words and their product words
  (:func:`_exhaustive_lanes`, :func:`_product_lanes`), and the adder and
  subtractor sections with their oracle words (:func:`_integer_sections`);
- the FFT suite's seeded sample columns (:func:`_fft_sections`) and, per
  run, its input and DFT words (:func:`_fft_lanes`);
- the check tables, and in vedic4x4's the lanes where the digit-serial
  products differ from a*b.
A second pass therefore builds, draws, transposes and compiles nothing. A
pass evaluates vedic4x4's program twice and every other program once, each
on all its lanes at once. A program's first evaluation compiles it and
runs the gate loop ``Netlist._run``; every later one runs its generated
lanes kernel, so the first pass interprets every program (vedic4x4's
second evaluation generates its kernel), the second generates the rest,
and every pass after that runs straight-line code only.
"""

from __future__ import annotations

import functools
import itertools
import random
from array import array
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Callable, Mapping, NamedTuple, Sequence

from . import arith, fft
from .netlist import Netlist, _bus_lanes, to_signed

_RANDOM_VECTORS = 1000

# The catalog unit of a name, built on first use and shared by every pass.
_unit = functools.cache(fft.build_unit)

# Lane words: bus after bus, each bus's words LSB first.
_Words = tuple[int, ...]
# A program key: the sorted (bus, value) pairs of the tied input buses.
_Key = tuple[tuple[str, int], ...]


@dataclass(frozen=True, init=False)
class UnitResult:
    """Outcome of one unit's suite: cases checked, failures, first detail."""

    unit: str
    checked: int
    failed: int
    detail: str = ""

    def __init__(self, unit: str, checked: int, failed: int, detail: str = ""):
        # One frame per result, as in ``fft.FixedComplex``: the fields go
        # straight into ``__dict__``, past the frozen ``__setattr__``.
        fields = self.__dict__
        fields["unit"] = unit
        fields["checked"] = checked
        fields["failed"] = failed
        fields["detail"] = detail

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

    def check(self, n: int, diff: int, detail: Callable[[int], str] | None):
        """n cases, one per lane: case i fails where bit i of ``diff`` is
        set. ``detail(i)`` describes lane i; a failing check calls it on
        its first failing lane, and only while no detail is recorded. A
        check with no failure never calls it, so it may pass None."""
        self.checked += n
        if diff:
            self.failed += diff.bit_count()
            if not self.detail:
                self.detail = detail((diff & -diff).bit_length() - 1)

    def result(self) -> UnitResult:
        return UnitResult(self.unit, self.checked, self.failed, self.detail)


def _lanes(columns: Sequence[Sequence[int]], widths: Sequence[int]) -> _Words:
    """The lane words of equally long columns of values, one column per bus
    of the given width, each value in ``[0, 2**width)``: bus after bus, each
    bus's words LSB first, lane i holding value i."""
    return tuple(itertools.chain.from_iterable(map(_bus_lanes, columns, widths)))


def _value(words: Sequence[int], i: int) -> int:
    """The value in lane i of the bus whose lane words are ``words``."""
    return sum(((word >> i) & 1) << k for k, word in enumerate(words))


def _diff(got: Sequence[int], want: Sequence[int]) -> int:
    """The lanes in which the lane words ``got`` differ from the words of
    ``want`` in their places: the OR of the XORs of the words."""
    diff = 0
    for g, w in zip(got, want):
        diff |= g ^ w
    return diff


# The lookups a check names its netlists by. Each reads the module
# attribute it calls on every call, so a netlist replaced there is the one
# that the next pass checks.
def _catalog(name: str) -> Netlist:
    return _unit(name)


def _signed(impl: str) -> Netlist:
    return arith._signed_unit(impl)


def _datapath(config: fft.FftConfig) -> Netlist:
    return fft._net_for(config)


class _Check(NamedTuple):
    """One check of a suite: n cases, one per lane, built once per process.

    Each entry of ``sims`` is (lookup, argument, program key): the netlist
    ``lookup(argument)``, looked up on every pass, is evaluated under that
    key on ``words``. Lane i fails where some netlist's output words differ
    from ``want`` in bit i, and where ``failing`` has bit i set, whatever
    they give. ``describe(got, i)`` names lane i, given each netlist's
    output words in ``sims`` order; only a failing check calls it."""

    n: int
    words: _Words
    want: _Words
    sims: tuple[tuple[Callable[[Any], Netlist], Any, _Key], ...]
    failing: int
    describe: Callable[[list[_Words], int], str]


def _run_suite(unit: str, checks: Sequence[_Check]) -> UnitResult:
    """One pass of ``unit``'s suite over its table of checks."""
    t = _Tally(unit)
    for n, words, want, sims, failing, describe in checks:
        got = []
        diff = failing
        for lookup, arg, key in sims:
            out = lookup(arg)._evaluate_lanes(key, words, n)
            got.append(out)
            if out != want:
                diff |= _diff(out, want)
        # Only a failing check needs the describer of its lanes.
        t.check(n, diff, functools.partial(describe, got) if diff else None)
    return t.result()


@functools.cache
def _exhaustive_lanes(*ranges: range) -> _Words:
    """Every combination of one value per range, the first range slowest,
    one lane each, as the lane words of one bus per range, bus after bus:
    each value mod the length of its range (so ``range(-8, 8)`` gives the
    4-bit two's complement). Built once per process."""
    cols = zip(*itertools.product(*ranges))
    return _lanes(
        [[v % len(r) for v in col] for r, col in zip(ranges, cols)],
        [(len(r) - 1).bit_length() for r in ranges],
    )


@functools.cache
def _product_lanes(*ranges: range) -> _Words:
    """The lane words of the product bus ``a*b`` for every operand pair, in
    the order of :func:`_exhaustive_lanes`, at the product's width (the
    operands' widths summed) in two's complement, built once per process."""
    width = sum((len(r) - 1).bit_length() for r in ranges)
    return _lanes([[x * y % (1 << width) for x, y in itertools.product(*ranges)]], [width])


def _digit_serial_products() -> _Words:
    """The digit-serial base-2 product of every pair of 4-bit operands, as
    :func:`_product_lanes` gives a*b."""
    pairs = itertools.product(range(16), repeat=2)
    return _lanes([[arith.urdhva_decimal(x, y, base=2).product for x, y in pairs]], [8])


def _random_column(rng: random.Random, n: int, width: int) -> list[int]:
    """n values uniform over [0, 2**width) from one ``getrandbits(width * n)``
    call: value i is its bits ``[width * i, width * (i + 1))``."""
    bits = rng.getrandbits(width * n)
    mask = (1 << width) - 1
    return [(bits >> width * i) & mask for i in range(n)]


@functools.cache
def _integer_sections(suite: str) -> tuple[tuple[int, int, _Words, _Words], ...]:
    """The sections of the adder or subtractor suite, built once per
    process: (bus width w, lane count, lane words of the operand buses, of
    the oracle output buses) for every 4-bit operand pair (and carry in),
    then for 500 vectors at width 8 and 500 at width 16, drawn in that
    order from one rng seeded 41 (adder) or 43 (subtractor). The oracle
    gives the adder's sum and carry out, the low w bits and bit w of
    ``a + b + cin``, or the subtractor's difference ``a - b`` mod ``2**w``
    and borrow ``a < b``."""
    adder = suite == "adder"
    rng = random.Random(41 if adder else 43)
    sections = []
    for width in (4, 8, 16):
        widths = (width, width, 1) if adder else (width, width)
        if width == 4:
            columns = list(zip(*itertools.product(*(range(1 << w) for w in widths))))
        else:
            columns = [_random_column(rng, _RANDOM_VECTORS // 2, w) for w in widths]
        if adder:
            total = [a + b + cin for a, b, cin in zip(*columns)]
            want = [[v % (1 << width) for v in total], [v >> width for v in total]]
        else:
            pairs = list(zip(*columns))
            want = [[(a - b) % (1 << width) for a, b in pairs], [int(a < b) for a, b in pairs]]
        sections.append((width, len(want[0]), _lanes(columns, widths), _lanes(want, [width, 1])))
    return tuple(sections)


@functools.cache
def _unsigned_checks(unit: str, bits: int) -> tuple[_Check]:
    """The catalog multiplier ``unit`` on every pair of ``bits``-bit
    operands. A 4x4 product must also equal a cross column: the
    digit-serial run's for vedic4x4, whose lanes that differ from a*b are
    found here, and the vedic4x4 netlist's for array4x4, simulated beside
    it."""
    ranges = (range(1 << bits),) * 2
    n, words, want = 1 << 2 * bits, _exhaustive_lanes(*ranges), _product_lanes(*ranges)
    sims = ((_catalog, unit, ()),)
    label, cross, failing = "", None, 0  # vedic2x2 has no cross column
    if unit == "vedic4x4":
        label, cross = "digit-serial", _digit_serial_products()
        failing = _diff(cross, want)
    elif unit == "array4x4":
        label, sims = "vedic cross-check", (*sims, (_catalog, "vedic4x4", ()))

    def describe(got: list[_Words], i: int) -> str:
        a, b = _value(words[:bits], i), _value(words[bits:], i)
        g = _value(got[0], i)
        line = f"{a}*{b}: got {g}, want {_value(want, i)}"
        if label:
            c = _value(got[1] if cross is None else cross, i)
            line += f" ({label} {'ok' if c == g else 'differs'})"
        return line

    return (_Check(n, words, want, sims, failing, describe),)


@functools.cache
def _signed_checks() -> tuple[_Check, ...]:
    """The vedic, then the array, signed 4x4 multiplier on every pair of
    operands in [-8, 7]."""
    ranges = (range(-8, 8),) * 2
    words, want = _exhaustive_lanes(*ranges), _product_lanes(*ranges)

    def check(impl: str) -> _Check:
        def describe(got: list[_Words], i: int) -> str:
            x, y = to_signed(_value(words[:4], i), 4), to_signed(_value(words[4:], i), 4)
            return f"{impl} {x}*{y}: got {to_signed(_value(got[0], i), 8)}, want {x * y}"

        return _Check(256, words, want, ((_signed, impl, ()),), 0, describe)

    return check("vedic"), check("array")


@functools.cache
def _integer_checks(suite: str) -> tuple[_Check, ...]:
    """The adder or subtractor suite: ``adder<w>`` or ``subtractor<w>`` on
    each section of :func:`_integer_sections`."""
    adder = suite == "adder"

    def check(width: int, n: int, words: _Words, want: _Words) -> _Check:
        def describe(got: list[_Words], i: int) -> str:
            x, y = _value(words[:width], i), _value(words[width : 2 * width], i)
            values = (_value(got[0][:width], i), _value(got[0][width:], i))
            if adder:
                c = _value(words[2 * width :], i)
                s = x + y + c
                expected = (s % (1 << width), s >> width)
                return f"w{width} {x}+{y}+{c}: got sum, cout {values}, want {expected}"
            expected = ((x - y) % (1 << width), int(x < y))
            return f"w{width} {x}-{y}: got diff, borrow {values}, want {expected}"

        return _Check(n, words, want, ((_catalog, f"{suite}{width}", ()),), 0, describe)

    return tuple(check(*section) for section in _integer_sections(suite))


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


_EXACT4 = fft.FftConfig(select=4)
_EXACT2 = fft.FftConfig(select=2)
_QUANT4 = fft.FftConfig(4, "quantized", 3, 4)


def _sample_lanes(columns: Sequence[Sequence[int]]) -> _Words:
    """The lane words of the 4-bit sample buses x0_re, x0_im, .., bus after
    bus, of columns of signed samples, one lane per vector.

    Every sample must lie in [-8, 7]; else the ValueError of
    ``FixedComplex.check_range`` names the first component outside, in
    vector order.
    """
    if min(map(min, columns)) < -8 or max(map(max, columns)) > 7:
        for row in zip(*columns):
            for re, im in zip(row[::2], row[1::2]):
                fft.FixedComplex(re, im).check_range(4)
    return _lanes([[v & 0xF for v in col] for col in columns], [4] * len(columns))


def _dft_lanes(columns: Sequence[Sequence[int]], points: int) -> list[list[int]]:
    """Per component of bins 0 .. points - 1 (X0_re, X0_im, ..), the 8
    lane words of the DFT of the samples in the columns x0_re, x0_im, ..,
    in two's complement.

    Each column's two's complement bytes are one int with one 8-bit field
    per vector; flipping bit 7 of every field makes it v + 128, and taking
    128 from every field leaves the exact int sum v_i * 2**(8 * i), on which
    ``fft._dft_quarter_turns`` adds and subtracts field by field. Every bin
    of 4-bit samples lies in [-32, 32], so adding 128 to every field and
    flipping bit 7 back gives its two's complement bytes, which
    ``_bus_lanes`` turns into the bin's lane words.
    """
    n = len(columns[0])
    half = ((1 << 8 * n) - 1) // 0xFF << 7  # 128 in every field
    signed = [
        (int.from_bytes(array("b", col).tobytes(), "little") ^ half) - half for col in columns
    ]
    bins = fft._dft_quarter_turns(signed, points)
    return [_bus_lanes(((x + half) ^ half).to_bytes(n, "little"), 8) for x in bins]


def _oracle(bins: Sequence[Sequence[int]], width: int, shift: int = 0) -> _Words:
    """The lane words of ``width``-bit buses holding 2**shift times the
    values whose 8-bit two's complement lane words are ``bins``, bus after
    bus: per bus, ``shift`` zero words, then its words with the sign word
    repeated, cut at ``width``."""
    return tuple(
        itertools.chain.from_iterable(
            ([0] * shift + [*words, *[words[-1]] * width])[:width] for words in bins
        )
    )


@functools.cache
def _fft_lanes() -> Mapping[str, tuple[int, _Words, _Words]]:
    """Per run of the FFT suite, (lane count, the lane words of the input
    buses, of the output buses of the oracle), built once per process from
    :func:`_fft_sections` and held read-only like them:

    - ``select=4``: the exact4 lanes, then the linearity lanes x (its first
      200 vectors), y (the last 200) and x + y, then the time-reversal
      lanes x and x(-n mod 4), against the 4-point DFT;
    - ``select=2``: the exact2 lanes, against the 2-point DFT of x0 and x1
      in X0 and X1, and 0 in X2 and X3;
    - ``butterfly2``: the x0 and x1 words of those lanes, against the same
      2-point DFT at the unit's output width;
    - ``q3``: the quantized lanes, against 2**3 times the 4-point DFT:
      Q1.F holds -j exactly, so the raw outputs are 2**F times the DFT.
    """
    sections = _fft_sections()
    linearity, reversal = sections["linearity"], sections["time_reversal"]
    m = len(linearity[0]) // 2
    # Sample order 0, 3, 2, 1: index -k mod 4.
    reversed_index = reversal[0:2] + reversal[6:8] + reversal[4:6] + reversal[2:4]
    select4 = [
        [*x, *lin, *(a + b for a, b in zip(lin[:m], lin[m:])), *rev, *back]
        for x, lin, rev, back in zip(sections["exact4"], linearity, reversal, reversed_index)
    ]
    exact2, quantized = sections["exact2"], sections["quantized"]
    width = fft._net_for(_EXACT4).output_width("X0_re")
    dft2 = _dft_lanes(exact2[:4], 2)
    inputs2 = _sample_lanes(exact2)
    runs = {
        "select=4": (select4, _sample_lanes(select4), _oracle(_dft_lanes(select4, 4), width)),
        "select=2": (exact2, inputs2, _oracle(dft2, width) + (0,) * (4 * width)),
        "butterfly2": (
            exact2,
            inputs2[:16],
            _oracle(dft2, _unit("butterfly2").output_width("X0_re")),
        ),
        "q3": (
            quantized,
            _sample_lanes(quantized),
            _oracle(
                _dft_lanes(quantized, 4),
                fft._net_for(_QUANT4).output_width("X0_re"),
                _QUANT4.fraction_bits,
            ),
        ),
    }
    return MappingProxyType(
        {name: (len(cols[0]), inputs, want) for name, (cols, inputs, want) in runs.items()}
    )


def _vector(words: Sequence[int], width: int, i: int) -> list[tuple[int, int]]:
    """Lane i of the ``width``-bit buses re, im, re, .. whose lane words,
    bus after bus, are ``words``, as two's complement (re, im) pairs."""
    values = [
        to_signed(_value(words[k : k + width], i), width) for k in range(0, len(words), width)
    ]
    return list(zip(values[::2], values[1::2]))


@functools.cache
def _fft_checks() -> tuple[_Check, ...]:
    """The FFT suite: each run of :func:`_fft_lanes` on its netlist, the
    datapaths with ``select`` tied as ``run_fft`` ties it. The run's name
    begins the detail of a failing lane."""
    runs = {
        "select=4": (_datapath, _EXACT4, fft._SELECT_KEYS[4]),
        "select=2": (_datapath, _EXACT2, fft._SELECT_KEYS[2]),
        "butterfly2": (_catalog, "butterfly2", ()),
        "q3": (_datapath, _QUANT4, fft._SELECT_KEYS[4]),
    }
    lanes = _fft_lanes()

    def check(run: str, sim: tuple[Callable[[Any], Netlist], Any, _Key]) -> _Check:
        n, words, want = lanes[run]
        width = 4 * len(want) // len(words)  # as many output buses as 4-bit inputs

        def describe(got: list[_Words], i: int) -> str:
            x, y, z = _vector(words, 4, i), _vector(got[0], width, i), _vector(want, width, i)
            return f"{run} x={x}: got {y}, want {z}"

        return _Check(n, words, want, (sim,), 0, describe)

    return tuple(check(run, sim) for run, sim in runs.items())


_VERIFIERS: dict[str, Callable[[], UnitResult]] = {
    "vedic2x2": lambda: _run_suite("vedic2x2", _unsigned_checks("vedic2x2", 2)),
    "vedic4x4": lambda: _run_suite("vedic4x4", _unsigned_checks("vedic4x4", 4)),
    "array4x4": lambda: _run_suite("array4x4", _unsigned_checks("array4x4", 4)),
    "adder": lambda: _run_suite("adder", _integer_checks("adder")),
    "subtractor": lambda: _run_suite("subtractor", _integer_checks("subtractor")),
    "signed4x4": lambda: _run_suite("signed4x4", _signed_checks()),
    "fft": lambda: _run_suite("fft", _fft_checks()),
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
