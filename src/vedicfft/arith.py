"""Arithmetic units built as netlists: Urdhva Tiryakbhyam (vertically and
crosswise) multipliers at 2x2 and 4x4 bits, a conventional array multiplier
baseline, ripple-carry adder/subtractor chains, and a sign-magnitude wrapper
that makes the unsigned 4x4 cores exact on every pair of 4-bit
two's-complement operands, -8 included.

Also provides ``urdhva_decimal``, the digit-serial form of the sutra in any
base: position i of the product collects every cross product a[j]*b[k] with
j+k == i, and the per-position sums split into a digit line and a carry line
whose weighted sum is the product.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

from .netlist import Netlist, NetlistBuilder, NetlistError, to_signed

_DIGIT_CHARS = "0123456789abcdefghijklmnopqrstuvwxyz"


def _as_digits(value: int | Sequence[int], base: int) -> tuple[int, ...]:
    if isinstance(value, int):
        if value < 0:
            raise ValueError(f"operand must be non-negative, got {value}")
        digits = []
        while True:
            value, d = divmod(value, base)
            digits.append(d)
            if value == 0:
                return tuple(digits)
    digits = tuple(int(d) for d in value)
    if not digits:
        raise ValueError("operand needs at least one digit")
    for d in digits:
        if not 0 <= d < base:
            raise ValueError(f"digit {d} out of range for base {base}")
    return digits


def digits_value(digits: Sequence[int], base: int) -> int:
    """Integer value of an LSB-first digit list."""
    value = 0
    for d in reversed(digits):
        value = value * base + d
    return value


def digits_string(digits: Sequence[int], base: int) -> str:
    """Render an LSB-first digit list most-significant digit first."""
    trimmed = list(digits)
    while len(trimmed) > 1 and trimmed[-1] == 0:
        trimmed.pop()
    if base <= len(_DIGIT_CHARS):
        return "".join(_DIGIT_CHARS[d] for d in reversed(trimmed))
    return ":".join(str(d) for d in reversed(trimmed))


@dataclass(frozen=True)
class UrdhvaTrace:
    """Intermediate lines of one vertically-and-crosswise multiplication.

    All digit lists are LSB first. ``raw_sums[i]`` is the un-split sum of
    cross products at position i; ``digit_line[i]`` and ``carry_line[i]``
    are its base-remainder and base-quotient. The carry line is weighted one
    position higher than the digit line:

        value(digit_line) + base * value(carry_line) == a * b == value(final)
    """

    base: int
    a: tuple[int, ...]
    b: tuple[int, ...]
    raw_sums: tuple[int, ...]
    digit_line: tuple[int, ...]
    carry_line: tuple[int, ...]
    final: tuple[int, ...]

    @property
    def product(self) -> int:
        return digits_value(self.final, self.base)

    def line_strings(self) -> tuple[str, str, str]:
        """(digit line, carry line, product) rendered MSD first."""
        return (
            digits_string(self.digit_line, self.base),
            digits_string(self.carry_line, self.base),
            digits_string(self.final, self.base),
        )


def urdhva_decimal(
    a: int | Sequence[int], b: int | Sequence[int], base: int = 10
) -> UrdhvaTrace:
    """Multiply digit-serially by the vertically-and-crosswise rule.

    Operands are non-negative integers or LSB-first digit lists in ``base``.
    The trace keeps the per-position cross-product sums and their split into
    digit and carry lines; ``final`` holds the digits of the product.
    """
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    da = _as_digits(a, base)
    db = _as_digits(b, base)
    raw = [0] * (len(da) + len(db) - 1)
    for j, aj in enumerate(da):
        for k, bk in enumerate(db):
            raw[j + k] += aj * bk
    digit_line = tuple(s % base for s in raw)
    carry_line = tuple(s // base for s in raw)
    total = digits_value(digit_line, base) + base * digits_value(carry_line, base)
    final = _as_digits(total, base)
    return UrdhvaTrace(base, da, db, tuple(raw), digit_line, carry_line, final)


def format_trace(trace: UrdhvaTrace) -> str:
    """Multi-line rendering of a trace: digit line, carry line (weighted one
    position left), and their sum, MSD first."""
    digit_s, carry_s, final_s = trace.line_strings()
    a_s = digits_string(trace.a, trace.base)
    b_s = digits_string(trace.b, trace.base)
    width = max(len(digit_s), len(carry_s) + 1, len(final_s))
    lines = [
        f"{a_s} x {b_s} (base {trace.base})",
        f"digit line: {digit_s:>{width}}",
        f"carry line: {carry_s:>{width - 1}}    (weight x{trace.base})",
        f"product:    {final_s:>{width}}",
    ]
    return "\n".join(lines)


# -- gate-level units ---------------------------------------------------------


def _full_adder(b: NetlistBuilder, x: int, y: int, c: int) -> tuple[int, int]:
    """One full adder: 2 XOR, 2 AND, 1 OR. Returns (sum, carry-out)."""
    axb = b.add_gate("XOR", [x, y])
    s = b.add_gate("XOR", [axb, c])
    carry = b.add_gate("OR", [b.add_gate("AND", [x, y]), b.add_gate("AND", [axb, c])])
    return s, carry


def ripple_add(
    b: NetlistBuilder, a_bits: Sequence[int], b_bits: Sequence[int], cin: int
) -> tuple[list[int], int]:
    """Ripple-carry chain inside an existing builder. LSB first."""
    if len(a_bits) != len(b_bits):
        raise NetlistError("addend widths differ")
    carry = cin
    sums = []
    for x, y in zip(a_bits, b_bits):
        s, carry = _full_adder(b, x, y, carry)
        sums.append(s)
    return sums, carry


def build_ripple_adder(width: int) -> Netlist:
    """Ripple-carry adder: buses a, b (width) and cin (1) -> sum (width),
    cout (1). Five gates per bit position."""
    if width < 1:
        raise NetlistError(f"width must be >= 1, got {width}")
    b = NetlistBuilder(f"adder{width}")
    a_bits = b.add_input("a", width)
    b_bits = b.add_input("b", width)
    cin = b.add_input("cin", 1)[0]
    sums, cout = ripple_add(b, a_bits, b_bits, cin)
    b.set_output("sum", sums)
    b.set_output("cout", [cout])
    return b.finalize()


def build_ripple_subtractor(width: int) -> Netlist:
    """Two's-complement subtractor: buses a, b (width) -> diff (width),
    borrow (1). Computes a + NOT(b) + 1; borrow is the inverted carry-out."""
    if width < 1:
        raise NetlistError(f"width must be >= 1, got {width}")
    b = NetlistBuilder(f"subtractor{width}")
    a_bits = b.add_input("a", width)
    b_bits = b.add_input("b", width)
    not_b = [b.add_gate("NOT", [n]) for n in b_bits]
    diff, cout = ripple_add(b, a_bits, not_b, b.const(1))
    b.set_output("diff", diff)
    b.set_output("borrow", [b.add_gate("NOT", [cout])])
    return b.finalize()


def _vedic2x2(b: NetlistBuilder, x: Sequence[int], y: Sequence[int]) -> list[int]:
    """Emit the 2x2 vertically-and-crosswise multiplier of ``x`` and ``y``;
    returns the 4 product nets."""
    a0, a1 = x
    b0, b1 = y
    p0 = b.add_gate("AND", [a0, b0])
    cross_hi = b.add_gate("AND", [a1, b0])
    cross_lo = b.add_gate("AND", [a0, b1])
    p1 = b.add_gate("XOR", [cross_hi, cross_lo])
    carry = b.add_gate("AND", [cross_hi, cross_lo])
    hh = b.add_gate("AND", [a1, b1])
    p2 = b.add_gate("XOR", [hh, carry])
    p3 = b.add_gate("AND", [hh, carry])
    return [p0, p1, p2, p3]


def build_vedic2x2() -> Netlist:
    """2x2 vertically-and-crosswise multiplier: a, b (2) -> p (4).

    p0 = a0.b0; the cross products a1.b0 and a0.b1 give p1 (XOR) and a
    carry c (AND); p2 = a1.b1 XOR c; p3 = a1.b1 AND c. 6 AND + 2 XOR.
    """
    b = NetlistBuilder("vedic2x2")
    b.set_output("p", _vedic2x2(b, b.add_input("a", 2), b.add_input("b", 2)))
    return b.finalize()


def _vedic4x4(b: NetlistBuilder, x: Sequence[int], y: Sequence[int]) -> list[int]:
    """Emit the 4x4 vedic multiplier of ``x`` and ``y``; returns the 8
    product nets."""
    aL, aH = x[:2], x[2:]
    bL, bH = y[:2], y[2:]
    p0 = _vedic2x2(b, aL, bL)
    p1 = _vedic2x2(b, aH, bL)
    p2 = _vedic2x2(b, aL, bH)
    p3 = _vedic2x2(b, aH, bH)
    zero = b.const(0)
    # mid = P1 + P2, at most 9 + 9 = 18: five bits.
    mid_sum, mid_cout = ripple_add(b, p1, p2, zero)
    mid = mid_sum + [mid_cout]
    # high = P0[2:4] + mid, at most 3 + 18 = 21: fits 6 bits, carry dead.
    high, _ = ripple_add(b, p0[2:] + [zero] * 4, mid + [zero], zero)
    # p[2:8] = high + (P3 << 2); total is at most 225 so the carry is dead.
    upper, _ = ripple_add(b, high, [zero, zero] + p3, zero)
    return p0[:2] + upper


def build_vedic4x4() -> Netlist:
    """4x4 multiplier fragmented into four 2x2 vedic blocks.

    With aH/aL and bH/bL the 2-bit halves: P0 = aL.bL, P1 = aH.bL,
    P2 = aL.bH, P3 = aH.bH, and p = P0 + ((P1 + P2) << 2) + (P3 << 4).
    The middle partials are summed first (4-bit adder), then two 6-bit
    ripple adders fold in P0's high half and the shifted P3.
    """
    b = NetlistBuilder("vedic4x4")
    b.set_output("p", _vedic4x4(b, b.add_input("a", 4), b.add_input("b", 4)))
    return b.finalize()


def _array4x4(b: NetlistBuilder, x: Sequence[int], y: Sequence[int]) -> list[int]:
    """Emit the 4x4 array multiplier of ``x`` and ``y``; returns the 8
    product nets."""
    rows = [[b.add_gate("AND", [xi, yj]) for xi in x] for yj in y]
    zero = b.const(0)
    product = [rows[0][0]]
    acc = rows[0][1:] + [zero]
    for row in rows[1:]:
        sums, cout = ripple_add(b, acc, row, zero)
        product.append(sums[0])
        acc = sums[1:] + [cout]
    return product + acc


def build_array4x4() -> Netlist:
    """Conventional 4x4 array multiplier baseline: a, b (4) -> p (8).

    16 AND partial products reduced row by row with three 4-bit
    ripple-carry adders (shift-and-add array).
    """
    b = NetlistBuilder("array4x4")
    b.set_output("p", _array4x4(b, b.add_input("a", 4), b.add_input("b", 4)))
    return b.finalize()


def _conditional_negate(
    b: NetlistBuilder, bits: Sequence[int], sign: int
) -> list[int]:
    """Two's-complement negate when sign=1: (bits XOR sign) + sign."""
    flipped = [b.add_gate("XOR", [n, sign]) for n in bits]
    zero = b.const(0)
    sums, _ = ripple_add(b, flipped, [zero] * len(flipped), sign)
    return sums


# The unsigned 4x4 cores a signed multiplier can wrap, by impl name.
_CORES = {"vedic": _vedic4x4, "array": _array4x4}


def check_impl(impl: str) -> None:
    """Reject a multiplier impl name that names no unsigned 4x4 core."""
    if impl not in _CORES:
        raise NetlistError(f"unknown multiplier impl {impl!r}")


def _signed_multiplier4(
    b: NetlistBuilder, impl: str, x: Sequence[int], y: Sequence[int]
) -> list[int]:
    """Emit the signed 4x4 multiplier of ``x`` and ``y`` around the
    ``impl`` core (checked by the caller); returns the 8 product nets."""
    mag_a = _conditional_negate(b, x, x[-1])
    mag_b = _conditional_negate(b, y, y[-1])
    product = _CORES[impl](b, mag_a, mag_b)
    sign = b.add_gate("XOR", [x[-1], y[-1]])
    return _conditional_negate(b, product, sign)


def build_signed_multiplier4(impl: str = "vedic") -> Netlist:
    """Signed 4x4 multiplier: a, b (4, two's complement) -> p (8).

    Sign-magnitude wrapper around an unsigned core (``vedic`` or ``array``):
    magnitudes via conditional negation, unsigned multiply, then
    conditional negation by sign(a) XOR sign(b). Every pair is exact: |-8|
    is 1000b, which the core holds, and 8 * 8 = 64 fits the 8-bit product.
    """
    check_impl(impl)
    b = NetlistBuilder(f"signed_{impl}4x4")
    b.set_output("p", _signed_multiplier4(b, impl, b.add_input("a", 4), b.add_input("b", 4)))
    return b.finalize()


@functools.lru_cache(maxsize=None)
def _signed_unit(impl: str) -> Netlist:
    return build_signed_multiplier4(impl)


def signed_multiply_4x4(a: int, b: int, impl: str = "vedic") -> int:
    """Multiply two 4-bit two's-complement ints through the gate-level
    signed multiplier; returns the exact product. A non-``int`` operand
    (``bool`` included) or one outside [-8, 7] raises ValueError."""
    net = _signed_unit(impl)
    for value in (a, b):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"operands must be integers, got {value!r}")
        if not -8 <= value <= 7:
            raise ValueError(f"{value} does not fit in 4 two's-complement bits")
    out = net.evaluate_batch({"a": [a & 15], "b": [b & 15]})
    return to_signed(out["p"][0], net.output_width("p"))
