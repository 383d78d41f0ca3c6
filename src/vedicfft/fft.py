"""Reconfigurable 2/4-point FFT datapath built from the arithmetic netlists,
plus an exact reference DFT oracle. The 2-point mode runs on the 4-point
core: the DFT of (x0, x1, 0, 0) holds that of (x0, x1) in its even bins.

Structure is radix-2 decimation in time: stage 1 runs butterflies on
(x0, x2) and (x1, x3), stage 2 recombines with the twiddle W4^1 = -j on the
odd branch. Callers pass samples in natural order; the bit-reversed pairing
is internal. Every add/subtract grows the word by one bit and nothing is
truncated, so exact mode equals the oracle bit for bit.

In quantized mode the odd branch goes through a complex multiplier whose
coefficient is -j in Q1.F, (0, -2^F), which Q1.F holds exactly. The
datapath then carries all values scaled by 2^F (the even branch is shifted
left by F wire positions) and the result metadata reports scale_log2 = -F;
no rounding happens inside the netlist, so the integer outputs are exactly
2^F times the DFT.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
import operator
import re
from dataclasses import dataclass
from typing import Sequence

from .arith import (
    _signed_multiplier4,
    build_array4x4,
    build_ripple_adder,
    build_ripple_subtractor,
    build_vedic2x2,
    build_vedic4x4,
    check_impl,
    ripple_add,
)
from .netlist import Netlist, NetlistBuilder, NetlistError

# Quarter-turn rotations: value of W4^r for r = 0..3.
_QUARTER_TURNS = ((1, 0), (0, -1), (-1, 0), (0, 1))


# -- reference oracle ---------------------------------------------------------


def dft_oracle(x: Sequence[complex], n: int | None = None) -> list[complex]:
    """Direct evaluation of X(k) = sum_n x(n) W_N^(nk), W_N = e^(-2pi j/N).

    For N in {1, 2, 4} every twiddle is one of 1, -j, -1, j, so the sum is
    computed by exact quarter-turn rotations
    (:func:`_dft_quarter_turns`): integer inputs give exact Gaussian-integer
    results (floats hold integers exactly below 2**53). Other lengths fall
    back to double precision; expect a few ulps of rounding, well below
    1e-9 for |x| <= 1e6 and N <= 4096.
    """
    xs = [complex(v) for v in x]
    if n is None:
        n = len(xs)
    if n < 1:
        raise ValueError("dft_oracle needs at least one sample")
    if len(xs) != n:
        raise ValueError(f"expected {n} samples, got {len(xs)}")
    if n in (1, 2, 4):
        out = _dft_quarter_turns([part for v in xs for part in (v.real, v.imag)], n)
        return [complex(re, im) for re, im in zip(out[::2], out[1::2])]
    return [
        sum(xs[m] * cmath.exp(-2j * math.pi * m * k / n) for m in range(n))
        for k in range(n)
    ]


# W4^r (re + j im) for r = 0..3, that is 1, -j, -1, j: for the real and
# then the imaginary part of the product, the part of the sample it is
# (0 re, 1 im) and the operator that adds it to a bin.
_ROTATION_TERMS = (
    ((0, operator.add), (1, operator.add)),
    ((1, operator.add), (0, operator.sub)),
    ((0, operator.sub), (1, operator.sub)),
    ((1, operator.sub), (0, operator.add)),
)


def _dft_quarter_turns(values: Sequence, n: int) -> list:
    """The DFT of N in {1, 2, 4} samples, one value per component.

    ``values`` holds the re and im parts of samples 0..n-1 (x0_re, x0_im,
    x1_re, ...); the result holds those of bins 0..n-1 the same way. Every
    twiddle is a quarter turn, so each output component starts at 0 and
    adds or subtracts one component of each sample, in sample order
    (``acc = op(acc, value)``): exact for ints, and for floats the same
    operations, in the same order, as rotating and summing complex values.
    A value may be anything that adds and subtracts like a number: the FFT
    suite of :mod:`vedicfft.verify` passes packed signed columns, the ints
    sum v_i * 2**(8 * i) with one 8-bit field per vector, on which ``+``
    and ``-`` act field by field while every field stays in [-128, 127],
    and turns the bins into lane words once per process.
    """
    step = 4 // n
    out = []
    for k in range(n):
        acc = [0, 0]
        for m in range(n):
            terms = _ROTATION_TERMS[(m * k * step) % 4]
            acc = [op(a, values[2 * m + part]) for a, (part, op) in zip(acc, terms)]
        out += acc
    return out


# -- domain types -------------------------------------------------------------


@dataclass(frozen=True, init=False)
class FixedComplex:
    """One complex sample as a pair of signed integers."""

    re: int
    im: int

    def __init__(self, re: int, im: int):
        # One frame per sample, where the generated ``__init__`` calls a
        # ``__post_init__`` to check; the fields go straight into
        # ``__dict__``, past the frozen ``__setattr__``.
        if type(re) is not int or type(im) is not int:
            for part in (re, im):
                if not _is_int(part):
                    raise ValueError(f"components must be integers, got {part!r}")
        fields = self.__dict__
        fields["re"] = re
        fields["im"] = im

    def check_range(self, width: int) -> "FixedComplex":
        lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
        for part in (self.re, self.im):
            if not lo <= part <= hi:
                raise ValueError(
                    f"component {part} outside [{lo}, {hi}] for width {width}"
                )
        return self

    def to_complex(self) -> complex:
        return complex(self.re, self.im)


def _is_int(value: object) -> bool:
    """An ``int`` that is not a ``bool``: what every count and component
    must be."""
    return isinstance(value, int) and not isinstance(value, bool)


def _quantize_component(value: float, fraction_bits: int) -> int:
    """Round-half-to-even to Q1.F, clamped to the representable range
    [-2^F, 2^F - 1] (so +1.0 clamps to (2^F - 1)/2^F)."""
    q = round(value * (1 << fraction_bits))
    return max(-(1 << fraction_bits), min((1 << fraction_bits) - 1, q))


@dataclass(frozen=True)
class Twiddle:
    """One DFT rotation coefficient W_N^k.

    ``exact`` mode stores the value precisely (it must be one of 1, -1, j,
    -j, the only twiddles for N in {1, 2, 4}). ``quantized`` mode stores a
    Q1.F signed fixed-point pair (re_q, im_q), meaning (re_q + j im_q)/2^F.
    """

    mode: str
    value: complex
    re_q: int | None = None
    im_q: int | None = None
    fraction_bits: int | None = None

    def __post_init__(self):
        if self.mode == "exact":
            if self.value not in (1, -1, 1j, -1j):
                raise ValueError(
                    f"exact twiddle must be one of 1, -1, j, -j, got {self.value}"
                )
        elif self.mode == "quantized":
            f = self.fraction_bits
            if not _is_int(f) or f < 1:
                raise ValueError("quantized twiddle needs fraction_bits >= 1")
            for q in (self.re_q, self.im_q):
                if not _is_int(q) or not -(1 << f) <= q <= (1 << f) - 1:
                    raise ValueError(f"coefficient {q!r} not a Q1.{f} integer")
        else:
            raise ValueError(f"twiddle mode must be exact or quantized, got {self.mode!r}")

    @classmethod
    def exact(cls, k: int, n: int) -> "Twiddle":
        if n not in (1, 2, 4):
            raise ValueError(f"exact twiddles exist only for N in {{1, 2, 4}}, got {n}")
        re, im = _QUARTER_TURNS[(k * (4 // n)) % 4]
        return cls("exact", complex(re, im))

    @classmethod
    def quantized(cls, k: int, n: int, fraction_bits: int) -> "Twiddle":
        if n < 1:
            raise ValueError(f"N must be >= 1, got {n}")
        if not _is_int(fraction_bits) or fraction_bits < 1:
            raise ValueError("quantized twiddle needs fraction_bits >= 1")
        if n in (1, 2, 4):
            re, im = _QUARTER_TURNS[(k * (4 // n)) % 4]
        else:
            angle = 2.0 * math.pi * k / n
            re, im = math.cos(angle), -math.sin(angle)
        return cls(
            "quantized",
            complex(re, im),
            _quantize_component(re, fraction_bits),
            _quantize_component(im, fraction_bits),
            fraction_bits,
        )

    @property
    def effective(self) -> complex:
        """The value the hardware actually applies (quantization included)."""
        if self.mode == "exact":
            return self.value
        scale = 1 << self.fraction_bits
        return complex(self.re_q / scale, self.im_q / scale)


# ASCII digits with no leading zero: the spelling of ``build_unit``'s sizes.
_TWIDDLE_SPEC_RE = re.compile(r"q(0|[1-9][0-9]*)")


def parse_twiddle_spec(spec: str) -> tuple[str, int | None]:
    """Parse a twiddle mode string: ``exact`` or ``q<F>`` (e.g. ``q3``)."""
    if spec == "exact":
        return "exact", None
    m = _TWIDDLE_SPEC_RE.fullmatch(spec)
    if m:
        try:
            f = int(m.group(1))
        except ValueError:  # more digits than int() converts
            raise ValueError(f"twiddle mode {spec!r} has too many digits") from None
        if f < 1:
            raise ValueError("fraction bits must be >= 1")
        return "quantized", f
    raise ValueError(f"twiddle mode must be 'exact' or 'q<F>', got {spec!r}")


@dataclass(frozen=True)
class FftConfig:
    """Run-time transform configuration: select line, twiddle mode, width."""

    select: int = 4
    twiddle_mode: str = "exact"
    fraction_bits: int | None = None
    input_width: int = 4

    def __post_init__(self):
        if not _is_int(self.select) or self.select not in (2, 4):
            raise ValueError(f"select must be 2 or 4, got {self.select!r}")
        if self.twiddle_mode not in ("exact", "quantized"):
            raise ValueError(
                f"twiddle_mode must be exact or quantized, got {self.twiddle_mode!r}"
            )
        if self.twiddle_mode == "quantized":
            if not _is_int(self.fraction_bits) or self.fraction_bits < 1:
                raise ValueError("quantized mode needs fraction_bits >= 1")
        elif self.fraction_bits is not None:
            raise ValueError("fraction_bits only applies to quantized mode")
        if not _is_int(self.input_width) or self.input_width < 2:
            raise ValueError(f"input_width must be >= 2, got {self.input_width!r}")

    @classmethod
    def make(cls, select: int = 4, twiddle: str = "exact", input_width: int = 4):
        mode, f = parse_twiddle_spec(twiddle)
        return cls(select, mode, f, input_width)

    @property
    def scale_log2(self) -> int:
        return -self.fraction_bits if self.twiddle_mode == "quantized" else 0


# -- structural helpers (signed, growing arithmetic) --------------------------


def _sext(bits: Sequence[int], width: int) -> list[int]:
    """Sign-extend a two's-complement bus by repeating its MSB net (wires)."""
    return list(bits) + [bits[-1]] * (width - len(bits))


def _add_signed(b: NetlistBuilder, xs: Sequence[int], ys: Sequence[int]) -> list[int]:
    """Two's-complement sum, one growth bit, never truncated."""
    w = max(len(xs), len(ys)) + 1
    sums, _ = ripple_add(b, _sext(xs, w), _sext(ys, w), b.const(0))
    return sums


def _sub_signed(b: NetlistBuilder, xs: Sequence[int], ys: Sequence[int]) -> list[int]:
    """Two's-complement difference xs - ys, one growth bit (a + NOT b + 1)."""
    w = max(len(xs), len(ys)) + 1
    inv = _sext([b.add_gate("NOT", [y]) for y in ys], w)
    sums, _ = ripple_add(b, _sext(xs, w), inv, b.const(1))
    return sums


def _neg_signed(b: NetlistBuilder, xs: Sequence[int]) -> list[int]:
    zero = b.const(0)
    return _sub_signed(b, [zero] * len(xs), xs)


def _shift_left(b: NetlistBuilder, bits: Sequence[int], count: int) -> list[int]:
    """Multiply by 2^count with wires: count constant-zero LSBs."""
    return [b.const(0)] * count + list(bits)


# -- builders -----------------------------------------------------------------

# A complex bus: the nets of its real part and of its imaginary part.
_Complex = tuple[Sequence[int], Sequence[int]]


def build_butterfly2(width: int) -> Netlist:
    """2-point butterfly: X0 = x0 + x1, X1 = x0 - x1 on complex inputs.

    Buses x0_re, x0_im, x1_re, x1_im (width) -> X0_re .. X1_im (width + 1).
    """
    if width < 2:
        raise NetlistError(f"width must be >= 2, got {width}")
    b = NetlistBuilder("butterfly2")
    x0 = (b.add_input("x0_re", width), b.add_input("x0_im", width))
    x1 = (b.add_input("x1_re", width), b.add_input("x1_im", width))
    b.set_output("X0_re", _add_signed(b, x0[0], x1[0]))
    b.set_output("X0_im", _add_signed(b, x0[1], x1[1]))
    b.set_output("X1_re", _sub_signed(b, x0[0], x1[0]))
    b.set_output("X1_im", _sub_signed(b, x0[1], x1[1]))
    return b.finalize()


def _check_fits_core(fraction_bits: int) -> None:
    """A Q1.F coefficient enters the signed 4x4 core, which holds Q1.3 at most."""
    if fraction_bits > 3:
        try:
            f = str(fraction_bits)
        except ValueError:  # more digits than Python converts to a string
            f = "F"
        raise NetlistError(f"Q1.{f} coefficient does not fit the 4-bit core")


def _check_core_width(width: int) -> None:
    """A sample enters the complex multiplier, which is pinned to 4 bits."""
    if width != 4:
        raise NetlistError(
            f"complex multiplier is pinned to the 4x4 core, got width {width}"
        )


def _cmul(
    b: NetlistBuilder, twiddle: Twiddle, multiplier: str, x: _Complex
) -> tuple[list[int], list[int]]:
    """Emit the product of ``x`` and the fixed ``twiddle``; returns the
    p_re and p_im nets (see :func:`complex_multiply_unit`)."""
    xr, xi = x
    if twiddle.mode == "exact":
        w = len(xr) + 1
        if twiddle.value == 1:
            pr, pi = _sext(xr, w), _sext(xi, w)
        elif twiddle.value == -1:
            pr, pi = _neg_signed(b, xr), _neg_signed(b, xi)
        elif twiddle.value == -1j:
            pr, pi = _sext(xi, w), _neg_signed(b, xr)
        else:  # j
            pr, pi = _neg_signed(b, xi), _sext(xr, w)
        return pr, pi

    def const_bus(value: int) -> list[int]:
        return [b.const((value >> k) & 1) for k in range(4)]

    c_re, c_im = const_bus(twiddle.re_q), const_bus(twiddle.im_q)
    ac = _signed_multiplier4(b, multiplier, xr, c_re)
    bd = _signed_multiplier4(b, multiplier, xi, c_im)
    ad = _signed_multiplier4(b, multiplier, xr, c_im)
    bc = _signed_multiplier4(b, multiplier, xi, c_re)
    return _sub_signed(b, ac, bd), _add_signed(b, ad, bc)


def complex_multiply_unit(
    width: int, twiddle: Twiddle, multiplier: str = "vedic"
) -> Netlist:
    """Multiply one complex sample by a fixed twiddle coefficient.

    Quantized twiddles use the full product form (a+jb)(c+jd) =
    (ac - bd) + j(ad + bc): four signed 4x4 multiplier instances with the
    coefficient bits tied to constant nets, one subtractor, one adder.
    Outputs p_re, p_im carry the raw integer product x * (re_q + j im_q)
    exactly: the product with ``Twiddle.effective``, scaled by 2^F. Exact
    twiddles (1, -1, j, -j) need no multiplier and compile to wire swaps
    and structural negation; outputs grow by one bit.

    The unsigned core inside the signed multipliers is selected by
    ``multiplier``: ``vedic`` or ``array``; any other name is rejected in
    either mode.
    """
    _check_core_width(width)
    if twiddle.mode == "exact":
        name = "cmul_exact"
    else:
        _check_fits_core(twiddle.fraction_bits)
        if twiddle.re_q == 0 and twiddle.im_q == 0:
            raise NetlistError("quantized twiddle rounds to zero, product would vanish")
        name = f"cmul_{multiplier}_q{twiddle.fraction_bits}"
    check_impl(multiplier)
    b = NetlistBuilder(name)
    x = (b.add_input("x_re", width), b.add_input("x_im", width))
    p_re, p_im = _cmul(b, twiddle, multiplier, x)
    b.set_output("p_re", p_re)
    b.set_output("p_im", p_im)
    return b.finalize()


def _check_config(config: FftConfig) -> None:
    """Reject a config that is not an :class:`FftConfig` before it is read."""
    if not isinstance(config, FftConfig):
        raise NetlistError(f"expected FftConfig, got {type(config).__name__}")


def _check_datapath(config: FftConfig, multiplier: str) -> None:
    """The rejections of :func:`build_fft4`, in order, before any gate."""
    _check_config(config)
    if config.twiddle_mode == "quantized":
        # Before the twiddle is quantized: that allocates an int of F bits.
        _check_fits_core(config.fraction_bits)
        _check_core_width(config.input_width)
    check_impl(multiplier)


def _fft4(
    b: NetlistBuilder, config: FftConfig, multiplier: str, x: Sequence[_Complex]
) -> dict[str, list[int]]:
    """Emit the 4-point DFT of ``x``; returns the output buses by name, all
    of one width (see :func:`build_fft4`)."""
    f = config.fraction_bits
    # Stage 1: butterflies on the bit-reversed pairs (x0, x2) and (x1, x3).
    a0r = _add_signed(b, x[0][0], x[2][0])
    a0i = _add_signed(b, x[0][1], x[2][1])
    a1r = _sub_signed(b, x[0][0], x[2][0])
    a1i = _sub_signed(b, x[0][1], x[2][1])
    b0r = _add_signed(b, x[1][0], x[3][0])
    b0i = _add_signed(b, x[1][1], x[3][1])

    if config.twiddle_mode == "exact":
        b1r = _sub_signed(b, x[1][0], x[3][0])
        b1i = _sub_signed(b, x[1][1], x[3][1])
        # Stage 2; -j(re, im) = (im, -re), negation folded into add/sub.
        outs = {
            "X0_re": _add_signed(b, a0r, b0r),
            "X0_im": _add_signed(b, a0i, b0i),
            "X1_re": _add_signed(b, a1r, b1i),
            "X1_im": _sub_signed(b, a1i, b1r),
            "X2_re": _sub_signed(b, a0r, b0r),
            "X2_im": _sub_signed(b, a0i, b0i),
            "X3_re": _sub_signed(b, a1r, b1i),
            "X3_im": _add_signed(b, a1i, b1r),
        }
    else:
        # Odd branch through the quantized multiplier. The unit is pinned to
        # 4-bit inputs, so rotate x1 and x3 separately before the butterfly
        # (c(x1 - x3) = c x1 - c x3) instead of rotating the 5-bit difference.
        twiddle = Twiddle.quantized(1, 4, f)
        rot1_re, rot1_im = _cmul(b, twiddle, multiplier, x[1])
        rot3_re, rot3_im = _cmul(b, twiddle, multiplier, x[3])
        rr = _sub_signed(b, rot1_re, rot3_re)
        ri = _sub_signed(b, rot1_im, rot3_im)
        # Even branch carries no coefficient: scale by 2^F with wires.
        a1rs = _shift_left(b, a1r, f)
        a1is = _shift_left(b, a1i, f)
        outs = {
            "X0_re": _shift_left(b, _add_signed(b, a0r, b0r), f),
            "X0_im": _shift_left(b, _add_signed(b, a0i, b0i), f),
            "X1_re": _add_signed(b, a1rs, rr),
            "X1_im": _add_signed(b, a1is, ri),
            "X2_re": _shift_left(b, _sub_signed(b, a0r, b0r), f),
            "X2_im": _shift_left(b, _sub_signed(b, a0i, b0i), f),
            "X3_re": _sub_signed(b, a1rs, rr),
            "X3_im": _sub_signed(b, a1is, ri),
        }
    out_w = max(len(bits) for bits in outs.values())
    return {bus: _sext(bits, out_w) for bus, bits in outs.items()}


def _add_samples(b: NetlistBuilder, width: int) -> list[tuple[list[int], list[int]]]:
    """The input buses x0_re, x0_im .. x3_im, as four complex samples."""
    return [
        (b.add_input(f"x{i}_re", width), b.add_input(f"x{i}_im", width))
        for i in range(4)
    ]


def _datapath_name(base: str, config: FftConfig, multiplier: str) -> str:
    """``base``, then ``_q<F>`` in quantized mode, then ``_<multiplier>``
    for any core but vedic: the vedic build carries its catalog name, and
    no other build shares it."""
    if config.twiddle_mode == "quantized":
        base += f"_q{config.fraction_bits}"
    return base if multiplier == "vedic" else f"{base}_{multiplier}"


def build_fft4(config: FftConfig, multiplier: str = "vedic") -> Netlist:
    """4-point DFT netlist, decimation in time, for the twiddle mode and
    input width of ``config`` (its select line plays no part).

    Buses x0_re .. x3_im (width) -> X0_re .. X3_im. Exact mode applies
    W4^1 = -j as a wire swap plus structural negation folded into the
    stage-2 adders/subtractors; outputs are width + 2 bits and equal the
    DFT exactly. Quantized mode (Q1.F, F = ``config.fraction_bits``) sends
    x1 and x3 through complex multiplier units built on the ``multiplier``
    core and carries everything scaled by 2^F; outputs share one uniform
    width. An unknown ``multiplier`` is rejected in either mode.
    """
    _check_datapath(config, multiplier)
    b = NetlistBuilder(_datapath_name("fft4", config, multiplier))
    outs = _fft4(b, config, multiplier, _add_samples(b, config.input_width))
    for bus, bits in outs.items():
        b.set_output(bus, bits)
    return b.finalize()


def build_reconfigurable_fft(config: FftConfig, multiplier: str = "vedic") -> Netlist:
    """Both transforms on one 4-point core behind a 1-bit ``select`` input.

    select=1: the 4-point transform of x0..x3. select=0: every bit of x2
    and x3 is ANDed with ``select`` (operand isolation), so the core
    transforms (x0, x1, 0, 0): X0 is the core's X0, X1 a gate-level mux
    (AND/OR/NOT) of the core's X2 and X1, and X2 and X3 are forced to
    zero. Both modes share the core's output width and 2^-F scale. The
    rejections are :func:`build_fft4`'s.
    """
    _check_datapath(config, multiplier)
    b = NetlistBuilder(_datapath_name("reconfigurable", config, multiplier))
    select = b.add_input("select", 1)[0]

    def gated(bits: Sequence[int]) -> list[int]:
        return [b.add_gate("AND", [n, select]) for n in bits]

    x = _add_samples(b, config.input_width)
    core = _fft4(b, config, multiplier, x[:2] + [(gated(re), gated(im)) for re, im in x[2:]])
    not_sel = b.add_gate("NOT", [select])
    b.set_output("X0_re", core["X0_re"])
    b.set_output("X0_im", core["X0_im"])
    for part in ("re", "im"):
        lows = [b.add_gate("AND", [n, not_sel]) for n in core[f"X2_{part}"]]
        highs = gated(core[f"X1_{part}"])
        b.set_output(f"X1_{part}", [b.add_gate("OR", pair) for pair in zip(lows, highs)])
    for bus in ("X2_re", "X2_im", "X3_re", "X3_im"):
        b.set_output(bus, gated(core[bus]))
    return b.finalize()


# -- behavioral front door ----------------------------------------------------


@dataclass(frozen=True, init=False)
class FftResult:
    """Decoded spectrum plus the metadata needed to interpret it.

    ``spectrum`` holds raw integer outputs; the represented values are
    spectrum * 2^scale_log2 (scale_log2 is 0 in exact mode, -F quantized).
    The fields are not checked: :func:`run_fft` and :func:`run_fft_batch`
    build them from the netlist's outputs.
    """

    spectrum: tuple[FixedComplex, ...]
    output_width: int
    scale_log2: int
    select: int

    def __init__(
        self,
        spectrum: tuple[FixedComplex, ...],
        output_width: int,
        scale_log2: int,
        select: int,
    ):
        # One frame per result, as in ``FixedComplex``: the fields go
        # straight into ``__dict__``, past the frozen ``__setattr__``.
        fields = self.__dict__
        fields["spectrum"] = spectrum
        fields["output_width"] = output_width
        fields["scale_log2"] = scale_log2
        fields["select"] = select

    @property
    def values(self) -> list[complex]:
        scale = 2.0 ** self.scale_log2
        return [c.to_complex() * scale for c in self.spectrum]

    def to_document(self) -> dict:
        return {
            "spectrum": [[c.re, c.im] for c in self.spectrum],
            "output_width": self.output_width,
            "scale_log2": self.scale_log2,
            "select": self.select,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_document()) + "\n"


@functools.lru_cache(maxsize=None)
def _datapath(
    input_width: int, twiddle_mode: str, fraction_bits: int | None
) -> tuple[Netlist, int, int, int]:
    """The reconfigurable netlist of a configuration and what decoding its
    outputs reads: (netlist, output width, the weight 2**(width - 1) of
    its sign bit, scale_log2). Built on first use and held for the
    process; both select values run on the one netlist, and a build that
    raises caches nothing."""
    config = FftConfig(4, twiddle_mode, fraction_bits, input_width)
    net = build_reconfigurable_fft(config)
    width = net.output_width("X0_re")
    return net, width, 1 << (width - 1), config.scale_log2


def _reconfigurable_cached(
    input_width: int, twiddle_mode: str, fraction_bits: int | None
) -> Netlist:
    return _datapath(input_width, twiddle_mode, fraction_bits)[0]


# One cache holds each netlist and its decode state, so clearing the
# netlists clears the state with them.
_reconfigurable_cached.cache_clear = _datapath.cache_clear


def _coerce_samples(
    config: FftConfig, samples: Sequence[FixedComplex | Sequence[int]]
) -> tuple[list[int], bool]:
    """The 8 components x0_re, x0_im .. x3_im that ``run_fft`` feeds the
    netlist (2 samples are zero-filled with select=2), read in one pass,
    and whether every component fits the input width.

    Each sample is checked in turn: its kind, its length, its components.
    A sample is a :class:`FixedComplex` or a sequence of two components;
    anything else, a dict or a set among them, is rejected, and so is a
    sequence of any other length. A component that is not exactly an
    ``int`` goes to :class:`FixedComplex`, which raises its message unless
    it is an ``int`` subclass other than ``bool``. The sample count is
    checked last. The range is only noted: :func:`run_fft` and
    :func:`run_fft_batch` both call this, and each raises for the first
    component outside the width (:func:`_check_ranges`) only once every
    sample it reads has passed these checks.
    """
    hi = (1 << (config.input_width - 1)) - 1
    lo = -hi - 1
    fits = True
    row: list[int] = []
    for s in samples:
        if type(s) is not tuple and type(s) is not list:
            if isinstance(s, FixedComplex):
                s = (s.re, s.im)
            elif not isinstance(s, Sequence):
                raise ValueError(f"sample must be a (re, im) pair, got {s!r}")
        try:
            re, im = s
        except ValueError:
            raise ValueError(f"sample must be a (re, im) pair, got {s!r}") from None
        if type(re) is not int or type(im) is not int:
            FixedComplex(re, im)
        if not (lo <= re <= hi and lo <= im <= hi):
            fits = False
        row += s
    n = len(row)
    if n != 8:
        if n != 4 or config.select != 2:
            raise ValueError(f"expected 4 samples (or 2 with select=2), got {n // 2}")
        row += (0, 0, 0, 0)
    return row, fits


def _check_ranges(rows: Sequence[Sequence[int]], width: int) -> None:
    """Raise the ValueError of :meth:`FixedComplex.check_range` for the
    first component of ``rows`` outside ``width`` bits, in vector order."""
    for row in rows:
        for re, im in zip(row[::2], row[1::2]):
            FixedComplex(re, im).check_range(width)


def _net_for(config: FftConfig) -> Netlist:
    return _reconfigurable_cached(
        config.input_width, config.twiddle_mode, config.fraction_bits
    )


_SAMPLE_BUSES = tuple(f"x{k}_{part}" for k in range(4) for part in ("re", "im"))
_BIN_BUSES = tuple(f"X{k}_{part}" for k in range(4) for part in ("re", "im"))


# The program key of each select value: the select bus tied, as
# ``Netlist.evaluate_batch`` keys a scalar ``select`` column. The untied
# buses are then x0_re .. x3_im in input order, the order of a sample row.
_SELECT_KEYS = {4: (("select", 1),), 2: (("select", 0),)}


def run_fft(
    config: FftConfig, samples: Sequence[FixedComplex | Sequence[int]]
) -> FftResult:
    """Run one sample list through the reconfigurable netlist.

    Expects 4 samples; with select=2, two samples are also accepted (the
    unused upper slots are zero-filled). Components must be ints, as
    :class:`FixedComplex` requires, and fit the configured input width.
    The checks, their messages and their order are those of a one-lane
    :func:`run_fft_batch`, and so is the result. Every sample check comes
    before the netlist is looked up, so a configuration whose build
    raises still rejects bad samples first; the netlist and its decode
    state are resolved once per configuration (:func:`_datapath`). The
    netlist's one-lane path (``Netlist._evaluate_one``) takes the
    components as they are, negative ones included, reads only their
    two's-complement bits, and returns the 8 output values with no
    columns built.
    """
    _check_config(config)
    row, fits = _coerce_samples(config, samples)
    if not fits:
        _check_ranges([row], config.input_width)
    net, out_width, h, scale_log2 = _datapath(
        config.input_width, config.twiddle_mode, config.fraction_bits
    )
    select = config.select
    x0r, x0i, x1r, x1i, x2r, x2i, x3r, x3i = net._evaluate_one(_SELECT_KEYS[select], row)
    # Two's complement, as in :func:`run_fft_batch`.
    return FftResult(
        (
            FixedComplex((x0r ^ h) - h, (x0i ^ h) - h),
            FixedComplex((x1r ^ h) - h, (x1i ^ h) - h),
            FixedComplex((x2r ^ h) - h, (x2i ^ h) - h),
            FixedComplex((x3r ^ h) - h, (x3i ^ h) - h),
        ),
        out_width,
        scale_log2,
        select,
    )


def run_fft_batch(
    config: FftConfig, sample_lists: Sequence[Sequence[FixedComplex | Sequence[int]]]
) -> list[FftResult]:
    """Evaluate the reconfigurable netlist on every sample list in one gate
    pass and decode the outputs.

    ``config`` must be an :class:`FftConfig`, checked before any sample is
    read. Each list is checked as :func:`run_fft` documents: every list's
    samples and count first, in order, then the range of every component
    in vector order, which raises the ValueError of
    :meth:`FixedComplex.check_range` for the first one outside the input
    width. Element i of the result is the spectrum of ``sample_lists[i]``.
    ``select`` is passed to ``Netlist.evaluate_batch`` as a scalar, so
    only the selected mode's gates are simulated: the netlist caches one
    program per select value, and :func:`run_fft` runs the same programs.
    Every list count, one included, takes this column path;
    :func:`run_fft` is the one-lane path.
    """
    _check_config(config)
    coerced = [_coerce_samples(config, samples) for samples in sample_lists]
    if not coerced:
        return []
    rows, fits = zip(*coerced)
    width = config.input_width
    if not all(fits):
        _check_ranges(rows, width)
    net, out_width, h, scale_log2 = _datapath(
        width, config.twiddle_mode, config.fraction_bits
    )
    mask = (1 << width) - 1
    inputs: dict[str, int | list[int]] = {"select": int(config.select == 4)}
    for bus, col in zip(_SAMPLE_BUSES, zip(*rows)):
        inputs[bus] = [v & mask for v in col]
    outs = net.evaluate_batch(inputs)
    # Two's complement by column: flipping the sign bit and subtracting
    # its weight maps [0, 2**w) onto [-h, h).
    out = [[(v ^ h) - h for v in outs[bus]] for bus in _BIN_BUSES]
    bins = [map(FixedComplex, out[2 * k], out[2 * k + 1]) for k in range(4)]
    return [
        FftResult(spectrum, out_width, scale_log2, config.select)
        for spectrum in zip(*bins)
    ]


# -- sample/spectrum documents ------------------------------------------------


def parse_samples_document(text: str) -> tuple[list[FixedComplex], int]:
    """Parse the sample JSON document {"samples": [[re, im], ...], "width": W}."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed sample document: {exc}") from exc
    if not isinstance(doc, dict) or "samples" not in doc:
        raise ValueError("sample document must be an object with a 'samples' list")
    width = doc.get("width", 4)
    if not isinstance(width, int) or width < 2:
        raise ValueError(f"bad sample width {width!r}")
    raw = doc["samples"]
    if not isinstance(raw, list):
        raise ValueError("'samples' must be a list of [re, im] pairs")
    samples = []
    for item in raw:
        if not isinstance(item, list) or len(item) != 2:
            raise ValueError(f"sample {item!r} is not an [re, im] pair")
        re_part, im_part = item
        if not isinstance(re_part, int) or not isinstance(im_part, int):
            raise ValueError(f"sample {item!r} must hold integers")
        samples.append(FixedComplex(re_part, im_part))
    return samples, width


def parse_inline_samples(text: str) -> list[FixedComplex]:
    """Parse the CLI inline syntax ``re,im;re,im;...``."""
    samples = []
    for chunk in text.split(";"):
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ValueError(f"sample {chunk!r} is not 're,im'")
        try:
            samples.append(FixedComplex(int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise ValueError(f"sample {chunk!r}: {exc}") from exc
    return samples


# -- canonical unit catalog ---------------------------------------------------

_FIXED_UNITS = {
    "vedic2x2": build_vedic2x2,
    "vedic4x4": build_vedic4x4,
    "array4x4": build_array4x4,
    "butterfly2": lambda: build_butterfly2(4),
    "fft4": lambda: build_fft4(FftConfig()),
    "reconfigurable": lambda: build_reconfigurable_fft(FftConfig()),
}

# The sized families adder<W>, subtractor<W>, fft4_q<F> and
# reconfigurable_q<F>, with no leading zeros so that every name round-trips.
_UNIT_FAMILY_RE = re.compile(r"(?:(adder|subtractor)|(fft4|reconfigurable)_q)([1-9][0-9]*)")


def unit_names() -> list[str]:
    """Canonical exportable unit names, in catalog order."""
    return [
        "vedic2x2",
        "vedic4x4",
        "array4x4",
        "adder4",
        "subtractor4",
        "butterfly2",
        "fft4",
        "fft4_q3",
        "reconfigurable",
        "reconfigurable_q3",
    ]


def build_unit(name: str) -> Netlist:
    """Build a unit by name: one of :func:`unit_names`, or ``adder<W>``,
    ``subtractor<W>``, ``fft4_q<F>``, ``reconfigurable_q<F>``. The result
    is named ``name``; a size its builder rejects raises that builder's
    error."""
    if name in _FIXED_UNITS:
        return _FIXED_UNITS[name]()
    m = _UNIT_FAMILY_RE.fullmatch(name)
    if m is None:
        known = ", ".join(unit_names())
        raise NetlistError(f"unknown unit {name!r}; known units: {known}")
    chain, datapath, digits = m.groups()
    try:
        size = int(digits)
    except ValueError:  # more digits than int() converts
        raise NetlistError(f"unit {name!r} has too many digits in its size") from None
    if chain == "adder":
        return build_ripple_adder(size)
    if chain == "subtractor":
        return build_ripple_subtractor(size)
    config = FftConfig(4, "quantized", size)
    if datapath == "fft4":
        return build_fft4(config)
    return build_reconfigurable_fft(config)
