import random

import pytest

from vedicfft import (
    NetlistError,
    build_ripple_adder,
    build_ripple_subtractor,
    build_signed_multiplier4,
    digits_value,
    format_trace,
    signed_multiply_4x4,
    urdhva_decimal,
)
from vedicfft.fft import build_unit


def _operand_pairs(width):
    """Every (a, b) pair of ``width``-bit unsigned operands, and their columns."""
    pairs = [(a, b) for a in range(1 << width) for b in range(1 << width)]
    return pairs, {"a": [a for a, _ in pairs], "b": [b for _, b in pairs]}


class TestUrdhvaDecimal:
    def test_worked_decimal_example(self):
        trace = urdhva_decimal(234, 316)
        assert trace.line_strings() == ("61724", "1222", "73944")
        assert trace.product == 73944

    def test_worked_example_internals(self):
        trace = urdhva_decimal(234, 316)
        # Cross-product sums per position, LSB first.
        assert trace.raw_sums == (24, 22, 27, 11, 6)
        assert trace.digit_line == tuple(s % 10 for s in trace.raw_sums)
        assert trace.carry_line == tuple(s // 10 for s in trace.raw_sums)

    def test_line_recombination_invariant(self):
        rng = random.Random(3)
        for base in (2, 10, 16):
            for _ in range(200):
                a = rng.randrange(1, 10**6)
                b = rng.randrange(1, 10**6)
                t = urdhva_decimal(a, b, base)
                assert (
                    digits_value(t.digit_line, base)
                    + base * digits_value(t.carry_line, base)
                    == a * b
                )
                assert t.product == a * b

    def test_identity(self):
        t = urdhva_decimal(1, 987654)
        assert t.product == 987654

    def test_large_square(self):
        assert urdhva_decimal(999, 999).product == 998001

    def test_digit_lists_accepted_lsb_first(self):
        # 234 as digits [4, 3, 2], 316 as [6, 1, 3].
        t = urdhva_decimal([4, 3, 2], [6, 1, 3])
        assert t.product == 73944

    def test_zero_operand(self):
        t = urdhva_decimal(0, 55)
        assert t.product == 0
        assert t.line_strings()[2] == "0"

    def test_bad_digits_rejected(self):
        with pytest.raises(ValueError):
            urdhva_decimal([7], [3], base=5)
        with pytest.raises(ValueError):
            urdhva_decimal([], [1])
        with pytest.raises(ValueError):
            urdhva_decimal(3, 4, base=1)
        with pytest.raises(ValueError):
            urdhva_decimal(-3, 4)

    def test_format_trace_contains_all_lines(self):
        text = format_trace(urdhva_decimal(234, 316))
        assert "61724" in text
        assert "1222" in text
        assert "73944" in text


class TestVedic2x2:
    def test_exhaustive(self, vedic2x2):
        pairs, columns = _operand_pairs(2)
        assert vedic2x2.evaluate_batch(columns)["p"] == [a * b for a, b in pairs]

    def test_gate_census(self, vedic2x2):
        counts = vedic2x2.gate_counts()
        assert counts.by_kind == {"AND": 6, "XOR": 2}
        assert counts.total == 8

    def test_depth(self, vedic2x2):
        assert vedic2x2.critical_path_depth() == 3


class TestMultipliers4x4:
    @pytest.mark.parametrize("fixture", ["vedic4x4", "array4x4"])
    def test_exhaustive(self, fixture, request):
        net = request.getfixturevalue(fixture)
        pairs, columns = _operand_pairs(4)
        for (a, b), got in zip(pairs, net.evaluate_batch(columns)["p"]):
            assert got == a * b, f"{a}*{b}"

    def test_truth_tables_identical(self, vedic4x4, array4x4):
        _, columns = _operand_pairs(4)
        assert vedic4x4.evaluate_batch(columns) == array4x4.evaluate_batch(columns)

    def test_composition_integrity(self, vedic2x2, vedic4x4):
        # Four 2x2 blocks plus one 4-bit and two 6-bit ripple adders,
        # 5 gates per adder bit: nothing lost or duplicated.
        combining = 5 * 4 + 5 * 6 + 5 * 6
        assert vedic4x4.gate_counts().total == 4 * vedic2x2.gate_counts().total + combining

    def test_digit_serial_base2_matches_netlist(self, vedic4x4):
        pairs, columns = _operand_pairs(4)
        for (a, b), p in zip(pairs, vedic4x4.evaluate_batch(columns)["p"]):
            trace = urdhva_decimal(a, b, base=2)
            padded = trace.final + (0,) * (8 - len(trace.final))
            assert padded == tuple((p >> k) & 1 for k in range(8))


class TestAdder:
    def test_exhaustive_width4(self):
        net = build_ripple_adder(4)
        pairs, columns = _operand_pairs(4)
        for cin in (0, 1):
            out = net.evaluate_batch({**columns, "cin": [cin] * len(pairs)})
            for i, (a, b) in enumerate(pairs):
                total = a + b + cin
                assert out["sum"][i] == total % 16
                assert out["cout"][i] == total // 16

    @pytest.mark.parametrize("width", [8, 16])
    def test_random_wide(self, width):
        net = build_ripple_adder(width)
        rng = random.Random(width)
        mask = (1 << width) - 1
        for _ in range(1000):
            a, b = rng.randrange(mask + 1), rng.randrange(mask + 1)
            cin = rng.randrange(2)
            out = net.evaluate_batch({"a": [a], "b": [b], "cin": [cin]})
            total = a + b + cin
            assert out["sum"] == [total & mask]
            assert out["cout"] == [total >> width]

    def test_gate_budget(self):
        assert build_ripple_adder(4).gate_counts().total == 20

    def test_invalid_width(self):
        with pytest.raises(NetlistError):
            build_ripple_adder(0)


class TestSubtractor:
    def test_exhaustive_width4(self):
        net = build_ripple_subtractor(4)
        pairs, columns = _operand_pairs(4)
        out = net.evaluate_batch(columns)
        for i, (a, b) in enumerate(pairs):
            assert out["diff"][i] == (a - b) % 16
            assert out["borrow"][i] == int(a < b)

    def test_wraparound_example(self):
        net = build_ripple_subtractor(4)
        out = net.evaluate_batch({"a": [2], "b": [5]})
        assert out["diff"] == [13]  # two's-complement -3
        assert out["borrow"] == [1]

    @pytest.mark.parametrize("width", [8, 16])
    def test_random_wide(self, width):
        net = build_ripple_subtractor(width)
        rng = random.Random(100 + width)
        mask = (1 << width) - 1
        for _ in range(1000):
            a, b = rng.randrange(mask + 1), rng.randrange(mask + 1)
            out = net.evaluate_batch({"a": [a], "b": [b]})
            assert out["diff"] == [(a - b) & mask]
            assert out["borrow"] == [int(a < b)]

    def test_invalid_width(self):
        with pytest.raises(NetlistError):
            build_ripple_subtractor(0)


class TestSignedMultiply:
    @pytest.mark.parametrize("impl", ["vedic", "array"])
    def test_exhaustive_without_saturation(self, impl):
        # Every pair of 4-bit operands gives the exact product: magnitude
        # 8 = 1000b of a -8 fits the unsigned core, and 64 the 8-bit product.
        for a in range(-8, 8):
            for b in range(-8, 8):
                assert signed_multiply_4x4(a, b, impl) == a * b

    def test_sign_grid(self):
        assert signed_multiply_4x4(-3, 5) == -15
        assert signed_multiply_4x4(3, -5) == -15
        assert signed_multiply_4x4(-3, -5) == 15

    @pytest.mark.parametrize("a,b", [(1.5, 2), (2, 2.0), (True, 3)])
    def test_non_int_operand_rejected(self, a, b):
        bad = a if type(a) is not int else b
        with pytest.raises(ValueError, match=rf"^operands must be integers, got {bad!r}$"):
            signed_multiply_4x4(a, b)

    @pytest.mark.parametrize("a", [8, -9])
    def test_operand_outside_4_bits_rejected(self, a):
        with pytest.raises(ValueError, match=f"{a} does not fit in 4 two's-complement bits"):
            signed_multiply_4x4(a, 0)

    def test_netlist_has_no_sat_bus(self):
        net = build_signed_multiplier4("vedic")
        assert set(net.outputs) == {"p"}
        assert net.input_width("a") == 4
        assert net.output_width("p") == 8

    def test_unknown_impl_rejected(self):
        with pytest.raises(NetlistError):
            build_signed_multiplier4("booth")


class TestUnitCatalog:
    """The arithmetic units, reached through the one catalog in ``fft``."""

    def test_catalog_names_build(self):
        for name in ("vedic2x2", "vedic4x4", "array4x4", "adder4", "subtractor4",
                     "adder1", "adder8", "subtractor16"):
            assert build_unit(name).name == name

    def test_unknown_unit(self):
        for name in ("nope", "adder0", "subtractor0", "adder04", "vedic8x8"):
            with pytest.raises(NetlistError):
                build_unit(name)
