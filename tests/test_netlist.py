import pytest

from vedicfft import (
    BitVector,
    GateKind,
    Netlist,
    NetlistBuilder,
    NetlistError,
    build_ripple_adder,
)


def _single_and():
    b = NetlistBuilder("unit")
    x = b.add_input("x", 1)[0]
    y = b.add_input("y", 1)[0]
    b.set_output("o", [b.add_gate("AND", [x, y])])
    return b.finalize()


def _bit(v):
    return BitVector.from_unsigned(v, 1)


class TestBuilder:
    def test_add_gate_returns_fresh_net(self):
        b = NetlistBuilder("t")
        x = b.add_input("x", 1)[0]
        y = b.add_input("y", 1)[0]
        before = len(b._gates)
        out = b.add_gate("AND", [x, y])
        assert out not in (x, y)
        assert len(b._gates) == before + 1

    def test_wrong_arity_rejected(self):
        b = NetlistBuilder("t")
        x = b.add_input("x", 1)[0]
        with pytest.raises(NetlistError):
            b.add_gate("NOT", [x, x])
        with pytest.raises(NetlistError):
            b.add_gate("AND", [x])

    def test_unknown_input_net_rejected(self):
        b = NetlistBuilder("t")
        b.add_input("x", 1)
        with pytest.raises(NetlistError):
            b.add_gate("NOT", [999])

    def test_xor_with_itself_is_zero(self):
        b = NetlistBuilder("t")
        x = b.add_input("x", 1)[0]
        b.set_output("o", [b.add_gate("XOR", [x, x])])
        net = b.finalize()
        for v in (0, 1):
            assert net.evaluate({"x": _bit(v)})["o"].uint == 0

    def test_finalize_freezes_builder(self):
        b = NetlistBuilder("t")
        x = b.add_input("x", 1)[0]
        b.set_output("o", [b.add_gate("NOT", [x])])
        b.finalize()
        with pytest.raises(NetlistError):
            b.add_gate("NOT", [x])
        with pytest.raises(NetlistError):
            b.finalize()

    def test_cycle_detected(self):
        b = NetlistBuilder("t")
        x = b.add_input("x", 1)[0]
        back = b.new_net()
        fwd = b.add_gate("AND", [x, back])
        b.add_gate("OR", [fwd, x], output=back)
        b.set_output("o", [fwd])
        with pytest.raises(NetlistError, match="cycle"):
            b.finalize()

    def test_floating_output_detected(self):
        b = NetlistBuilder("t")
        b.add_input("x", 1)
        b.set_output("o", [b.new_net()])
        with pytest.raises(NetlistError, match="floating"):
            b.finalize()

    def test_double_driver_detected(self):
        b = NetlistBuilder("t")
        x = b.add_input("x", 1)[0]
        g = b.add_gate("NOT", [x])
        with pytest.raises(NetlistError, match="driver"):
            b.add_gate("NOT", [x], output=g)

    def test_no_outputs_rejected(self):
        b = NetlistBuilder("t")
        b.add_input("x", 1)
        with pytest.raises(NetlistError):
            b.finalize()

    def test_duplicate_bus_names_rejected(self):
        b = NetlistBuilder("t")
        b.add_input("x", 1)
        with pytest.raises(NetlistError):
            b.add_input("x", 2)
        b2 = NetlistBuilder("t")
        x = b2.add_input("x", 1)
        with pytest.raises(NetlistError):
            b2.set_output("x", x)


class TestEvaluate:
    @pytest.mark.parametrize("x,y,want", [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 1)])
    def test_and_truth_table(self, x, y, want):
        net = _single_and()
        assert net.evaluate({"x": _bit(x), "y": _bit(y)})["o"].uint == want

    def test_all_gate_kinds(self):
        truth = {
            "AND": lambda a, b: a & b,
            "OR": lambda a, b: a | b,
            "XOR": lambda a, b: a ^ b,
            "NAND": lambda a, b: 1 - (a & b),
            "NOR": lambda a, b: 1 - (a | b),
            "XNOR": lambda a, b: 1 - (a ^ b),
        }
        for kind, fn in truth.items():
            b = NetlistBuilder("t")
            x = b.add_input("x", 1)[0]
            y = b.add_input("y", 1)[0]
            b.set_output("o", [b.add_gate(kind, [x, y])])
            net = b.finalize()
            for a in (0, 1):
                for c in (0, 1):
                    got = net.evaluate({"x": _bit(a), "y": _bit(c)})["o"].uint
                    assert got == fn(a, c), kind
        b = NetlistBuilder("t")
        x = b.add_input("x", 1)[0]
        b.set_output("o", [b.add_gate("NOT", [x])])
        net = b.finalize()
        assert net.evaluate({"x": _bit(0)})["o"].uint == 1
        assert net.evaluate({"x": _bit(1)})["o"].uint == 0

    def test_missing_input_rejected(self):
        net = _single_and()
        with pytest.raises(NetlistError, match="missing"):
            net.evaluate({"x": _bit(1)})

    def test_unknown_input_rejected(self):
        net = _single_and()
        with pytest.raises(NetlistError, match="unknown"):
            net.evaluate({"x": _bit(1), "y": _bit(1), "z": _bit(0)})

    def test_width_mismatch_rejected(self):
        net = _single_and()
        with pytest.raises(NetlistError, match="bits wide"):
            net.evaluate({"x": BitVector.from_unsigned(1, 2), "y": _bit(1)})

    def test_non_bitvector_rejected(self):
        net = _single_and()
        with pytest.raises(NetlistError, match="x must be a BitVector, got int"):
            net.evaluate({"x": 1, "y": _bit(1)})

    def test_determinism(self):
        net = build_ripple_adder(4)
        assignment = {
            "a": BitVector.from_unsigned(9, 4),
            "b": BitVector.from_unsigned(6, 4),
            "cin": _bit(1),
        }
        first = net.evaluate(assignment)
        for _ in range(5):
            assert net.evaluate(assignment) == first

    def test_constants_drive_nets(self):
        b = NetlistBuilder("t")
        x = b.add_input("x", 1)[0]
        one = b.const(1)
        zero = b.const(0)
        b.set_output("o", [b.add_gate("AND", [x, one]), b.add_gate("OR", [x, zero])])
        net = b.finalize()
        assert net.evaluate({"x": _bit(1)})["o"].uint == 3
        assert net.evaluate({"x": _bit(0)})["o"].uint == 0


class TestAnalysis:
    def test_single_gate_depth(self):
        assert _single_and().critical_path_depth() == 1

    def test_not_chain_depth(self):
        b = NetlistBuilder("t")
        n = b.add_input("x", 1)[0]
        for _ in range(3):
            n = b.add_gate("NOT", [n])
        b.set_output("o", [n])
        assert b.finalize().critical_path_depth() == 3

    def test_depth_monotone_under_extension(self):
        base = _single_and()
        b = NetlistBuilder("t")
        x = b.add_input("x", 1)[0]
        y = b.add_input("y", 1)[0]
        out = b.instantiate(base, {"x": [x], "y": [y]})["o"]
        b.set_output("o", [b.add_gate("NOT", out)])
        extended = b.finalize()
        assert extended.critical_path_depth() >= base.critical_path_depth()
        assert extended.critical_path_depth() == 2

    def test_gate_counts_census(self):
        net = _single_and()
        counts = net.gate_counts()
        assert counts.by_kind == {"AND": 1}
        assert counts.total == 1

    def test_pass_through_costs_nothing(self):
        b = NetlistBuilder("t")
        x = b.add_input("x", 2)
        b.set_output("o", x)
        net = b.finalize()
        assert net.gate_counts().total == 0
        assert net.critical_path_depth() == 0
        v = BitVector.from_unsigned(2, 2)
        assert net.evaluate({"x": v})["o"].uint == 2

    def test_topological_order_respects_dependencies(self):
        net = build_ripple_adder(8)
        seen = set()
        produced = {g.output for g in net.gates}
        for gate in net._order:
            for n in gate.inputs:
                if n in produced:
                    assert n in seen, "gate evaluated before its input"
            seen.add(gate.output)

    def test_single_driver_invariant(self):
        net = build_ripple_adder(4)
        drivers = [g.output for g in net.gates]
        assert len(drivers) == len(set(drivers))
        input_bits = {n for nets in net.inputs.values() for n in nets}
        assert input_bits.isdisjoint(drivers)


class TestInstantiate:
    def test_composition_preserves_gates(self, vedic2x2):
        b = NetlistBuilder("t")
        a = b.add_input("a", 2)
        c = b.add_input("b", 2)
        out = b.instantiate(vedic2x2, {"a": a, "b": c})
        b.set_output("p", out["p"])
        net = b.finalize()
        assert net.gate_counts() == vedic2x2.gate_counts()
        for x in range(4):
            for y in range(4):
                got = net.evaluate(
                    {
                        "a": BitVector.from_unsigned(x, 2),
                        "b": BitVector.from_unsigned(y, 2),
                    }
                )["p"].uint
                assert got == x * y

    def test_width_mismatch_rejected(self, vedic2x2):
        b = NetlistBuilder("t")
        a = b.add_input("a", 3)
        with pytest.raises(NetlistError):
            b.instantiate(vedic2x2, {"a": a, "b": a})

    def test_unconnected_input_rejected(self, vedic2x2):
        b = NetlistBuilder("t")
        a = b.add_input("a", 2)
        with pytest.raises(NetlistError, match="unconnected"):
            b.instantiate(vedic2x2, {"a": a})


def test_gate_kind_arity():
    assert GateKind.NOT.arity == 1
    for kind in GateKind:
        if kind is not GateKind.NOT:
            assert kind.arity == 2


def test_netlist_repr_mentions_buses():
    net = _single_and()
    assert "unit" in repr(net)
    assert isinstance(net, Netlist)
