import pytest

from vedicfft import (
    GateKind,
    Netlist,
    NetlistBuilder,
    NetlistError,
    build_ripple_adder,
)
from vedicfft.netlist import to_signed


def _single_and():
    b = NetlistBuilder("unit")
    x = b.add_input("x", 1)[0]
    y = b.add_input("y", 1)[0]
    b.set_output("o", [b.add_gate("AND", [x, y])])
    return b.finalize()


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
        assert net.evaluate_batch({"x": [0, 1]})["o"] == [0, 0]

    def test_finalize_freezes_builder(self):
        b = NetlistBuilder("t")
        x = b.add_input("x", 1)[0]
        b.set_output("o", [b.add_gate("NOT", [x])])
        b.finalize()
        with pytest.raises(NetlistError):
            b.add_gate("NOT", [x])
        with pytest.raises(NetlistError):
            b.finalize()

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
        assert net.evaluate_batch({"x": [x], "y": [y]})["o"] == [want]

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
                    got = net.evaluate_batch({"x": [a], "y": [c]})["o"]
                    assert got == [fn(a, c)], kind
        b = NetlistBuilder("t")
        x = b.add_input("x", 1)[0]
        b.set_output("o", [b.add_gate("NOT", [x])])
        net = b.finalize()
        assert net.evaluate_batch({"x": [0]})["o"] == [1]
        assert net.evaluate_batch({"x": [1]})["o"] == [0]

    def test_missing_input_rejected(self):
        net = _single_and()
        with pytest.raises(NetlistError, match="missing"):
            net.evaluate_batch({"x": [1]})

    def test_unknown_input_rejected(self):
        net = _single_and()
        with pytest.raises(NetlistError, match="unknown"):
            net.evaluate_batch({"x": [1], "y": [1], "z": [0]})

    def test_determinism(self):
        net = build_ripple_adder(4)
        columns = {"a": [9], "b": [6], "cin": [1]}
        first = net.evaluate_batch(columns)
        for _ in range(5):
            assert net.evaluate_batch(columns) == first

    def test_constants_drive_nets(self):
        b = NetlistBuilder("t")
        x = b.add_input("x", 1)[0]
        one = b.const(1)
        zero = b.const(0)
        b.set_output("o", [b.add_gate("AND", [x, one]), b.add_gate("OR", [x, zero])])
        net = b.finalize()
        assert net.evaluate_batch({"x": [1, 0]})["o"] == [3, 0]


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
        assert net.evaluate_batch({"x": [2]})["o"] == [2]

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

    def test_nets_are_the_driven_ones(self):
        net = build_ripple_adder(4)
        input_bits = {n for nets in net.inputs.values() for n in nets}
        driven = input_bits | set(net.consts.values()) | {g.output for g in net.gates}
        assert net.nets == driven


class TestInstantiate:
    def test_composition_preserves_gates(self, vedic2x2):
        b = NetlistBuilder("t")
        a = b.add_input("a", 2)
        c = b.add_input("b", 2)
        out = b.instantiate(vedic2x2, {"a": a, "b": c})
        b.set_output("p", out["p"])
        net = b.finalize()
        assert net.gate_counts() == vedic2x2.gate_counts()
        pairs = [(x, y) for x in range(4) for y in range(4)]
        got = net.evaluate_batch({"a": [x for x, _ in pairs], "b": [y for _, y in pairs]})
        assert got["p"] == [x * y for x, y in pairs]

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


def test_to_signed():
    decoded = [to_signed(raw, 4) for raw in range(16)]
    assert sorted(decoded) == list(range(-8, 8))
    assert [value & 15 for value in decoded] == list(range(16))
    assert to_signed(1, 1) == -1
    assert to_signed(0, 1) == 0


def test_netlist_repr_mentions_buses():
    net = _single_and()
    assert "unit" in repr(net)
    assert isinstance(net, Netlist)
