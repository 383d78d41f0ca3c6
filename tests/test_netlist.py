import heapq
import random

import pytest

from vedicfft import (
    Gate,
    GateKind,
    Netlist,
    NetlistBuilder,
    NetlistError,
    build_ripple_adder,
    dump_netlist,
    parse_netlist,
)
from vedicfft.fft import build_unit, unit_names
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

    @pytest.mark.parametrize("bad", [1.0, True, -1, 2, "0"])
    def test_input_net_must_be_an_existing_int(self, bad):
        b = NetlistBuilder("t")
        x = b.add_input("x", 2)[0]
        with pytest.raises(NetlistError) as excinfo:
            b.add_gate("AND", [x, bad])
        assert str(excinfo.value) == f"unknown input net {bad}"
        assert b._gates == []

    @pytest.mark.parametrize("bad", [0.0, False, -1, 3])
    def test_output_net_must_be_an_existing_int(self, bad):
        b = NetlistBuilder("t")
        x = b.add_input("x", 2)[0]
        o = b.add_gate("NOT", [x])
        with pytest.raises(NetlistError) as excinfo:
            b.set_output("o", [o, bad])
        assert str(excinfo.value) == f"unknown net {bad} in output bus o"

    def test_kind_by_name_or_member(self):
        b = NetlistBuilder("t")
        x = b.add_input("x", 1)[0]
        b.add_gate("nand", [x, x])
        b.add_gate(GateKind.XOR, [x, x])
        b.add_gate("NOT", [x])
        assert [g.kind for g in b._gates] == [GateKind.NAND, GateKind.XOR, GateKind.NOT]
        for bad in ("MUX", ["AND"], 3):
            with pytest.raises(NetlistError) as excinfo:
                b.add_gate(bad, [x, x])
            assert str(excinfo.value) == f"unknown gate kind {bad!r}"

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

    def test_bad_name_rejected_at_finalize(self):
        b = NetlistBuilder("9t")
        x = b.add_input("x", 1)[0]
        b.set_output("o", [b.add_gate("NOT", [x])])
        with pytest.raises(NetlistError) as excinfo:
            b.finalize()
        assert str(excinfo.value) == "invalid netlist name '9t'"
        with pytest.raises(NetlistError) as excinfo:
            b.finalize()
        assert str(excinfo.value) == "builder already finalized"

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
        out = b.add_gate("AND", [x, y])
        b.set_output("o", [b.add_gate("NOT", [out])])
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


def _direct(gates=(), inputs=None, outputs=None, consts=None, name="t"):
    """A ``Netlist`` built directly; a gate is (id, kind, inputs, output)."""
    return Netlist(
        name,
        {"a": [0], "b": [1]} if inputs is None else inputs,
        {"o": [2]} if outputs is None else outputs,
        [Gate(gid, GateKind[kind], tuple(ins), out) for gid, kind, ins, out in gates],
        {} if consts is None else consts,
    )


class TestValidation:
    """Every rejection of ``Netlist(...)``, with its full message, and the
    order in which the checks run when a netlist breaks several rules."""

    AND = (0, "AND", (0, 1), 2)  # the default output o = net 2

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            pytest.param(
                dict(gates=[AND], name="9t"), "invalid netlist name '9t'", id="netlist-name"
            ),
            pytest.param(
                dict(gates=[AND], inputs={"a b": [0], "b": [1]}),
                "invalid bus name 'a b'",
                id="input-bus-name",
            ),
            pytest.param(
                dict(gates=[AND], outputs={"o[0]": [2]}),
                "invalid bus name 'o[0]'",
                id="output-bus-name",
            ),
            pytest.param(
                dict(gates=[AND], inputs={"a": [0], "b": [1], "c": []}),
                "input bus c has zero width",
                id="zero-width-input",
            ),
            pytest.param(
                dict(gates=[AND], outputs={"o": [2], "p": []}),
                "output bus p has zero width",
                id="zero-width-output",
            ),
            pytest.param(
                dict(gates=[AND], consts={2: 3}),
                "constant value must be 0 or 1, got 2",
                id="const-value",
            ),
            pytest.param(
                dict(gates=[AND], inputs={"a": [0], "b": [0]}),
                "net 0 has two drivers: input a[0] and input b[0]",
                id="two-drivers-input-input",
            ),
            pytest.param(
                dict(gates=[AND], consts={1: 1}),
                "net 1 has two drivers: input b[0] and const1",
                id="two-drivers-input-const",
            ),
            pytest.param(
                dict(gates=[(0, "AND", (0, 1), 1)], outputs={"o": [1]}),
                "net 1 has two drivers: input b[0] and gate 0",
                id="two-drivers-input-gate",
            ),
            pytest.param(
                dict(gates=[(5, "NOT", (0,), 3), AND], consts={0: 3}),
                "net 3 has two drivers: const0 and gate 5",
                id="two-drivers-const-gate",
            ),
            pytest.param(
                dict(gates=[(7, "NOT", (0,), 2), AND]),
                "net 2 has two drivers: gate 0 and gate 7",
                id="two-drivers-gate-gate",
            ),
            pytest.param(
                dict(gates=[AND, (1, "NOT", (2,), 3), (1, "NOT", (2,), 4)]),
                "duplicate gate id 1",
                id="duplicate-gate-id",
            ),
            pytest.param(
                dict(gates=[(0, "NOT", (0, 1), 2)]),
                "gate 0 (NOT) takes 1 inputs, got 2",
                id="arity-not",
            ),
            pytest.param(
                dict(gates=[(0, "AND", (0,), 2)]),
                "gate 0 (AND) takes 2 inputs, got 1",
                id="arity-and",
            ),
            pytest.param(
                dict(gates=[(0, "AND", (0, 9), 2)]),
                "gate 0 reads undriven net 9",
                id="undriven-read",
            ),
            pytest.param(
                dict(gates=[AND], outputs={"o": [2, 8]}),
                "floating output bit o[1] (net 8)",
                id="floating-output",
            ),
            pytest.param(
                dict(gates=[(0, "AND", (0, 3), 2), (1, "NOT", (2,), 3)]),
                "combinational cycle through gates [0, 1]",
                id="cycle",
            ),
            pytest.param(
                dict(gates=[(4, "AND", (0, 2), 2)]),
                "combinational cycle through gates [4]",
                id="gate-reads-own-output",
            ),
            pytest.param(
                # The stuck set includes gates downstream of the cycle.
                dict(
                    gates=[(1, "NOT", (3,), 5), AND, (2, "NOR", (2, 4), 3), (3, "NOT", (3,), 4)],
                    outputs={"o": [5]},
                ),
                "combinational cycle through gates [1, 2, 3]",
                id="cycle-and-downstream",
            ),
        ],
    )
    def test_rejection_message(self, kwargs, message):
        with pytest.raises(NetlistError) as caught:
            _direct(**kwargs)
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            pytest.param(
                dict(gates=[AND], name="", inputs={"": [0]}),
                "invalid netlist name ''",
                id="name-before-bus-name",
            ),
            pytest.param(
                dict(gates=[AND], inputs={"a": [], "b": [1]}, outputs={"?": [2]}),
                "invalid bus name '?'",
                id="bus-names-before-widths",
            ),
            pytest.param(
                dict(gates=[AND], inputs={"a": [0], "b": [0], "c": []}),
                "net 0 has two drivers: input a[0] and input b[0]",
                id="earlier-bus-claims-first",
            ),
            pytest.param(
                dict(gates=[AND], inputs={"c": [], "a": [0], "b": [0]}),
                "input bus c has zero width",
                id="earlier-bus-width-first",
            ),
            pytest.param(
                dict(gates=[AND], inputs={"a": [0], "b": [1]}, consts={5: 0}),
                "constant value must be 0 or 1, got 5",
                id="const-value-before-claim",
            ),
            pytest.param(
                dict(gates=[(3, "AND", (0,), 2), (1, "NOT", (0,), 3), (1, "OR", (0, 1), 4)]),
                "duplicate gate id 1",
                id="gates-checked-in-id-order",
            ),
            pytest.param(
                dict(gates=[(0, "AND", (0, 9), 2), (1, "NOT", (0,), 2)]),
                "net 2 has two drivers: gate 0 and gate 1",
                id="drivers-before-reads",
            ),
            pytest.param(
                dict(gates=[(0, "AND", (0, 9), 2), (1, "AND", (0,), 3)]),
                "gate 1 (AND) takes 2 inputs, got 1",
                id="arity-before-reads",
            ),
            pytest.param(
                dict(gates=[(0, "NOT", (0,), 3), (1, "AND", (3, 9), 2)], outputs={"o": []}),
                "gate 1 reads undriven net 9",
                id="reads-before-outputs",
            ),
            pytest.param(
                dict(gates=[(0, "AND", (0, 3), 2), (1, "NOT", (2,), 3)], outputs={"o": [8]}),
                "floating output bit o[0] (net 8)",
                id="outputs-before-cycle",
            ),
        ],
    )
    def test_precedence(self, kwargs, message):
        with pytest.raises(NetlistError) as caught:
            _direct(**kwargs)
        assert str(caught.value) == message


def _min_id_topological(gates):
    """Reference order: Kahn's algorithm, the smallest ready gate id first."""
    producer = {g.output: g.id for g in gates}
    users = {g.id: [] for g in gates}
    waiting = {}
    for g in gates:
        deps = {producer[n] for n in g.inputs if n in producer}
        waiting[g.id] = len(deps)
        for d in deps:
            users[d].append(g.id)
    ready = [gid for gid, k in waiting.items() if k == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        gid = heapq.heappop(ready)
        order.append(gid)
        for u in users[gid]:
            waiting[u] -= 1
            if waiting[u] == 0:
                heapq.heappush(ready, u)
    return order


def _random_dag(rng):
    """A random netlist whose gate ids are shuffled against its dependency
    order, so gates may read the outputs of higher-id gates."""
    nets = rng.sample(range(1000), 40)
    inputs = {"a": nets[:2], "b": nets[2:3]}
    available = list(nets[:3])
    consts = {}
    if rng.random() < 0.5:
        consts[rng.randrange(2)] = nets[3]
        available.append(nets[3])
    count = rng.randrange(1, 30)
    ids = rng.sample(range(3 * count), count)
    gates = []
    for gid, out in zip(ids, nets[4:]):
        kind = rng.choice(list(GateKind))
        ins = tuple(rng.choice(available) for _ in range(kind.arity))
        gates.append(Gate(gid, kind, ins, out))
        available.append(out)
    outputs = {"o": rng.sample(available, rng.randrange(1, 4))}
    rng.shuffle(gates)
    return Netlist("dag", inputs, outputs, gates, consts), gates


class TestEvaluationOrder:
    """``_order`` is the smallest-id-first topological order of the gates."""

    @pytest.mark.parametrize("name", unit_names())
    def test_catalog_units_evaluate_in_id_order(self, name):
        net = build_unit(name)
        assert net._order == net.gates
        parsed = parse_netlist(dump_netlist(net))
        assert parsed._order == parsed.gates

    def test_forward_references_order(self):
        # Gates 0 and 2 read the outputs of gates 1 and 3.
        net = parse_netlist(
            "netlist t v1\n"
            "input a 1\n"
            "gate 0 NOT n1 -> n0\n"
            "gate 1 NOT a[0] -> n1\n"
            "gate 2 NOT n3 -> n2\n"
            "gate 3 NOT a[0] -> n3\n"
            "output o n0 n2\n"
        )
        assert [g.id for g in net._order] == [1, 0, 3, 2]

    def test_random_dags_match_reference(self):
        rng = random.Random(20100)
        forward = 0
        for _ in range(200):
            net, gates = _random_dag(rng)
            want = _min_id_topological(gates)
            assert [g.id for g in net._order] == want
            forward += want != sorted(want)
        assert forward > 100  # most cases need the sort


def _random_program(rng):
    """A random builder program: input buses, constants and gates of every
    kind interleaved, and output buses that may read any of their nets."""
    b = NetlistBuilder("prog")
    nets = b.add_input("in0", rng.randrange(1, 5))
    for _ in range(rng.randrange(40)):
        r = rng.random()
        if r < 0.1:
            nets.append(b.const(rng.randrange(2)))
        elif r < 0.15:
            nets += b.add_input(f"in{len(b._inputs)}", rng.randrange(1, 5))
        else:
            kind = rng.choice(list(GateKind))
            ins = rng.choices(nets, k=kind.arity)
            nets.append(b.add_gate(rng.choice((kind, kind.value)), ins))
    for i in range(rng.randrange(1, 4)):
        b.set_output(f"out{i}", rng.choices(nets, k=rng.randrange(1, 5)))
    return b.finalize()


def _trusted_cases():
    names = [*unit_names(), "adder1", "adder16", "subtractor8"]
    names += ["fft4_q1", "fft4_q2", "reconfigurable_q1", "reconfigurable_q2"]
    for name in names:
        yield build_unit(name)
    rng = random.Random(20101)
    for _ in range(200):
        yield _random_program(rng)


class TestTrustedFinalize:
    """``NetlistBuilder.finalize`` skips ``_validate``; the netlist it makes
    equals the one ``Netlist(...)`` validates from the same parts."""

    def test_equals_validated_construction(self):
        rng = random.Random(20102)
        direct_reads = {"input": 0, "const": 0}
        for net in _trusted_cases():
            ref = Netlist(net.name, net.inputs, net.outputs, net.gates, net.consts)
            for attr in ("name", "inputs", "outputs", "consts", "gates", "nets", "_order"):
                assert getattr(net, attr) == getattr(ref, attr), (net.name, attr)
            assert all(type(g) is Gate for g in net.gates)
            columns = {
                bus: [rng.randrange(1 << len(bits)) for _ in range(16)]
                for bus, bits in net.inputs.items()
            }
            assert net.evaluate_batch(columns) == ref.evaluate_batch(columns)
            read = {n for bits in net.outputs.values() for n in bits}
            direct_reads["input"] += any(
                n in read for bits in net.inputs.values() for n in bits
            )
            direct_reads["const"] += any(n in read for n in net.consts.values())
        assert min(direct_reads.values()) > 10


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
