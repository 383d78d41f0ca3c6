"""The bit-parallel batch path against an independent reference simulator.

``Netlist.evaluate_batch`` packs n vectors into lane words, runs the gate
kernel once and unpacks the results. The reference below shares none of
that code: it packs vector i into bit i of one int per net with plain
shifts, evaluates ``net.gates`` with Python's bitwise operators in its own
dependency order, and unpacks bit by bit. Every batch is compared with it
vector by vector, among them small netlists that hit every rule by which
the compiler folds constant, duplicated-input, repeated and dead gates out
of the simulated program, and batches with scalar columns, whose bits the
compiler folds as constants too. The n-lane ``run_fft_batch`` is compared with one-lane
``run_fft`` calls, which the DFT oracle of ``test_fft`` checks.
"""

import itertools
import random
import re
import sys
import threading
from array import array

import pytest

from vedicfft import (
    FftConfig,
    GateKind,
    NetlistBuilder,
    NetlistError,
    build_reconfigurable_fft,
    build_ripple_adder,
    build_ripple_subtractor,
    run_fft,
    run_fft_batch,
)
from vedicfft import fft, netlist, verify
from vedicfft.fft import build_unit, unit_names
from vedicfft.netio import parse_netlist
from vedicfft.netlist import Gate, Netlist
from test_netlist import _random_program
from test_verify import live_gate_ids

EXHAUSTIVE_BITS = 12
SAMPLED_VECTORS = 2000


# Catalog units made by the ``arith`` builders; the rest are ``fft``
# datapaths. Each test id names its layer.
ARITH_UNITS = {"vedic2x2", "vedic4x4", "array4x4", "adder4", "subtractor4"}


def catalog_units():
    return [
        pytest.param(name, id=f"{'arith' if name in ARITH_UNITS else 'fft'}-{name}")
        for name in unit_names()
    ]


def input_vectors(net, rng):
    """Every input vector when there are at most 2^12, else seeded samples."""
    buses = list(net.inputs)
    widths = [net.input_width(bus) for bus in buses]
    if sum(widths) <= EXHAUSTIVE_BITS:
        return [
            dict(zip(buses, values))
            for values in itertools.product(*(range(1 << w) for w in widths))
        ]
    return [
        {bus: rng.randrange(1 << w) for bus, w in zip(buses, widths)}
        for _ in range(SAMPLED_VECTORS)
    ]


GATE_FUNCTIONS = {
    GateKind.AND: lambda a, b: a & b,
    GateKind.OR: lambda a, b: a | b,
    GateKind.XOR: lambda a, b: a ^ b,
    GateKind.NAND: lambda a, b: ~(a & b),
    GateKind.NOR: lambda a, b: ~(a | b),
    GateKind.XNOR: lambda a, b: ~(a ^ b),
    GateKind.NOT: lambda a: ~a,
}


def net_words(net, vectors):
    """The word of each net of ``net`` for ``vectors``, as a function of the
    net id: vector i is bit i of the word, and a gate's word is computed
    from its input words on first use (memoized recursion)."""
    mask = (1 << len(vectors)) - 1
    words = {nid: mask if value else 0 for value, nid in net.consts.items()}
    for bus, nets in net.inputs.items():
        for k, nid in enumerate(nets):
            words[nid] = 0
            for i, vector in enumerate(vectors):
                words[nid] |= ((vector[bus] >> k) & 1) << i
    driver = {gate.output: gate for gate in net.gates}

    def word(nid):
        if nid not in words:
            gate = driver[nid]
            inputs = [word(n) for n in gate.inputs]
            words[nid] = GATE_FUNCTIONS[gate.kind](*inputs) & mask
        return words[nid]

    return word


def reference_outputs(net, vectors):
    """Every output bus of ``net`` for ``vectors``, one list of raw values per
    bus, read from :func:`net_words`."""
    word = net_words(net, vectors)
    return {
        bus: [
            sum(((word(nid) >> i) & 1) << k for k, nid in enumerate(nets))
            for i in range(len(vectors))
        ]
        for bus, nets in net.outputs.items()
    }


def assert_batch_matches_reference(net, vectors):
    columns = {bus: [v[bus] for v in vectors] for bus in net.inputs}
    batch = net.evaluate_batch(columns)
    reference = reference_outputs(net, vectors)
    assert set(batch) == set(net.outputs)
    for i, vector in enumerate(vectors):
        assert {bus: values[i] for bus, values in batch.items()} == {
            bus: values[i] for bus, values in reference.items()
        }, f"{net.name} vector {i}: {vector}"


TWO_INPUT_KINDS = ("AND", "OR", "XOR", "NAND", "NOR", "XNOR")


def every_kind_netlist():
    """One gate of each kind plus both constants, on two 1-bit inputs."""
    b = NetlistBuilder("kinds")
    x = b.add_input("x", 1)[0]
    y = b.add_input("y", 1)[0]
    outs = [b.add_gate(kind, [x, y]) for kind in TWO_INPUT_KINDS]
    outs.append(b.add_gate("NOT", [x]))
    b.set_output("o", outs)
    b.set_output("k", [b.const(0), b.const(1)])
    return b.finalize()


def fold_rules_netlist():
    """Gates the compiler folds, each on an output bit of its own: every
    two-input kind with constant 0 and 1 on either side, with two constant
    inputs and with one input twice, and NOT of each constant. Bus ``w``
    is driven straight by an input bit, by both constants and by a gate
    that folds away; bus ``r`` reads folded gates through live ones, on
    either side. Two gates reach no output."""
    b = NetlistBuilder("folds")
    x = b.add_input("x", 1)[0]
    y = b.add_input("y", 1)[0]
    consts = (b.const(0), b.const(1))
    outs = []
    for kind in TWO_INPUT_KINDS:
        for c in consts:
            outs += [b.add_gate(kind, [x, c]), b.add_gate(kind, [c, x])]
        outs += [b.add_gate(kind, [c, d]) for c in consts for d in consts]
        outs.append(b.add_gate(kind, [x, x]))
    outs += [b.add_gate("NOT", [c]) for c in consts]
    b.set_output("o", outs)
    copy = b.add_gate("OR", [x, consts[0]])
    b.set_output("w", [x, consts[0], consts[1], copy])
    inverted = b.add_gate("XOR", [y, consts[1]])
    live = b.add_gate("AND", [x, y])
    b.set_output(
        "r",
        [
            b.add_gate("NAND", [copy, inverted]),
            b.add_gate("XOR", [inverted, b.add_gate("NOT", [copy])]),
            b.add_gate("OR", [y, live]),
            b.add_gate("NOR", [live, b.add_gate("XNOR", [inverted, inverted])]),
        ],
    )
    b.add_gate("XOR", [x, y])
    b.add_gate("AND", [b.add_gate("NOR", [y, consts[0]]), x])
    return b.finalize()


@pytest.mark.parametrize("lanes", [1, 65])
def test_fold_rules(lanes):
    net = fold_rules_netlist()
    vectors = input_vectors(net, None)
    assert len(vectors) == 4
    # Each start puts another vector in lane 0; 65 lanes hold all four.
    for start in range(len(vectors)):
        batch = [vectors[(start + i) % len(vectors)] for i in range(lanes)]
        assert_batch_matches_reference(net, batch)


def repeated_gates_netlist():
    """Each function twice: ``AND(x, y)`` and ``AND(y, x)``, ``XOR(x, y)``
    twice, then an ``OR`` and a ``NOT`` of each copy, which repeat once
    their inputs are one slot. Every gate is an output bit."""
    b = NetlistBuilder("repeats")
    x = b.add_input("x", 1)[0]
    y = b.add_input("y", 1)[0]
    ands = [b.add_gate("AND", [x, y]), b.add_gate("AND", [y, x])]
    xors = [b.add_gate("XOR", [x, y]), b.add_gate("XOR", [x, y])]
    ors = [b.add_gate("OR", [ands[0], xors[0]]), b.add_gate("OR", [xors[1], ands[1]])]
    nots = [b.add_gate("NOT", [g]) for g in ors]
    b.set_output("o", ands + xors + ors + nots)
    return b.finalize()


def test_repeated_gates_compile_once():
    # The compiler keys each gate it emits by its opcode and sorted input
    # slots, so a repeat reads the first gate's slot: one gate per function.
    net = repeated_gates_netlist()
    p = net._compile({})
    kinds = [GateKind.AND, GateKind.XOR, GateKind.OR, GateKind.NOT]
    assert p.ops == [netlist._OPCODE[kind] for kind in kinds]
    assert p.out_slots["o"] == [p.outs[k // 2] for k in range(8)]
    vectors = input_vectors(net, None)
    assert_first_interpreted_later_generated(net, vectors)


def test_threads_compile_a_fresh_netlist_at_once():
    # Two threads per program race on the cache: select tied to 0, tied to
    # 1, and select as a list column (the untied program).
    net = build_reconfigurable_fft(FftConfig(4, "quantized", 3, 4))
    assert net._programs == {}  # not compiled until the first evaluation
    vectors = input_vectors(net, random.Random(4))[:200]
    jobs = []
    for select in (0, 1, None):
        batch = vectors if select is None else [{**v, "select": select} for v in vectors]
        columns = {bus: [v[bus] for v in batch] for bus in net.inputs}
        if select is not None:
            columns["select"] = select
        jobs += [(columns, reference_outputs(net, batch))] * 2
    results = [None] * len(jobs)
    start = threading.Barrier(len(jobs))

    def evaluate(i):
        start.wait(timeout=30)
        results[i] = net.evaluate_batch(jobs[i][0])

    threads = [threading.Thread(target=evaluate, args=(i,)) for i in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [want for _, want in jobs]
    assert set(net._programs) == {(), (("select", 0),), (("select", 1),)}


RECONFIGURABLE_UNITS = ["reconfigurable", "reconfigurable_q3"]


@pytest.mark.parametrize("n", [1, 500])
@pytest.mark.parametrize("select", [0, 1])
@pytest.mark.parametrize("name", RECONFIGURABLE_UNITS)
def test_scalar_select_matches_list_and_reference(name, select, n):
    net = build_unit(name)
    vectors = [
        {**v, "select": select}
        for v in input_vectors(net, random.Random(f"{name}-{select}"))[:n]
    ]
    columns = {bus: [v[bus] for v in vectors] for bus in net.inputs}
    tied = net.evaluate_batch({**columns, "select": select})
    assert tied == net.evaluate_batch(columns)
    assert tied == reference_outputs(net, vectors)


def assert_each_bus_tied_matches_reference(net, lanes):
    """Tie each input bus in turn to each of its values, the other buses
    list columns over every vector with that value, and compare the batch
    with the reference."""
    vectors = input_vectors(net, None)
    for bus in net.inputs:
        for value in range(1 << net.input_width(bus)):
            matching = [v for v in vectors if v[bus] == value]
            batch = [matching[i % len(matching)] for i in range(lanes or len(matching))]
            columns = {b: [v[b] for v in batch] for b in net.inputs}
            columns[bus] = value
            assert net.evaluate_batch(columns) == reference_outputs(net, batch), (
                f"{net.name}: {bus}={value}"
            )


@pytest.mark.parametrize("lanes", [1, 65])
def test_fold_rules_with_each_input_tied(lanes):
    assert_each_bus_tied_matches_reference(fold_rules_netlist(), lanes)


@pytest.mark.parametrize("name", sorted(ARITH_UNITS))
def test_arith_unit_with_each_input_tied(name):
    # Multi-bit buses: every bit of a tied value lands on its own net.
    assert_each_bus_tied_matches_reference(build_unit(name), None)


def renumbered(program):
    """``program`` with each slot named by what it holds: an input bit
    (bus, k), a constant "0" or "1", or the index of the op that writes
    it. Two programs that run the same gates on the same inputs are then
    equal list for list, whatever slots their netlists' net ids give."""
    zero = program.size - 2
    names = {zero: "0", zero + 1: "1"}
    for bus, slots in program.in_slots.items():
        names.update((s, (bus, k)) for k, s in enumerate(slots))
    names.update((s, i) for i, s in enumerate(program.outs))
    return (
        program.ops,
        [names[s] for s in program.in0],
        [names[s] for s in program.in1],
        {bus: [names[s] for s in slots] for bus, slots in program.out_slots.items()},
    )


@pytest.mark.parametrize(
    "name, core",
    [
        pytest.param("reconfigurable", "fft4", id="reconfigurable-datapath0"),
        pytest.param("reconfigurable_q3", "fft4_q3", id="reconfigurable_q3-datapath1"),
    ],
)
def test_tied_select_simulates_only_the_selected_datapath(name, core):
    # With select tied to 1 the isolation ANDs and the output multiplexers
    # fold to wires: what is left is gate for gate the folded program of
    # the 4-point unit alone. Select 0 runs part of that same core.
    net = build_unit(name)
    four = net._compile({"select": 1})
    assert renumbered(four) == renumbered(build_unit(core)._compile({}))
    assert live_gate_ids(net, 0) <= live_gate_ids(net, 1)
    assert len(net._compile({}).ops) > len(four.ops)


@pytest.mark.parametrize("multiplier", ["vedic", "array"])
@pytest.mark.parametrize(
    "config", [FftConfig(), FftConfig(4, "quantized", 3)], ids=["exact", "q3"]
)
@pytest.mark.parametrize("idle", [("x2_re", "x2_im"), ("x3_re", "x3_im")], ids=["x2", "x3"])
def test_select0_isolates_the_idle_samples(idle, config, multiplier):
    # Operand isolation: at select 0, vectors that differ only in x2 or x3
    # give every gate of the raw netlist the same output.
    net = build_reconfigurable_fft(config, multiplier)
    rng = random.Random(f"{idle}-{config}-{multiplier}")
    vectors = [
        {bus: rng.randrange(1 << net.input_width(bus)) for bus in net.inputs} | {"select": 0}
        for _ in range(200)
    ]
    others = [v | {bus: rng.randrange(16) for bus in idle} for v in vectors]
    assert any(v != w for v, w in zip(vectors, others))
    first, second = net_words(net, vectors), net_words(net, others)
    assert [first(g.output) for g in net.gates] == [second(g.output) for g in net.gates]


@pytest.mark.parametrize("name", catalog_units())
def test_catalog_unit_agrees_with_scalar(name):
    net = build_unit(name)
    assert_batch_matches_reference(net, input_vectors(net, random.Random(name)))


@pytest.mark.parametrize("builder", [build_ripple_adder, build_ripple_subtractor])
def test_16_bit_arithmetic_agrees_with_scalar(builder):
    net = builder(16)
    assert_batch_matches_reference(net, input_vectors(net, random.Random(16)))


def test_every_gate_kind_and_constant():
    net = every_kind_netlist()
    vectors = input_vectors(net, None)
    assert len(vectors) == 4
    assert_batch_matches_reference(net, vectors)


@pytest.mark.parametrize("n", [1, 2, 7, 9, 13, 63, 65])
def test_lane_counts(recon_q3, n):
    # One lane, and lane counts that are not a multiple of 8.
    vectors = input_vectors(recon_q3, random.Random(n))[:n]
    assert len(vectors) == n
    assert_batch_matches_reference(recon_q3, vectors)


# Bus widths on either side of each item size a column is laid out in (1,
# 2, 4 and 8 bytes) and above 64 bits, where items are whole bytes.
BUS_WIDTHS = [1, 7, 8, 9, 16, 17, 32, 33, 64, 65, 100]


@pytest.mark.parametrize("lanes", [1, 2, 8, 9, 1000])
@pytest.mark.parametrize("width", BUS_WIDTHS)
def test_bus_widths_and_lane_counts(width, lanes):
    # Every bus of the adder is this wide except the 1-bit cin and cout.
    net = build_ripple_adder(width)
    rng = random.Random(width * 10000 + lanes)
    zeros = dict.fromkeys(net.inputs, 0)
    ones = {bus: (1 << net.input_width(bus)) - 1 for bus in net.inputs}
    vectors = [zeros, ones] + [
        {bus: rng.randrange(1 << net.input_width(bus)) for bus in net.inputs}
        for _ in range(max(lanes - 2, 0))
    ]
    batches = [[zeros], [ones]] if lanes == 1 else [vectors]
    for batch in batches:
        columns = {bus: [v[bus] for v in batch] for bus in net.inputs}
        want = reference_outputs(net, batch)
        assert net.evaluate_batch(columns) == want
        as_tuples = {bus: tuple(col) for bus, col in columns.items()}
        assert net.evaluate_batch(as_tuples) == want
        # Columns in another order than the buses.
        assert net.evaluate_batch(dict(reversed(columns.items()))) == want
    # A range column: the top `lanes` values of the bus, where they fit.
    top = 1 << width
    if lanes <= top:
        b = range(top - lanes, top)
        batch = [{**v, "b": value} for v, value in zip(vectors, b)]
        columns = {bus: [v[bus] for v in batch] for bus in net.inputs}
        assert net.evaluate_batch({**columns, "b": b}) == reference_outputs(net, batch)


def per_bit_lanes(values, width):
    """The lane words of the bus values ``values`` by a per-bit transpose:
    one row of binary digits per vector, LSB first; word k is column k,
    read with vector 0 as its LSB."""
    rows = [format(v, f"0{width}b")[::-1] for v in values]
    return [int("".join(column)[::-1], 2) for column in zip(*rows)]


# Widths on either side of one byte plane and of 2, 4 and 8 of them, and
# the widest bus; lane counts around multiples of 8 vectors.
TRANSPOSE_WIDTHS = [*range(1, 10), 11, 16, 17, 32, 33, 64, 65, 100, netlist.MAX_BUS_WIDTH]
TRANSPOSE_LANES = [*range(1, 71), 255, 256, 257, 1009]
# Lane counts whose words have more decimal digits than CPython's default
# int/str conversion limit of 4300, which base-2 ``int`` and ``format`` are
# exempt from; checked up to 100 bits.
DIGIT_LIMIT_LANES = [4301, 5000]


@pytest.mark.parametrize("width", TRANSPOSE_WIDTHS)
def test_transposition_against_per_bit_reference(width):
    # A bus's values to its lane words and back, the extremes among them.
    rng = random.Random(width)
    top = (1 << width) - 1
    for n in TRANSPOSE_LANES + (DIGIT_LIMIT_LANES if width <= 100 else []):
        values = [top, 0, *(rng.randrange(top + 1) for _ in range(n - 2))][:n]
        words = netlist._bus_lanes(values, width)
        assert words == per_bit_lanes(values, width), (width, n)
        assert netlist._bus_values(words, n) == values, (width, n)


@pytest.mark.parametrize("size", [2, 4, 8, 13])
def test_transposition_of_stacked_buses(size):
    # Every bus of at most ``size`` bytes (16, 32, 64 and 104 bits), end to
    # end, as ``evaluate_batch`` and ``verify._lanes`` lay out the buses of
    # a netlist: the words are each bus's per-bit lane words, bus after bus,
    # and a netlist whose outputs are its inputs, wire for wire, gives them
    # back as lane words and as the bus values.
    widths = [w for w in TRANSPOSE_WIDTHS if w <= 8 * size]
    b = NetlistBuilder("wires")
    for k, width in enumerate(widths):
        b.set_output(f"y{k}", b.add_input(f"x{k}", width))
    net = b.finalize()
    rng = random.Random(size)
    for n in [1, 7, 8, 9, 255, 256, 257, 1009]:
        values = [[rng.randrange(1 << width) for _ in range(n)] for width in widths]
        words = [word for vs, width in zip(values, widths) for word in per_bit_lanes(vs, width)]
        assert list(verify._lanes(values, widths)) == words, n
        assert net._evaluate_lanes((), words, n) == tuple(words), n
        got = net.evaluate_batch({f"x{k}": vs for k, vs in enumerate(values)})
        assert got == {f"y{k}": vs for k, vs in enumerate(values)}, n


BUFFER_COLUMNS = {
    "bytes": bytes,
    "bytearray": bytearray,
    "array-B": lambda values: array("B", values),
    "array-H": lambda values: array("H", values),
    "array-Q": lambda values: array("Q", values),
    "memoryview-H": lambda values: memoryview(array("H", values)),
}


@pytest.mark.parametrize("kind", BUFFER_COLUMNS)
@pytest.mark.parametrize("width", [8, 16, 64])
def test_buffer_columns(width, kind):
    # A column that exposes a buffer holds its items, whatever their size.
    net = build_ripple_adder(width)
    values = [0, 1, 200, 255, 7]
    columns = {"a": values, "b": values[::-1], "cin": [0, 1, 0, 1, 1]}
    want = net.evaluate_batch(columns)
    assert net.evaluate_batch({**columns, "a": BUFFER_COLUMNS[kind](values)}) == want


@pytest.mark.parametrize("kind", BUFFER_COLUMNS)
def test_bus_lanes_of_buffer_columns(kind):
    # A buffer column's lane words are those of its items, whatever their
    # size, at every bus width: values below 256 fit every kind.
    rng = random.Random(kind)
    for width in TRANSPOSE_WIDTHS:
        for n in [1, 2, 8, 9, 65, 257]:
            values = [rng.randrange(min(256, 1 << width)) for _ in range(n)]
            words = netlist._bus_lanes(BUFFER_COLUMNS[kind](values), width)
            assert words == per_bit_lanes(values, width), (width, n)
            assert netlist._bus_values(words, n) == values, (width, n)


# A program's first evaluation, at any lane count, compiles it and runs
# the gate loop ``Netlist._run``. Every later evaluation runs a generated
# kernel: a batch of two or more vectors the lanes kernel, one vector the
# one-lane kernel, each generated by the first later evaluation that runs
# it. Each case below runs on a netlist that has not evaluated it yet.
LANE_COUNTS = [1, 2, 64, 65, 1000]


def assert_first_interpreted_later_generated(net, vectors, tied=None):
    """Evaluate ``vectors`` on the fresh ``net`` as one batch, the buses in
    ``tied`` as scalars, and one vector at a time; each result must equal
    the reference. Every bus at 0, every bus at 2^w - 1 and up to 65 of the
    vectors run alone, and give plain ints. The first evaluation, the batch
    if there are two or more vectors, else the first one-lane call,
    compiles the program and generates nothing. Batches and one-lane calls
    then alternate: the first later one of each generates its form's kernel,
    which every later one of that form runs. Each vector alone also runs
    through ``_evaluate_one`` itself, and on the lanes kernel at one lane."""
    tied = tied or {}
    assert net._programs == {} and net._kernels == {} and net._lane_kernels == {}
    vectors = [{**v, **tied} for v in vectors]
    columns = {bus: [v[bus] for v in vectors] for bus in net.inputs}
    columns.update(tied)
    key = tuple(sorted(tied.items()))
    want = reference_outputs(net, vectors)
    extremes = [
        {bus: value * ((1 << len(nets)) - 1) for bus, nets in net.inputs.items()}
        for value in (0, 1)
    ]
    alone = [{**v, **tied} for v in extremes + vectors[:65]]
    want_alone = reference_outputs(net, alone)
    evaluations = []  # the form of each evaluation so far
    later = set()  # the forms evaluated after the first evaluation
    kernels = {}  # each form's kernel, once generated

    def evaluated(form):
        """Check the caches after an evaluation in ``form``."""
        if evaluations:
            later.add(form)
        evaluations.append(form)
        assert list(net._programs) == [key], form
        for name, cache in (("one", net._kernels), ("lanes", net._lane_kernels)):
            assert list(cache) == ([key] if name in later else []), (form, name)
            if name in later:
                assert kernels.setdefault(name, cache[key]) is cache[key], (form, name)

    def batch(run):
        if len(vectors) > 1:
            assert net.evaluate_batch(columns) == want, f"batch {run}"
            evaluated("lanes")

    def one_lane(run):
        i = run % len(alone)
        got = net.evaluate_batch({**{bus: [alone[i][bus]] for bus in net.inputs}, **tied})
        assert got == {bus: [values[i]] for bus, values in want_alone.items()}, (
            f"one-lane run {run}: {alone[i]}"
        )
        assert all(type(v) is int for values in got.values() for v in values)
        evaluated("one")

    for run in range(len(alone)):
        batch(run)
        one_lane(run)
    assert later == ({"one", "lanes"} if len(vectors) > 1 else {"one"})
    untied = [bus for bus in net.inputs if bus not in tied]
    for i, vector in enumerate(alone):
        got = net._evaluate_one(key, [vector[bus] for bus in untied])
        assert got == tuple(want_alone[bus][i] for bus in net.outputs), vector
        evaluated("one")
        bits = [
            word for bus in untied for word in per_bit_lanes([vector[bus]], net.input_width(bus))
        ]
        got = net._evaluate_lanes(key, bits, 1)
        assert got == tuple(
            word
            for bus, nets in net.outputs.items()
            for word in per_bit_lanes([want_alone[bus][i]], len(nets))
        ), vector
        evaluated("lanes")


@pytest.mark.parametrize("name", ["adder65", "adder100"])
def test_one_lane_wide_buses_across_generation(name):
    # Above 64 bits a one-lane column's value must reach the first
    # evaluation's one-lane words and then the generated kernel, and every
    # output come back, as the bus value.
    net = build_unit(name)
    rng = random.Random(name)
    for run in range(4):
        vector = {bus: rng.randrange(1 << len(nets)) for bus, nets in net.inputs.items()}
        got = net.evaluate_batch({bus: [value] for bus, value in vector.items()})
        assert got == reference_outputs(net, [vector]), (run, vector)
        # The first call compiles the program, the second generates.
        assert list(net._kernels) == ([()] if run else []), run


def sample_lanes(net, lanes, seed):
    rng = random.Random(seed)
    return rng.choices(input_vectors(net, rng), k=lanes)


@pytest.mark.parametrize("lanes", LANE_COUNTS)
@pytest.mark.parametrize("name", catalog_units())
def test_generated_kernel_catalog_unit(name, lanes):
    net = build_unit(name)
    vectors = sample_lanes(net, lanes, f"{name}-{lanes}")
    assert_first_interpreted_later_generated(net, vectors)


@pytest.mark.parametrize("lanes", LANE_COUNTS)
@pytest.mark.parametrize("select", [0, 1])
@pytest.mark.parametrize("name", RECONFIGURABLE_UNITS)
def test_generated_kernel_tied_select(name, select, lanes):
    net = build_unit(name)
    vectors = sample_lanes(net, lanes, f"{name}-{select}-{lanes}")
    assert_first_interpreted_later_generated(net, vectors, {"select": select})


def test_generated_kernel_random_programs():
    # The random builder programs of ``TestTrustedFinalize``, each at a
    # lane count of its own.
    rng = random.Random(20101)
    lane_rng = random.Random(20103)
    for i in range(200):
        net = _random_program(rng)
        vectors = [
            {bus: lane_rng.randrange(1 << len(bits)) for bus, bits in net.inputs.items()}
            for _ in range(LANE_COUNTS[i % len(LANE_COUNTS)])
        ]
        assert_first_interpreted_later_generated(net, vectors)


def folded_away_netlist():
    """Every gate folds away: outputs read an input bit twice, both
    constants, a copy of an input bit and a constant gate. Bus ``idle``
    is read by nothing."""
    b = NetlistBuilder("folded_away")
    x = b.add_input("x", 2)
    b.add_input("idle", 3)
    zero, one = b.const(0), b.const(1)
    copy = b.add_gate("OR", [x[1], zero])
    b.set_output("o", [b.add_gate("AND", [x[0], zero]), copy, x[0], one, x[0]])
    b.set_output("k", [zero])
    return b.finalize()


def edge_netlist():
    """Live gates, with output buses that also read an input bit, each
    constant and one net twice, and an input bus that no gate reads."""
    b = NetlistBuilder("edges")
    x = b.add_input("x", 2)
    y = b.add_input("y", 1)
    b.add_input("idle", 2)
    g = b.add_gate("XOR", [x[0], y[0]])
    h = b.add_gate("NAND", [g, x[1]])
    b.set_output("o", [h, g, h, x[1], b.const(0)])
    b.set_output("p", [b.const(1), y[0], y[0]])
    return b.finalize()


def no_output_netlist():
    """No output bus, which only ``Netlist(...)`` accepts: the builder and
    the parser reject it. Every evaluation returns an empty dict."""
    gates = [Gate(0, GateKind.AND, (0, 1), 2)]
    return Netlist("no_outputs", {"x": [0, 1]}, {}, gates, {})


@pytest.mark.parametrize("lanes", [1, 65])
@pytest.mark.parametrize(
    "build, want_ops",
    [(folded_away_netlist, 0), (edge_netlist, 2), (no_output_netlist, 0)],
)
def test_generated_kernel_edges(build, want_ops, lanes):
    net = build()
    assert len(net._compile({}).ops) == want_ops
    assert_first_interpreted_later_generated(net, sample_lanes(net, lanes, lanes))


@pytest.mark.parametrize("first, later", [(65, 1), (1, 65)], ids=["many-then-one", "one-then-many"])
def test_generated_kernel_lane_count_changes(first, later):
    # The first call, at either lane count, compiles the program and
    # generates nothing. The first later 65-lane call generates the lanes
    # kernel and the first later one-lane call the one-lane kernel; both
    # lane counts then keep running their own kernel.
    net = build_unit("reconfigurable")
    vectors = sample_lanes(net, 65, "lanes")
    want = reference_outputs(net, vectors)

    def check(lanes, start):
        picked = [(start + j) % len(vectors) for j in range(lanes)]
        columns = {bus: [vectors[i][bus] for i in picked] for bus in net.inputs}
        assert net.evaluate_batch(columns) == {
            bus: [values[i] for i in picked] for bus, values in want.items()
        }, (lanes, start)

    check(first, 0)
    assert list(net._programs) == [()]
    assert net._kernels == {} and net._lane_kernels == {}
    for run in range(3):
        check(65, run)
    assert net._kernels == {} and list(net._lane_kernels) == [()]
    lane_kernel = net._lane_kernels[()]
    check(1, 0)
    assert list(net._kernels) == [()]
    kernel = net._kernels[()]
    for run in range(1, 4):
        check(first, run)
        check(later, run)
    assert net._kernels == {(): kernel} and net._lane_kernels == {(): lane_kernel}


@pytest.mark.parametrize("lanes", [2, 64, 65, 1000])
def test_batches_generate_once(lanes):
    # The first batch runs the gate loop, the second generates the lanes
    # kernel and every later one runs that kernel; no batch generates a
    # one-lane kernel.
    net = build_unit("reconfigurable_q3")
    vectors = sample_lanes(net, lanes, f"never-{lanes}")
    columns = {bus: [v[bus] for v in vectors] for bus in net.inputs}
    want = reference_outputs(net, vectors)
    kernels = []
    for run in range(4):
        assert net.evaluate_batch(columns) == want, run
        kernels.append(net._lane_kernels.get(()))
    assert kernels[0] is None and kernels[1] is not None
    assert kernels[1:] == [kernels[1]] * 3
    assert list(net._programs) == [()] and net._kernels == {}


# A fresh program's calls by lane count, and after each call the kernels
# generated and the calls that ran one, then the one-lane and lanes
# kernels held: the first evaluation compiles the program, and the first
# later evaluation at one lane, or at two or more, generates that form's
# kernel and runs it.
GENERATION_RULE = {
    "one-lane-twice": ([1, 1, 1], [0, 1, 1], [0, 1, 2], (1, 0)),
    "batch-then-one-lane": ([2, 1, 1], [0, 1, 1], [0, 1, 2], (1, 0)),
    "batches-only": ([2, 65, 2, 65], [0, 1, 1, 1], [0, 1, 2, 3], (0, 1)),
    "one-lane-then-batches": ([1, 2, 65, 1], [0, 1, 1, 2], [0, 1, 2, 3], (1, 1)),
}


@pytest.mark.parametrize("tied", [{}, {"select": 1}], ids=["untied", "select-1"])
@pytest.mark.parametrize("case", GENERATION_RULE)
def test_generation_rule(case, tied, monkeypatch):
    generated, kernel_calls = [], []
    generate = netlist._generate_kernel

    def counted_generate(p, lanes):
        kernel = generate(p, lanes)
        generated.append(p)

        def counted(*args):
            kernel_calls.append(args)
            out = kernel(*args)
            # Either form returns a flat tuple of ints: bus values, or the
            # output lane words bus after bus.
            assert type(out) is tuple and all(type(v) is int for v in out)
            assert len(out) == (sum(map(len, p.out_slots.values())) if lanes else len(p.out_slots))
            return out

        return counted

    monkeypatch.setattr(netlist, "_generate_kernel", counted_generate)
    net = build_unit("reconfigurable")
    vectors = [{**v, **tied} for v in sample_lanes(net, 65, case)]
    lane_counts, want_generated, want_kernel_calls, want_held = GENERATION_RULE[case]
    for call, lanes in enumerate(lane_counts):
        batch = [vectors[(call + j) % len(vectors)] for j in range(lanes)]
        columns = {bus: [v[bus] for v in batch] for bus in net.inputs}
        assert net.evaluate_batch({**columns, **tied}) == reference_outputs(net, batch), call
        counts = (len(generated), len(kernel_calls))
        assert counts == (want_generated[call], want_kernel_calls[call]), call
    assert list(net._programs) == [tuple(sorted(tied.items()))]
    assert (len(net._kernels), len(net._lane_kernels)) == want_held


def test_rejected_evaluation_compiles_nothing():
    # A call whose columns are rejected is not an evaluation: it compiles
    # nothing, so the next accepted call is the first, and it is interpreted.
    net = build_unit("vedic2x2")
    for lanes in (1, 2):
        with pytest.raises(NetlistError):
            net.evaluate_batch({"a": [4] * lanes, "b": [1] * lanes})
    assert net._programs == {} and net._kernels == {} and net._lane_kernels == {}
    assert_first_interpreted_later_generated(net, sample_lanes(net, 2, 0))


@pytest.mark.parametrize("count", [0, 3, 5, 9])
def test_lane_word_count_is_checked(count):
    # vedic2x2 has 4 input bits. Another word count is rejected with the
    # same message at the program's first evaluation, which then compiles
    # nothing, and at a later one, which then generates nothing, with the
    # buses tied or not. The accepted call returns p's 4 lane words as one
    # flat tuple: 3*3 = 0b1001 untied, 1*3 = 0b0011 with a tied to 1.
    for key, bits, product in (((), 4, (1, 0, 0, 1)), ((("a", 1),), 2, (1, 1, 0, 0))):
        if count == bits:
            continue
        net = build_unit("vedic2x2")
        message = f"expected {bits} lane words, one per untied input bit, got {count}"
        # Before any evaluation, after the first and after the second.
        for evaluations in range(3):
            with pytest.raises(NetlistError) as info:
                net._evaluate_lanes(key, [1] * count, 1)
            assert str(info.value) == message, (key, evaluations)
            assert len(net._programs) == (evaluations > 0), (key, evaluations)
            assert len(net._lane_kernels) == (evaluations > 1), (key, evaluations)
            assert net._evaluate_lanes(key, [1] * bits, 1) == product, (key, evaluations)


# Bus names that are Python keywords or spell the kernel's own names: none
# of them may reach the generated source.
KEYWORD_NAMES_TEXT = """\
netlist names v1
input def 2
input return 1
input m 2
input i0 1
input words 1
input _ 1
const1 n0
gate 0 AND def[0] m[1] -> n1
gate 1 XOR n1 return[0] -> n2
gate 2 NOR def[1] i0[0] -> n3
gate 3 NOT m[0] -> n4
gate 4 XNOR words[0] _[0] -> n5
output s1 n2 n3 n4 def[1] n5
output c0 n0 n3 m[0] words[0]
"""


@pytest.mark.parametrize("lanes", [1, 64])
def test_generated_kernel_bus_names(lanes):
    net = parse_netlist(KEYWORD_NAMES_TEXT)
    assert list(net.inputs) == ["def", "return", "m", "i0", "words", "_"]
    assert list(net.outputs) == ["s1", "c0"]
    assert_first_interpreted_later_generated(net, sample_lanes(net, lanes, lanes))


def lane_units():
    """Every catalog unit with no bus tied, and each reconfigurable one
    with ``select`` tied to each value."""
    untied = [pytest.param(p.values[0], None, id=p.id) for p in catalog_units()]
    return untied + [
        pytest.param(name, select, id=f"fft-{name}-select{select}")
        for name in RECONFIGURABLE_UNITS
        for select in (0, 1)
    ]


# Small netlists for the lanes path beside the catalog units, by test id.
EDGE_NETLISTS = {
    "edges": edge_netlist,
    "folded_away": folded_away_netlist,
    "no_outputs": no_output_netlist,
    "keyword_names": lambda: parse_netlist(KEYWORD_NAMES_TEXT),
}


@pytest.mark.parametrize(
    "name, select",
    lane_units() + [pytest.param(name, None, id=f"edge-{name}") for name in EDGE_NETLISTS],
)
def test_evaluate_lanes_matches_evaluate_batch(name, select):
    # The lanes path, on the lane words of seeded vectors, returns one flat
    # tuple of the lane words of the outputs, bus after bus, that the
    # checked batch path of a second copy of the netlist gives: at 257
    # lanes on the program's first evaluation, which runs the gate loop, at
    # 65 on its second, which generates the lanes kernel, and at 1 on its
    # third, which runs that kernel.
    build = EDGE_NETLISTS.get(name, lambda: build_unit(name))
    net, other = build(), build()
    tied = {} if select is None else {"select": select}
    key = tuple(sorted(tied.items()))
    vectors = sample_lanes(net, 257, f"lanes-{name}-{select}")
    kernels = []
    for start, lanes in ((0, 257), (100, 65), (200, 1)):
        batch = vectors[start : start + lanes]
        columns = {bus: [v[bus] for v in batch] for bus in net.inputs if bus not in tied}
        words = [
            word
            for bus, col in columns.items()
            for word in per_bit_lanes(col, net.input_width(bus))
        ]
        got = net._evaluate_lanes(key, words, lanes)
        want = other.evaluate_batch({**columns, **tied})
        assert got == tuple(
            word for bus in net.outputs for word in per_bit_lanes(want[bus], net.output_width(bus))
        ), lanes
        kernels.append(net._lane_kernels.get(key))
    assert kernels[0] is None and kernels[1] is not None and kernels[2] is kernels[1]
    assert list(net._programs) == [key] and net._kernels == {}


def assert_kernels_match_run(net, vectors, tied=None):
    """Run the program of ``net`` with ``tied`` on ``vectors`` through the
    gate loop ``_run``, then through both generated kernel forms: the lanes
    kernel on every vector at once and the one-lane kernel on each vector
    alone must give what the loop gave."""
    tied = tied or {}
    p = net._compile(tied)
    n = len(vectors)
    mask = (1 << n) - 1
    words = [
        word
        for bus, slots in p.in_slots.items()
        for word in per_bit_lanes([v[bus] for v in vectors], len(slots))
    ]
    values = [0] * p.size
    values[-1] = mask
    for s, word in zip(itertools.chain(*p.in_slots.values()), words):
        values[s] = word
    net._run(p, values, mask)
    want = tuple(values[s] for s in itertools.chain(*p.out_slots.values()))
    assert netlist._generate_kernel(p, lanes=True)(mask, words) == want
    one_lane = netlist._generate_kernel(p, lanes=False)
    for i, vector in enumerate(vectors):
        got = one_lane(*(vector[bus] for bus in p.in_slots))
        bits = iter(want)
        assert got == tuple(
            sum((next(bits) >> i & 1) << k for k in range(len(slots)))
            for slots in p.out_slots.values()
        ), vector


def chain_netlist(kind, length):
    """``length`` gates of ``kind`` in a chain, each read by the next gate
    only: NOT of the last, or AND of the last and the next bit of ``x``."""
    b = NetlistBuilder(f"{kind.lower()}_chain")
    x = b.add_input("x", 8)
    last = x[0]
    for i in range(length):
        last = b.add_gate(kind, [last] if kind == "NOT" else [last, x[1 + i % 7]])
    b.set_output("o", [last])
    return b.finalize()


@pytest.mark.parametrize("lanes", [1, 65])
@pytest.mark.parametrize("kind", ["AND", "NOT"])
def test_single_reader_chain(kind, lanes):
    # Each gate's one reader would take its expression in parentheses; the
    # nesting cap keeps the generated statements parseable.
    net = chain_netlist(kind, 1000)
    assert len(net._compile({}).ops) == 1000
    vectors = [{"x": 255}, {"x": 0}, *sample_lanes(net, lanes, f"{kind}-{lanes}")][:lanes]
    assert_kernels_match_run(net, vectors)
    # Through ``evaluate_batch``: the first call runs the gate loop, the
    # second generates the kernel of its form and the third runs it. An
    # even count of NOTs gives back x[0].
    xs = [v["x"] for v in vectors]
    want = [x & 1 if kind == "NOT" else int(x == 255) for x in xs]
    for _ in range(3):
        assert net.evaluate_batch({"x": xs}) == {"o": want}


@pytest.mark.parametrize("name, select", lane_units())
def test_generated_kernels_match_run(name, select):
    net = build_unit(name)
    tied = {} if select is None else {"select": select}
    vectors = [{**v, **tied} for v in sample_lanes(net, 65, f"run-{name}-{select}")]
    assert_kernels_match_run(net, vectors, tied)


def test_kernel_file_names(monkeypatch):
    # Each generated kernel is compiled under a file name of its own, made
    # of the netlist name, the program key and the form, so that profiles
    # keep kernels apart; the source holds no bus name.
    sources = {}

    def recording_compile(source, filename, mode):
        sources[filename] = source
        return compile(source, filename, mode)

    monkeypatch.setattr(netlist, "compile", recording_compile, raising=False)
    filenames = []
    for name in unit_names():
        net = build_unit(name)
        buses = net.inputs.keys() | net.outputs.keys()
        for tied in [{}] + [{"select": v} for v in (0, 1) if "select" in net.inputs]:
            p = net._compile(tied)
            for lanes, form in ((True, "lanes"), (False, "one-lane")):
                filename = netlist._generate_kernel(p, lanes).__code__.co_filename
                assert filename == f"<kernel {name} {tuple(tied.items())} {form}>"
                assert not buses & set(re.findall(r"[A-Za-z_]\w*", sources[filename]))
                filenames.append(filename)
    assert len(set(filenames)) == len(filenames) == 28


def test_threads_generate_a_kernel_at_once():
    # Each program has run its first one-lane evaluation, which compiles
    # it. Two one-lane threads per program then race to generate its
    # one-lane kernel, and two batch threads per program its lanes kernel.
    net = build_unit("reconfigurable_q3")
    vectors = input_vectors(net, random.Random(5))[:100]
    jobs = []
    for select in (0, 1, None):
        batch = vectors if select is None else [{**v, "select": select} for v in vectors]
        tied = {} if select is None else {"select": select}
        columns = {bus: [v[bus] for v in batch] for bus in net.inputs if bus not in tied}
        one = {bus: col[:1] for bus, col in columns.items()}
        net.evaluate_batch({**one, **tied})
        jobs += [({**one, **tied}, reference_outputs(net, batch[:1]))] * 2
        jobs += [({**columns, **tied}, reference_outputs(net, batch))] * 2
    assert len(net._programs) == 3 and net._kernels == {} and net._lane_kernels == {}
    results = [None] * len(jobs)
    start = threading.Barrier(len(jobs))

    def evaluate(i):
        start.wait(timeout=30)
        results[i] = net.evaluate_batch(jobs[i][0])

    threads = [threading.Thread(target=evaluate, args=(i,)) for i in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [want for _, want in jobs]
    assert set(net._kernels) == {(), (("select", 0),), (("select", 1),)}
    assert set(net._lane_kernels) == set(net._kernels)


@pytest.mark.parametrize("width", [8, 64, 100])
def test_no_call_per_vector(width):
    # A bus of any width becomes lane words and comes back with a fixed
    # number of calls, Python or C, whatever the lane count.
    net = build_ripple_adder(width)

    def calls(lanes):
        rng = random.Random(lanes)
        columns = {
            bus: [rng.randrange(1 << net.input_width(bus)) for _ in range(lanes)]
            for bus in net.inputs
        }
        # The first call compiles the program and the second generates
        # its lanes kernel, which the profiled call runs.
        net.evaluate_batch(columns)
        net.evaluate_batch(columns)
        assert list(net._lane_kernels) == [()]
        events = []
        sys.setprofile(lambda frame, event, arg: events.append(event))
        try:
            net.evaluate_batch(columns)
        finally:
            sys.setprofile(None)
        return sum(event in ("call", "c_call") for event in events)

    assert calls(2) == calls(1000)


# Python-level calls ("call" events) and C calls of one one-lane
# ``evaluate_batch`` on vedic4x4 once its program has a generated kernel,
# measured on CPython 3.11: 8 Python-level calls (the call itself, two
# ``Sequence`` instance checks, three comprehensions, ``_evaluate_one`` and
# the kernel; 3.12 and later inline comprehensions) and 26 C calls,
# profiler switch-off included. They were 14 and 38 when one lane went
# through a packed int per bus, and a one-lane batch that transposed to
# lane words and back would add the calls of ``_bus_lanes`` and
# ``_bus_values``.
ONE_LANE_EVALUATE_BATCH_CALLS = 8
ONE_LANE_EVALUATE_BATCH_C_CALLS = 26


def test_one_lane_evaluate_batch_transposes_nothing():
    net = build_unit("vedic4x4")
    columns = {"a": [13], "b": [11]}
    for _ in range(2):  # a second one-lane call generates the kernel
        net.evaluate_batch(columns)
    assert list(net._kernels) == [()]
    events = []
    sys.setprofile(lambda frame, event, arg: events.append((event, frame.f_code.co_name)))
    try:
        result = net.evaluate_batch(columns)
    finally:
        sys.setprofile(None)
    assert result == {"p": [143]}
    called = [name for event, name in events if event == "call"]
    assert not {"_bus_lanes", "_bus_values"} & set(called), called
    assert len(called) <= ONE_LANE_EVALUATE_BATCH_CALLS, called
    assert [event for event, _ in events].count("c_call") <= ONE_LANE_EVALUATE_BATCH_C_CALLS


FFT_CONFIGS = [
    FftConfig.make(select, twiddle, 4) for twiddle in ("exact", "q3") for select in (4, 2)
]


# Python-level calls ("call" events) and C calls of one one-lane
# ``run_fft`` once its program has a generated kernel, measured on CPython
# 3.10 to 3.13 for all four configurations: 12 Python-level calls (the
# call itself, ``_check_config``, ``_coerce_samples``, ``_net_for``,
# ``_evaluate_one``, the kernel, four ``FixedComplex.__init__``,
# ``scale_log2`` and ``FftResult.__init__``) and 11 C calls, profiler
# switch-off included, 10 with select 2. They were 17 on 3.10 and 3.11
# while ``run_fft`` masked the components in a comprehension and
# ``FixedComplex`` checked in a ``__post_init__``, 41 and 56 when
# ``run_fft`` was a one-lane ``run_fft_batch`` that built columns and went
# through ``evaluate_batch``, and 86 and 93 before that, when the kernel
# took and returned lane words.
ONE_LANE_RUN_FFT_CALLS = 12
ONE_LANE_RUN_FFT_C_CALLS = 11


@pytest.mark.parametrize("config", FFT_CONFIGS, ids=lambda c: f"{c.twiddle_mode}-{c.select}")
def test_one_lane_run_fft_call_count(config):
    samples = [(1, -2), (3, 4), (-8, 7), (0, 5)][: config.select]
    for _ in range(2):  # a second one-lane call generates the kernel
        run_fft(config, samples)
    assert len(fft._net_for(config)._kernels) >= 1
    events = []
    sys.setprofile(lambda frame, event, arg: events.append(event))
    try:
        result = run_fft(config, samples)
    finally:
        sys.setprofile(None)
    assert result == run_fft_batch(config, [samples, samples])[1]
    assert events.count("call") <= ONE_LANE_RUN_FFT_CALLS
    assert events.count("c_call") <= ONE_LANE_RUN_FFT_C_CALLS


@pytest.mark.parametrize("config", FFT_CONFIGS, ids=lambda c: f"{c.twiddle_mode}-{c.select}")
def test_one_lane_run_fft_across_generation(config):
    # 300 one-lane calls on a fresh netlist: the first compiles the
    # program and the second generates its kernel. Each agrees with the
    # batch path and the oracle, on samples that always hold both extreme
    # components.
    fft._reconfigurable_cached.cache_clear()
    net = fft._net_for(config)
    key = (("select", int(config.select == 4)),)
    rng = random.Random(config.select * 10 + (config.fraction_bits or 0))
    scale = 1 << (config.fraction_bits or 0)
    for call in range(300):
        parts = [-8, 7] + [rng.randint(-8, 7) for _ in range(2 * config.select - 2)]
        rng.shuffle(parts)
        samples = list(zip(parts[::2], parts[1::2]))
        result = run_fft(config, samples)
        assert list(net._kernels) == ([key] if call else []), call
        assert result == run_fft_batch(config, [samples, samples])[0], call
        want = fft.dft_oracle([complex(*s) for s in samples])
        want += [0j] * (4 - len(want))
        assert [c.to_complex() for c in result.spectrum] == [scale * w for w in want], call
    assert list(net._programs) == [key]


@pytest.mark.parametrize("width", [2, 16, 65])
@pytest.mark.parametrize("value", [0.5, 1.0])
def test_non_int_between_column_bounds(width, value):
    # The value is neither the column's minimum nor its maximum, so only
    # converting the column to lane words meets it.
    net = build_ripple_adder(width)
    top = (1 << width) - 1
    with pytest.raises(NetlistError, match=rf"\[0, 2\*\*{width}\)"):
        net.evaluate_batch({"a": [0, value, top], "b": [0, 0, 0], "cin": [0, 0, 0]})


def assert_rejects(case):
    """``case(n)`` gives the columns of an n-lane vedic2x2 call and the
    message it must be rejected with, in full. Each call is made at 1 and at
    3 lanes on a fresh netlist, and on one whose untied program has
    generated both its kernels (so both kernel forms sit behind the checks
    too); none compiles or generates anything."""
    generated = build_unit("vedic2x2")
    # The first call compiles, the second and third generate.
    for columns in ({"a": [1], "b": [2]}, {"a": [1], "b": [2]}, {"a": [1, 3], "b": [2, 0]}):
        generated.evaluate_batch(columns)
    assert list(generated._kernels) == list(generated._lane_kernels) == [()]
    for net in (build_unit("vedic2x2"), generated):
        before = (dict(net._programs), dict(net._kernels), dict(net._lane_kernels))
        for lanes in (1, 3):
            columns, message = case(lanes)
            with pytest.raises(NetlistError) as info:
                net.evaluate_batch(columns)
            assert str(info.value) == message, (lanes, columns)
            assert (net._programs, net._kernels, net._lane_kernels) == before
        assert net.evaluate_batch({"a": [3], "b": [3]}) == {"p": [9]}


OUTSIDE_A = "input a values must be integers in [0, 2**2)"
OUTSIDE_B = "input b values must be integers in [0, 2**2)"


class TestBatchRejections:
    # Each message in full, and which of two faults a call reports: the
    # bus set first, then each column in mapping order as int or sequence
    # (a scalar's range with it), then lengths, emptiness and list ranges,
    # the first list in mapping order named.

    def test_missing_bus(self):
        assert_rejects(lambda n: ({"a": [1] * n}, "missing input buses: ['b']"))
        # Missing before unknown.
        assert_rejects(
            lambda n: ({"c": [0] * n, "a": [9] * n}, "missing input buses: ['b']")
        )
        assert_rejects(lambda n: ({"c": 9}, "missing input buses: ['a', 'b']"))

    def test_extra_bus(self):
        assert_rejects(
            lambda n: ({"a": [1] * n, "b": [1] * n, "c": [0]}, "unknown input buses: ['c']")
        )
        assert_rejects(
            lambda n: (
                {"z": None, "a": [9] * n, "b": [1] * (n + 1), "c": 1},
                "unknown input buses: ['c', 'z']",
            )
        )

    def test_unequal_lengths(self):
        assert_rejects(
            lambda n: (
                {"a": [1] * n, "b": [1] * (n + 1)},
                f"input columns differ in length: [{n}, {n + 1}]",
            )
        )
        # Before an empty column and before a list value outside its bus.
        assert_rejects(
            lambda n: ({"a": [9] * (n + 2), "b": []}, f"input columns differ in length: [0, {n + 2}]")
        )

    def test_empty_columns(self):
        assert_rejects(lambda n: ({"a": [], "b": []}, "input columns are empty"))
        assert_rejects(lambda n: ({"a": [], "b": 3}, "input columns are empty"))
        # A scalar outside its bus is met while the columns are classified.
        assert_rejects(lambda n: ({"a": [], "b": 4}, OUTSIDE_B))

    @pytest.mark.parametrize("value", [-1, 4, 1 << 40, 1.0, "1", None])
    def test_value_outside_bus(self, value):
        assert_rejects(lambda n: ({"a": [0] * (n - 1) + [value], "b": [1] * n}, OUTSIDE_A))
        # The first bad list in mapping order is named, whatever its lane.
        assert_rejects(
            lambda n: ({"b": [value] + [0] * (n - 1), "a": [value] * n}, OUTSIDE_B)
        )
        assert_rejects(
            lambda n: ({"a": [3] * n, "b": [0] * (n - 1) + [value]}, OUTSIDE_B)
        )

    @pytest.mark.parametrize("value", [-1, 4, 1 << 40])
    def test_scalar_outside_bus(self, value):
        assert_rejects(lambda n: ({"a": value, "b": [1] * n}, OUTSIDE_A))
        # Before a list outside its bus, unequal lengths and an all-scalar call.
        assert_rejects(lambda n: ({"b": [9] * n, "a": value}, OUTSIDE_A))
        assert_rejects(lambda n: ({"b": [1] * n, "a": value, "c": []}, "unknown input buses: ['c']"))
        assert_rejects(lambda n: ({"a": 1, "b": value}, OUTSIDE_B))

    @pytest.mark.parametrize(
        "column", [1.0, None, {1, 2}, iter([1])], ids=["float", "None", "set", "iterator"]
    )
    def test_column_neither_int_nor_sequence(self, column):
        name = type(column).__name__
        message = f"input a column must be an int or a sequence, got {name}"
        assert_rejects(lambda n: ({"a": column, "b": [1] * n}, message))
        assert_rejects(lambda n: ({"b": [1] * (n + 1), "a": column}, message))
        # Columns are classified in mapping order.
        assert_rejects(lambda n: ({"b": 4, "a": column}, OUTSIDE_B))
        assert_rejects(
            lambda n: (
                {"a": column, "b": 4},
                f"input a column must be an int or a sequence, got {name}",
            )
        )

    def test_every_column_scalar(self):
        message = "every input column is a scalar: no list gives the lane count"
        assert_rejects(lambda n: ({"a": 1, "b": 2}, message))
        assert_rejects(lambda n: ({"a": 1, "b": True}, message))

    @pytest.mark.parametrize("lanes", [1, 3])
    def test_bool_values_read_as_ints(self, lanes):
        # ``bool`` is an int: True and False are 1 and 0, in a list or as a
        # scalar, and every output value is a plain int, kernel or not.
        net = build_unit("vedic2x2")
        flags = [True, False, True][:lanes]
        want = net.evaluate_batch({"a": [int(f) for f in flags], "b": [3] * lanes})
        for run in range(3):
            got = net.evaluate_batch({"a": flags, "b": [3] * lanes})
            assert got == want and all(type(v) is int for v in got["p"]), run
            got = net.evaluate_batch({"a": flags, "b": True})
            assert got == net.evaluate_batch({"a": flags, "b": 1})
            assert all(type(v) is int for v in got["p"]), run
        # Each program generates the kernel of the one form it runs in.
        held, unused = (net._kernels, net._lane_kernels)
        if lanes > 1:
            held, unused = unused, held
        assert set(held) == {(), (("b", 1),)} and unused == {}


@pytest.mark.parametrize("config", FFT_CONFIGS, ids=lambda c: f"{c.twiddle_mode}-{c.select}")
def test_run_fft_batch_matches_run_fft(config):
    rng = random.Random(config.select * 10 + (config.fraction_bits or 0))
    sample_lists = [
        [(rng.randint(-8, 7), rng.randint(-8, 7)) for _ in range(4)] for _ in range(300)
    ]
    if config.select == 2:
        sample_lists += [samples[:2] for samples in sample_lists[:50]]
    sample_lists.append([(1, 0), (2, 0), (3, 0), (4, 0)])
    batch = run_fft_batch(config, sample_lists)
    assert batch == [run_fft(config, samples) for samples in sample_lists]


def test_run_fft_batch_checks_inputs_as_run_fft_does():
    config = FftConfig.make(4, "exact", 4)
    assert run_fft_batch(config, []) == []
    for bad in (
        [(8, 0)] * 4,
        [(0, 0)] * 3,
        [(0, 0, 0)] * 4,
        [{1: 2, 3: 4}] * 4,
        [(0, 0), {1, 2}, (0, 0), (0, 0)],
    ):
        with pytest.raises(ValueError) as scalar:
            run_fft(config, bad)
        with pytest.raises(ValueError) as batch:
            run_fft_batch(config, [[(0, 0)] * 4, bad])
        assert str(batch.value) == str(scalar.value)
    for bad_config in (None, "exact"):
        with pytest.raises(NetlistError) as scalar:
            run_fft(bad_config, [(0, 0)] * 4)
        with pytest.raises(NetlistError) as batch:
            run_fft_batch(bad_config, [[(0, 0)] * 4, [{1: 2, 3: 4}] * 4])
        assert str(batch.value) == str(scalar.value)
        assert str(batch.value) == f"expected FftConfig, got {type(bad_config).__name__}"


@pytest.mark.parametrize(
    "sample_lists, message",
    [
        # A list's type and count faults come before any range fault, in
        # an earlier list or not; ranges are then read in vector order.
        ([[(9, 0)] * 4, [(0, 1.5)] * 4], "components must be integers, got 1.5"),
        ([[(9, 0)] * 4, [(0, 0)] * 3], "expected 4 samples (or 2 with select=2), got 3"),
        ([[(9, 0)] * 4, [(0, 0), {1: 2}]], "sample must be a (re, im) pair, got {1: 2}"),
        ([[(0, 0)] * 3, [(1.5, 0)] * 4], "expected 4 samples (or 2 with select=2), got 3"),
        ([[(0, 0)] * 3 + [(0, 10)], [(11, 0)] * 4], "component 10 outside [-8, 7] for width 4"),
        ([[(0, 0)] * 4, [(0, -9), (11, 0)] * 2], "component -9 outside [-8, 7] for width 4"),
    ],
)
def test_run_fft_batch_rejection_precedence(sample_lists, message):
    with pytest.raises(ValueError) as info:
        run_fft_batch(FftConfig.make(4, "exact", 4), sample_lists)
    assert str(info.value) == message
