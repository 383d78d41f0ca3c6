"""The bit-parallel batch path against an independent reference simulator.

``Netlist.evaluate_batch`` packs n vectors into lane words, runs the gate
kernel once and unpacks the results. The reference below shares none of
that code: it packs vector i into bit i of one int per net with plain
shifts, evaluates ``net.gates`` with Python's bitwise operators in its own
dependency order, and unpacks bit by bit. Every batch is compared with it
vector by vector, among them small netlists that hit every rule by which
the compiler folds constant, duplicated-input and dead gates out of the
simulated program, and batches with scalar columns, whose bits the
compiler folds as constants too. The n-lane ``run_fft_batch`` is compared with one-lane
``run_fft`` calls, which the DFT oracle of ``test_fft`` checks.
"""

import itertools
import random
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
from vedicfft.fft import build_unit, unit_names

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


def reference_outputs(net, vectors):
    """Every output bus of ``net`` for ``vectors``, one list of raw values per
    bus: vector i is bit i of each net's word, and a gate's word is computed
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


@pytest.mark.parametrize(
    "name, datapath",
    [
        ("reconfigurable", ("butterfly2", "fft4")),
        ("reconfigurable_q3", ("butterfly2", "fft4_q3")),
    ],
)
def test_tied_select_simulates_only_the_selected_datapath(name, datapath):
    # With select tied, the output multiplexers fold to wires or zeros and
    # the idle datapath reaches no output: what is left is gate for gate
    # the folded program of the selected unit alone.
    net = build_unit(name)
    wants = [len(build_unit(unit)._compile({}).ops) for unit in datapath]
    for select, want in enumerate(wants):
        assert len(net._compile({"select": select}).ops) == want, datapath[select]
    assert len(net._compile({}).ops) > max(wants)


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
    # A range column: the top `lanes` values of the bus, where they fit.
    top = 1 << width
    if lanes <= top:
        b = range(top - lanes, top)
        batch = [{**v, "b": value} for v, value in zip(vectors, b)]
        columns = {bus: [v[bus] for v in batch] for bus in net.inputs}
        assert net.evaluate_batch({**columns, "b": b}) == reference_outputs(net, batch)


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


@pytest.mark.parametrize("width", [8, 64])
def test_no_call_per_vector(width):
    # Up to 64 bits a bus is packed and unpacked with a fixed number of
    # calls, Python or C, whatever the lane count.
    net = build_ripple_adder(width)

    def calls(lanes):
        rng = random.Random(lanes)
        columns = {
            bus: [rng.randrange(1 << net.input_width(bus)) for _ in range(lanes)]
            for bus in net.inputs
        }
        net.evaluate_batch(columns)  # compiles the program
        events = []
        sys.setprofile(lambda frame, event, arg: events.append(event))
        try:
            net.evaluate_batch(columns)
        finally:
            sys.setprofile(None)
        return sum(event in ("call", "c_call") for event in events)

    assert calls(2) == calls(1000)


@pytest.mark.parametrize("width", [2, 16, 65])
@pytest.mark.parametrize("value", [0.5, 1.0])
def test_non_int_between_column_bounds(width, value):
    # The value is neither the column's minimum nor its maximum, so only
    # packing the column meets it.
    net = build_ripple_adder(width)
    top = (1 << width) - 1
    with pytest.raises(NetlistError, match=rf"\[0, 2\*\*{width}\)"):
        net.evaluate_batch({"a": [0, value, top], "b": [0, 0, 0], "cin": [0, 0, 0]})


class TestBatchRejections:
    def test_missing_bus(self, vedic2x2):
        with pytest.raises(NetlistError, match="missing"):
            vedic2x2.evaluate_batch({"a": [1]})

    def test_extra_bus(self, vedic2x2):
        with pytest.raises(NetlistError, match="unknown"):
            vedic2x2.evaluate_batch({"a": [1], "b": [1], "c": [0]})

    def test_unequal_lengths(self, vedic2x2):
        with pytest.raises(NetlistError, match="differ in length"):
            vedic2x2.evaluate_batch({"a": [1, 2], "b": [1]})

    def test_empty_columns(self, vedic2x2):
        with pytest.raises(NetlistError, match="empty"):
            vedic2x2.evaluate_batch({"a": [], "b": []})

    @pytest.mark.parametrize("value", [-1, 4, 1 << 40, 1.0, "1", None])
    def test_value_outside_bus(self, vedic2x2, value):
        with pytest.raises(NetlistError, match=r"\[0, 2\*\*2\)"):
            vedic2x2.evaluate_batch({"a": [0, value], "b": [1, 1]})

    @pytest.mark.parametrize("value", [-1, 4, 1 << 40])
    def test_scalar_outside_bus(self, vedic2x2, value):
        with pytest.raises(NetlistError, match=r"\[0, 2\*\*2\)"):
            vedic2x2.evaluate_batch({"a": value, "b": [1, 1]})

    @pytest.mark.parametrize(
        "column", [1.0, None, {1, 2}, iter([1])], ids=["float", "None", "set", "iterator"]
    )
    def test_column_neither_int_nor_sequence(self, vedic2x2, column):
        with pytest.raises(NetlistError, match="int or a sequence"):
            vedic2x2.evaluate_batch({"a": column, "b": [1]})

    def test_every_column_scalar(self, vedic2x2):
        with pytest.raises(NetlistError, match="lane count"):
            vedic2x2.evaluate_batch({"a": 1, "b": 2})


FFT_CONFIGS = [
    FftConfig.make(select, twiddle, 4) for twiddle in ("exact", "q3") for select in (4, 2)
]


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
    for bad in ([(8, 0)] * 4, [(0, 0)] * 3, [(0, 0, 0)] * 4):
        with pytest.raises(ValueError) as scalar:
            run_fft(config, bad)
        with pytest.raises(ValueError) as batch:
            run_fft_batch(config, [[(0, 0)] * 4, bad])
        assert str(batch.value) == str(scalar.value)
