"""The verification suites themselves: their case counts, the seeded cases
they draw, that a second pass builds no netlist and redoes nothing that
depends only on its inputs, and that each suite fails, naming the operands
or samples, when one gate of the unit it checks computes the wrong
function, in the gate loop of a first pass and in the generated kernels of
a second."""

import dataclasses
import hashlib
import itertools
import random
import re
import sys
from array import array

import pytest

from vedicfft import arith, fft, netlist, verify
from vedicfft.netlist import GateKind, Netlist, to_signed

FLIPPED = {
    GateKind.AND: GateKind.OR,
    GateKind.OR: GateKind.AND,
    GateKind.XOR: GateKind.XNOR,
    GateKind.XNOR: GateKind.XOR,
}


COUNTS = {
    "vedic2x2": 16,
    "vedic4x4": 256,
    "array4x4": 256,
    "adder": 1512,
    "subtractor": 1256,
    "signed4x4": 512,
    "fft": 3809,
}


def test_case_counts():
    results = verify.verify_all()
    assert all(r.ok for r in results), [r.summary() for r in results]
    assert {r.unit: r.checked for r in results} == COUNTS
    assert list(COUNTS) == list(verify.unit_names())
    assert sum(r.checked for r in results) == 7617


def test_column_suites_build_no_object_per_case(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a per-case object or draw")

    monkeypatch.setattr(fft.FixedComplex, "__init__", forbidden)
    monkeypatch.setattr(fft.FftResult, "__init__", forbidden)
    monkeypatch.setattr(random.Random, "randrange", forbidden)
    for unit in verify.unit_names():
        assert verify.verify_unit(unit).ok, unit


def test_second_pass_builds_no_netlist(monkeypatch):
    verify.verify_all()
    built = []
    init = Netlist.__init__

    def counting(self, name, *args):
        built.append(name)
        init(self, name, *args)

    monkeypatch.setattr(Netlist, "__init__", counting)
    assert all(r.ok for r in verify.verify_all())
    assert built == []


def test_second_pass_reruns_no_digit_serial_oracle(monkeypatch):
    verify.verify_unit("vedic4x4")

    def forbidden(*args, **kwargs):
        raise AssertionError("the digit-serial oracle ran again")

    monkeypatch.setattr(verify.arith, "urdhva_decimal", forbidden)
    result = verify.verify_unit("vedic4x4")
    assert result.ok and result.checked == 256


def test_unknown_unit_lists_only_accepted_names():
    with pytest.raises(ValueError) as info:
        verify.verify_unit("all")
    assert str(info.value) == (
        "unknown unit 'all'; choose from "
        "vedic2x2, vedic4x4, array4x4, adder, subtractor, signed4x4, fft"
    )


# SHA-256 of each FFT section's sample columns, seed 47: every supported
# interpreter must draw these same cases.
SECTION_SHA256 = {
    "exact4": "58e1326ea664c053560b30eff985aef27b57017f320a6950123a4321396263d9",
    "exact2": "2bb0a73afacac01e5215316e6c412923ccc4c6ed2e0d99150dffd4dfed6ee737",
    "linearity": "02e92fb8ac6d61f073f4514f683af6db86591a919113df295b920ccd8e51f91b",
    "time_reversal": "00ca4552e0a272201917158d3d33dd84cbec546b8ab9a847701e9db795f3cb2d",
    "quantized": "0b577e657a8842e5f9fff13921b718ade6f8117a75d60323c7686000165671d4",
}


def section_digests(sections):
    return {
        name: hashlib.sha256(b"".join(col.tobytes() for col in cols)).hexdigest()
        for name, cols in sections.items()
    }


def test_fft_draws_are_pinned():
    sections = verify._fft_sections()
    sizes = {name: len(cols[0]) for name, cols in sections.items()}
    assert sizes == {
        "exact4": 1009,
        "exact2": 400,
        "linearity": 400,
        "time_reversal": 200,
        "quantized": 1000,
    }
    for name, cols in sections.items():
        lo, hi = (-4, 3) if name == "linearity" else (-8, 7)
        assert len(cols) == 8
        assert all(lo <= min(col) and max(col) <= hi for col in cols), name
    assert all(map(any, sections["exact2"][4:]))  # x2, x3: select 2 ignores them
    assert not any(map(any, sections["time_reversal"][1::2]))  # every im
    assert section_digests(sections) == SECTION_SHA256


def test_fft_sections_are_drawn_once_and_read_only(monkeypatch):
    verify.verify_all()
    sections = verify._fft_sections()

    def forbidden(*args, **kwargs):
        raise AssertionError("an FFT section was drawn again")

    monkeypatch.setattr(verify, "_draw", forbidden)
    for _ in range(2):
        assert all(r.ok for r in verify.verify_all())
        assert verify._fft_sections() is sections
        assert section_digests(sections) == SECTION_SHA256
    cols = sections["exact4"]
    with pytest.raises(TypeError):
        cols[0][0] = 1
    with pytest.raises(TypeError):
        cols[0] = cols[1]
    with pytest.raises(TypeError):
        sections["exact4"] = cols


def test_second_pass_redoes_no_input_only_work(monkeypatch):
    # After one warm pass, a pass only runs the gate loop on held lane words
    # and compares: the seeded draws, the operand and sample lane words, the
    # DFT references, the digit-serial products and their diff against a*b
    # and every other oracle word are all held from the first one, so a
    # pass transposes, packs, diffs and decodes nothing.
    first = verify.verify_all()
    integer = {suite: verify._integer_sections(suite) for suite in ("adder", "subtractor")}
    lanes = verify._fft_lanes()

    def forbidden(*args, **kwargs):
        raise AssertionError("a second pass redid work that depends only on its inputs")

    monkeypatch.setattr(random.Random, "getrandbits", forbidden)
    monkeypatch.setattr(fft, "_dft_quarter_turns", forbidden)
    for name in ("_bus_lanes", "_bus_values"):
        monkeypatch.setattr(netlist, name, forbidden)
        if hasattr(verify, name):
            monkeypatch.setattr(verify, name, forbidden)
    monkeypatch.setattr(Netlist, "evaluate_batch", forbidden)
    monkeypatch.setattr(Netlist, "_evaluate_one", forbidden)
    monkeypatch.setattr(verify, "_sample_lanes", forbidden)
    monkeypatch.setattr(verify, "_digit_serial_products", forbidden)
    monkeypatch.setattr(verify, "_diff", forbidden)
    assert verify.verify_all() == first
    assert all(r.ok for r in first)
    assert verify._fft_lanes() is lanes
    assert all(verify._integer_sections(suite) is integer[suite] for suite in integer)
    # Every pass shares them, so the cached words reject writes.
    _, _, inputs, want = integer["adder"][1]
    with pytest.raises(TypeError):
        inputs[0] = want
    with pytest.raises(TypeError):
        integer["adder"][1] = integer["adder"][2]
    with pytest.raises(TypeError):
        verify._exhaustive_lanes(range(16), range(16))[0] = ()
    _, inputs, want = lanes["select=4"]
    with pytest.raises(TypeError):
        want[0] = 0
    with pytest.raises(TypeError):
        inputs[0] = 0
    with pytest.raises(TypeError):
        lanes["select=4"] = lanes["select=2"]


def list_column(rng, n, width):
    """The list reader the integer suites drew their columns with: n values
    of one ``getrandbits`` call, as little-endian 8- or 16-bit items, or as
    n bits at width 1."""
    bits = rng.getrandbits(width * n)
    if width == 1:
        return [(bits >> i) & 1 for i in range(n)]
    items = array("B" if width == 8 else "H", bits.to_bytes(width * n // 8, "little"))
    if sys.byteorder == "big":
        items.byteswap()
    return items.tolist()


@pytest.mark.parametrize("n", [1, 2, 500])
@pytest.mark.parametrize("width", [1, 8, 16])
def test_random_column_draws_are_unchanged(width, n):
    # The integer suites read each random column from one getrandbits call;
    # the same calls on the same rng give the cases of the list reader the
    # suites have always drawn, and the next draw is unchanged too.
    seed = width * 1000 + n
    rng, reference = random.Random(seed), random.Random(seed)
    assert verify._random_column(rng, n, width) == list_column(reference, n, width)
    assert rng.getrandbits(64) == reference.getrandbits(64)


def live_gate_ids(net, select):
    """Ids of the gates the program compiled for ``select`` still runs."""
    nets = sorted(net.nets)
    outputs = {nets[slot] for slot in net._compile({"select": select}).outs}
    return {g.id for g in net.gates if g.output in outputs}


def multiplier_gate_ids(monkeypatch, config):
    """Ids of the gates that the signed 4x4 multipliers of a reconfigurable
    build emit, recorded while building it."""
    ids = set()
    emit = fft._signed_multiplier4

    def recording(b, *args):
        start = len(b._kinds)
        product = emit(b, *args)
        ids.update(range(start, len(b._kinds)))
        return product

    with monkeypatch.context() as patch:
        patch.setattr(fft, "_signed_multiplier4", recording)
        fft.build_reconfigurable_fft(config)
    return ids


def with_kind_flipped(net, gate_id):
    gates = [
        g._replace(kind=FLIPPED[g.kind]) if g.id == gate_id else g for g in net.gates
    ]
    return Netlist(net.name, net.inputs, net.outputs, gates, net.consts)


def two_passes(suite, mutated):
    """The result of ``suite`` with the fresh netlist ``mutated`` in it.
    The first pass compiles its programs and runs them in the gate loop;
    the second generates their lanes kernels and runs those. Both passes
    must give the same result."""
    assert mutated._programs == {}
    first = verify.verify_unit(suite)
    assert mutated._programs and mutated._lane_kernels == {}
    second = verify.verify_unit(suite)
    assert mutated._lane_kernels.keys() == mutated._programs.keys()
    assert second == first
    return second


def fft_suite_with_flip(monkeypatch, config, gate_id):
    """The FFT suite's result with gate ``gate_id`` of the reconfigurable
    netlist of ``config``'s twiddle mode flipped (both select values)."""
    return fft_suite_on(monkeypatch, config, with_kind_flipped(fft._net_for(config), gate_id))


def fft_suite_on(monkeypatch, config, mutated):
    """The FFT suite's result with ``mutated`` as the reconfigurable
    netlist of ``config``'s twiddle mode."""
    cached = fft._reconfigurable_cached

    def reconfigurable(width, mode, fraction_bits):
        if mode == config.twiddle_mode:
            return mutated
        return cached(width, mode, fraction_bits)

    monkeypatch.setattr(fft, "_reconfigurable_cached", reconfigurable)
    return two_passes("fft", mutated)


EXACT4 = fft.FftConfig(select=4)
Q3 = fft.FftConfig(4, "quantized", 3, 4)


def fft_sample_rows():
    """The sample rows of the FFT suite's runs at select 4 and 2 and in
    Q1.3, each a list of 4 (re, im) samples, built the per-lane way from
    the suite's pinned draws: at select 4 the exact4 rows, then the
    linearity rows x (the first 200) and y (the last 200) and their sums,
    then the time-reversal rows and the same rows in sample order 0, 3,
    2, 1."""
    rows = {
        name: [list(zip(row[::2], row[1::2])) for row in zip(*cols)]
        for name, cols in verify._fft_sections().items()
    }
    linearity, reversal = rows["linearity"], rows["time_reversal"]
    m = len(linearity) // 2
    sums = [
        [(a + c, b + d) for (a, b), (c, d) in zip(x, y)]
        for x, y in zip(linearity[:m], linearity[m:])
    ]
    reversed_rows = [[x[0], x[3], x[2], x[1]] for x in reversal]
    select4 = rows["exact4"] + linearity + sums + reversal + reversed_rows
    return select4, rows["exact2"], rows["quantized"]


def fft_per_lane_result():
    """(checked, failed, detail) of the FFT suite computed the per-lane way:
    the rows of :func:`fft_sample_rows`, ``evaluate_batch`` on the netlists
    ``fft._net_for`` and ``verify._unit`` give, with ``select`` tied, and
    ``fft.dft_oracle`` compared case by case. The select-2 run must give
    the 2-point DFT of x0 and x1 and zero in X2 and X3; ``butterfly2`` the
    2-point DFT of the same x0 and x1; Q1.3 2**3 times the 4-point DFT."""
    select4, exact2, quantized = fft_sample_rows()
    runs = [
        ("select=4", fft._net_for(EXACT4), {"select": 1}, select4, 4, 0),
        ("select=2", fft._net_for(fft.FftConfig(select=2)), {"select": 0}, exact2, 2, 0),
        ("butterfly2", verify._unit("butterfly2"), {}, [row[:2] for row in exact2], 2, 0),
        ("q3", fft._net_for(Q3), {"select": 1}, quantized, 4, Q3.fraction_bits),
    ]
    checked = failed = 0
    detail = ""
    for label, net, tied, rows, points, shift in runs:
        columns = {
            bus: [row[int(bus[1])][bus.endswith("im")] & 15 for row in rows]
            for bus in net.inputs
            if bus not in tied
        }
        out = net.evaluate_batch({**columns, **tied})
        width = net.output_width("X0_re")
        for row, raw in zip(rows, zip(*out.values())):
            values = [to_signed(v, width) for v in raw]
            got = list(zip(values[::2], values[1::2]))
            spectrum = fft.dft_oracle([complex(*sample) for sample in row[:points]])
            want = [(int(x.real) << shift, int(x.imag) << shift) for x in spectrum]
            want += [(0, 0)] * (len(got) - points)
            checked += 1
            if got != want:
                failed += 1
                detail = detail or f"{label} x={row}: got {got}, want {want}"
    return checked, failed, detail


# One gate per program the FFT suite runs: the 4-point exact path, the
# select-0 program (gate 242, drawn by ``random.Random(2).choice`` from its
# live AND, OR, XOR and XNOR gates) and a Q1.3 multiplier of the quantized
# path, with the failures and first detail the suite reports; the per-lane
# reference (:func:`fft_per_lane_result`) gives the same. Select 0 runs part
# of the shared core, so gates 255 and 242 fail lanes of both select
# values: 135 and all 400 of them at select 2.
MUTANTS = [
    pytest.param(
        fft.FftConfig(select=4),
        255,
        743,
        "select=4 x=[(1, -6), (-8, -7), (2, 1), (-6, 5)]: "
        "got [(21, -7), (-13, -5), (17, -3), (11, -9)], "
        "want [(-11, -7), (-13, -5), (17, -3), (11, -9)]",
        id="select4-exact",
    ),
    pytest.param(
        fft.FftConfig(select=2),
        242,
        2409,
        "select=4 x=[(1, 0), (0, 0), (0, 0), (0, 0)]: "
        "got [(5, 0), (1, 0), (1, 0), (1, 0)], want [(1, 0), (1, 0), (1, 0), (1, 0)]",
        id="select2",
    ),
    pytest.param(
        fft.FftConfig(4, "quantized", 3, 4),
        383,
        1000,
        "q3 x=[(-7, 7), (5, -8), (7, 1), (0, 1)]: "
        "got [(40, 8), (-176, 8), (-40, 120), (-48, 88)], "
        "want [(40, 8), (-184, 8), (-40, 120), (-40, 88)]",
        id="q3-multiplier",
    ),
]


@pytest.mark.parametrize("config, gate_id, failed, detail", MUTANTS)
def test_fft_suite_catches_a_flipped_gate(monkeypatch, config, gate_id, failed, detail):
    net = fft._net_for(config)
    assert gate_id in live_gate_ids(net, int(config.select == 4))
    if config.twiddle_mode == "quantized":
        assert gate_id in multiplier_gate_ids(monkeypatch, config)
    result = fft_suite_with_flip(monkeypatch, config, gate_id)
    assert not result.ok
    assert (result.checked, result.failed, result.detail) == (3809, failed, detail)
    assert (result.checked, result.failed, result.detail) == fft_per_lane_result()


def test_fft_suite_catches_an_idle_sample_leaking_into_select_2(monkeypatch):
    # The isolation AND of x2_re bit 0 reads that bit twice: select 0 lets
    # the bit into the core, and only the select-2 lanes, whose x2 and x3
    # are drawn at random, can show it.
    net = fft._net_for(fft.FftConfig(select=2))
    bit = net.inputs["x2_re"][0]
    (gate,) = [g for g in net.gates if bit in g.inputs]
    assert gate.kind is GateKind.AND and net.inputs["select"][0] in gate.inputs
    leaky = [g._replace(inputs=(bit, bit)) if g is gate else g for g in net.gates]
    mutated = Netlist(net.name, net.inputs, net.outputs, leaky, net.consts)
    result = fft_suite_on(monkeypatch, fft.FftConfig(select=2), mutated)
    assert (result.checked, result.failed, result.detail) == (
        3809,
        196,
        "select=2 x=[(7, 6), (7, 3), (3, -7), (0, -7)]: "
        "got [(15, 9), (1, 3), (0, 0), (0, 0)], want [(14, 9), (0, 3), (0, 0), (0, 0)]",
    )
    assert (result.checked, result.failed, result.detail) == fft_per_lane_result()


def test_fft_suite_catches_a_flipped_butterfly2_gate(monkeypatch):
    # Gate 17, drawn by ``random.Random(1).choice`` from the AND, OR, XOR
    # and XNOR gates of butterfly2, flipped in the unit that verify looks
    # up: the suite's butterfly2 run names a lane on which the flip shows.
    # (Gate 49, the draw of seed 0, is an equivalent mutant: all 2**16
    # inputs give the unit's outputs unchanged.)
    lookup = verify._unit
    net = lookup("butterfly2")
    mutated = with_kind_flipped(net, 17)
    monkeypatch.setattr(verify, "_unit", lambda k: mutated if k == "butterfly2" else lookup(k))
    result = two_passes("fft", mutated)
    assert (result.checked, result.failed) == (3809, 135)
    named = re.match(
        r"butterfly2 x=\[\((-?\d+), (-?\d+)\), \((-?\d+), (-?\d+)\)\]: got ", result.detail
    )
    assert named, result.detail
    case = {bus: [int(v) & 15] for bus, v in zip(net.inputs, named.groups())}
    assert mutated.evaluate_batch(case) != net.evaluate_batch(case)
    assert (result.checked, result.failed, result.detail) == fft_per_lane_result()


# Gates drawn by ``random.Random(2023).sample`` from the live AND, OR, XOR
# and XNOR gates of each netlist at select 4, and Q1.3 gate 487, which the
# compiled programs do not run; the suite's (failed, first detail) for
# each, which the per-lane reference gives too. No case shows the flip of
# exact gate 434 either: 200,000 random vectors give the flipped netlist's
# outputs at select 4 unchanged. The draw was made before the 16 isolation
# ANDs on x2 and x3 came ahead of the core; each id is the drawn one plus
# 16, and the test ids name the drawn ones. Exact gates 277, 280 and 238
# also run at select 0 and fail 400, 153 and 400 select-2 lanes.
SEEDED_FLIPS = [
    (EXACT4, 277, 2409, "select=4 x=[(1, 0), (0, 0), (0, 0), (0, 0)]: "
     "got [(1, 8), (1, 0), (1, 0), (1, 0)], want [(1, 0), (1, 0), (1, 0), (1, 0)]"),
    (EXACT4, 488, 2009, "select=4 x=[(1, 0), (0, 0), (0, 0), (0, 0)]: "
     "got [(1, 0), (1, 0), (1, 0), (1, -32)], want [(1, 0), (1, 0), (1, 0), (1, 0)]"),
    (EXACT4, 315, 698, "select=4 x=[(0, 0), (0, 0), (1, 0), (0, 0)]: "
     "got [(1, 0), (31, 0), (1, 0), (-1, 0)], want [(1, 0), (-1, 0), (1, 0), (-1, 0)]"),
    (EXACT4, 280, 753, "select=4 x=[(-2, -8), (-1, -6), (0, 2), (-2, 6)]: "
     "got [(-5, 10), (-14, -11), (1, -6), (10, -9)], "
     "want [(-5, -6), (-14, -11), (1, -6), (10, -9)]"),
    (EXACT4, 238, 2409, "select=4 x=[(1, 0), (0, 0), (0, 0), (0, 0)]: "
     "got [(3, 0), (1, 0), (1, 0), (1, 0)], want [(1, 0), (1, 0), (1, 0), (1, 0)]"),
    (EXACT4, 434, 0, ""),
    (Q3, 2243, 422, "q3 x=[(1, -1), (-3, 6), (4, -6), (-1, -7)]: "
     "got [(8, -64), (112, 56), (72, -48), (-128, 24)], "
     "want [(8, -64), (80, 56), (72, -48), (-128, 24)]"),
    (Q3, 155, 1000, "q3 x=[(-7, 7), (5, -8), (7, 1), (0, 1)]: "
     "got [(40, 24), (-184, 8), (-40, 104), (-40, 88)], "
     "want [(40, 8), (-184, 8), (-40, 120), (-40, 88)]"),
    (Q3, 400, 505, "q3 x=[(1, -1), (-3, 6), (4, -6), (-1, -7)]: "
     "got [(8, -64), (144, 56), (72, -48), (-192, 24)], "
     "want [(8, -64), (80, 56), (72, -48), (-128, 24)]"),
    (Q3, 2181, 1000, "q3 x=[(-7, 7), (5, -8), (7, 1), (0, 1)]: "
     "got [(168, 8), (-184, 8), (-40, 120), (-40, 88)], "
     "want [(40, 8), (-184, 8), (-40, 120), (-40, 88)]"),
    (Q3, 2179, 506, "q3 x=[(1, -1), (-3, 6), (4, -6), (-1, -7)]: "
     "got [(-120, -64), (80, 56), (72, -48), (-128, 24)], "
     "want [(8, -64), (80, 56), (72, -48), (-128, 24)]"),
    (Q3, 487, 0, ""),
]


@pytest.mark.parametrize(
    "config, gate_id, failed, detail",
    SEEDED_FLIPS,
    ids=[f"{c.twiddle_mode}-{g - 16}" for c, g, _, _ in SEEDED_FLIPS],
)
def test_fft_suite_result_of_seeded_flips(monkeypatch, config, gate_id, failed, detail):
    net = fft._net_for(config)
    assert (gate_id in live_gate_ids(net, 1)) == (gate_id != 487)
    result = fft_suite_with_flip(monkeypatch, config, gate_id)
    assert (result.checked, result.failed, result.detail) == (3809, failed, detail)
    assert (result.checked, result.failed, result.detail) == fft_per_lane_result()


# One gate per non-FFT suite, flipped in the netlist that verify looks up by
# key (a catalog unit, or the signed multiplier of an impl), and the
# operands the suite's first failure must name.
SIGNED_DETAIL = r"vedic (-?\d+)\*(-?\d+): got -?\d+, want -?\d+$"
UNIT_MUTANTS = [
    # Gates drawn by ``random.Random(1).choice`` from the AND, OR, XOR and
    # XNOR gates of vedic2x2 (gate 2) and of the array signed multiplier
    # (gate 34).
    pytest.param(
        "vedic2x2", verify, "_unit", "vedic2x2", 2, r"(\d)\*(\d): got \d+, want \d$", id="vedic2x2"
    ),
    pytest.param(
        "signed4x4",
        arith,
        "_signed_unit",
        "array",
        34,
        r"array (-?\d+)\*(-?\d+): got -?\d+, want -?\d+$",
        id="signed4x4-array",
    ),
    pytest.param("vedic4x4", verify, "_unit", "vedic4x4", 51, r"(\d+)\*(\d+): got ", id="vedic4x4"),
    pytest.param("array4x4", verify, "_unit", "array4x4", 40, r"(\d+)\*(\d+): got ", id="array4x4"),
    # The array4x4 suite's vedic cross-check fails alone.
    pytest.param(
        "array4x4",
        verify,
        "_unit",
        "vedic4x4",
        51,
        r"(\d+)\*(\d+): got (\d+), want \3 \(vedic cross-check differs\)$",
        id="array4x4-cross",
    ),
    pytest.param(
        "adder", verify, "_unit", "adder8", 22, r"w8 (\d+)\+(\d+)\+(\d): got sum, cout ", id="adder8"
    ),
    pytest.param(
        "subtractor",
        verify,
        "_unit",
        "subtractor16",
        58,
        r"w16 (\d+)-(\d+): got diff, borrow ",
        id="subtractor16",
    ),
    pytest.param("signed4x4", arith, "_signed_unit", "vedic", 125, SIGNED_DETAIL, id="signed4x4"),
    # Flips in the other sections of the adder and subtractor suites, so
    # that every width of their lane compare fails some cases: a sum bit, a
    # carry out alone, diff and borrow, a borrow alone.
    pytest.param(
        "adder",
        verify,
        "_unit",
        "adder4",
        12,
        r"w4 (\d+)\+(\d+)\+(\d): got sum, cout ",
        id="adder4",
    ),
    pytest.param(
        "adder",
        verify,
        "_unit",
        "adder16",
        79,
        r"w16 (\d+)\+(\d+)\+(\d): got sum, cout \((\d+), 0\), want \((\d+), 1\)$",
        id="adder16",
    ),
    pytest.param(
        "subtractor",
        verify,
        "_unit",
        "subtractor4",
        16,
        r"w4 (\d+)-(\d+): got diff, ",
        id="subtractor4",
    ),
    pytest.param(
        "subtractor",
        verify,
        "_unit",
        "subtractor8",
        47,
        r"w8 (\d+)-(\d+): got diff, borrow \((\d+), 1\), want \((\d+), 0\)$",
        id="subtractor8",
    ),
]


def exhaustive(*ranges):
    """Every combination of one value per range, the first range slowest,
    as one list column per range."""
    return [list(col) for col in zip(*itertools.product(*ranges))]


def per_lane_result(suite):
    """(checked, failed, detail) of the adder or subtractor suite computed
    the per-lane way: list columns drawn by :func:`list_column` from the
    suite's seed, ``evaluate_batch`` on the netlists ``verify._unit`` gives,
    and a Python oracle compared case by case."""
    rng = random.Random(41 if suite == "adder" else 43)
    if suite == "adder":
        sections = [(4, *exhaustive(range(16), range(16), range(2)))]
        sections += [(w, *[list_column(rng, 500, v) for v in (w, w, 1)]) for w in (8, 16)]
    else:
        sections = [(4, *exhaustive(range(16), range(16)))]
        sections += [(w, *[list_column(rng, 500, w) for _ in "ab"]) for w in (8, 16)]
    checked = failed = 0
    detail = ""
    for width, *columns in sections:
        net = verify._unit(f"{suite}{width}")
        out = list(net.evaluate_batch(dict(zip(net.inputs, columns))).values())
        for operands, got in zip(zip(*columns), zip(*out)):
            if suite == "adder":
                total = sum(operands)
                want = (total % (1 << width), total >> width)
                text = "w{} {}+{}+{}: got sum, cout {}, want {}"
            else:
                difference = operands[0] - operands[1]
                want = (difference % (1 << width), int(difference < 0))
                text = "w{} {}-{}: got diff, borrow {}, want {}"
            checked += 1
            if got != want:
                failed += 1
                detail = detail or text.format(width, *operands, got, want)
    return checked, failed, detail


def per_lane_product_result(suite):
    """(checked, failed, detail) of a multiplier suite computed the per-lane
    way: list columns from :func:`exhaustive`, ``evaluate_batch`` on the
    netlists ``verify._unit`` and ``arith._signed_unit`` give, and products
    compared case by case, a 4x4 product with its cross-check too."""
    checked = failed = 0
    detail = ""

    def tally(oks, describe):
        nonlocal checked, failed, detail
        checked += len(oks)
        failed += oks.count(False)
        if not detail and False in oks:
            detail = describe(oks.index(False))

    if suite == "signed4x4":
        a, b = exhaustive(range(-8, 8), range(-8, 8))
        want = [x * y for x, y in zip(a, b)]
        columns = {"a": [x & 15 for x in a], "b": [y & 15 for y in b]}
        for impl in ("vedic", "array"):
            net = arith._signed_unit(impl)
            got = [to_signed(p, net.output_width("p")) for p in net.evaluate_batch(columns)["p"]]
            tally(
                [g == w for g, w in zip(got, want)],
                lambda i: f"{impl} {a[i]}*{b[i]}: got {got[i]}, want {want[i]}",
            )
        return checked, failed, detail
    bits = 2 if suite == "vedic2x2" else 4
    a, b = exhaustive(range(1 << bits), range(1 << bits))
    got = verify._unit(suite).evaluate_batch({"a": a, "b": b})["p"]
    want = [x * y for x, y in zip(a, b)]
    if suite == "vedic2x2":
        tally(
            [g == w for g, w in zip(got, want)],
            lambda i: f"{a[i]}*{b[i]}: got {got[i]}, want {want[i]}",
        )
        return checked, failed, detail
    if suite == "vedic4x4":
        cross = [arith.urdhva_decimal(x, y, base=2).product for x, y in zip(a, b)]
        label = "digit-serial"
    else:
        cross = verify._unit("vedic4x4").evaluate_batch({"a": a, "b": b})["p"]
        label = "vedic cross-check"
    tally(
        [g == w == c for g, w, c in zip(got, want, cross)],
        lambda i: f"{a[i]}*{b[i]}: got {got[i]}, want {want[i]} "
        f"({label} {'ok' if cross[i] == got[i] else 'differs'})",
    )
    return checked, failed, detail


@pytest.mark.parametrize("suite, owner, lookup_name, key, gate_id, detail", UNIT_MUTANTS)
def test_unit_suite_catches_a_flipped_gate(
    monkeypatch, suite, owner, lookup_name, key, gate_id, detail
):
    lookup = getattr(owner, lookup_name)
    net = lookup(key)
    mutated = with_kind_flipped(net, gate_id)
    monkeypatch.setattr(owner, lookup_name, lambda k: mutated if k == key else lookup(k))
    result = two_passes(suite, mutated)
    assert not result.ok
    assert result.checked == COUNTS[suite]
    named = re.match(detail, result.detail)
    assert named, result.detail
    # The operands named are a case on which the flipped gate shows; a
    # negative operand is fed as its two's-complement bit pattern.
    case = {
        bus: [int(v) % (1 << len(nets))]
        for (bus, nets), v in zip(net.inputs.items(), named.groups())
    }
    assert len(case) == len(net.inputs)
    assert mutated.evaluate_batch(case) != net.evaluate_batch(case)
    # The lane compare counts the failures the per-lane one counts.
    assert (result.checked, result.failed, result.detail) == reference_result(suite)
    assert 0 < result.failed < COUNTS[suite]


def reference_result(suite):
    """(checked, failed, detail) of ``suite`` computed the per-lane way."""
    if suite == "fft":
        return fft_per_lane_result()
    if suite in ("adder", "subtractor"):
        return per_lane_result(suite)
    return per_lane_product_result(suite)


@pytest.mark.parametrize("suite", list(COUNTS))
def test_per_lane_reference_passes(suite):
    assert reference_result(suite) == (COUNTS[suite], 0, "")


def test_passing_suites_decode_no_case(monkeypatch):
    # A passing suite runs the gate loop on lane words and compares them;
    # it decodes no lane, formats no detail and simulates no list column.
    def forbidden(*args, **kwargs):
        raise AssertionError("a decoded lane or a list simulation in a passing suite")

    monkeypatch.setattr(verify, "_value", forbidden)
    monkeypatch.setattr(Netlist, "evaluate_batch", forbidden)
    monkeypatch.setattr(Netlist, "_evaluate_one", forbidden)
    for suite in verify.unit_names():
        result = verify.verify_unit(suite)
        assert result.ok and result.checked == COUNTS[suite], suite


def test_warm_passing_pass_compares_each_check_once(monkeypatch):
    # A warm pass whose checks all pass evaluates each netlist of a check
    # once on the held words and compares its flat output tuple with the
    # oracle's: it diffs no words and decodes no lane.
    verify.verify_all()
    verify.verify_all()

    def forbidden(*args, **kwargs):
        raise AssertionError("a diff or a decoded lane in a passing pass")

    for name in ("_diff", "_value", "_vector"):
        monkeypatch.setattr(verify, name, forbidden)
    evaluations = []
    evaluate = Netlist._evaluate_lanes

    def counting(self, key, words, n):
        got = evaluate(self, key, words, n)
        assert type(got) is tuple and len(got) == sum(map(len, self.outputs.values()))
        evaluations.append(self.name)
        return got

    monkeypatch.setattr(Netlist, "_evaluate_lanes", counting)
    results = verify.verify_all()
    assert all(r.ok for r in results) and {r.unit: r.checked for r in results} == COUNTS
    # vedic4x4 twice, in its suite and in array4x4's cross-check, and each
    # other program once.
    assert len(evaluations) == 16
    assert evaluations.count("vedic4x4") == 2


def test_simulate_checks_the_sample_range():
    # The sample lane words of signed columns are range-checked as they are
    # built, and simulate to the spectra run_fft gives: the lanes path
    # returns the output words as one flat tuple, bus after bus.
    net = fft._net_for(EXACT4)
    samples = [0, 7, -8, -1, 3]
    inputs = verify._sample_lanes([samples] * 8)
    assert len(inputs) == 32
    got = net._evaluate_lanes(fft._SELECT_KEYS[4], inputs, len(samples))
    width = net.output_width("X0_re")
    assert type(got) is tuple and len(got) == 8 * width
    for i, v in enumerate(samples):
        spectrum = fft.run_fft(EXACT4, [(v, v)] * 4).spectrum
        assert verify._vector(got, width, i) == [(x.re, x.im) for x in spectrum], v
    columns = [samples] * 8
    columns[5] = [0, -9, 8, 0, 0]
    with pytest.raises(ValueError, match=r"^component -9 outside \[-8, 7\] for width 4$"):
        verify._sample_lanes(columns)


@pytest.mark.parametrize("n", [2, 1009])
def test_tally_accounting(n):
    def tally(*lanes):
        t = verify._Tally("lanes")
        t.check(n, sum(1 << i for i in lanes), lambda i: f"case {i}")
        return t.checked, t.failed, t.detail

    def unused(i):
        raise AssertionError("a detail of a passing check")

    t = verify._Tally("lanes")
    t.check(n, 0, unused)
    assert (t.checked, t.failed, t.detail) == (n, 0, "")
    assert tally(0) == (n, 1, "case 0")
    assert tally(n - 1) == (n, 1, f"case {n - 1}")
    assert tally(n - 1, 0) == (n, 2, "case 0")
    assert tally(1) == (n, 1, "case 1")
    # A second check adds its cases and failures and keeps the first detail.
    t = verify._Tally("lanes")
    t.check(n, 1 << (n - 1), lambda i: f"first {i}")
    t.check(n, 0b11, lambda i: f"second {i}")
    assert (t.checked, t.failed, t.detail) == (2 * n, 3, f"first {n - 1}")


def test_unit_result_frozen_dataclass():
    # Its own ``__init__`` keeps what the dataclass gave: keywords, the
    # empty default detail, equality, hashing, repr, frozen fields and
    # ``replace``.
    r = verify.UnitResult(unit="fft", checked=3809, failed=0)
    assert r.detail == "" and r.ok and r.summary() == "fft: 3809/3809 pass"
    assert r == verify.UnitResult("fft", 3809, 0, "")
    assert hash(r) == hash(verify.UnitResult("fft", 3809, 0))
    assert r != verify.UnitResult("fft", 3809, 1)
    assert repr(r) == "UnitResult(unit='fft', checked=3809, failed=0, detail='')"
    with pytest.raises(dataclasses.FrozenInstanceError):
        r.failed = 1
    failed = dataclasses.replace(r, failed=2, detail="select=4 x=[]")
    assert failed == verify.UnitResult("fft", 3809, 2, "select=4 x=[]")
    assert failed.summary() == "fft: 3807/3809 pass (first failure: select=4 x=[])"
    assert [f.name for f in dataclasses.fields(r)] == ["unit", "checked", "failed", "detail"]
    assert verify.verify_unit("fft") == r
