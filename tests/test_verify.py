"""The verification suites themselves: their case counts, the seeded cases
they draw, that a second pass builds no netlist and redoes nothing that
depends only on its inputs, and that each suite fails, naming the operands
or samples, when one gate of the unit it checks computes the wrong
function."""

import hashlib
import itertools
import random
import re
import sys
from array import array

import pytest

from vedicfft import arith, fft, verify
from vedicfft.netlist import (
    GateKind,
    Netlist,
    _column_fields,
    _field_values,
    _item_size,
    to_signed,
)

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
    "fft": 4618,
}


def test_case_counts():
    results = verify.verify_all()
    assert all(r.ok for r in results), [r.summary() for r in results]
    assert {r.unit: r.checked for r in results} == COUNTS
    assert list(COUNTS) == list(verify.unit_names())
    assert sum(r.checked for r in results) == 8426


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
    # After one warm pass, a pass only simulates, reads the outputs and
    # compares: the operand columns, the seeded draws, the layouts, the
    # buffer forms, the DFT references and the input energies are all held
    # from the first one.
    first = verify.verify_all()
    integer = {suite: verify._integer_sections(suite) for suite in ("adder", "subtractor")}
    checks = verify._fft_checks()

    def forbidden(*args, **kwargs):
        raise AssertionError("a second pass redid work that depends only on its inputs")

    monkeypatch.setattr(random.Random, "getrandbits", forbidden)
    monkeypatch.setattr(fft, "_dft_quarter_turns", forbidden)
    monkeypatch.setattr(verify._Layout, "__init__", forbidden)
    monkeypatch.setattr(verify._Layout, "buffer", forbidden)
    monkeypatch.setattr(verify._Layout, "widen", forbidden)
    monkeypatch.setattr(verify, "_column_fields", forbidden)
    monkeypatch.setattr(verify, "_nibbles", forbidden)
    assert verify.verify_all() == first
    assert all(r.ok for r in first)
    assert verify._fft_checks() is checks
    assert all(verify._integer_sections(suite) is integer[suite] for suite in integer)
    # Every pass shares them, so the cached columns reject writes.
    *_, columns, want = integer["adder"][1]
    with pytest.raises(TypeError):
        columns[0] = want
    with pytest.raises(TypeError):
        integer["adder"][1] = integer["adder"][2]
    with pytest.raises(TypeError):
        verify._exhaustive_fields(range(16), range(16))[0] = 0
    with pytest.raises(TypeError):
        checks["exact4"].want[0] = 0
    with pytest.raises(TypeError):
        checks["exact4"].inputs[0] = 0
    with pytest.raises(AttributeError):
        checks["exact4"].energy = 0
    with pytest.raises(TypeError):
        checks["exact4"] = checks["exact2"]


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
    # The integer suites draw packed ints; the same calls on the same rng
    # give the cases of the list reader they replaced, and the next draw
    # is unchanged too.
    seed = width * 1000 + n
    rng, reference = random.Random(seed), random.Random(seed)
    packed = verify._random_fields(rng, n, width)
    assert _field_values(packed, n, width) == list_column(reference, n, width)
    assert 0 <= packed < 1 << 8 * _item_size(width) * n
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
        start = len(b._gates)
        product = emit(b, *args)
        ids.update(range(start, len(b._gates)))
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
    return verify.verify_unit("fft")


# One gate per program the FFT suite runs: the 4-point exact path, the
# select-0 program (gate 242, drawn by ``random.Random(2).choice`` from its
# live AND, OR, XOR and XNOR gates) and a Q1.3 multiplier of the quantized
# path, with the failures and first detail the suite reports. Select 0 runs
# part of the shared core, so gates 255 and 242 fail cases of both select
# values: 270 and 800 of them at select 2.
MUTANTS = [
    pytest.param(
        fft.FftConfig(select=4),
        255,
        960,
        "select=4 x=[(1, -6), (-8, -7), (2, 1), (-6, 5)]: "
        "got [(21, -7), (-13, -5), (17, -3), (11, -9)], "
        "want [(-11, -7), (-13, -5), (17, -3), (11, -9)]",
        id="select4-exact",
    ),
    pytest.param(
        fft.FftConfig(select=2),
        242,
        3003,
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
    assert (result.checked, result.failed, result.detail) == (4618, failed, detail)


def test_fft_suite_catches_an_idle_sample_leaking_into_select_2(monkeypatch):
    # The isolation AND of x2_re bit 0 reads that bit twice: select 0 lets
    # the bit into the core, and only the select-2 cases, whose x2 and x3
    # are drawn at random, can show it.
    net = fft._net_for(fft.FftConfig(select=2))
    bit = net.inputs["x2_re"][0]
    (gate,) = [g for g in net.gates if bit in g.inputs]
    assert gate.kind is GateKind.AND and net.inputs["select"][0] in gate.inputs
    leaky = [g._replace(inputs=(bit, bit)) if g is gate else g for g in net.gates]
    mutated = Netlist(net.name, net.inputs, net.outputs, leaky, net.consts)
    result = fft_suite_on(monkeypatch, fft.FftConfig(select=2), mutated)
    assert (result.checked, result.failed, result.detail) == (
        4618,
        392,
        "select=2 x=[(7, 6), (7, 3)]: got [(15, 9), (1, 3)], want [(14, 9), (0, 3)]",
    )


# Gates drawn by ``random.Random(2023).sample`` from the live AND, OR, XOR
# and XNOR gates of each netlist at select 4, and Q1.3 gate 487, which the
# compiled programs do not run; the suite's (failed, first detail) for
# each. No case shows the flip of exact gate 434 either: 200,000 random
# vectors give the flipped netlist's outputs at select 4 unchanged. The
# draw was made before the 16 isolation ANDs on x2 and x3 came ahead of
# the core; each id is the drawn one plus 16, and the test ids name the
# drawn ones. Exact gates 277, 280 and
# 238 also run at select 0 and fail 800, 306 and 800 select-2 cases.
EXACT4 = fft.FftConfig(select=4)
Q3 = fft.FftConfig(4, "quantized", 3, 4)
SEEDED_FLIPS = [
    (EXACT4, 277, 2996, "select=4 x=[(1, 0), (0, 0), (0, 0), (0, 0)]: "
     "got [(1, 8), (1, 0), (1, 0), (1, 0)], want [(1, 0), (1, 0), (1, 0), (1, 0)]"),
    (EXACT4, 488, 2397, "select=4 x=[(1, 0), (0, 0), (0, 0), (0, 0)]: "
     "got [(1, 0), (1, 0), (1, 0), (1, -32)], want [(1, 0), (1, 0), (1, 0), (1, 0)]"),
    (EXACT4, 315, 812, "select=4 x=[(0, 0), (0, 0), (1, 0), (0, 0)]: "
     "got [(1, 0), (31, 0), (1, 0), (-1, 0)], want [(1, 0), (-1, 0), (1, 0), (-1, 0)]"),
    (EXACT4, 280, 1188, "select=4 x=[(-2, -8), (-1, -6), (0, 2), (-2, 6)]: "
     "got [(-5, 10), (-14, -11), (1, -6), (10, -9)], "
     "want [(-5, -6), (-14, -11), (1, -6), (10, -9)]"),
    (EXACT4, 238, 3018, "select=4 x=[(1, 0), (0, 0), (0, 0), (0, 0)]: "
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
    assert (result.checked, result.failed, result.detail) == (4618, failed, detail)


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
    # that every width and field step of their packed compare fails some
    # cases: a sum bit, a carry out alone, diff and borrow, a borrow alone.
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
    result = verify.verify_unit(suite)
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
    # The packed compare counts the failures the per-lane one counts.
    reference = per_lane_result if suite in ("adder", "subtractor") else per_lane_product_result
    assert (result.checked, result.failed, result.detail) == reference(suite)
    assert 0 < result.failed < COUNTS[suite]


@pytest.mark.parametrize(
    "suite", ["adder", "subtractor", "vedic2x2", "vedic4x4", "array4x4", "signed4x4"]
)
def test_per_lane_reference_passes(suite):
    reference = per_lane_result if suite in ("adder", "subtractor") else per_lane_product_result
    assert reference(suite) == (COUNTS[suite], 0, "")


def test_passing_packed_suites_decode_no_case(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a per-case check or a list simulation in a passing suite")

    monkeypatch.setattr(verify._Tally, "check_all", forbidden)
    monkeypatch.setattr(Netlist, "evaluate_batch", forbidden)
    for suite in verify.unit_names():
        result = verify.verify_unit(suite)
        assert result.ok and result.checked == COUNTS[suite], suite


def test_parseval_failure_alone(monkeypatch):
    # X0.re of vector 5 of the exact 4-point section is one too large, and
    # the section's DFT reference, built once per process, is made to
    # agree: only Parseval's identity fails. Vector 5 is j at sample 1, of
    # energy 1; every bin has energy 1 but X0 = j becomes 1 + j.
    run_fft = verify._run_fft
    checks = verify._fft_checks()
    exact4 = checks["exact4"]
    agreeing = exact4._replace(want=(exact4.want[0] + (1 << 8 * 5), *exact4.want[1:]))
    corrupted = []

    def corrupting_run_fft(config, inputs, lanes):
        got = run_fft(config, inputs, lanes)
        if lanes.n == 1009:
            got = [got[0] + (1 << 8 * 5), *got[1:]]
            corrupted.append(got)
        return got

    monkeypatch.setattr(verify, "_run_fft", corrupting_run_fft)
    monkeypatch.setattr(verify, "_fft_checks", lambda: {**checks, "exact4": agreeing})
    result = verify.verify_unit("fft")
    assert corrupted == [list(agreeing.want)]
    assert (result.checked, result.failed, result.detail) == (
        4618,
        1,
        "Parseval x=[(0, 0), (0, 1), (0, 0), (0, 0)]: 5 != 4*1",
    )


def per_lane_energy(columns):
    return [sum(v * v for v in row) for row in zip(*columns)]


@pytest.mark.parametrize(
    "columns",
    [
        pytest.param([list(range(-128, 128))], id="every-signed-byte"),
        pytest.param([[-32, 32, 31, -31, 0, 1]] * 8, id="output-headroom"),
        pytest.param([[-8, 8, 7, 0, -1, 3]] * 8, id="input-headroom"),
        pytest.param(
            [[random.Random(k).randrange(-32, 33) for _ in range(1009)] for k in range(8)],
            id="random-outputs",
        ),
    ],
)
def test_packed_energy_matches_per_lane(columns):
    n = len(columns[0])
    lanes = verify._Layout(n, 8)
    buffers = [lanes.buffer(array("b", col)) for col in columns]
    energy = verify._energy(buffers, lanes)
    assert 0 <= energy < 1 << 16 * n
    fields = verify._Layout(n, 16)
    assert [fields.field(energy, i) for i in range(n)] == per_lane_energy(columns)


# The FFT suite's packed columns: n signed fields of 8 or 16 bits in one
# int, kept in buffer form (every field v + 2**(step - 1)).
HEADROOM = {8: [-8, 8, -32, 32, -64, 64], 16: [-8, 8, -256, 256, -1024, 1024]}


@pytest.mark.parametrize("n", [1, 2, 1009])
@pytest.mark.parametrize("step", [8, 16])
def test_packed_signed_buffer_round_trips(step, n):
    lanes = verify._Layout(n, step)
    h = 1 << (step - 1)
    rng = random.Random(step * n)
    extremes = [-h, h - 1, 0, -1] + HEADROOM[step]
    values = (extremes + [rng.randrange(-h, h) for _ in range(n)])[:n]
    signed = sum(v << step * i for i, v in enumerate(values))
    buffer = signed + lanes.half
    assert 0 <= buffer < 1 << step * n
    assert lanes.values(buffer).tolist() == values
    assert [lanes.value(buffer, i) for i in range(n)] == values
    assert lanes.vector([buffer, buffer], n - 1) == [(values[-1], values[-1])]
    # A netlist output bus of width w < step: raw two's complement fields.
    width = step - 2
    small = [v % (1 << (width - 1)) - (1 << (width - 2)) for v in values]
    raw = sum((v % (1 << width)) << step * i for i, v in enumerate(small))
    assert lanes.values(lanes.from_raw(raw, width)).tolist() == small
    # +, - and << act field by field on the signed form, within the headroom.
    halves = [v // 2 for v in values]
    x = sum(v << step * i for i, v in enumerate(halves))
    y = sum(v << step * i for i, v in enumerate(reversed(halves)))
    pairs = list(zip(halves, reversed(halves)))
    assert lanes.values(x + y + lanes.half).tolist() == [a + b for a, b in pairs]
    assert lanes.values(x - y + lanes.half).tolist() == [a - b for a, b in pairs]
    assert lanes.values((x << 1) + lanes.half).tolist() == [2 * a for a in halves]
    # From the bytes of a drawn column: every value of a signed byte.
    column = array("b", [v % 256 - 128 for v in values])
    assert lanes.values(lanes.buffer(column)).tolist() == column.tolist()


@pytest.mark.parametrize("width, step", [(1, 16), (4, 16), (8, 16), (1, 32), (16, 32)])
def test_widen_moves_every_field(width, step):
    # A bus's packed int, at the bus's own step, into a wider layout.
    n = 37
    rng = random.Random(width * step)
    values = [(1 << width) - 1, 0] + [rng.randrange(1 << width) for _ in range(n - 2)]
    wide = verify._Layout(n, step)
    x = wide.widen(_column_fields(values, width), width)
    assert 0 <= x < 1 << step * n
    assert [wide.field(x, i) for i in range(n)] == values
    assert wide.items(x).tolist() == values


def test_simulate_checks_the_sample_range():
    # The netlist inputs of sample columns are range-checked as they are
    # built, at either step an FFT section is laid out at, and simulate to
    # the spectra run_fft gives.
    net = fft._net_for(EXACT4)
    samples = [0, 7, -8]
    for step in (8, 16):
        lanes = verify._Layout(3, step)
        xs = [lanes.buffer(array("b", samples))] * 8
        got = verify._simulate(net, fft._SELECT_KEYS[4], verify._nibbles(xs, lanes), lanes)
        for i, v in enumerate(samples):
            spectrum = fft.run_fft(EXACT4, [(v, v)] * 4).spectrum
            assert lanes.vector(got, i) == [(x.re, x.im) for x in spectrum], (step, v)
        xs[5] = lanes.buffer(array("b", [0, -9, 8]))
        with pytest.raises(ValueError, match=r"^component -9 outside \[-8, 7\] for width 4$"):
            verify._nibbles(xs, lanes)


@pytest.mark.parametrize("n", [2, 1009])
def test_tally_packed_accounting(n):
    lanes = verify._Layout(n, 8)
    rng = random.Random(n)
    columns = [lanes.buffer(array("b", [rng.randrange(-8, 8) for _ in range(n)])) for _ in range(2)]

    def flipped(buffer, *cases):
        for i in cases:
            buffer ^= 1 << 8 * i + rng.randrange(8)
        return buffer

    def tally(got):
        t = verify._Tally("packed")
        t.check_packed(zip(got, columns), lanes, lambda i: f"case {i}")
        return t.checked, t.failed, t.detail

    def unused(i):
        raise AssertionError("a detail of a passing check")

    t = verify._Tally("packed")
    t.check_packed(zip(columns, columns), lanes, unused)
    assert (t.checked, t.failed, t.detail) == (n, 0, "")
    a, b = columns
    assert tally([flipped(a, 0), b]) == (n, 1, "case 0")
    assert tally([a, flipped(b, n - 1)]) == (n, 1, f"case {n - 1}")
    assert tally([flipped(a, n - 1), flipped(b, 0)]) == (n, 2, "case 0")
    assert tally([flipped(a, 1), flipped(b, 1)]) == (n, 1, "case 1")
    assert tally([flipped(a, 0, n - 1), flipped(b, 0)]) == (n, 2, "case 0")
