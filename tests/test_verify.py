"""The verification suites themselves: their case counts, the seeded cases
they draw, that a second pass builds no netlist and reruns no oracle
column, and that each suite fails, naming the operands or samples, when one
gate of the unit it checks computes the wrong function."""

import hashlib
import random
import re

import pytest

from vedicfft import arith, fft, verify
from vedicfft.netlist import GateKind, Netlist

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
    "exact2": "61e7087f7f1fe8758c78c3393777b2a01e4371844e4a89c959d11b0730d8d680",
    "linearity": "02e92fb8ac6d61f073f4514f683af6db86591a919113df295b920ccd8e51f91b",
    "time_reversal": "00ca4552e0a272201917158d3d33dd84cbec546b8ab9a847701e9db795f3cb2d",
    "quantized": "0b577e657a8842e5f9fff13921b718ade6f8117a75d60323c7686000165671d4",
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
    assert not any(map(any, sections["exact2"][4:]))  # x2, x3
    assert not any(map(any, sections["time_reversal"][1::2]))  # every im
    digests = {
        name: hashlib.sha256(b"".join(col.tobytes() for col in cols)).hexdigest()
        for name, cols in sections.items()
    }
    assert digests == SECTION_SHA256


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


# One gate per datapath the FFT suite simulates: the 4-point exact path,
# the 2-point path and a Q1.3 multiplier of the quantized path.
MUTANTS = [
    pytest.param(fft.FftConfig(select=4), 239, "select=4 x=[(", id="select4-exact"),
    pytest.param(fft.FftConfig(select=2), 531, "select=2 x=[(", id="select2"),
    pytest.param(
        fft.FftConfig(4, "quantized", 3, 4), 367, "q3 x=[(", id="q3-multiplier"
    ),
]


@pytest.mark.parametrize("config, gate_id, detail", MUTANTS)
def test_fft_suite_catches_a_flipped_gate(monkeypatch, config, gate_id, detail):
    net = fft._net_for(config)
    select = int(config.select == 4)
    assert gate_id in live_gate_ids(net, select)
    assert gate_id not in live_gate_ids(net, 1 - select)
    if config.twiddle_mode == "quantized":
        assert gate_id in multiplier_gate_ids(monkeypatch, config)
    mutated = with_kind_flipped(net, gate_id)
    cached = fft._reconfigurable_cached

    def reconfigurable(width, mode, fraction_bits):
        if mode == config.twiddle_mode:
            return mutated
        return cached(width, mode, fraction_bits)

    monkeypatch.setattr(fft, "_reconfigurable_cached", reconfigurable)
    result = verify.verify_unit("fft")
    assert not result.ok
    assert result.checked == 4618
    assert detail in result.detail
    assert "x=[(" in result.detail


# One gate per non-FFT suite, flipped in the netlist that verify looks up by
# key (a catalog unit, or the signed multiplier of an impl), and the
# operands the suite's first failure must name.
SIGNED_DETAIL = r"vedic (-?\d+)\*(-?\d+): got -?\d+, want -?\d+$"
UNIT_MUTANTS = [
    pytest.param("vedic4x4", verify, "_unit", "vedic4x4", 51, r"(\d+)\*(\d+): got ", id="vedic4x4"),
    pytest.param("array4x4", verify, "_unit", "array4x4", 40, r"(\d+)\*(\d+): got ", id="array4x4"),
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
]


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
