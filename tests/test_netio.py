import hashlib
import random
import tracemalloc

import pytest

from vedicfft import (
    Gate,
    GateKind,
    Netlist,
    NetlistBuilder,
    NetlistError,
    NetlistFormatError,
    build_ripple_adder,
    dump_netlist,
    parse_netlist,
)
from vedicfft import fft
from vedicfft.arith import ripple_add
from vedicfft.netio import MAX_BUS_WIDTH
from vedicfft.report import cost_report


def _random_equivalent(a, b, cases=10, seed=11):
    rng = random.Random(seed)
    columns = {
        bus: [rng.randrange(1 << len(nets)) for _ in range(cases)]
        for bus, nets in a.inputs.items()
    }
    return a.evaluate_batch(columns) == b.evaluate_batch(columns)


def test_single_gate_layout():
    b = NetlistBuilder("unit")
    x = b.add_input("x", 1)[0]
    y = b.add_input("y", 1)[0]
    b.set_output("o", [b.add_gate("AND", [x, y])])
    text = dump_netlist(b.finalize())
    lines = text.splitlines()
    assert lines[0] == "netlist unit v1"
    assert lines[1] == "input x 1"
    assert lines[2] == "input y 1"
    assert lines[3] == "gate 0 AND x[0] y[0] -> n0"
    assert lines[4] == "output o n0"


def test_gate_line_count_matches_census(vedic4x4):
    text = dump_netlist(vedic4x4)
    gate_lines = [l for l in text.splitlines() if l.startswith("gate ")]
    assert len(gate_lines) == vedic4x4.gate_counts().total


def test_gates_emitted_in_ascending_id_order(vedic4x4):
    ids = [
        int(line.split()[1])
        for line in dump_netlist(vedic4x4).splitlines()
        if line.startswith("gate ")
    ]
    assert ids == sorted(ids)
    assert ids == list(range(len(ids)))


def test_round_trip_evaluates_identically(vedic4x4):
    reparsed = parse_netlist(dump_netlist(vedic4x4))
    assert _random_equivalent(vedic4x4, reparsed)


def test_round_trip_exhaustive_small(vedic2x2):
    reparsed = parse_netlist(dump_netlist(vedic2x2))
    for a in range(4):
        for b in range(4):
            columns = {"a": [a], "b": [b]}
            assert vedic2x2.evaluate_batch(columns) == reparsed.evaluate_batch(columns)


def test_dump_is_deterministic_and_idempotent(recon_q3):
    d1 = dump_netlist(recon_q3)
    d2 = dump_netlist(recon_q3)
    assert d1 == d2
    assert dump_netlist(parse_netlist(d1)) == d1


def test_consts_round_trip():
    b = NetlistBuilder("wrap")
    a = b.add_input("a", 2)
    c = b.add_input("b", 2)
    sums, cout = ripple_add(b, a, c, b.const(1))
    b.set_output("sum", sums + [cout])
    wrapped = b.finalize()
    text = dump_netlist(wrapped)
    assert "const1" in text
    reparsed = parse_netlist(text)
    assert _random_equivalent(wrapped, reparsed)


def test_comments_and_blank_lines_ignored():
    text = (
        "# banner comment\n"
        "netlist t v1\n"
        "\n"
        "input a 1  # trailing comment\n"
        "gate 0 NOT a[0] -> n0\n"
        "output o n0\n"
    )
    net = parse_netlist(text)
    assert net.evaluate_batch({"a": [0]})["o"] == [1]


def test_forward_references_allowed():
    text = (
        "netlist t v1\n"
        "input a 1\n"
        "gate 0 AND n1 a[0] -> n0\n"
        "gate 1 NOT a[0] -> n1\n"
        "output o n0\n"
    )
    net = parse_netlist(text)
    assert net.evaluate_batch({"a": [1]})["o"] == [0]


@pytest.mark.parametrize(
    "text,match",
    [
        ("", "empty"),
        ("netlist t v2\n", "header"),
        ("bogus t v1\n", "header"),
        ("netlist t v1\ninput a 0\noutput o a[0]\n", "width"),
        ("netlist t v1\ninput a 1\ngate 0 FOO a[0] -> n0\noutput o n0\n", "kind"),
        ("netlist t v1\ninput a 1\ngate 0 AND a[0] -> n0\noutput o n0\n", "input"),
        ("netlist t v1\ninput a 1\ngate 0 NOT b[0] -> n0\noutput o n0\n", "unknown input bus"),
        ("netlist t v1\ninput a 1\ngate 0 NOT a[5] -> n0\noutput o n0\n", "out of range"),
        ("netlist t v1\ninput a 1\ngate 0 NOT a[0] -> a[0]\noutput o a[0]\n", "internal"),
        ("netlist t v1\ninput a 1\nwhatever a\noutput o a[0]\n", "directive"),
        ("netlist t v1\ninput a 1\n", "no output"),
        # More digits than int() converts (the 4300-digit limit of 3.11).
        pytest.param(
            "netlist t v1\ninput a 1\ngate 0 NOT a[0] -> n" + "1" * 5000 + "\noutput o a[0]\n",
            "net id",
            id="internal-net-id-5000-digits",
        ),
        pytest.param(
            "netlist t v1\ninput a 1\ngate 0 NOT a[" + "1" * 5000 + "] -> n0\noutput o n0\n",
            "net id",
            id="bit-index-5000-digits",
        ),
    ],
)
def test_malformed_documents_rejected(text, match):
    with pytest.raises(NetlistFormatError, match=match):
        parse_netlist(text)


_HEAD = "netlist t v1\ninput a 1\n"
_LONG_ID = "n" + "1" * 5000


@pytest.mark.parametrize(
    "text,message",
    [
        pytest.param("", "empty netlist text", id="empty"),
        pytest.param(
            "netlist t v2\n", "line 1: expected header 'netlist <name> v1'", id="header-version"
        ),
        pytest.param(
            "bogus t v1\n", "line 1: expected header 'netlist <name> v1'", id="header-keyword"
        ),
        pytest.param(
            "netlist t v1\ninput a 0\noutput o a[0]\n",
            "line 2: width must be >= 1, got 0",
            id="zero-width",
        ),
        pytest.param(
            _HEAD + "gate 0 FOO a[0] -> n0\noutput o n0\n",
            "line 3: unknown gate kind 'FOO'",
            id="unknown-kind",
        ),
        pytest.param(
            _HEAD + "gate 0 AND a[0] -> n0\noutput o n0\n",
            "line 3: AND takes 2 input(s), got 1",
            id="arity",
        ),
        pytest.param(
            _HEAD + "gate 0 NOT b[0] -> n0\noutput o n0\n",
            "line 3: unknown input bus 'b'",
            id="gate-input-unknown-bus",
        ),
        pytest.param(
            _HEAD + "gate 0 NOT a[5] -> n0\noutput o n0\n",
            "line 3: bit 5 out of range for 1-bit bus 'a'",
            id="gate-input-bit-out-of-range",
        ),
        pytest.param(
            _HEAD + "gate 0 NOT a[0] -> a[0]\noutput o a[0]\n",
            "line 3: expected internal net id, got input bit 'a[0]'",
            id="input-bit-as-gate-output",
        ),
        pytest.param(
            _HEAD + "gate 0 AND n-1 a[0] -> x!\noutput o a[0]\n",
            "line 3: bad net id 'n-1'",
            id="bad-input-wins-over-bad-output",
        ),
        pytest.param(
            _HEAD + "gate 0 AND n-1 a[0] -> a[0]\noutput o a[0]\n",
            "line 3: bad net id 'n-1'",
            id="bad-input-wins-over-input-bit-output",
        ),
        pytest.param(
            _HEAD + "gate 0 NOT a[0] -> n²\noutput o a[0]\n",
            "line 3: bad net id 'n²'",
            id="non-decimal-digit",
        ),
        pytest.param(
            "netlist t v1\ninput 9x 1\ngate 0 NOT 9x[0] -> n0\noutput o n0\n",
            "line 3: bad net id '9x[0]'",
            id="bit-of-badly-named-bus",
        ),
        pytest.param(
            _HEAD + "const1 a[0]\noutput o a[0]\n",
            "line 3: expected internal net id, got input bit 'a[0]'",
            id="const1-input-bit",
        ),
        pytest.param(
            _HEAD + "whatever a\noutput o a[0]\n",
            "line 3: unknown directive 'whatever'",
            id="directive",
        ),
        pytest.param(_HEAD, "netlist text declares no output buses", id="no-output"),
        pytest.param(
            _HEAD + "gate 0 NOT a[0] -> n0\noutput o n0 b[0]\n",
            "line 4: unknown input bus 'b'",
            id="output-unknown-bus",
        ),
        pytest.param(
            _HEAD + "gate 0 NOT a[0] -> n0\noutput o a[1]\n",
            "line 4: bit 1 out of range for 1-bit bus 'a'",
            id="output-bit-out-of-range",
        ),
        pytest.param("netlist 9t v1\n", "line 1: bad netlist name '9t'", id="bad-name"),
        pytest.param(
            _HEAD + "gate 0 NOT a[0] n0\noutput o a[0]\n",
            "line 3: expected 'gate <id> <KIND> <in>... -> <out>'",
            id="gate-without-arrow",
        ),
        pytest.param(
            _HEAD + "gate x NOT a[0] -> n0\noutput o n0\n",
            "line 3: bad gate id 'x'",
            id="bad-gate-id",
        ),
        pytest.param(
            "netlist t v1\ninput a\noutput o a[0]\n",
            "line 2: expected 'input <busname> <width>'",
            id="input-without-width",
        ),
        pytest.param(
            _HEAD + "input a 1\noutput o a[0]\n",
            "line 3: duplicate input bus 'a'",
            id="duplicate-input",
        ),
        pytest.param(
            "netlist t v1\ninput a w\noutput o a[0]\n", "line 2: bad width 'w'", id="bad-width"
        ),
        pytest.param(
            _HEAD + "const0\noutput o a[0]\n",
            "line 3: expected 'const0 <netid>'",
            id="const0-without-net",
        ),
        pytest.param(
            _HEAD + "const0 n0\nconst0 n1\noutput o a[0]\n",
            "line 4: duplicate const0 declaration",
            id="duplicate-const0",
        ),
        pytest.param(
            _HEAD + "output o\n",
            "line 3: expected 'output <busname> <netid>...'",
            id="output-without-nets",
        ),
        pytest.param(
            _HEAD + "output o a[0]\noutput o a[0]\n",
            "line 4: duplicate output bus 'o'",
            id="duplicate-output",
        ),
        # More digits than int() converts (the 4300-digit limit of 3.11).
        pytest.param(
            _HEAD + f"gate 0 NOT a[0] -> {_LONG_ID}\noutput o a[0]\n",
            f"line 3: bad net id '{_LONG_ID}'",
            id="gate-output-id-5000-digits",
        ),
        pytest.param(
            _HEAD + f"gate 0 NOT a[0] -> n0\noutput o {_LONG_ID}\n",
            f"line 4: bad net id '{_LONG_ID}'",
            id="output-id-5000-digits",
        ),
        pytest.param(
            _HEAD + "gate 0 NOT a[" + "1" * 5000 + "] -> n0\noutput o n0\n",
            "line 3: bad net id 'a[" + "1" * 5000 + "]'",
            id="bit-index-5000-digits",
        ),
    ],
)
def test_rejection_messages_in_full(text, message):
    with pytest.raises(NetlistFormatError) as caught:
        parse_netlist(text)
    assert str(caught.value) == message


_CANONICAL = (
    "netlist t v1\n"
    "input a 2\n"
    "const1 n5\n"
    "gate 0 NOT a[1] -> n7\n"
    "gate 1 AND n7 a[0] -> n3\n"
    "gate 2 XOR n3 n5 -> n4\n"
    "output o n3 n4 n7\n"
)


@pytest.mark.parametrize(
    "old,new",
    [
        pytest.param("-> n7\n", "-> n07\n", id="leading-zero-gate-output"),
        pytest.param("o n3 n4 n7", "o n3 n4 n007", id="leading-zero-output-bit"),
        pytest.param("NOT a[1]", "NOT a[01]", id="leading-zero-bit-index"),
        pytest.param("-> n3\n", "-> n٣\n", id="arabic-indic-digit-gate-output"),
        pytest.param("XOR n3 n5", "XOR n٣ n5", id="arabic-indic-digit-gate-input"),
        pytest.param("-> n3\n", "-> n3  # carry\n", id="comment-after-gate"),
        pytest.param("-> n4\n", "-> n4#sum\n", id="comment-touching-gate"),
        pytest.param("gate 2 XOR n3 n5", "gate\t2\tXOR n3\t n5", id="tabs"),
        pytest.param("-> n4\n", "-> n4 \t \n", id="trailing-blanks"),
        pytest.param("\n", "\r\n", id="crlf"),
    ],
)
def test_token_spellings_name_the_canonical_nets(old, new):
    assert old in _CANONICAL
    want = parse_netlist(_CANONICAL)
    got = parse_netlist(_CANONICAL.replace(old, new))
    assert (got.gates, got.inputs, got.outputs, got.consts) == (
        want.gates,
        want.inputs,
        want.outputs,
        want.consts,
    )


@pytest.mark.parametrize(
    "text,message",
    [
        pytest.param(
            _HEAD + "gate 0 AND n1 a[0] -> n0\ngate 1 NOT a[0] -> n1\noutput o n0\n",
            None,
            id="forward-reference-driven-later",
        ),
        pytest.param(_HEAD + "gate 0 NOT a[0] -> n07\noutput o n7\n", None, id="output-n07"),
        pytest.param(
            _HEAD + "gate 0 NOT a[0] -> n0\nconst1 n0\noutput o n0\n",
            "net 1 has two drivers: const1 and gate 0",
            id="const-names-gate-output",
        ),
        pytest.param(
            # As many nets as drivers: the undriven n5 makes up for the
            # second driver of n0.
            _HEAD + "gate 0 AND n5 a[0] -> n0\nconst1 n0\noutput o n0\n",
            "net 2 has two drivers: const1 and gate 0",
            id="const-names-gate-output-beside-undriven-read",
        ),
        pytest.param(
            _HEAD + "gate 1 NOT a[0] -> n0\ngate 0 NOT n0 -> n1\noutput o n1\n",
            None,
            id="descending-gate-ids",
        ),
        pytest.param(
            _HEAD + "gate 0 NOT a[0] -> n0\ngate 0 NOT n0 -> n1\noutput o n1\n",
            "duplicate gate id 0",
            id="repeated-gate-id",
        ),
        pytest.param(
            _HEAD + "gate 0 NOT a[0] -> n0\noutput a n0\n",
            "duplicate bus name a",
            id="output-reuses-input-name",
        ),
        pytest.param(
            _HEAD + "gate 0 NOT a[0] -> n0\noutput 9o n0\n",
            "invalid bus name '9o'",
            id="bad-output-name",
        ),
        pytest.param(
            "netlist t v1\ninput 9x 1\nconst0 n0\noutput o n0\n",
            "invalid bus name '9x'",
            id="bad-input-name",
        ),
        pytest.param(
            _HEAD + "gate 0 NOT a[0] -> n0\noutput o n0 n3\n",
            "floating output bit o[1] (net 2)",
            id="output-bit-undriven",
        ),
        pytest.param(
            _HEAD + "gate 0 AND n1 a[0] -> n0\noutput o n0\n",
            "gate 0 reads undriven net 1",
            id="gate-input-undriven",
        ),
    ],
)
def test_text_not_dump_ordered_is_validated_once(monkeypatch, text, message):
    # Only dump-ordered text skips ``Netlist._validate``; any other text is
    # validated once, as ``Netlist(...)`` would, with the same outcome. An
    # accepted text is stored in evaluation order, gate ids 0 .. G - 1,
    # every gate reading only nets driven before it.
    calls = []
    validate = Netlist._validate

    def counting_validate(name, *parts):
        calls.append(name)
        return validate(name, *parts)

    monkeypatch.setattr(Netlist, "_validate", staticmethod(counting_validate))
    if message is not None:
        with pytest.raises(NetlistError) as caught:
            parse_netlist(text)
        assert (str(caught.value), calls) == (message, ["t"])
        return
    got = parse_netlist(text)
    assert calls == ["t"]
    assert [g.id for g in got.gates] == list(range(len(got.gates)))
    driven = {n for bits in got.inputs.values() for n in bits} | set(got.consts.values())
    for gate in got.gates:
        assert driven.issuperset(gate.inputs), gate
        driven.add(gate.output)
    assert driven == got.nets == set(range(got._net_count))
    ref = Netlist(got.name, got.inputs, got.outputs, got.gates, got.consts)
    for attr in ("name", "inputs", "outputs", "consts", "gates", "nets"):
        assert getattr(got, attr) == getattr(ref, attr), attr
    assert got.critical_path_depth() == ref.critical_path_depth()
    assert dump_netlist(got) == dump_netlist(ref)
    assert parse_netlist(dump_netlist(got)).gates == got.gates


# SHA-256 of repr((inputs, outputs, consts, gates)) of each parsed dump: the
# net ids the parser allocates, which order the compiled program's slots.
_PARSED_DIGESTS = {
    "vedic2x2": "aa49aa61679b4cce955e646a2fa1ddea96a4f7c4f4447f5c78c2cb462605fab5",
    "vedic4x4": "f9972ae2bda4befbc5d192012f84f4ad1bb4b004d3b88a20ded91ac02121fbce",
    "array4x4": "387fca746c1930c6d5c0efd6e533c7ee074e1e392b64ce361219134a22c166f8",
    "adder4": "67dbfa498658b3ba05e514e6a9d5ec9305fff85109df2273c797316a0c1a99cd",
    "subtractor4": "3d64e19a723a5798cbbb4d42a4a4b795404d41d93d29b61472409d9c92c43970",
    "butterfly2": "9ca5a75f03f37f4f067def8e1a495d2a3d8629503f0a5736cbdf4f6dbafc7743",
    "fft4": "63af8125a582fa1476d080fe45f92e72b0af269619f3e13556a1b6a46e911827",
    "fft4_q3": "cde76ba109d47fa364a53c9947d1990adc529f181e553ed6f84989beae73fa50",
    "reconfigurable": "8d25e53618f49aeaa970727060997c476fbb012a53ed352c36063c9ee6e06a4e",
    "reconfigurable_q3": "50a5351c66b830bda9b235b8035542d35cedc7193d71ee8b3ff5327e60e5e236",
    "adder16": "52c0bb3dcb16a02436385671fd662a117e22459e889ed042c1378627b3f299cc",
    "fft4_q1": "99a99974cab50dfe3811282927956e0b135a53123365b6ff5942ef64d22286ab",
}


def test_digests_cover_the_catalog():
    assert set(fft.unit_names()) <= set(_PARSED_DIGESTS)


@pytest.mark.parametrize("unit", sorted(_PARSED_DIGESTS))
def test_catalog_dump_parses_to_pinned_nets(unit):
    text = dump_netlist(fft.build_unit(unit))
    net = parse_netlist(text)
    assert dump_netlist(net) == text
    parsed = repr((net.inputs, net.outputs, net.consts, net.gates))
    assert hashlib.sha256(parsed.encode()).hexdigest() == _PARSED_DIGESTS[unit]


# SHA-256 of repr((inputs, outputs, consts, gates)) of each built unit: the
# ``Gate`` tuples its builder's columns give, as per-gate storage gave them.
_BUILT_DIGESTS = {
    "vedic2x2": "aa49aa61679b4cce955e646a2fa1ddea96a4f7c4f4447f5c78c2cb462605fab5",
    "vedic4x4": "b37e70ca7fd71b7e46fb698a010d1077b18c570337a30f5d72cddeaca37234b3",
    "array4x4": "676efe2462f96966ededbd8dfc70146e4342659f0f4a15f51a99d545d87688f4",
    "adder4": "67dbfa498658b3ba05e514e6a9d5ec9305fff85109df2273c797316a0c1a99cd",
    "subtractor4": "a601a62de0f911363fdc916c8b20b641ff3150c32bcee8f669d9effb85f7a571",
    "butterfly2": "5dcba5976f19acf74c8c3fc2b410734f7e233ae7c8cdb676ef03b97c13df2f3f",
    "fft4": "d9943ecd5399b61fb903ec5c9f6ef2a438c835539efbb0f7f372a608abd60ec4",
    "fft4_q3": "209940c4279f120d2dd46187d1ab01e4b1ab2399137c09e6a561411e0f4d5f8d",
    "reconfigurable": "bc1db55c2dfa5a99e84c5608dfbe8bf619d9ac693b71db0f47b0351f3cbcff42",
    "reconfigurable_q3": "b2d8478bf55743fd578c01c3cd9f453b36d5f9b28d47504a671bad8d2da646a5",
    "adder16": "52c0bb3dcb16a02436385671fd662a117e22459e889ed042c1378627b3f299cc",
    "fft4_q1": "36d9213c2fbf2babe71b6d72755d518f6afea92699376590f80727ddd063ab93",
}


@pytest.mark.parametrize("unit", sorted(_BUILT_DIGESTS))
def test_catalog_unit_builds_pinned_gates(unit):
    assert set(_BUILT_DIGESTS) == set(_PARSED_DIGESTS)
    net = fft.build_unit(unit)
    built = repr((net.inputs, net.outputs, net.consts, net.gates))
    assert hashlib.sha256(built.encode()).hexdigest() == _BUILT_DIGESTS[unit]
    assert [g.id for g in net.gates] == list(range(len(net.gates)))
    assert net.nets == set(range(net._net_count))


@pytest.fixture
def gates_made(monkeypatch):
    """The arguments of every ``Gate`` made while the test runs."""
    made = []
    new = Gate.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Gate, "__new__", counting_new)
    return made


@pytest.mark.parametrize("unit", fft.unit_names())
def test_hot_paths_make_no_gate_tuples(gates_made, unit):
    # Built and dump-parsed netlists keep their gates as columns only: no
    # ``Gate`` is made unless ``gates`` is read.
    made = gates_made
    built = fft.build_unit(unit)
    text = dump_netlist(built)
    parsed = parse_netlist(text)
    for net in (built, parsed):
        assert dump_netlist(net) == text
        assert net.critical_path_depth() > 0
        assert net.gate_counts().total == cost_report(net).gates_total > 0
        columns = {bus: [0, (1 << len(bits)) - 1] for bus, bits in net.inputs.items()}
        assert net.evaluate_batch(columns).keys() == net.outputs.keys()
        assert "gates" not in net.__dict__
    assert made == []
    assert len(built.gates) == built.gate_counts().total == len(made)


@pytest.mark.parametrize("unit", fft.unit_names())
def test_reversed_catalog_dump_validates_to_the_unit(monkeypatch, gates_made, unit):
    # The dump with its gate lines reversed, ids kept, reads nets before
    # their gates drive them: it is not dump-ordered, so the parse runs the
    # validator, which must give back the unit's own order and nets.
    built = fft.build_unit(unit)
    text = dump_netlist(built)
    lines = text.splitlines(keepends=True)
    gate_rows = [k for k, line in enumerate(lines) if line.startswith("gate ")]
    first, last = gate_rows[0], gate_rows[-1] + 1
    reversed_text = "".join(lines[:first] + lines[first:last][::-1] + lines[last:])
    validated = []
    validate = Netlist._validate

    def counting_validate(name, *parts):
        validated.append(name)
        return validate(name, *parts)

    monkeypatch.setattr(Netlist, "_validate", staticmethod(counting_validate))
    parsed = parse_netlist(reversed_text)
    assert validated == [unit]
    assert dump_netlist(parsed) == text
    assert parsed.critical_path_depth() == built.critical_path_depth()
    rng = random.Random(20262)
    columns = {
        bus: [rng.randrange(1 << len(bits)) for _ in range(256)]
        for bus, bits in built.inputs.items()
    }
    assert parsed.evaluate_batch(columns) == built.evaluate_batch(columns)
    assert gates_made == []


# Text that reads gates of higher id (forward references) and whose ids have
# gaps: Kahn's sort orders it. The program was pinned when the netlist kept
# the text's gate ids and ordered them apart; it must not change.
_FORWARD_TEXT = (
    "netlist t v1\ninput a 2\nconst1 n9\n"
    "gate 0 NOT n1 -> n0\ngate 1 AND a[0] n3 -> n1\ngate 2 XOR n0 n9 -> n2\n"
    "gate 5 NOT a[1] -> n3\ngate 7 OR n2 n3 -> n4\noutput o n0 n2 n4\noutput p n1\n"
)


def test_forward_references_store_evaluation_order_and_keep_depth_and_program():
    net = parse_netlist(_FORWARD_TEXT)
    not_, and_, xor, or_ = GateKind.NOT, GateKind.AND, GateKind.XOR, GateKind.OR
    # Text gates 5, 1, 0, 2 and 7, in Kahn's order, as gates 0 .. 4; the
    # nets are numbered as the text first names them.
    assert net.gates == (
        Gate(0, not_, (1,), 5),
        Gate(1, and_, (0, 5), 3),
        Gate(2, not_, (3,), 4),
        Gate(3, xor, (4, 2), 6),
        Gate(4, or_, (6, 5), 7),
    )
    assert net.critical_path_depth() == 5
    text = dump_netlist(net)
    assert text == (
        "netlist t v1\ninput a 2\nconst1 n0\n"
        "gate 0 NOT a[1] -> n1\ngate 1 AND a[0] n1 -> n2\ngate 2 NOT n2 -> n3\n"
        "gate 3 XOR n3 n0 -> n4\ngate 4 OR n4 n1 -> n5\noutput o n3 n4 n5\noutput p n2\n"
    )
    assert dump_netlist(parse_netlist(text)) == text
    assert repr(net._compile({})) == (
        "_Program(ops=[3, 0, 3, 3, 1], in0=[1, 0, 3, 4, 6], in1=[1, 5, 3, 4, 5], "
        "outs=[5, 3, 4, 6, 7], size=10, in_slots={'a': [0, 1]}, "
        "out_slots={'o': [4, 6, 7], 'p': [3]}, in_bits=2, name='t ()')"
    )


def test_dump_ordered_text_with_gate_id_gaps_is_trusted_and_renumbered(monkeypatch):
    # Ascending ids with gaps are still dump order: the parse is trusted,
    # and the gates are numbered 0 .. G - 1, as the dump numbers them.
    monkeypatch.setattr(Netlist, "_validate", None)
    net = parse_netlist(
        "netlist t v1\ninput a 1\ngate 3 NOT a[0] -> n0\n"
        "gate 8 AND a[0] n0 -> n1\ngate 9 NOT n1 -> n2\noutput o n2\n"
    )
    assert net.gates == (
        Gate(0, GateKind.NOT, (0,), 1),
        Gate(1, GateKind.AND, (0, 1), 2),
        Gate(2, GateKind.NOT, (2,), 3),
    )
    assert dump_netlist(net).splitlines()[2:5] == [
        "gate 0 NOT a[0] -> n0",
        "gate 1 AND a[0] n0 -> n1",
        "gate 2 NOT n1 -> n2",
    ]


def test_validation_still_applies_after_parse():
    # Structurally well-formed text that violates the single-driver rule.
    text = (
        "netlist t v1\n"
        "input a 1\n"
        "gate 0 NOT a[0] -> n0\n"
        "gate 1 NOT a[0] -> n0\n"
        "output o n0\n"
    )
    with pytest.raises(NetlistError, match="driver"):
        parse_netlist(text)


def test_floating_output_rejected_after_parse():
    # n3 is named by the output bus but driven by nothing.
    text = (
        "netlist t v1\n"
        "input a 1\n"
        "gate 0 NOT a[0] -> n0\n"
        "output o n3\n"
    )
    with pytest.raises(NetlistError, match="floating"):
        parse_netlist(text)


def test_undriven_gate_input_rejected_after_parse():
    text = (
        "netlist t v1\n"
        "input a 1\n"
        "gate 0 AND n1 a[0] -> n0\n"
        "output o n0\n"
    )
    with pytest.raises(NetlistError, match="undriven"):
        parse_netlist(text)


def test_cycle_rejected_after_parse():
    text = (
        "netlist t v1\n"
        "input a 1\n"
        "gate 0 AND n1 a[0] -> n0\n"
        "gate 1 NOT n0 -> n1\n"
        "output o n0\n"
    )
    with pytest.raises(NetlistError, match="cycle"):
        parse_netlist(text)


def test_bus_name_used_for_input_and_output_rejected():
    # NetlistBuilder rejects this pair of buses with the same message.
    text = "netlist t v1\ninput a 1\ngate 0 NOT a[0] -> n0\noutput a n0\n"
    with pytest.raises(NetlistError) as caught:
        parse_netlist(text)
    assert str(caught.value) == "duplicate bus name a"


def test_input_width_capped_before_allocation():
    # Rejected on the width alone: no net of the bus is created.
    tracemalloc.start()
    try:
        with pytest.raises(NetlistFormatError, match="limit"):
            parse_netlist("netlist t v1\ninput a 100000000000\noutput o a[0]\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_builder_input_width_capped_before_allocation():
    tracemalloc.start()
    try:
        with pytest.raises(NetlistError, match="limit"):
            build_ripple_adder(MAX_BUS_WIDTH + 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_input_width_cap_boundary():
    widest = f"netlist t v1\ninput a {MAX_BUS_WIDTH}\noutput o a[{MAX_BUS_WIDTH - 1}]\n"
    assert parse_netlist(widest).input_width("a") == MAX_BUS_WIDTH
    with pytest.raises(NetlistFormatError, match="limit"):
        parse_netlist(f"netlist t v1\ninput a {MAX_BUS_WIDTH + 1}\noutput o a[0]\n")


# Small catalog units whose dumps the fuzz test mutates, and how many
# mutated texts each gets: the smaller the dump, the more texts.
_FUZZ_UNITS = {
    "vedic2x2": 800,
    "adder4": 600,
    "subtractor4": 500,
    "array4x4": 200,
    "butterfly2": 150,
    "vedic4x4": 150,
}

# Lines and tokens the mutations insert: some well formed, some not.
_STRAY_LINES = (
    "",
    "# a comment",
    "bogus line",
    "netlist t v1",
    "input q 2",
    "const0 n3",
    "const1 n0",
    "output z n0",
    "gate 999 NOT n0 -> n999",
    "gate 5 AND n1 n2 -> n4",
    "gate 7 XOR q[1] n2 -> n40",
)
_STRAY_TOKENS = ("n0", "n1", "n07", "n99", "a[0]", "a[9]", "b[1]", "x", "-1", "->", "AND", "7")
_KIND_NAMES = (*(kind.value for kind in GateKind), "nand", "MUX")


def _mutate(rng, lines):
    """One random edit of a list of text lines, in place."""
    op = rng.randrange(6)
    i = rng.randrange(len(lines))
    if op == 0 and len(lines) > 1:
        del lines[i]
    elif op == 1:
        j = rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    elif op == 2:
        lines.insert(rng.randrange(len(lines) + 1), lines[i])
    elif op == 3:
        fields = lines[i].split()
        if fields:
            other = rng.choice(lines).split() or ["n0"]
            pool = other if rng.random() < 0.5 else _STRAY_TOKENS
            fields[rng.randrange(len(fields))] = rng.choice(pool)
            lines[i] = " ".join(fields)
    elif op == 4:
        gates = [k for k, line in enumerate(lines) if line.startswith("gate ")]
        if gates:
            k = rng.choice(gates)
            fields = lines[k].split()
            fields[2] = rng.choice(_KIND_NAMES)
            lines[k] = " ".join(fields)
    else:
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(_STRAY_LINES))


def test_mutated_dumps_are_rejected_cleanly_or_round_trip():
    # A mutated dump is either rejected with NetlistError (or its
    # NetlistFormatError) and nothing else, or accepted; an accepted text
    # dumps to a fixed point and compiles to the program that ``Netlist(...)``
    # compiles from its parts.
    rng = random.Random(20260)
    outcomes = {"rejected": 0, "accepted": 0}
    for unit, count in _FUZZ_UNITS.items():
        lines = dump_netlist(fft.build_unit(unit)).splitlines()
        for _ in range(count):
            mutated = list(lines)
            for _ in range(rng.randrange(1, 4)):
                _mutate(rng, mutated)
            text = "\n".join(mutated) + "\n"
            try:
                net = parse_netlist(text)
            except NetlistError:
                outcomes["rejected"] += 1
                continue
            outcomes["accepted"] += 1
            dumped = dump_netlist(net)
            assert dump_netlist(parse_netlist(dumped)) == dumped, text
            ref = Netlist(net.name, net.inputs, net.outputs, net.gates, net.consts)
            assert repr(net._compile({})) == repr(ref._compile({})), text
            assert dump_netlist(ref) == dumped, text
    assert sum(outcomes.values()) == sum(_FUZZ_UNITS.values())
    assert min(outcomes.values()) > 300, outcomes
