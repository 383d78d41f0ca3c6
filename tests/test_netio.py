import hashlib
import random
import tracemalloc

import pytest

from vedicfft import (
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
    "reconfigurable": "ef359c6ba3154b7b1a9ed1e1c6d69f6668409e9571391e3ec6f73cf5ba839b57",
    "reconfigurable_q3": "b337a0b7133f11a89b41caa51440a7176a189ebaac08a07952af6bbf3f69f957",
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
