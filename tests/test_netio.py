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
