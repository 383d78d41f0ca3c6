"""Line-based structural text format for netlists.

    netlist <name> v1
    input <busname> <width>        # bit k of the bus is net <busname>[k], k=0 LSB
    const0 <netid>                 # net tied to constant 0
    const1 <netid>
    gate <gateid> <KIND> <netid> [<netid>] -> <netid>
    output <busname> <netid> <netid> ...   # LSB first

Input bits are named ``<busname>[k]`` and internal nets ``n<int>``.
``#`` starts a comment. Dumps are canonical and deterministic: gates are
emitted in ascending gate id and internal nets renumbered in emission order,
so dumping a parsed dump reproduces it byte for byte.

The parser keeps one table from token to net. A token seen before costs one
lookup, and so does a gate's new output spelled as a dump spells it; every
other token is read by its regex, so ``n07`` and ``n7`` name one net, as do
``a[01]`` and ``a[1]``.
"""

from __future__ import annotations

import re

from .netlist import (
    KIND_OF,
    MAX_BUS_WIDTH,
    _NAME_RE,
    Gate,
    GateKind,
    Netlist,
    NetlistError,
    as_gate_kind,
)

_NET_TOKEN_RE = re.compile(r"^(?:n(\d+)|([A-Za-z_][A-Za-z0-9_]*)\[(\d+)\])$")


class NetlistFormatError(NetlistError):
    """Malformed netlist text."""


def dump_netlist(netlist: Netlist) -> str:
    """Serialize to the canonical structural text format."""
    text_id: dict[int, str] = {}
    for bus, nets in netlist.inputs.items():
        for k, n in enumerate(nets):
            text_id[n] = f"{bus}[{k}]"
    counter = 0
    const_lines = []
    for value in (0, 1):
        if value in netlist.consts:
            text_id[netlist.consts[value]] = f"n{counter}"
            const_lines.append(f"const{value} n{counter}")
            counter += 1
    for gate in netlist.gates:  # ascending gate id
        text_id[gate.output] = f"n{counter}"
        counter += 1

    kind_name = {kind: kind.value for kind in GateKind}
    lines = [f"netlist {netlist.name} v1"]
    for bus, nets in netlist.inputs.items():
        lines.append(f"input {bus} {len(nets)}")
    lines.extend(const_lines)
    for seq, (_, kind, ins, out) in enumerate(netlist.gates):
        if len(ins) == 1:
            lines.append(f"gate {seq} {kind_name[kind]} {text_id[ins[0]]} -> {text_id[out]}")
        else:
            lines.append(
                f"gate {seq} {kind_name[kind]} {text_id[ins[0]]} {text_id[ins[1]]}"
                f" -> {text_id[out]}"
            )
    for bus, nets in netlist.outputs.items():
        bits = " ".join(text_id[n] for n in nets)
        lines.append(f"output {bus} {bits}")
    return "\n".join(lines) + "\n"


def parse_netlist(text: str) -> Netlist:
    """Parse the structural format back into a validated Netlist."""
    inputs: dict[str, tuple[int, ...]] = {}
    outputs: dict[str, tuple[int, ...]] = {}
    gates: list[Gate] = []
    consts: dict[int, int] = {}
    # Token -> net: every input bit and internal net as the dump spells it,
    # and each other spelling once ``resolve`` has read it.
    by_token: dict[str, int] = {}
    lookup = by_token.get
    next_id = 0
    name: str | None = None
    not_ = GateKind.NOT

    def fail(lineno: int, message: str):
        raise NetlistFormatError(f"line {lineno}: {message}")

    def resolve(token: str, lineno: int, internal_only: bool = False) -> int:
        nonlocal next_id
        m = _NET_TOKEN_RE.match(token)
        if not m:
            fail(lineno, f"bad net id {token!r}")
        internal, bus, bit = m.groups()
        try:
            k = int(bit if internal is None else internal)
        except ValueError:  # more digits than int() converts
            fail(lineno, f"bad net id {token!r}")
        if internal is not None:
            key = f"n{k}"
            if key not in by_token:
                by_token[key] = next_id
                next_id += 1
            net = by_token[token] = by_token[key]
            return net
        if internal_only:
            fail(lineno, f"expected internal net id, got input bit {token!r}")
        if bus not in inputs:
            fail(lineno, f"unknown input bus {bus!r}")
        if k >= len(inputs[bus]):
            fail(lineno, f"bit {k} out of range for {len(inputs[bus])}-bit bus {bus!r}")
        net = by_token[token] = inputs[bus][k]
        return net

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0] if "#" in raw else raw
        fields = line.split()
        if not fields:
            continue
        if name is None:
            if len(fields) != 3 or fields[0] != "netlist" or fields[2] != "v1":
                fail(lineno, "expected header 'netlist <name> v1'")
            if not _NAME_RE.match(fields[1]):
                fail(lineno, f"bad netlist name {fields[1]!r}")
            name = fields[1]
            continue
        directive = fields[0]
        if directive == "gate":  # nearly every line, so tested first
            if len(fields) < 6 or fields[-2] != "->":
                fail(lineno, "expected 'gate <id> <KIND> <in>... -> <out>'")
            try:
                gid = int(fields[1])
            except ValueError:
                fail(lineno, f"bad gate id {fields[1]!r}")
            kind = KIND_OF.get(fields[2])
            if kind is None:
                try:
                    kind = as_gate_kind(fields[2])
                except NetlistError:
                    fail(lineno, f"unknown gate kind {fields[2]!r}")
            arity = 1 if kind is not_ else 2
            if len(fields) != arity + 5:
                fail(lineno, f"{kind.value} takes {arity} input(s), got {len(fields) - 5}")
            token = fields[3]
            a = lookup(token)
            if a is None:
                a = resolve(token, lineno)
            if arity == 1:
                ins = (a,)
            else:
                token = fields[4]
                b = lookup(token)
                if b is None:
                    b = resolve(token, lineno)
                ins = (a, b)
            token = fields[-1]
            # A new output spelled as a dump spells it, ``n`` and at most 18
            # ASCII digits without a leading zero, is a fresh net; the length
            # keeps it far inside every int() digit limit.
            if (
                token not in by_token
                and token[0] == "n"
                and token[1:].isdigit()
                and token.isascii()
                and len(token) < 20
                and (token[1] != "0" or len(token) == 2)
            ):
                out = by_token[token] = next_id
                next_id += 1
            else:
                out = resolve(token, lineno, internal_only=True)
            gates.append(Gate(gid, kind, ins, out))
        elif directive == "input":
            if len(fields) != 3:
                fail(lineno, "expected 'input <busname> <width>'")
            bus = fields[1]
            if bus in inputs:
                fail(lineno, f"duplicate input bus {bus!r}")
            try:
                width = int(fields[2])
            except ValueError:
                fail(lineno, f"bad width {fields[2]!r}")
            if width < 1:
                fail(lineno, f"width must be >= 1, got {width}")
            if width > MAX_BUS_WIDTH:
                fail(lineno, f"width {width} exceeds the {MAX_BUS_WIDTH}-bit limit")
            inputs[bus] = nets = tuple(range(next_id, next_id + width))
            next_id += width
            if _NAME_RE.match(bus):  # else its bits are bad net ids
                for k, net in enumerate(nets):
                    by_token[f"{bus}[{k}]"] = net
        elif directive in ("const0", "const1"):
            if len(fields) != 2:
                fail(lineno, f"expected '{directive} <netid>'")
            value = int(directive[-1])
            if value in consts:
                fail(lineno, f"duplicate {directive} declaration")
            consts[value] = resolve(fields[1], lineno, internal_only=True)
        elif directive == "output":
            if len(fields) < 3:
                fail(lineno, "expected 'output <busname> <netid>...'")
            bus = fields[1]
            if bus in outputs:
                fail(lineno, f"duplicate output bus {bus!r}")
            bits = []
            for token in fields[2:]:
                net = lookup(token)
                bits.append(resolve(token, lineno) if net is None else net)
            outputs[bus] = tuple(bits)
        else:
            fail(lineno, f"unknown directive {directive!r}")

    if name is None:
        raise NetlistFormatError("empty netlist text")
    if not outputs:
        raise NetlistFormatError("netlist text declares no output buses")
    return Netlist(name, inputs, outputs, gates, consts)
