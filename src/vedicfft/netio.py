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
"""

from __future__ import annotations

import re

from .netlist import (
    KIND_OF,
    MAX_BUS_WIDTH,
    Gate,
    GateKind,
    Netlist,
    NetlistError,
    as_gate_kind,
)

_NET_TOKEN_RE = re.compile(r"^(?:n(\d+)|([A-Za-z_][A-Za-z0-9_]*)\[(\d+)\])$")
_NAME_TOKEN_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


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
    for seq, gate in enumerate(netlist.gates):
        ins = " ".join(text_id[n] for n in gate.inputs)
        lines.append(f"gate {seq} {kind_name[gate.kind]} {ins} -> {text_id[gate.output]}")
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
    by_token: dict[str, int] = {}
    next_id = 0
    name: str | None = None

    def fail(lineno: int, message: str):
        raise NetlistFormatError(f"line {lineno}: {message}")

    def fresh_net() -> int:
        nonlocal next_id
        next_id += 1
        return next_id - 1

    def resolve(token: str, lineno: int, internal_only: bool = False) -> int:
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
                by_token[key] = fresh_net()
            return by_token[key]
        if internal_only:
            fail(lineno, f"expected internal net id, got input bit {token!r}")
        if bus not in inputs:
            fail(lineno, f"unknown input bus {bus!r}")
        if k >= len(inputs[bus]):
            fail(lineno, f"bit {k} out of range for {len(inputs[bus])}-bit bus {bus!r}")
        return inputs[bus][k]

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if name is None:
            if len(fields) != 3 or fields[0] != "netlist" or fields[2] != "v1":
                fail(lineno, "expected header 'netlist <name> v1'")
            if not _NAME_TOKEN_RE.match(fields[1]):
                fail(lineno, f"bad netlist name {fields[1]!r}")
            name = fields[1]
            continue
        directive = fields[0]
        if directive == "input":
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
            inputs[bus] = tuple(fresh_net() for _ in range(width))
        elif directive in ("const0", "const1"):
            if len(fields) != 2:
                fail(lineno, f"expected '{directive} <netid>'")
            value = int(directive[-1])
            if value in consts:
                fail(lineno, f"duplicate {directive} declaration")
            consts[value] = resolve(fields[1], lineno, internal_only=True)
        elif directive == "gate":
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
            in_tokens = fields[3:-2]
            if len(in_tokens) != kind.arity:
                fail(
                    lineno,
                    f"{kind.value} takes {kind.arity} input(s), got {len(in_tokens)}",
                )
            ins = tuple(resolve(t, lineno) for t in in_tokens)
            out = resolve(fields[-1], lineno, internal_only=True)
            gates.append(Gate(gid, kind, ins, out))
        elif directive == "output":
            if len(fields) < 3:
                fail(lineno, "expected 'output <busname> <netid>...'")
            bus = fields[1]
            if bus in outputs:
                fail(lineno, f"duplicate output bus {bus!r}")
            outputs[bus] = tuple(resolve(t, lineno) for t in fields[2:])
        else:
            fail(lineno, f"unknown directive {directive!r}")

    if name is None:
        raise NetlistFormatError("empty netlist text")
    if not outputs:
        raise NetlistFormatError("netlist text declares no output buses")
    return Netlist(name, inputs, outputs, gates, consts)
