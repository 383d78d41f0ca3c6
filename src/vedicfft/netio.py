"""Line-based structural text format for netlists.

    netlist <name> v1
    input <busname> <width>        # bit k of the bus is net <busname>[k], k=0 LSB
    const0 <netid>                 # net tied to constant 0
    const1 <netid>
    gate <gateid> <KIND> <netid> [<netid>] -> <netid>
    output <busname> <netid> <netid> ...   # LSB first

Input bits are named ``<busname>[k]`` and internal nets ``n<int>``.
``#`` starts a comment. Dumps are canonical and deterministic: gates are
emitted in evaluation order, which is ascending gate id, numbered from 0,
and internal nets renumbered in emission order, so dumping a parsed dump
reproduces it byte for byte.

The parser keeps one table from token to net. A token seen before costs one
lookup, and so does a gate's new output spelled as a dump spells it; every
other token is read by its regex, so ``n07`` and ``n7`` name one net, as do
``a[01]`` and ``a[1]``.

The parser numbers nets in order of first appearance, appends each gate
to the gate columns a ``Netlist`` keeps and makes no ``Gate``. Text in
dump order is not validated twice. The parser's own pass shows it: every
gate output is a fresh token spelled as a dump spells it, gate ids
strictly ascend, each ``const`` token is new, every bus name is valid and
no output bus is named as an input, and the parser made no net without
its driver, so every gate input and output bit names a net driven above
it. Its columns are then taken as they are, as ``NetlistBuilder.finalize``
hands over its own. Any other text goes, with its gate ids, to the
validator ``Netlist(...)`` runs, and gets its messages. Either way the
gates are stored, and dumped, in evaluation order as gates ``0 .. G - 1``.
"""

from __future__ import annotations

import re

from .netlist import (
    KIND_OF,
    MAX_BUS_WIDTH,
    _NAME_RE,
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
    text_id = [""] * netlist._net_count  # net id -> its token
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
    kinds, in0, in1, outs = netlist._kinds, netlist._in0, netlist._in1, netlist._outs
    for counter, out in enumerate(outs, counter):  # evaluation order
        text_id[out] = f"n{counter}"

    kind_name = {kind: kind.value for kind in GateKind}
    not_ = GateKind.NOT
    lines = [f"netlist {netlist.name} v1"]
    for bus, nets in netlist.inputs.items():
        lines.append(f"input {bus} {len(nets)}")
    lines.extend(const_lines)
    for seq, (kind, a, b, out) in enumerate(zip(kinds, in0, in1, outs)):
        if kind is not_:
            lines.append(f"gate {seq} NOT {text_id[a]} -> {text_id[out]}")
        else:
            lines.append(
                f"gate {seq} {kind_name[kind]} {text_id[a]} {text_id[b]} -> {text_id[out]}"
            )
    for bus, nets in netlist.outputs.items():
        bits = " ".join(text_id[n] for n in nets)
        lines.append(f"output {bus} {bits}")
    return "\n".join(lines) + "\n"


def parse_netlist(text: str) -> Netlist:
    """Parse the structural format back into a Netlist: trusted when the
    text is dump-ordered, else validated by ``Netlist._validate``."""
    inputs: dict[str, tuple[int, ...]] = {}
    outputs: dict[str, tuple[int, ...]] = {}
    # The gate columns ``Netlist._trusted`` takes, and the gate ids, which
    # only validation reads.
    ids: list[int] = []
    kinds: list[GateKind] = []
    in0: list[int] = []
    in1: list[int] = []
    outs: list[int] = []
    consts: dict[int, int] = {}
    # Token -> net: every input bit and internal net as the dump spells it,
    # and each other spelling once ``resolve`` has read it.
    by_token: dict[str, int] = {}
    lookup = by_token.get
    kind_of = KIND_OF.get
    append_id, append_kind = ids.append, kinds.append
    append_in0, append_in1, append_out = in0.append, in1.append, outs.append
    next_id = 0
    # Dump-ordered so far: every gate output fresh and spelled as a dump
    # spells it, gate ids ascending, each const token new, every bus name
    # valid and no output named as an input. If, as well, every net was
    # made with its driver (checked at the end), no net has two drivers
    # and every read names a net driven above it.
    ordered = True
    last_gid = None
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
            if not _NAME_RE.fullmatch(fields[1]):
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
            if last_gid is not None and gid <= last_gid:
                ordered = False
            last_gid = gid
            kind = kind_of(fields[2])
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
                b = a
            else:
                token = fields[4]
                b = lookup(token)
                if b is None:
                    b = resolve(token, lineno)
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
                ordered = False
            append_id(gid)
            append_kind(kind)
            append_in0(a)
            append_in1(b)
            append_out(out)
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
            if _NAME_RE.fullmatch(bus):  # else its bits are bad net ids
                for k, net in enumerate(nets):
                    by_token[f"{bus}[{k}]"] = net
            else:
                ordered = False
        elif directive in ("const0", "const1"):
            if len(fields) != 2:
                fail(lineno, f"expected '{directive} <netid>'")
            value = int(directive[-1])
            if value in consts:
                fail(lineno, f"duplicate {directive} declaration")
            fresh = next_id
            consts[value] = resolve(fields[1], lineno, internal_only=True)
            if consts[value] != fresh:  # a net named before
                ordered = False
        elif directive == "output":
            if len(fields) < 3:
                fail(lineno, "expected 'output <busname> <netid>...'")
            bus = fields[1]
            if bus in outputs:
                fail(lineno, f"duplicate output bus {bus!r}")
            if bus in inputs or not _NAME_RE.fullmatch(bus):
                ordered = False
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
    # As many nets as drivers: no net was made without its driver.
    drivers = sum(map(len, inputs.values())) + len(consts) + len(ids)
    if ordered and next_id == drivers:
        return Netlist._trusted(name, inputs, outputs, kinds, in0, in1, outs, consts, next_id)
    parts = Netlist._validate(name, inputs, outputs, ids, kinds, in0, in1, outs, consts)
    return Netlist._trusted(*parts)
