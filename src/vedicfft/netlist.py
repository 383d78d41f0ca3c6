"""Combinational gate-level netlists: construction, validation, evaluation,
and static analysis.

The model is a DAG of single-output boolean gates connected by nets, each
net an integer id with exactly one driver: an input bit, a constant or a
gate. Buses are named, ordered lists of nets, LSB first. Bus values travel
as raw unsigned ints (bit k of the int is net k of the bus);
:func:`to_signed` reads one as two's complement. A unit is built in one
:class:`NetlistBuilder`: composite blocks emit their gates straight into
it, so every gate is constructed once. The builder checks each net, gate
and bus as it is added, so its ``finalize`` checks only the netlist name
and does not validate again: the gate ids are the evaluation order and the
nets are every id it handed out. ``Netlist(...)``, and so
:func:`vedicfft.netio.parse_netlist`, validates the structure and fixes
the evaluation order: Kahn's topological sort, smallest ready gate id
first. Where every gate reads only nets driven before it in id order, as
in the dump of a built netlist, that order is ascending id and validation
is one linear pass; only text with forward references or cycles runs the
sort. A finalized ``Netlist`` is
immutable and safe to share across threads; ``evaluate_batch`` is a pure
function of its input columns. A column is a list of per-vector values or
one int that the bus holds in every vector. The slot program it simulates
is compiled with those scalar bits as constants, so the logic they make
idle drops out; each distinct scalar assignment (none included) compiles
one program on its first evaluation, cached per netlist. Threads that race
on that first call each compile the same program, and the last assignment
wins. Columns are transposed into lane words, and lane words back into
values, through byte buffers of one item per vector: a bus costs a fixed
number of buffer and big-int operations and each bus bit one stride
slice, with no Python call per vector up to 64 bits.

Cost model: every gate costs one delay unit and one unit of area, wires are
free. ``critical_path_depth`` and ``gate_counts`` report those two metrics.
"""

from __future__ import annotations

import enum
import heapq
import re
import sys
from array import array
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from itertools import compress
from operator import itemgetter
from typing import NamedTuple


class NetlistError(ValueError):
    """Raised for structural violations: bad arity, unknown nets, duplicate
    drivers, combinational cycles, floating outputs."""


class GateKind(enum.Enum):
    AND = "AND"
    OR = "OR"
    XOR = "XOR"
    NOT = "NOT"
    NAND = "NAND"
    NOR = "NOR"
    XNOR = "XNOR"

    # Members are singletons compared by identity, so the C identity hash
    # agrees with ``==``; ``Enum``'s own hashes the name in Python, and kinds
    # key the dicts that count, dump and compile gates.
    __hash__ = object.__hash__

    @property
    def arity(self) -> int:
        return 1 if self is GateKind.NOT else 2


# Opcodes of the gate kernel, ``Netlist._run``.
_OPCODE = {
    GateKind.AND: 0,
    GateKind.OR: 1,
    GateKind.XOR: 2,
    GateKind.NOT: 3,
    GateKind.NAND: 4,
    GateKind.NOR: 5,
    GateKind.XNOR: 6,
}

# Truth table per opcode: bit 2*a + b is the gate's output for input bits
# a and b (NOT reads a only). The compiler folds gates by it.
_TRUTH = (0b1000, 0b1110, 0b0110, 0b0011, 0b0111, 0b0001, 0b1001)

# A kind, or its canonical name, to the kind: the one dict lookup that
# ``add_gate`` and ``parse_netlist`` try before :func:`as_gate_kind`.
KIND_OF: dict[GateKind | str, GateKind] = {
    **{k.value: k for k in GateKind},
    **{k: k for k in GateKind},
}

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")

# ``add_gate`` reads these once per gate: a module global is cheaper than
# the enum class attribute, and ``tuple.__new__`` than the namedtuple's own.
_NOT = GateKind.NOT
_new_tuple = tuple.__new__

# Widest input bus a builder or the text format accepts. The widest catalog
# bus is 4 bits; the cap keeps one request from an unbounded net allocation.
MAX_BUS_WIDTH = 4096


def to_signed(raw: int, width: int) -> int:
    """Read the raw unsigned ``width``-bit pattern ``raw`` as two's complement."""
    return raw - (1 << width) if raw >> (width - 1) else raw


def as_gate_kind(kind: GateKind | str) -> GateKind:
    if isinstance(kind, GateKind):
        return kind
    try:
        return GateKind[str(kind).upper()]
    except KeyError:
        raise NetlistError(f"unknown gate kind {kind!r}") from None


class Gate(NamedTuple):
    """One gate: immutable, and as a tuple it equals ``(id, kind, inputs,
    output)``."""

    id: int
    kind: GateKind
    inputs: tuple[int, ...]
    output: int


class GateCounts(NamedTuple):
    by_kind: dict[str, int]
    total: int


class _Program(NamedTuple):
    """A netlist compiled to slot indices for the gate kernel: the folded
    gates in evaluation order and the slots of the buses."""

    ops: list[int]
    in0: list[int]
    in1: list[int]  # NOT: duplicates in0
    outs: list[int]
    size: int  # number of slots: one per net, then constant 0, constant 1
    in_slots: dict[str, list[int]]
    out_slots: dict[str, list[int]]


def _driver_name(driver: tuple[str, int] | int | Gate) -> str:
    """Describe a driver as ``Netlist._validate`` records it."""
    if isinstance(driver, Gate):
        return f"gate {driver.id}"
    if isinstance(driver, tuple):
        return f"input {driver[0]}[{driver[1]}]"
    return f"const{driver}"


# The C type code of each item size in bytes, for ``array``.
_ITEM_CODE = {array(code).itemsize: code for code in "BHILQ"}
_BIG_ENDIAN = sys.byteorder == "big"


def _item_size(width: int) -> int:
    """Bytes per vector when a ``width``-bit bus is laid out as a buffer:
    1, 2, 4 or 8 up to 64 bits, so that the buffer is a C array; whole
    bytes above."""
    if width > 64:
        return (width + 7) // 8
    return 1 << max(0, (width - 1).bit_length() - 3)


def _pack_lanes(col: Sequence[int], width: int) -> list[int]:
    """Transpose a column of n values into the bus's lane words: word k
    holds bit k of vector i at bit i.

    The column becomes a buffer of one little-endian item per vector, read
    as one int, so bit k of vector i is bit ``step * i + k`` with ``step``
    the item's bit size. In the int's binary string, MSB first, every
    step-th digit from ``step - 1 - k`` is then word k, last vector first.
    ``evaluate_batch`` has checked the column's minimum and maximum
    against ``[0, 2**width)``; a non-int value between them raises
    TypeError here.
    One lane needs no buffer: its word k is bit k of the value.
    """
    if len(col) == 1:
        value = col[0]
        return [(value >> k) & 1 for k in range(width)]
    if type(col) is not list:
        # ``bytes`` and ``array`` read a buffer's raw bytes, not its items.
        col = list(col)
    size = _item_size(width)
    if size == 1:
        items = bytes(col)
    elif size <= 8:
        items = array(_ITEM_CODE[size], col)
        if _BIG_ENDIAN:
            items.byteswap()
    else:
        items = b"".join([int.to_bytes(v, size, "little") for v in col])
    step = 8 * size
    digits = format(int.from_bytes(items, "little"), f"0{step * len(col)}b")
    return [int(digits[step - 1 - k :: step], 2) for k in range(width)]


def _unpack_lanes(words: list[int], n: int) -> list[int]:
    """The inverse of :func:`_pack_lanes`: the n values of a bus whose bit k
    has lane word ``words[k]``.

    Each word's n digits go into the binary string of the buffer at the
    same stride, the string is parsed once, and the buffer is read back as
    C items (or per vector, above 64 bits). One lane needs none of it: its
    bits, MSB first, are the value.
    """
    if n == 1:
        value = 0
        for word in reversed(words):
            value = (value << 1) | word
        return [value]
    size = _item_size(len(words))
    step = 8 * size
    digits = bytearray(b"0") * (step * n)
    spec = f"0{n}b"
    for k, word in enumerate(words):
        digits[step - 1 - k :: step] = format(word, spec).encode()
    data = int(digits, 2).to_bytes(size * n, "little")
    if size > 8:
        return [
            int.from_bytes(data[i : i + size], "little")
            for i in range(0, len(data), size)
        ]
    items = array(_ITEM_CODE[size], data)
    if _BIG_ENDIAN:
        items.byteswap()
    return items.tolist()


def _check_bus_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise NetlistError(f"invalid bus name {name!r}")
    return name


class Netlist:
    """An immutable, validated combinational netlist.

    Construct through :class:`NetlistBuilder` or :func:`vedicfft.netio.parse_netlist`.
    """

    def __init__(
        self,
        name: str,
        inputs: Mapping[str, Sequence[int]],
        outputs: Mapping[str, Sequence[int]],
        gates: Iterable[Gate],
        consts: Mapping[int, int],
    ):
        self.name = name
        self.inputs: dict[str, tuple[int, ...]] = {b: tuple(n) for b, n in inputs.items()}
        self.outputs: dict[str, tuple[int, ...]] = {b: tuple(n) for b, n in outputs.items()}
        self.gates: tuple[Gate, ...] = tuple(sorted(gates, key=itemgetter(0)))
        self.consts: dict[int, int] = dict(consts)  # constant bit value -> net id
        self.nets, self._order = self._validate()
        # One program per sorted tuple of (bus, value) scalars; () is the
        # program with no input tied.
        self._programs: dict[tuple[tuple[str, int], ...], _Program] = {}

    @classmethod
    def _trusted(
        cls,
        name: str,
        inputs: dict[str, tuple[int, ...]],
        outputs: dict[str, tuple[int, ...]],
        gates: tuple[Gate, ...],
        consts: dict[int, int],
        nets: frozenset[int],
    ) -> Netlist:
        """A netlist whose structure its caller guarantees, without
        :meth:`_validate`: ``gates`` sorted by id and already in evaluation
        order, ``nets`` exactly the driven nets. Only
        :meth:`NetlistBuilder.finalize` calls it."""
        self = object.__new__(cls)
        self.name = name
        self.inputs = inputs
        self.outputs = outputs
        self.gates = gates
        self.consts = consts
        self.nets = nets
        self._order = gates
        self._programs = {}
        return self

    # -- validation ---------------------------------------------------------

    def _validate(self) -> tuple[frozenset[int], tuple[Gate, ...]]:
        """Check the structure; return the driven nets and the gates in
        evaluation order.

        The order is Kahn's, ready gates taken smallest id first. When every
        gate reads only input bits, constants and outputs of lower-id gates,
        as in every built netlist and the dump of one, that order is
        ascending id: one pass over ``self.gates`` finds this, and the sort
        runs only for text with forward references or cycles.
        """
        if not _NAME_RE.match(self.name):
            raise NetlistError(f"invalid netlist name {self.name!r}")
        # Net -> its driver, as a value ``_driver_name`` formats only when a
        # second driver turns up: (bus, bit), a constant value or a gate.
        drivers: dict[int, tuple[str, int] | int | Gate] = {}

        def claim(net: int, source: tuple[str, int] | int | Gate):
            if net in drivers:
                raise NetlistError(
                    f"net {net} has two drivers: {_driver_name(drivers[net])} "
                    f"and {_driver_name(source)}"
                )
            drivers[net] = source

        for bus in list(self.inputs) + list(self.outputs):
            _check_bus_name(bus)
        for bus in self.outputs:
            if bus in self.inputs:
                raise NetlistError(f"duplicate bus name {bus}")
        for bus, nets in self.inputs.items():
            if not nets:
                raise NetlistError(f"input bus {bus} has zero width")
            for k, n in enumerate(nets):
                claim(n, (bus, k))
        for value, n in self.consts.items():
            if value not in (0, 1):
                raise NetlistError(f"constant value must be 0 or 1, got {value}")
            claim(n, value)

        not_ = GateKind.NOT  # arity 1, every other kind 2; cheaper than .arity
        id_ordered = True  # every gate reads only nets driven before it
        last_id = None
        for gate in self.gates:  # sorted by id, so duplicates are neighbours
            if gate.id == last_id:
                raise NetlistError(f"duplicate gate id {gate.id}")
            last_id = gate.id
            if len(gate.inputs) != (1 if gate.kind is not_ else 2):
                raise NetlistError(
                    f"gate {gate.id} ({gate.kind.value}) takes {gate.kind.arity} "
                    f"inputs, got {len(gate.inputs)}"
                )
            if id_ordered:
                for n in gate.inputs:
                    if n not in drivers:
                        id_ordered = False
            claim(gate.output, gate)

        if not id_ordered:  # else every read was found driven above
            for gate in self.gates:
                for n in gate.inputs:
                    if n not in drivers:
                        raise NetlistError(f"gate {gate.id} reads undriven net {n}")
        for bus, nets in self.outputs.items():
            if not nets:
                raise NetlistError(f"output bus {bus} has zero width")
            for k, n in enumerate(nets):
                if n not in drivers:
                    raise NetlistError(f"floating output bit {bus}[{k}] (net {n})")
        if id_ordered:
            return frozenset(drivers), self.gates

        # Kahn's algorithm over gates; ready ties broken by ascending gate id
        # so evaluation order is reproducible.
        producer = {g.output: g for g in self.gates}
        pending = {g.id: sum(1 for n in g.inputs if n in producer) for g in self.gates}
        ready = [g.id for g in self.gates if pending[g.id] == 0]
        heapq.heapify(ready)
        consumers: dict[int, list[Gate]] = {}
        for g in self.gates:
            for n in g.inputs:
                if n in producer:
                    consumers.setdefault(n, []).append(g)
        order: list[Gate] = []
        by_id = {g.id: g for g in self.gates}
        while ready:
            g = by_id[heapq.heappop(ready)]
            order.append(g)
            for consumer in consumers.get(g.output, ()):
                pending[consumer.id] -= 1
                if pending[consumer.id] == 0:
                    heapq.heappush(ready, consumer.id)
        if len(order) != len(self.gates):
            stuck = sorted(gid for gid, deg in pending.items() if deg > 0)
            raise NetlistError(f"combinational cycle through gates {stuck}")
        return frozenset(drivers), tuple(order)

    # -- evaluation ---------------------------------------------------------

    def _compile(self, tied: Mapping[str, int]) -> _Program:
        """Compile to the slot program of the gate kernel, folded.

        Slots are the nets in ascending id order, then one slot held at 0
        and one at the all-lanes mask. The bits of every bus in ``tied``
        start out as those constant slots (bit k of ``tied[bus]``), like the
        netlist's own constants, and the bus has no input slots. One pass
        over ``_order`` maps every net to a representative slot. A gate
        whose inputs are constant or are one slot twice is read off its
        truth table: it becomes a constant, a copy of its free input, or a
        NOT of it. Only gates that depend on two distinct slots, and those
        NOTs, are emitted, and readers and output buses read the
        representatives. A backward sweep from the output slots then drops
        every gate that reaches no output. The netlist itself keeps every
        gate for ``dump`` and the cost model.
        """
        slot = {nid: i for i, nid in enumerate(sorted(self.nets))}
        zero = len(slot)
        const = (zero, zero + 1)  # the slot of constant 0, of constant 1
        rep = [*slot.values(), *const]
        for value, nid in self.consts.items():
            rep[slot[nid]] = const[value]
        for bus, value in tied.items():
            for k, nid in enumerate(self.inputs[bus]):
                rep[slot[nid]] = const[(value >> k) & 1]
        ops: list[int] = []
        in0: list[int] = []
        in1: list[int] = []
        outs: list[int] = []
        for g in self._order:
            op = _OPCODE[g.kind]
            a, b = rep[slot[g.inputs[0]]], rep[slot[g.inputs[-1]]]
            out = slot[g.output]
            if a >= zero or b >= zero or a == b:
                t = _TRUTH[op]
                ka, kb = a - zero, b - zero  # the constant's value where >= 0
                if ka >= 0 and kb >= 0:
                    rep[out] = const[(t >> (2 * ka + kb)) & 1]
                    continue
                # The output as a function of the one free input x: bit v
                # of u is the output when x is v.
                if a == b:
                    x, u = a, (t & 1) | ((t >> 2) & 2)
                elif ka >= 0:
                    x, u = b, (t >> (2 * ka)) & 3
                else:
                    x, u = a, ((t >> kb) & 1) | ((t >> (1 + kb)) & 2)
                if u == 0b10:
                    rep[out] = x
                    continue
                if u != 0b01:
                    rep[out] = const[u & 1]
                    continue
                op, a, b = _OPCODE[GateKind.NOT], x, x
            ops.append(op)
            in0.append(a)
            in1.append(b)
            outs.append(out)
        out_slots = {
            bus: [rep[slot[n]] for n in nets] for bus, nets in self.outputs.items()
        }
        live = bytearray(zero + 2)
        for slots in out_slots.values():
            for s in slots:
                live[s] = 1
        # Every reader of a gate comes after it, so a gate's output is
        # marked live, if at all, before the sweep reaches the gate.
        for i in range(len(ops) - 1, -1, -1):
            if live[outs[i]]:
                live[in0[i]] = live[in1[i]] = 1
        kept = bytes(map(live.__getitem__, outs))
        return _Program(
            ops=list(compress(ops, kept)),
            in0=list(compress(in0, kept)),
            in1=list(compress(in1, kept)),
            outs=list(compress(outs, kept)),
            size=zero + 2,
            in_slots={
                bus: [slot[n] for n in nets]
                for bus, nets in self.inputs.items()
                if bus not in tied
            },
            out_slots=out_slots,
        )

    def _run(self, p: _Program, values: list[int], mask: int) -> None:
        """The gate kernel: evaluate every gate of ``p`` in topological order.

        Each slot holds one word whose bit i is the net's value in vector i;
        ``mask`` has one set bit per vector, so a one-lane run passes 1. One
        pass therefore evaluates every vector at once (parallel-pattern
        simulation). Constant slots must already hold 0 or ``mask``.
        """
        for op, a, b, out in zip(p.ops, p.in0, p.in1, p.outs):
            if op == 0:
                values[out] = values[a] & values[b]
            elif op == 2:
                values[out] = values[a] ^ values[b]
            elif op == 1:
                values[out] = values[a] | values[b]
            elif op == 3:
                values[out] = values[a] ^ mask
            elif op == 4:
                values[out] = (values[a] & values[b]) ^ mask
            elif op == 5:
                values[out] = (values[a] | values[b]) ^ mask
            else:
                values[out] = values[a] ^ values[b] ^ mask

    def _check_buses(self, assignments: Mapping[str, object]) -> None:
        missing = set(self.inputs) - set(assignments)
        if missing:
            raise NetlistError(f"missing input buses: {sorted(missing)}")
        extra = set(assignments) - set(self.inputs)
        if extra:
            raise NetlistError(f"unknown input buses: {sorted(extra)}")

    def evaluate_batch(
        self, columns: Mapping[str, int | Sequence[int]]
    ) -> dict[str, list[int]]:
        """Compute all output buses for n input vectors in one gate pass.

        ``columns`` maps every input bus to a list of n raw unsigned values
        (vector i is element i of every list) or to one int, the bus's value
        in every vector; at least one column must be a list. The result maps
        every output bus to its n raw unsigned values in the same order. n
        must be at least 1 and each value must fit its bus:
        ``0 <= v < 2**width``. Scalars are meant for configuration buses:
        each distinct assignment of them compiles and caches one program in
        which their bits are constants, so the logic they idle is not
        simulated. This is the one simulation entry point: the only code
        that packs vectors into lane words and runs the gate kernel. One
        vector is a one-lane batch. The transposition is
        :func:`_pack_lanes` on the way in and :func:`_unpack_lanes` on the
        way out.
        """
        self._check_buses(columns)
        tied = {}
        lists = {}
        for bus, col in columns.items():
            if isinstance(col, int):
                width = len(self.inputs[bus])
                if col < 0 or col >> width:
                    raise NetlistError(
                        f"input {bus} values must be integers in [0, 2**{width})"
                    )
                tied[bus] = col
            elif isinstance(col, Sequence):
                lists[bus] = col
            else:
                raise NetlistError(
                    f"input {bus} column must be an int or a sequence, "
                    f"got {type(col).__name__}"
                )
        if not lists:
            raise NetlistError(
                "every input column is a scalar: no list gives the lane count"
            )
        key = tuple(sorted(tied.items()))
        p = self._programs.get(key)
        if p is None:
            # Compiled on first use. Threads that race here each compile
            # the same program, and the last assignment wins.
            p = self._programs[key] = self._compile(tied)
        lengths = {len(col) for col in lists.values()}
        if len(lengths) != 1:
            raise NetlistError(f"input columns differ in length: {sorted(lengths)}")
        n = lengths.pop()
        if n == 0:
            raise NetlistError("input columns are empty")
        mask = (1 << n) - 1
        values = [0] * p.size
        values[-1] = mask  # the constant-1 slot
        for bus, col in lists.items():
            slots = p.in_slots[bus]
            width = len(slots)
            try:
                bad = min(col) < 0 or max(col) >> width
                if not bad:
                    lanes = _pack_lanes(col, width)
            except TypeError:
                bad = True
            if bad:
                raise NetlistError(
                    f"input {bus} values must be integers in [0, 2**{width})"
                )
            for s, word in zip(slots, lanes):
                values[s] = word
        self._run(p, values, mask)
        return {
            bus: _unpack_lanes([values[s] for s in slots], n)
            for bus, slots in p.out_slots.items()
        }

    # -- static analysis ----------------------------------------------------

    def critical_path_depth(self) -> int:
        """Gate count along the longest input-to-output path (unit delays)."""
        depth = dict.fromkeys(self.nets, 0)
        for gate in self._order:
            # A NOT reads one net: inputs[-1] is inputs[0].
            inputs = gate.inputs
            a = depth[inputs[0]]
            b = depth[inputs[-1]]
            depth[gate.output] = a + 1 if a > b else b + 1
        out_nets = {n for nets in self.outputs.values() for n in nets}
        return max((depth[n] for n in out_nets), default=0)

    def gate_counts(self) -> GateCounts:
        """Census of gates by kind; the total is the area metric."""
        # Kinds keyed in order of first appearance.
        counts = Counter([gate.kind for gate in self.gates])
        return GateCounts({kind.value: n for kind, n in counts.items()}, len(self.gates))

    def input_width(self, bus: str) -> int:
        return len(self.inputs[bus])

    def output_width(self, bus: str) -> int:
        return len(self.outputs[bus])

    def __repr__(self) -> str:
        return (
            f"Netlist({self.name!r}, inputs={list(self.inputs)}, "
            f"outputs={list(self.outputs)}, gates={len(self.gates)})"
        )


class NetlistBuilder:
    """Single-owner accumulator for a netlist. Not shareable across threads;
    unusable after :meth:`finalize`.

    A net is created together with its driver: :meth:`add_input` makes the
    input bits, :meth:`const` the constant nets and :meth:`add_gate` a fresh
    output net per gate. A net id is a plain ``int`` below the next fresh
    id. Every gate therefore reads nets that already exist, and a built
    netlist has no floating nets, no second drivers and no cycles, and its
    gate ids are a topological order. :meth:`finalize` therefore trusts
    these checks: it checks the netlist name and hands the gates over as
    they are, without ``Netlist._validate``. (The text format allows
    forward references; ``Netlist(...)`` validates what ``parse_netlist``
    reads, and sorts such a netlist's gates with Kahn's algorithm.)

    Composite units do not nest netlists: each block is an emitter that
    adds its gates to the builder it is handed and returns its output nets,
    so a whole datapath is one builder, one ``add_gate`` per gate and one
    ``Netlist``.
    """

    def __init__(self, name: str):
        self.name = name
        self._inputs: dict[str, tuple[int, ...]] = {}
        self._outputs: dict[str, list[int]] = {}
        self._gates: list[Gate] = []
        self._consts: dict[int, int] = {}
        self._next_net = 0
        self._done = False

    def _check_open(self):
        if self._done:
            raise NetlistError("builder already finalized")

    def _fresh_net(self) -> int:
        nid = self._next_net
        self._next_net += 1
        return nid

    def add_input(self, name: str, width: int) -> list[int]:
        self._check_open()
        _check_bus_name(name)
        if width < 1:
            raise NetlistError(f"input bus {name} must be at least 1 bit wide")
        if width > MAX_BUS_WIDTH:
            raise NetlistError(
                f"input bus {name} width {width} exceeds the {MAX_BUS_WIDTH}-bit limit"
            )
        if name in self._inputs or name in self._outputs:
            raise NetlistError(f"duplicate bus name {name}")
        nets = [self._fresh_net() for _ in range(width)]
        self._inputs[name] = tuple(nets)
        return nets

    def const(self, value: int) -> int:
        """The net tied to constant 0 or 1 (created on first use)."""
        self._check_open()
        if value not in (0, 1):
            raise NetlistError(f"constant must be 0 or 1, got {value}")
        if value not in self._consts:
            self._consts[value] = self._fresh_net()
        return self._consts[value]

    def add_gate(self, kind: GateKind | str, inputs: Sequence[int]) -> int:
        """Append a gate reading existing nets; returns its fresh output net."""
        if self._done:
            raise NetlistError("builder already finalized")
        try:
            kind = KIND_OF[kind]
        except (KeyError, TypeError):
            kind = as_gate_kind(kind)
        inputs = tuple(inputs)
        if len(inputs) != (1 if kind is _NOT else 2):
            raise NetlistError(
                f"{kind.value} takes {kind.arity} input(s), got {len(inputs)}"
            )
        output = self._next_net
        for n in inputs:
            if type(n) is not int or not 0 <= n < output:
                raise NetlistError(f"unknown input net {n}")
        self._next_net = output + 1
        gates = self._gates
        gates.append(_new_tuple(Gate, (len(gates), kind, inputs, output)))
        return output

    def set_output(self, name: str, nets: Sequence[int]):
        self._check_open()
        _check_bus_name(name)
        if name in self._outputs or name in self._inputs:
            raise NetlistError(f"duplicate bus name {name}")
        nets = list(nets)
        if not nets:
            raise NetlistError(f"output bus {name} must be at least 1 bit wide")
        for n in nets:
            if type(n) is not int or not 0 <= n < self._next_net:
                raise NetlistError(f"unknown net {n} in output bus {name}")
        self._outputs[name] = nets

    def finalize(self) -> Netlist:
        """Check the netlist name and freeze. The builder cannot be used
        afterwards, even when the name is rejected."""
        self._check_open()
        if not self._outputs:
            raise NetlistError("netlist has no output buses")
        self._done = True
        if not _NAME_RE.match(self.name):
            raise NetlistError(f"invalid netlist name {self.name!r}")
        # Every id below ``_next_net`` was made with its driver.
        return Netlist._trusted(
            self.name,
            self._inputs,
            {bus: tuple(nets) for bus, nets in self._outputs.items()},
            tuple(self._gates),
            self._consts,
            frozenset(range(self._next_net)),
        )
