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
sort. A finalized ``Netlist`` is immutable and safe to share across
threads; ``evaluate_batch`` is a pure function of its input columns. A
column is a list of per-vector values or one int that the bus holds in
every vector. The slot program it simulates is compiled with those scalar
bits as constants, so the logic they make idle drops out; each distinct
scalar assignment (none included) compiles one program on its first
evaluation, cached per netlist. There is one gate-loop path,
``_evaluate_lanes``: it takes and returns lane words, one int per bus bit
with bit i the bit's value in vector i, and runs the gate loop ``_run`` on
every vector at once; every suite of :mod:`vedicfft.verify` builds its
input and oracle lane words once per process and calls it directly, with
no transposition in a pass. The batch path, ``_evaluate_packed``, wraps it
in transpositions: it takes and returns packed columns, one int per bus
with one field per vector (the bytes of a buffer of one item of the bus's
own size per vector). The transposition works on whole ints: each 8
vectors' bytes of a byte plane form an 8x8 bit matrix, and three masked
shift-and-swap steps on one int that stacks every bus's planes turn every
matrix at once (:func:`_transpose8`), once on the way in and once on the
way out. A bus costs a fixed number of buffer operations per byte plane
and each bus bit one strided byte slice, with no Python call per vector up
to 64 bits. ``evaluate_batch`` takes one route at every lane count: it
packs each list while it checks its range and reads each output bus back
from its packed int.
One vector takes the one-lane path, ``_evaluate_one``: it takes and
returns bus values, with no columns. One lane's packed ints are its bus
values, so ``evaluate_batch`` hands them over as they are, and
``fft.run_fft`` calls it directly. A one-lane evaluation of a program that
an earlier evaluation compiled, at any lane count, generates a Python
function that runs one vector through its gates as straight-line code, one
statement per gate (compiled-code simulation), on the bus values
themselves; it and every later one-lane evaluation of the program run that
function. A program's first evaluation, and every batch, runs the batch
path; no CLI command evaluates a program at one lane after compiling it.
Threads that race on an evaluation may each compile the same program or
generate the same function, and the last assignment wins.

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
from collections.abc import Callable, Iterable, Mapping, Sequence
from itertools import chain, compress
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


# Opcodes of the interpreted gate kernel, ``Netlist._run``.
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

# Python expression per opcode, for :func:`_generate_kernel`: ``{a}`` and
# ``{b}`` are input bits (``&`` binds before ``^``).
_EXPR = (
    "{a} & {b}",
    "{a} | {b}",
    "{a} ^ {b}",
    "{a} ^ 1",
    "{a} & {b} ^ 1",
    "({a} | {b}) ^ 1",
    "{a} ^ {b} ^ 1",
)

# A kind, or its canonical name, to the kind: the one dict lookup that
# ``add_gate`` and ``parse_netlist`` try before :func:`as_gate_kind`.
KIND_OF: dict[GateKind | str, GateKind] = {
    **{k.value: k for k in GateKind},
    **{k: k for k in GateKind},
}

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

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


def _column_fields(col: Sequence[int], width: int) -> int:
    """A column of n values as its packed int: one field per vector, vector
    i in bits ``[step * i, step * (i + 1))``.

    The column becomes a buffer of one little-endian item of
    ``_item_size(width)`` bytes per vector, read as one int, so ``step`` is
    the item's bit size. ``evaluate_batch`` has checked the column's minimum
    and maximum against ``[0, 2**width)``; a non-int value between them
    raises TypeError here.
    """
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
    return int.from_bytes(items, "little")


def _field_values(x: int, n: int, width: int) -> list[int]:
    """The inverse of :func:`_column_fields`: the n values of the packed int
    ``x`` of a ``width``-bit bus, read back as C items (or per vector,
    above 64 bits)."""
    size = _item_size(width)
    data = x.to_bytes(size * n, "little")
    if size > 8:
        return [
            int.from_bytes(data[i : i + size], "little")
            for i in range(0, len(data), size)
        ]
    items = array(_ITEM_CODE[size], data)
    if _BIG_ENDIAN:
        items.byteswap()
    return items.tolist()


# The masks of the three delta swaps that transpose an 8x8 bit matrix held
# in 64 bits (``transpose8``, Warren, Hacker's Delight, 2nd ed., 7-3), each
# repeated once per 64-bit chunk for the most chunks transposed so far:
# (chunks, mask of the 7-bit swap, of the 14-bit one, of the 28-bit one).
# A longer mask serves fewer chunks as it is, since ``&`` stops at the
# shorter int, so one tuple bounds the cache. Threads that race to grow it
# may each build one, and each uses its own; the last assignment wins.
_SWAP_MASKS = (0x00AA00AA00AA00AA, 0x0000CCCC0000CCCC, 0x00000000F0F0F0F0)
_swap_masks = (1, *_SWAP_MASKS)


def _transpose8(x: int, chunks: int) -> int:
    """Transpose every 8x8 bit matrix of the ``64 * chunks``-bit int ``x``:
    in each 64-bit chunk, bit ``8 * r + c`` and bit ``8 * c + r`` trade
    places. No swap moves a bit across a chunk boundary, so one pass of
    three masked delta swaps on the whole int does every chunk; the
    transpose is its own inverse."""
    global _swap_masks
    masks = _swap_masks
    if masks[0] < chunks:
        masks = _swap_masks = (
            chunks,
            *(int.from_bytes(m.to_bytes(8, "little") * chunks, "little") for m in _SWAP_MASKS),
        )
    _, m7, m14, m28 = masks
    t = (x ^ (x >> 7)) & m7
    x ^= t ^ (t << 7)
    t = (x ^ (x >> 14)) & m14
    x ^= t ^ (t << 14)
    t = (x ^ (x >> 28)) & m28
    return x ^ t ^ (t << 28)


def _fields_to_lanes(xs: Sequence[int], n: int, widths: Sequence[int]) -> list[int]:
    """Transpose the packed ints ``xs`` of n vectors, one per bus of the
    given widths and each with one field of the bus's :func:`_item_size`
    per vector, into the buses' lane words, bus after bus: word k of a bus
    holds bit k of vector i at bit i.

    Byte plane j of a bus, byte j of every field, is one strided slice of
    the bytes of its int. The planes of every bus's ``ceil(width / 8)`` low
    bytes go end to end in one int, each padded to whole 64-bit chunks.
    Each chunk, 8 vectors' bytes, is an 8x8 bit matrix, and one
    :func:`_transpose8` turns all of them at once: byte b of a chunk of
    plane j then holds bit ``8 * j + b`` of its 8 vectors, so word k of a
    bus is every 8th byte of its plane ``k // 8`` from byte ``k % 8``.
    Field bits at and above a bus's width are not read. One vector's
    packed int is its value.
    """
    span = (n + 7) & -8  # bytes per plane
    planes = [(width + 7) // 8 for width in widths]
    stacked = bytearray(sum(planes) * span)
    start = 0
    for x, width, count in zip(xs, widths, planes):
        size = _item_size(width)
        data = x.to_bytes(size * n, "little")
        for j in range(count):
            stacked[start : start + n] = data[j::size]
            start += span
    data = _transpose8(int.from_bytes(stacked, "little"), len(stacked) // 8).to_bytes(
        len(stacked), "little"
    )
    starts = []
    start = 0
    for width, count in zip(widths, planes):
        starts += [start + k // 8 * span + k % 8 for k in range(width)]
        start += count * span
    return [int.from_bytes(data[s : s + span : 8], "little") for s in starts]


def _lanes_to_fields(buses: Sequence[Sequence[int]], n: int) -> list[int]:
    """The inverse of :func:`_fields_to_lanes`: per bus, the packed int of
    its n vectors, one field of the bus's :func:`_item_size` per vector,
    where bit k of the bus has lane word ``buses[b][k]``, each below
    ``2**n``. Each word's bytes go to every 8th byte of its plane from byte
    ``k % 8``, one :func:`_transpose8` turns every bus's planes back, and
    plane j of a bus becomes byte j of each of its fields. Field bits at
    and above a bus's width stay zero."""
    span = (n + 7) & -8  # bytes per plane
    planes = [(len(words) + 7) // 8 for words in buses]
    stacked = bytearray(sum(planes) * span)
    start = 0
    for words, count in zip(buses, planes):
        for k, word in enumerate(words):
            s = start + k // 8 * span + k % 8
            stacked[s : s + span : 8] = word.to_bytes(span // 8, "little")
        start += count * span
    data = _transpose8(int.from_bytes(stacked, "little"), len(stacked) // 8).to_bytes(
        len(stacked), "little"
    )
    fields = []
    start = 0
    for words, count in zip(buses, planes):
        size = _item_size(len(words))
        if size == 1:  # the one plane is the fields
            fields.append(int.from_bytes(data[start : start + n], "little"))
        else:
            out = bytearray(size * n)
            for j in range(count):
                out[j::size] = data[start + j * span : start + j * span + n]
            fields.append(int.from_bytes(out, "little"))
        start += count * span
    return fields


def _generate_kernel(p: _Program) -> Callable[..., tuple]:
    """Compile ``p`` to a Python function that runs one vector through its
    gates as straight-line code, one assignment per folded gate in program
    order.

    The function is ``kernel(i0, i1, ...)``, one argument per untied input
    bus in ``p.in_slots`` order, each the bus's value; the bits that a gate
    or an output bus reads are extracted inline (``s3 = i0 >> 1 & 1``). It
    returns the value of each output bus in ``p.out_slots`` order, one
    ``s40 | s41 << 1 | ...`` expression without the bits held at constant
    0 (``0`` for a bus of only those). No gate reads a constant slot, since
    the compiler folds such gates. Slot s is the local ``s<s>``. Every name
    in the source is made from the program's integers, never from a bus
    name, so no netlist text reaches it. The source is dropped once
    compiled.
    """
    zero = p.size - 2
    read = {*p.in0, *p.in1}
    for slots in p.out_slots.values():
        read.update(slots)
    params = [f"i{k}" for k in range(len(p.in_slots))]
    lines = [f"def kernel({', '.join(params)}):", f" s{zero + 1} = 1"]
    for param, slots in zip(params, p.in_slots.values()):
        lines += [
            f" s{s} = {param} >> {k} & 1" if k else f" s{s} = {param} & 1"
            for k, s in enumerate(slots)
            if s in read
        ]
    for op, a, b, out in zip(p.ops, p.in0, p.in1, p.outs):
        lines.append(f" s{out} = " + _EXPR[op].format(a=f"s{a}", b=f"s{b}"))
    values = "".join(
        (
            " | ".join(
                f"s{s} << {k}" if k else f"s{s}" for k, s in enumerate(slots) if s != zero
            )
            or "0"
        )
        + ", "
        for slots in p.out_slots.values()
    )
    lines.append(f" return ({values})")
    namespace: dict[str, object] = {}
    exec(compile("\n".join(lines), "<kernel>", "exec"), namespace)
    return namespace["kernel"]


def _check_name(name: object, what: str) -> None:
    """Reject ``name`` unless it is a valid netlist or bus name (``what``):
    a ``str`` that ``_NAME_RE`` matches in full."""
    if not (isinstance(name, str) and _NAME_RE.fullmatch(name)):
        raise NetlistError(f"invalid {what} name {name!r}")


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
        self.gates: tuple[Gate, ...] = tuple(gates)  # sorted by id in _validate
        self.consts: dict[int, int] = dict(consts)  # constant bit value -> net id
        self.nets, self._order = self._validate()
        # One program per sorted tuple of (bus, value) scalars; () is the
        # program with no input tied. Under the same key: its generated
        # one-lane kernel, once it has one.
        self._programs: dict[tuple[tuple[str, int], ...], _Program] = {}
        self._kernels: dict[tuple[tuple[str, int], ...], Callable[..., tuple]] = {}

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
        self._kernels = {}
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
        _check_name(self.name, "netlist")
        # Net -> its driver, as a value ``_driver_name`` formats only when a
        # second driver turns up: (bus, bit), a constant value or a gate.
        drivers: dict[int, tuple[str, int] | int | Gate] = {}

        def claim(net: int, source: tuple[str, int] | int | Gate):
            try:
                if net in drivers:
                    raise NetlistError(
                        f"net {net} has two drivers: {_driver_name(drivers[net])} "
                        f"and {_driver_name(source)}"
                    )
            except TypeError:  # unhashable
                raise NetlistError(f"net id {net!r} is not an int") from None
            drivers[net] = source

        for bus in list(self.inputs) + list(self.outputs):
            _check_name(bus, "bus")
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

        try:
            self.gates = tuple(sorted(self.gates, key=itemgetter(0)))
        except TypeError:  # ids that do not compare: the loop meets a non-int
            pass
        not_ = GateKind.NOT  # arity 1, every other kind 2; cheaper than .arity
        id_ordered = True  # every gate reads only nets driven before it
        last_id = None
        for gate in self.gates:  # sorted by id, so duplicates are neighbours
            try:
                gid, kind, inputs, output = gate
            except (TypeError, ValueError):
                raise NetlistError(f"gate {gate!r} is not (id, kind, inputs, output)") from None
            if type(gate) is not Gate:
                raise NetlistError(f"gate {gate!r} is not a Gate")
            if type(gid) is not int:
                raise NetlistError(f"gate id {gid!r} is not an int")
            if gid == last_id:
                raise NetlistError(f"duplicate gate id {gid}")
            last_id = gid
            if type(kind) is not GateKind:
                raise NetlistError(f"gate {gid} kind {kind!r} is not a GateKind")
            try:
                if len(inputs) != (1 if kind is not_ else 2):
                    raise NetlistError(
                        f"gate {gid} ({kind.value}) takes {kind.arity} inputs, got {len(inputs)}"
                    )
                for n in inputs:
                    if n not in drivers:
                        id_ordered = False
            except TypeError:  # no len(), or an unhashable net
                raise NetlistError(f"gate {gid} inputs {inputs!r} are not net ids") from None
            claim(output, gate)
        # One pass over the driven nets; every gate input and output bit
        # must be one of them.
        if not set(map(type, drivers)) <= {int}:
            bad = next(n for n in drivers if type(n) is not int)
            raise NetlistError(f"net id {bad!r} is not an int")

        if not id_ordered:  # else every read was found driven above
            for gate in self.gates:
                for n in gate.inputs:
                    if n not in drivers:
                        raise NetlistError(f"gate {gate.id} reads undriven net {n}")
        for bus, nets in self.outputs.items():
            if not nets:
                raise NetlistError(f"output bus {bus} has zero width")
            try:
                for k, n in enumerate(nets):
                    if n not in drivers:
                        raise NetlistError(f"floating output bit {bus}[{k}] (net {n})")
            except TypeError:  # unhashable
                raise NetlistError(f"net id {n!r} is not an int") from None
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
        """The interpreted gate kernel: evaluate every gate of ``p`` in
        topological order.

        Each slot holds one word whose bit i is the net's value in vector i;
        ``mask`` has one set bit per vector, so a one-lane run passes 1. One
        pass therefore evaluates every vector at once (parallel-pattern
        simulation). Constant slots must already hold 0 or ``mask``. Its
        one caller is :meth:`_evaluate_lanes`.
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

    def _evaluate_lanes(
        self, key: tuple[tuple[str, int], ...], words: Sequence[int], n: int
    ) -> list[list[int]]:
        """Evaluate n vectors given as lane words, unchecked: the one
        gate-loop path.

        ``key`` is the sorted tuple of (bus, value) pairs of the tied input
        buses; ``words`` holds the lane words of every untied input bus in
        input order, bus after bus and LSB first, each below ``2**n``: bit i
        of word k of a bus is bit k of the bus's value in vector i. It
        compiles the program of ``key`` on its first evaluation, sets the
        input slots, runs the gate loop ``_run`` and returns the lane words
        of each output bus in output order. Every suite of
        :mod:`vedicfft.verify` calls it directly, with words it built once
        per process; :meth:`_evaluate_packed` calls it between its two
        transpositions.
        """
        p = self._programs.get(key)
        if p is None:
            p = self._programs[key] = self._compile(dict(key))
        mask = (1 << n) - 1
        values = [0] * p.size
        values[-1] = mask  # the constant-1 slot
        for s, word in zip(chain.from_iterable(p.in_slots.values()), words):
            values[s] = word
        self._run(p, values, mask)
        return [[values[s] for s in slots] for slots in p.out_slots.values()]

    def _evaluate_packed(
        self, key: tuple[tuple[str, int], ...], fields: Sequence[int], n: int
    ) -> list[int]:
        """Evaluate n vectors given as packed columns, unchecked: the batch
        path.

        ``key`` is as for :meth:`_evaluate_lanes`; ``fields`` holds the
        packed int of each untied input bus in input order, one field of
        the bus's :func:`_item_size` per vector, every field already known
        to fit its bus. The fields of every input bus are transposed into
        lane words by one pass of 8x8 bit-matrix swaps on one int
        (:func:`_fields_to_lanes`), evaluated by :meth:`_evaluate_lanes`,
        and the lane words of every output bus transposed back by one more
        (:func:`_lanes_to_fields`). Returns the packed int of each output
        bus in output order, at the bus's own item size. It never generates
        or runs a generated kernel. ``evaluate_batch`` calls it for two or
        more vectors after its checks, ``_evaluate_one`` for a program's
        first evaluation.
        """
        tied = dict(key)
        widths = [len(nets) for bus, nets in self.inputs.items() if bus not in tied]
        words = _fields_to_lanes(fields, n, widths)
        return _lanes_to_fields(self._evaluate_lanes(key, words, n), n)

    def _evaluate_one(
        self, key: tuple[tuple[str, int], ...], values: Sequence[int]
    ) -> tuple[int, ...]:
        """Evaluate one vector, unchecked: the one-lane path.

        ``key`` is the sorted tuple of (bus, value) pairs of the tied input
        buses, ``values`` the values of the untied input buses in input
        order, each already known to fit its bus. Returns the value of each
        output bus in output order. It runs the program's straight-line
        kernel (:func:`_generate_kernel`) if it has one; else it generates
        and runs it if an earlier evaluation, of any lane count, compiled
        the program; else the vector goes through ``_evaluate_packed`` at
        one lane, where a value is its own packed int, and that compiles
        the program. ``evaluate_batch`` calls it for one vector after its
        checks; ``fft.run_fft`` calls it directly.
        """
        kernel = self._kernels.get(key)
        if kernel is not None:
            return kernel(*values)
        p = self._programs.get(key)
        if p is not None:
            kernel = self._kernels[key] = _generate_kernel(p)
            return kernel(*values)
        return tuple(self._evaluate_packed(key, values, 1))

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
        simulated. This is the checked simulation entry point.

        Every lane count takes one route. The bus sets are checked, each
        column is classified as a scalar (range-checked at once) or a list,
        the lists' lengths are checked, and each list is range-checked and
        packed into one int (:func:`_column_fields`) in mapping order, each
        bus's fields at its own item size; a call whose columns are
        rejected compiles nothing. One vector's packed ints are its values
        and go to ``_evaluate_one``, the one-lane path, the only one that
        generates a kernel; two or more go to ``_evaluate_packed``, the
        batch path. Each output bus is read back at its own item size with
        :func:`_field_values`.
        """
        inputs = self.inputs
        missing = inputs.keys() - columns.keys()
        if missing:
            raise NetlistError(f"missing input buses: {sorted(missing)}")
        extra = columns.keys() - inputs.keys()
        if extra:
            raise NetlistError(f"unknown input buses: {sorted(extra)}")
        tied = {}
        lists = {}
        for bus, col in columns.items():
            if isinstance(col, int):
                width = len(inputs[bus])
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
        lengths = {len(col) for col in lists.values()}
        if len(lengths) > 1:
            raise NetlistError(f"input columns differ in length: {sorted(lengths)}")
        (n,) = lengths
        if not n:
            raise NetlistError("input columns are empty")
        fields = {}
        for bus, col in lists.items():
            width = len(inputs[bus])
            try:
                if min(col) >= 0 and not max(col) >> width:
                    # Packing meets a non-int between the bounds.
                    fields[bus] = _column_fields(col, width)
                    continue
            except TypeError:  # a non-int value, at either bound or between
                pass
            raise NetlistError(f"input {bus} values must be integers in [0, 2**{width})")
        key = tuple(sorted(tied.items()))
        packed = [fields[bus] for bus in inputs if bus in fields]
        if n == 1:
            out = self._evaluate_one(key, packed)
        else:
            out = self._evaluate_packed(key, packed, n)
        return {
            bus: _field_values(x, n, len(nets)) for (bus, nets), x in zip(self.outputs.items(), out)
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
        _check_name(name, "bus")
        if not isinstance(width, int) or isinstance(width, bool):
            raise NetlistError(f"input bus {name} width must be an int, got {width!r}")
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
        try:
            inputs = tuple(inputs)
        except TypeError:
            raise NetlistError(
                f"{kind.value} inputs must be a sequence of nets, got {inputs!r}"
            ) from None
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
        _check_name(name, "bus")
        if name in self._outputs or name in self._inputs:
            raise NetlistError(f"duplicate bus name {name}")
        try:
            nets = list(nets)
        except TypeError:
            raise NetlistError(
                f"output bus {name} must be a sequence of nets, got {nets!r}"
            ) from None
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
        _check_name(self.name, "netlist")
        # Every id below ``_next_net`` was made with its driver.
        return Netlist._trusted(
            self.name,
            self._inputs,
            {bus: tuple(nets) for bus, nets in self._outputs.items()},
            tuple(self._gates),
            self._consts,
            frozenset(range(self._next_net)),
        )
