"""Combinational gate-level netlists: construction, validation, evaluation,
and static analysis.

The model is a DAG of single-output boolean gates connected by nets, each
net an integer id with exactly one driver: an input bit, a constant or a
gate. Buses are named, ordered lists of nets, LSB first. Bus values travel
as raw unsigned ints (bit k of the int is net k of the bus);
:func:`to_signed` reads one as two's complement. Every netlist has one
shape: its nets are ``0 .. N - 1``, so a net's id is its slot in a
compiled ``_Program`` and its index in any list kept per net, and its
gates are parallel columns (kind, first input, second input, output net)
in evaluation order, gate r having id r; ``Netlist.gates`` is a view of
``Gate`` tuples built on first read. A unit is built in one
:class:`NetlistBuilder`: composite blocks append their gates straight to
its columns, so every gate is stored once. The builder checks each net,
gate and bus as it is added (a ripple-carry chain's operand nets once per
chain), so its ``finalize`` checks only the netlist name and hands its
columns over as they are. :func:`vedicfft.netio.parse_netlist` trusts
dump-ordered text the same way, having checked it as it read it.
``Netlist(...)``, and ``parse_netlist`` on any other text, run the one
validator, :meth:`Netlist._validate`, over the gate columns: it fixes the
evaluation order, Kahn's topological sort with the smallest ready gate id
first, renumbers the nets by ascending id and the gates in evaluation
order. Where every gate reads only nets driven before it in id order,
that order is ascending id and validation is one linear pass; only text
with forward references or cycles runs the sort. A
finalized ``Netlist`` is immutable and safe to share across threads:
threads that race on the first read of a lazy view (``gates``, ``nets``)
may each build it, equal values, and the last assignment wins;
``evaluate_batch`` is a pure function of its input columns. A column is a
list of per-vector values or one int that the bus holds in every vector.
The slot program it simulates is compiled with those scalar bits as
constants, so the logic they make idle drops out; each distinct scalar
assignment (none included) compiles one program on its first evaluation,
cached per netlist. The lanes path, ``_evaluate_lanes``, takes and returns
lane words, one int per bus bit with bit i the bit's value in vector i,
every bus's words end to end in one flat sequence, and evaluates every
vector at once; every suite of :mod:`vedicfft.verify` calls it directly on
lane words it built once per process. For two or more vectors
``evaluate_batch`` turns each list into its bus's lane words
(:func:`_bus_lanes`) and each output bus's words back into a list
(:func:`_bus_values`). Both go through ASCII binary digits, one byte per
vector: a byte plane of the values, byte j of each, translates to the
digits of each of its 8 bits, which ``int(..., 2)`` reads as words, and a
word's ``format`` digits give back its bit of every vector. Neither makes
a Python call per vector, at any width. One vector takes the one-lane
path, ``_evaluate_one``, which takes and returns bus values:
``evaluate_batch`` hands it the checked values as they are, and
``fft.run_fft`` calls it directly.

A program's first evaluation, at any lane count, compiles it and runs the
gate loop ``_run``, which decodes one opcode per gate. Compiling folds
constant and duplicated inputs, keeps one gate per kind and input pair
(structural hashing) and drops gates that reach no output, all in one pass
and one backward sweep. Every later evaluation, at any lane count, runs a
Python function generated from the program as straight-line code
(compiled-code simulation), with one assignment per gate that several
gates or an output read and the gates that one gate reads written into
their reader's expression: the one-lane kernel on bus values for
``_evaluate_one``, the lanes kernel on lane words for ``_evaluate_lanes``,
each generated by the first later evaluation that runs it. Generating
costs far more than one run of the loop, so a program evaluated once
never pays it. The one-lane kernel stays apart because splitting one
vector's bus values into lane words would cost every one-lane call more
than the gates it runs. Threads that race on an evaluation may each
compile the same program or generate the same function, and the last
assignment wins.

Cost model: every gate costs one delay unit and one unit of area, wires are
free. ``critical_path_depth`` and ``gate_counts`` report those two metrics.
"""

from __future__ import annotations

import enum
import functools
import heapq
import re
from collections import Counter
from collections.abc import Callable, Iterable, Mapping, Sequence
from itertools import chain, compress, islice, repeat
from operator import itemgetter, lt
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
# ``{b}`` are input words and ``m`` the all-lanes mask (``&`` binds before
# ``^``).
_EXPR = (
    "{a} & {b}",
    "{a} | {b}",
    "{a} ^ {b}",
    "{a} ^ m",
    "{a} & {b} ^ m",
    "({a} | {b}) ^ m",
    "{a} ^ {b} ^ m",
)

# Parenthesis depth at which a generated gate expression gets a local
# instead of going into its reader's. A chain of gates that each have one
# reader would otherwise nest without bound, and the parser rejects a
# statement 201 levels deep.
_MAX_NESTING = 32

# A kind, or its canonical name, to the kind: the one dict lookup that
# ``add_gate`` and ``parse_netlist`` try before :func:`as_gate_kind`.
KIND_OF: dict[GateKind | str, GateKind] = {
    **{k.value: k for k in GateKind},
    **{k: k for k in GateKind},
}

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# ``add_gate`` reads this once per gate: a module global is cheaper than
# the enum class attribute.
_NOT = GateKind.NOT

# The kinds of one full adder's five gates, in the order
# ``add_ripple_chain`` emits them.
_FULL_ADDER = (GateKind.XOR, GateKind.XOR, GateKind.AND, GateKind.AND, GateKind.OR)

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
    in_bits: int  # untied input bits: the lane words an evaluation takes
    name: str  # the netlist name and the program key, for kernel file names


def _driver_name(driver: tuple[str, int] | str | int) -> str:
    """Describe a driver as ``Netlist._validate`` records it: an input's
    (bus, bit), ``"const0"`` or ``"const1"``, or a gate id."""
    if isinstance(driver, tuple):
        return f"input {driver[0]}[{driver[1]}]"
    return driver if isinstance(driver, str) else f"gate {driver}"


# Table k of ``bytes.translate``: each byte to the ASCII binary digit of
# its bit k, ``b"1"`` where it is set, else ``b"0"``.
_DIGIT_TABLES = tuple(bytes(48 | v >> k & 1 for v in range(256)) for k in range(8))


def _bus_lanes(col: Sequence[int], width: int) -> list[int]:
    """The ``width`` lane words, LSB first, of a bus whose values are
    ``col``: bit i of word k is bit k of value i.

    Byte plane j is one ``bytes`` of byte j of every value, one byte per
    vector, vector 0 last; a buffer column (``bytes``, ``array``,
    ``memoryview``) gives its items. Above 8 bits each value is
    ``int.to_bytes`` big-endian, the values are joined and the buffer is
    reversed, so plane j is the stride slice from byte j: one pass over
    the values at any width. Word k is plane ``k // 8`` translated to the
    ASCII binary digit of bit ``k % 8`` of each byte and read by
    ``int(..., 2)``, which the int/str digit limit does not bound.
    ``evaluate_batch`` has checked the values' minimum and maximum against
    ``[0, 2**width)``; a non-int value between them raises TypeError here.
    """
    if width <= 8:
        planes = [bytes(iter(col))[::-1]]
    else:
        size = (width + 7) // 8
        buf = b"".join(map(int.to_bytes, col, repeat(size), repeat("big")))[::-1]
        planes = [buf[j::size] for j in range(size)]
    return [int(planes[k // 8].translate(_DIGIT_TABLES[k % 8]), 2) for k in range(width)]


def _bus_values(words: Sequence[int], n: int) -> list[int]:
    """The inverse of :func:`_bus_lanes`: the n values of the bus whose
    lane words are ``words``, each below ``2**n``.

    Word k's ``format`` digits, vector 0 last, read as a big-endian int and
    XORed with the row of ``0`` digits, hold its bit of each vector in one
    byte, vector 0 lowest. Shifted by ``k % 8`` and ORed over the 8 words
    of a byte plane, they give the plane: byte i is byte ``k // 8`` of
    value i. The values are built plane by plane."""
    spec = f"0{n}b"
    zeros = int.from_bytes(b"0" * n, "big")
    for s in range(0, len(words), 8):
        plane = 0
        for k, word in enumerate(words[s : s + 8]):
            plane |= (int.from_bytes(format(word, spec).encode(), "big") ^ zeros) << k
        plane = plane.to_bytes(n, "little")
        values = [v | b << s for v, b in zip(values, plane)] if s else list(plane)
    return values


def _generate_kernel(p: _Program, lanes: bool) -> Callable[..., Sequence]:
    """Compile ``p`` to a Python function that runs its gates as
    straight-line code in program order (compiled-code simulation), in one
    of two entry forms.

    Slot s is the local ``s<s>``, each a word of bit lanes as in
    :meth:`Netlist._run`, and ``m`` is the all-lanes mask, which NOT, NAND,
    NOR and XNOR XOR with. No gate reads a constant slot, since the
    compiler folds such gates; an output bit held at a constant reads ``0``
    or ``m``. A gate whose output exactly one gate reads, and no output
    bus, gets no local: its expression is written, in parentheses, into
    its reader's (``s9 = (s1 ^ s4) & s7``), unless its own parentheses
    already nest ``_MAX_NESTING`` deep. Every other gate is one
    assignment.

    - ``lanes`` false, the one-lane form: ``kernel(i0, i1, ...)``, one
      argument per untied input bus in ``p.in_slots`` order, each the bus's
      value, and ``m = 1``. The bits that a gate or an output bus reads are
      extracted inline (``s3 = i0 >> 1 & 1``), so a negative value gives
      its two's-complement bits. It returns the value of each output bus in
      ``p.out_slots`` order, one ``s40 | s41 << 1 | ...`` expression
      without the bits held at constant 0 (``0`` for a bus of only those).
    - ``lanes`` true, the lanes form: ``kernel(m, words)``, where
      ``words`` holds the ``p.in_bits`` lane words of the untied input bits
      in ``p.in_slots`` order, unpacked in one statement (``_`` for a bit
      that nothing reads). It returns one flat tuple of the output words,
      bus after bus in ``p.out_slots`` order and LSB first, as ``words``
      holds the inputs.

    Every name in the source is made from the program's integers, never
    from a bus name, so no netlist text reaches it. The source is compiled
    under the file name ``<kernel {p.name} lanes>`` or ``<kernel {p.name}
    one-lane>``, so profiles tell kernels apart, and dropped once compiled.
    """
    zero = p.size - 2
    read = {*p.in0, *p.in1}
    out_read = set(chain(*p.out_slots.values()))
    read |= out_read
    # The word of each slot that a gate or an output bus reads, in the
    # source: the slot's local, or a constant.
    word = {zero: "0", zero + 1: "m"}
    word.update((s, f"s{s}") for s in read if s < zero)
    # Gates reading each slot; a NOT reads its one input as both in0 and in1.
    readers = Counter(p.in0)
    readers.update(b for a, b in zip(p.in0, p.in1) if a != b)
    if lanes:
        lines = ["def kernel(m, words):"]
        if p.in_bits:
            names = [word.get(s, "_") for s in chain(*p.in_slots.values())]
            lines.append(f" {', '.join(names)}, = words")
    else:
        params = [f"i{k}" for k in range(len(p.in_slots))]
        lines = [f"def kernel({', '.join(params)}):", " m = 1"]
        for param, slots in zip(params, p.in_slots.values()):
            lines += [
                f" s{s} = {param} >> {k} & 1" if k else f" s{s} = {param} & 1"
                for k, s in enumerate(slots)
                if s in read
            ]
    # Slot -> (expression, parenthesis depth) of a gate left for its reader.
    inlined: dict[int, tuple[str, int]] = {}
    pop = inlined.pop
    for op, a, b, out in zip(p.ops, p.in0, p.in1, p.outs):
        # An operand is a word at depth -1, or an inlined gate's expression,
        # which goes in parentheses one level deeper.
        x, dx = pop(a, (word[a], -1))
        y, dy = (x, dx) if b == a else pop(b, (word[b], -1))
        expr = _EXPR[op].format(a=f"({x})" if dx >= 0 else x, b=f"({y})" if dy >= 0 else y)
        depth = max(dx, dy) + 1 + _EXPR[op].count("(")  # NOR's own parentheses
        if readers[out] == 1 and out not in out_read and depth < _MAX_NESTING:
            inlined[out] = (expr, depth)
        else:
            lines.append(f" s{out} = {expr}")
    if lanes:
        flat = "".join(f"{word[s]}, " for s in chain(*p.out_slots.values()))
        lines.append(f" return ({flat})")
    else:
        values = "".join(
            (
                " | ".join(
                    f"{word[s]} << {k}" if k else word[s]
                    for k, s in enumerate(slots)
                    if s != zero
                )
                or "0"
            )
            + ", "
            for slots in p.out_slots.values()
        )
        lines.append(f" return ({values})")
    namespace: dict[str, object] = {}
    form = "lanes" if lanes else "one-lane"
    exec(compile("\n".join(lines), f"<kernel {p.name} {form}>", "exec"), namespace)
    return namespace["kernel"]


def _check_name(name: object, what: str) -> None:
    """Reject ``name`` unless it is a valid netlist or bus name (``what``):
    a ``str`` that ``_NAME_RE`` matches in full."""
    if not (isinstance(name, str) and _NAME_RE.fullmatch(name)):
        raise NetlistError(f"invalid {what} name {name!r}")


class Netlist:
    """An immutable, validated combinational netlist.

    Construct through :class:`NetlistBuilder` or :func:`vedicfft.netio.parse_netlist`.

    Every netlist has one shape. Its nets are ``0 .. _net_count - 1``. Its
    gates are four parallel columns in evaluation order, row r being gate
    ``r``: ``_kinds`` (the ``GateKind``), ``_in0`` and ``_in1`` (the input
    nets; a NOT's ``_in1`` repeats its ``_in0``, as in ``_Program``) and
    ``_outs`` (the output net). :attr:`gates` and :attr:`nets` are views
    built on first read; no analysis, dump or compile reads them.
    """

    def __init__(
        self,
        name: str,
        inputs: Mapping[str, Sequence[int]],
        outputs: Mapping[str, Sequence[int]],
        gates: Iterable[Gate],
        consts: Mapping[int, int],
    ):
        """Validate a netlist given as ``Gate`` tuples, in any order, and
        store it in the one shape (see :meth:`_validate`): net ids and gate
        ids may be any distinct ints. The gates are read into columns once,
        in ascending id order; the first one that cannot be a row ends the
        columns, and the validator raises its message where checking that
        gate would."""
        inputs = {b: tuple(n) for b, n in inputs.items()}
        outputs = {b: tuple(n) for b, n in outputs.items()}
        gates = tuple(gates)
        try:
            gates = sorted(gates, key=itemgetter(0))
        except (TypeError, IndexError):  # the loop meets the unsortable gate
            pass
        ids, kinds, in0, in1, outs = [], [], [], [], []
        flaw = None
        last_id = None
        for gate in gates:  # sorted by id, so duplicates are neighbours
            try:
                gid, kind, reads, output = gate
            except (TypeError, ValueError):
                flaw = f"gate {gate!r} is not (id, kind, inputs, output)"
                break
            if type(gate) is not Gate:
                flaw = f"gate {gate!r} is not a Gate"
            elif type(gid) is not int:
                flaw = f"gate id {gid!r} is not an int"
            elif gid == last_id:
                flaw = f"duplicate gate id {gid}"
            elif type(kind) is not GateKind:
                flaw = f"gate {gid} kind {kind!r} is not a GateKind"
            else:
                try:
                    if len(reads) != (1 if kind is _NOT else 2):
                        arity = f"({kind.value}) takes {kind.arity} inputs"
                        flaw = f"gate {gid} {arity}, got {len(reads)}"
                    else:
                        a, b = reads[0], reads[-1]
                        if type(a) is not int or type(b) is not int:
                            hash(a), hash(b)  # the validator names a hashable non-int
                except TypeError:  # no len(), no indexing or an unhashable net
                    flaw = f"gate {gid} inputs {reads!r} are not net ids"
            if flaw is not None:
                break
            last_id = gid
            ids.append(gid)
            kinds.append(kind)
            in0.append(a)
            in1.append(b)
            outs.append(output)
        columns = (ids, kinds, in0, in1, outs)
        self._store(*Netlist._validate(name, inputs, outputs, *columns, dict(consts), flaw))

    @classmethod
    def _trusted(cls, *parts) -> Netlist:
        """A netlist from ``parts`` already in the one shape, ``(name,
        inputs, outputs, kinds, in0, in1, outs, consts, net_count)`` (see
        the class docstring), each net with one driver, without
        :meth:`_validate`; the columns are taken, not copied.
        :meth:`NetlistBuilder.finalize` calls it, and so does
        :func:`vedicfft.netio.parse_netlist`, on what :meth:`_validate`
        returns or on text its own pass has shown to be dump-ordered."""
        self = object.__new__(cls)
        self._store(*parts)
        return self

    def _store(self, name, inputs, outputs, kinds, in0, in1, outs, consts, net_count) -> None:
        self.name = name
        self.inputs = inputs
        self.outputs = outputs
        self._kinds = kinds
        self._in0 = in0
        self._in1 = in1
        self._outs = outs
        self.consts = consts  # constant bit value -> net id
        self._net_count = net_count
        # One program per sorted tuple of (bus, value) scalars; () is the
        # program with no input tied. Under the same key: its generated
        # one-lane kernel and its generated lanes kernel, once it has them.
        self._programs: dict[tuple[tuple[str, int], ...], _Program] = {}
        self._kernels: dict[tuple[tuple[str, int], ...], Callable[..., tuple]] = {}
        self._lane_kernels: dict[tuple[tuple[str, int], ...], Callable[..., tuple]] = {}

    @functools.cached_property
    def gates(self) -> tuple[Gate, ...]:
        """The gates as ``Gate`` tuples in evaluation order, which is id
        order, built from the columns on first read."""
        rows = zip(range(len(self._kinds)), self._kinds, self._in0, self._in1, self._outs)
        return tuple(Gate(r, k, (a,) if k is _NOT else (a, b), out) for r, k, a, b, out in rows)

    @functools.cached_property
    def nets(self) -> frozenset[int]:
        """The driven nets, ``0 .. _net_count - 1``, built on first read."""
        return frozenset(range(self._net_count))

    # -- validation ---------------------------------------------------------

    @staticmethod
    def _validate(
        name: str,
        inputs: dict[str, tuple[int, ...]],
        outputs: dict[str, tuple[int, ...]],
        ids: list[int],
        kinds: list[GateKind],
        in0: list[int],
        in1: list[int],
        outs: list[int],
        consts: dict[int, int],
        flaw: str | None = None,
    ) -> tuple:
        """Check a netlist given as gate columns and return its parts in the
        one shape, as :meth:`_trusted` takes them: ``(name, inputs,
        outputs, kinds, in0, in1, outs, consts, net_count)``.

        Row r of the columns is gate ``ids[r]``, in any order; the ids are
        ints, the kinds ``GateKind`` s and a NOT's ``in1`` repeats its
        ``in0``, as the callers guarantee. Every net the validator
        claims or reads, and every constant value, must be an int. Where
        ``Netlist(...)`` met a gate it could not read, ``flaw`` is its
        message, raised once the gates before it are checked in the order
        given: ascending id where the ids compare, else as ``Netlist(...)``
        met them.

        The order is Kahn's, ready gates taken smallest id first. When every
        gate reads only input bits, constants and outputs of lower-id gates,
        as in every built netlist and the dump of one, that order is
        ascending id: one pass over the gates finds this, and the sort runs
        only where gates read forward or form cycles. The nets are then
        renumbered by ascending id, the slots ``_compile`` gives them, so a
        netlist whose ids are already ``0 .. N - 1`` keeps them.
        """
        _check_name(name, "netlist")
        # Net -> its driver, as a value ``_driver_name`` formats only when a
        # second driver turns up.
        drivers: dict[int, tuple[str, int] | str | int] = {}

        def claim(net: int, source: tuple[str, int] | str | int):
            if type(net) is not int:
                raise NetlistError(f"net id {net!r} is not an int")
            if net in drivers:
                raise NetlistError(
                    f"net {net} has two drivers: {_driver_name(drivers[net])} "
                    f"and {_driver_name(source)}"
                )
            drivers[net] = source

        for bus in list(inputs) + list(outputs):
            _check_name(bus, "bus")
        for bus in outputs:
            if bus in inputs:
                raise NetlistError(f"duplicate bus name {bus}")
        for bus, nets in inputs.items():
            if not nets:
                raise NetlistError(f"input bus {bus} has zero width")
            for k, n in enumerate(nets):
                claim(n, (bus, k))
        for value, n in consts.items():
            if type(value) is not int or value not in (0, 1):
                raise NetlistError(f"constant value must be 0 or 1, got {value}")
            claim(n, f"const{value}")

        if flaw is None and not all(map(lt, ids, islice(ids, 1, None))):
            # Rows in ascending id, stably sorted, so duplicates are neighbours.
            rows = sorted(range(len(ids)), key=ids.__getitem__)
            ids, kinds, in0, in1, outs = (
                list(map(column.__getitem__, rows)) for column in (ids, kinds, in0, in1, outs)
            )
        id_ordered = True  # every gate reads only nets driven before it
        last_id = None
        for gid, a, b, out in zip(ids, in0, in1, outs):
            if gid == last_id:
                raise NetlistError(f"duplicate gate id {gid}")
            last_id = gid
            if type(a) is not int:
                raise NetlistError(f"net id {a!r} is not an int")
            if type(b) is not int:
                raise NetlistError(f"net id {b!r} is not an int")
            if a not in drivers or b not in drivers:
                id_ordered = False
            if type(out) is not int or out in drivers:
                claim(out, gid)  # raises
            drivers[out] = gid
        if flaw is not None:
            raise NetlistError(flaw)

        if not id_ordered:  # else every read was found driven above
            for gid, a, b in zip(ids, in0, in1):
                for n in (a, b):
                    if n not in drivers:
                        raise NetlistError(f"gate {gid} reads undriven net {n}")
        for bus, nets in outputs.items():
            if not nets:
                raise NetlistError(f"output bus {bus} has zero width")
            for k, n in enumerate(nets):
                if type(n) is not int:
                    raise NetlistError(f"net id {n!r} is not an int")
                if n not in drivers:
                    raise NetlistError(f"floating output bit {bus}[{k}] (net {n})")

        if not id_ordered:
            # Kahn's algorithm over the rows, which are in ascending gate id,
            # so taking the smallest ready row breaks ties by id and
            # evaluation order is reproducible. A NOT reads its one input as
            # in0 and as in1, and so waits for it twice.
            producer = {out: r for r, out in enumerate(outs)}
            pending = []  # row -> reads driven by gates not yet ordered
            consumers: dict[int, list[int]] = {}  # net -> rows reading it
            for r, reads in enumerate(zip(in0, in1)):
                waits = 0
                for n in reads:
                    if n in producer:
                        waits += 1
                        consumers.setdefault(n, []).append(r)
                pending.append(waits)
            ready = [r for r, waits in enumerate(pending) if not waits]  # sorted: a heap
            order: list[int] = []
            while ready:
                r = heapq.heappop(ready)
                order.append(r)
                for consumer in consumers.get(outs[r], ()):
                    pending[consumer] -= 1
                    if not pending[consumer]:
                        heapq.heappush(ready, consumer)
            if len(order) != len(ids):
                stuck = [ids[r] for r, waits in enumerate(pending) if waits]
                raise NetlistError(f"combinational cycle through gates {stuck}")
            kinds, in0, in1, outs = (
                list(map(column.__getitem__, order)) for column in (kinds, in0, in1, outs)
            )

        count = len(drivers)
        if drivers and (min(drivers) != 0 or max(drivers) != count - 1):
            slot = dict(zip(sorted(drivers), range(count))).__getitem__
            inputs = {bus: tuple(map(slot, nets)) for bus, nets in inputs.items()}
            outputs = {bus: tuple(map(slot, nets)) for bus, nets in outputs.items()}
            consts = {value: slot(n) for value, n in consts.items()}
            in0, in1, outs = (list(map(slot, column)) for column in (in0, in1, outs))
        return name, inputs, outputs, kinds, in0, in1, outs, consts, count

    # -- evaluation ---------------------------------------------------------

    def _compile(self, tied: Mapping[str, int]) -> _Program:
        """Compile to the slot program of the gate kernel, folded.

        Slot n is net n, then one slot is held at 0 and one at the
        all-lanes mask. The bits of every bus in ``tied`` start out as those
        constant slots (bit k of ``tied[bus]``), like the netlist's own
        constants, and the bus has no input slots. One pass over the gate
        columns in evaluation order maps every net to a representative
        slot. A gate whose inputs are constant or are one slot twice is read
        off its truth table: it becomes a constant, a copy of its free
        input, or a NOT of it. Only gates that depend on two distinct slots, and those
        NOTs, are emitted, and readers and output buses read the
        representatives. The same pass keys each gate it would emit by its
        opcode and sorted input slots, every kind being symmetric: a gate
        whose key was emitted before is not emitted, and its slot's
        representative is the earlier gate's (structural hashing). A
        backward sweep from the output slots then drops every gate that
        reaches no output. The netlist itself keeps every gate for ``dump``
        and the cost model.
        """
        zero = self._net_count  # each net id is its slot
        const = (zero, zero + 1)  # the slot of constant 0, of constant 1
        rep = [*range(zero), *const]
        for value, nid in self.consts.items():
            rep[nid] = const[value]
        for bus, value in tied.items():
            for k, nid in enumerate(self.inputs[bus]):
                rep[nid] = const[(value >> k) & 1]
        ops: list[int] = []
        p_in0: list[int] = []
        p_in1: list[int] = []
        p_outs: list[int] = []
        emitted: dict[tuple[int, int, int], int] = {}  # (op, sorted inputs) -> slot
        columns = (map(_OPCODE.__getitem__, self._kinds), self._in0, self._in1, self._outs)
        for op, a, b, out in zip(*columns):
            a, b = rep[a], rep[b]
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
            # Every kind is symmetric in its inputs, so the sorted pair keys
            # the gate's function; a repeat reads the first one's slot.
            key = (op, a, b) if a < b else (op, b, a)
            first = emitted.setdefault(key, out)
            if first != out:
                rep[out] = first
                continue
            ops.append(op)
            p_in0.append(a)
            p_in1.append(b)
            p_outs.append(out)
        out_slots = {
            bus: [rep[n] for n in nets] for bus, nets in self.outputs.items()
        }
        live = bytearray(zero + 2)
        for slots in out_slots.values():
            for s in slots:
                live[s] = 1
        # Every reader of a gate comes after it, so a gate's output is
        # marked live, if at all, before the sweep reaches the gate.
        for i in range(len(ops) - 1, -1, -1):
            if live[p_outs[i]]:
                live[p_in0[i]] = live[p_in1[i]] = 1
        kept = bytes(map(live.__getitem__, p_outs))
        in_slots = {
            bus: list(nets) for bus, nets in self.inputs.items() if bus not in tied
        }
        return _Program(
            ops=list(compress(ops, kept)),
            in0=list(compress(p_in0, kept)),
            in1=list(compress(p_in1, kept)),
            outs=list(compress(p_outs, kept)),
            size=zero + 2,
            in_slots=in_slots,
            out_slots=out_slots,
            in_bits=sum(map(len, in_slots.values())),
            name=f"{self.name} {tuple(sorted(tied.items()))}",
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
    ) -> tuple[int, ...]:
        """Evaluate n vectors given as lane words: the lanes path.

        ``key`` is the sorted tuple of (bus, value) pairs of the tied input
        buses; ``words`` holds the lane words of every untied input bus in
        input order, bus after bus and LSB first, each below ``2**n``: bit i
        of word k of a bus is bit k of the bus's value in vector i. Returns
        one flat tuple of the lane words of every output bus in the same
        layout: output order, bus after bus, LSB first.

        A word count other than the program's untied input bits raises
        NetlistError, and a rejected call caches nothing; the words
        themselves are not checked. The program's first evaluation compiles
        it, sets its input slots and runs the gate loop ``_run``. Every
        later one runs the program's lanes kernel (:func:`_generate_kernel`),
        generated by the first of them. Every suite of :mod:`vedicfft.verify`
        calls it directly, with words it built once per process;
        ``evaluate_batch`` calls it for two or more vectors, between
        :func:`_bus_lanes` and :func:`_bus_values`, and ``_evaluate_one``
        for a program's first evaluation, on one-lane words.
        """
        p = self._programs.get(key)
        first = p is None
        if first:
            p = self._compile(dict(key))
        if len(words) != p.in_bits:
            raise NetlistError(
                f"expected {p.in_bits} lane words, one per untied input bit, got {len(words)}"
            )
        mask = (1 << n) - 1
        if not first:
            kernel = self._lane_kernels.get(key)
            if kernel is None:
                kernel = self._lane_kernels[key] = _generate_kernel(p, lanes=True)
            return kernel(mask, words)
        self._programs[key] = p
        values = [0] * p.size
        values[-1] = mask  # the constant-1 slot
        for s, word in zip(chain.from_iterable(p.in_slots.values()), words):
            values[s] = word
        self._run(p, values, mask)
        return tuple(map(values.__getitem__, chain(*p.out_slots.values())))

    def _evaluate_one(
        self, key: tuple[tuple[str, int], ...], values: Sequence[int]
    ) -> tuple[int, ...]:
        """Evaluate one vector, unchecked: the one-lane path.

        ``key`` is the sorted tuple of (bus, value) pairs of the tied input
        buses, ``values`` the values of the untied input buses in input
        order. Only bits 0 to width - 1 of each value are read, as ``v >> k
        & 1``, so a negative value stands for its two's complement:
        ``fft.run_fft`` passes signed components unmasked. Returns the
        value of each output bus in output order, each below
        ``2**width``. The program's first evaluation, at any lane count,
        compiles it: here the bits of the values go to
        :meth:`_evaluate_lanes` as one-lane words, and each output bus's
        value is summed from its words. Every later one-lane evaluation
        runs the program's one-lane kernel (:func:`_generate_kernel`),
        generated on the first of them, which takes and returns bus values,
        so no vector is split into lane words. ``evaluate_batch`` calls it
        for one vector after its checks; ``fft.run_fft`` calls it directly.
        """
        kernel = self._kernels.get(key)
        if kernel is not None:
            return kernel(*values)
        p = self._programs.get(key)
        if p is not None:
            kernel = self._kernels[key] = _generate_kernel(p, lanes=False)
            return kernel(*values)
        tied = dict(key)
        widths = [len(nets) for bus, nets in self.inputs.items() if bus not in tied]
        bits = [v >> k & 1 for v, width in zip(values, widths) for k in range(width)]
        words = iter(self._evaluate_lanes(key, bits, 1))
        return tuple(
            sum(word << k for k, word in zip(range(len(nets)), words))
            for nets in self.outputs.values()
        )

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

        The bus sets are checked, each column is classified as a scalar
        (range-checked at once) or a list, the lists' lengths are checked,
        and each list is range-checked in mapping order; a call whose
        columns are rejected compiles nothing. One vector's checked values
        go to ``_evaluate_one``, the one-lane path, as they are. For two or
        more, each list becomes its bus's lane words (:func:`_bus_lanes`)
        as it is checked, the words of every bus go to ``_evaluate_lanes``
        in input order, and each output bus is read back from its words
        with :func:`_bus_values`.
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
        checked = {}
        for bus, col in lists.items():
            width = len(inputs[bus])
            try:
                if min(col) >= 0 and not max(col) >> width:
                    # One value is both bounds; the lane words of more meet
                    # a non-int between them.
                    checked[bus] = col if n == 1 else _bus_lanes(col, width)
                    continue
            except TypeError:  # a non-int value, at either bound or between
                pass
            raise NetlistError(f"input {bus} values must be integers in [0, 2**{width})")
        key = tuple(sorted(tied.items()))
        if n == 1:
            out = self._evaluate_one(key, [checked[bus][0] for bus in inputs if bus in checked])
            return {bus: [value] for bus, value in zip(self.outputs, out)}
        words = [word for bus in inputs if bus in checked for word in checked[bus]]
        out = iter(self._evaluate_lanes(key, words, n))
        return {
            bus: _bus_values(list(islice(out, len(nets))), n)
            for bus, nets in self.outputs.items()
        }

    # -- static analysis ----------------------------------------------------

    def critical_path_depth(self) -> int:
        """Gate count along the longest input-to-output path (unit delays)."""
        depth = [0] * self._net_count  # indexed by net id
        for x, y, out in zip(self._in0, self._in1, self._outs):  # a NOT's y is its x
            a = depth[x]
            b = depth[y]
            depth[out] = a + 1 if a > b else b + 1
        out_nets = {n for nets in self.outputs.values() for n in nets}
        return max((depth[n] for n in out_nets), default=0)

    def gate_counts(self) -> GateCounts:
        """Census of gates by kind; the total is the area metric."""
        # Kinds keyed in order of first appearance.
        counts = Counter(self._kinds)
        return GateCounts({kind.value: n for kind, n in counts.items()}, len(self._kinds))

    def input_width(self, bus: str) -> int:
        return len(self.inputs[bus])

    def output_width(self, bus: str) -> int:
        return len(self.outputs[bus])

    def __repr__(self) -> str:
        return (
            f"Netlist({self.name!r}, inputs={list(self.inputs)}, "
            f"outputs={list(self.outputs)}, gates={len(self._kinds)})"
        )


class NetlistBuilder:
    """Single-owner accumulator for a netlist. Not shareable across threads;
    unusable after :meth:`finalize`.

    A net is created together with its driver: :meth:`add_input` makes the
    input bits, :meth:`const` the constant nets, :meth:`add_gate` a fresh
    output net per gate and :meth:`add_ripple_chain` five per full adder,
    after checking the chain's operand nets once, each appending to the
    gate columns that ``Netlist`` takes; no ``Gate`` tuple is made. A
    net id is a plain ``int`` below the next fresh id. Every gate therefore
    reads nets that already exist, and a built netlist has no floating
    nets, no second drivers and no cycles, and its gate ids are a
    topological order. :meth:`finalize` therefore trusts these checks: it
    checks the netlist name and hands the columns over as they are, without
    ``Netlist._validate``.

    Composite units do not nest netlists: each block is an emitter that
    adds its gates to the builder it is handed and returns its output nets,
    so a whole datapath is one builder, one ``add_gate`` per gate outside
    ripple chains, one ``add_ripple_chain`` per chain and one ``Netlist``.
    """

    def __init__(self, name: str):
        self.name = name
        self._inputs: dict[str, tuple[int, ...]] = {}
        self._outputs: dict[str, list[int]] = {}
        # The gate columns ``Netlist`` takes (see its docstring); row r is
        # gate r.
        self._kinds: list[GateKind] = []
        self._in0: list[int] = []
        self._in1: list[int] = []
        self._outs: list[int] = []
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
        self._kinds.append(kind)
        self._in0.append(inputs[0])
        self._in1.append(inputs[-1])
        self._outs.append(output)
        return output

    def add_ripple_chain(
        self, a_bits: Sequence[int], b_bits: Sequence[int], cin: int
    ) -> tuple[list[int], int]:
        """Append a ripple-carry chain adding ``a_bits``, ``b_bits`` (LSB
        first) and the carry-in ``cin``; returns (sum nets, carry-out net).

        Bit k is one full adder of five gates, XOR(x, y) -> p,
        XOR(p, c) -> sum, AND(x, y), AND(p, c) and their OR -> carry, the
        gates and ids that as many ``add_gate`` calls would make. The
        operands are checked once, in the order those calls would read
        them (x0, y0, cin, x1, y1, ...; ``cin`` only when there is a bit),
        before any gate is added: each must name a net that exists before
        the chain. The chain's own gates read only those operands and nets
        it has just made, so ``finalize`` can still trust the builder.
        """
        if len(a_bits) != len(b_bits):
            raise NetlistError("addend widths differ")
        self._check_open()
        if not a_bits:
            return [], cin
        net = self._next_net
        reads = [n for pair in zip(a_bits, b_bits) for n in pair]
        reads.insert(2, cin)
        for n in reads:
            if type(n) is not int or not 0 <= n < net:
                raise NetlistError(f"unknown input net {n}")
        extend0 = self._in0.extend
        extend1 = self._in1.extend
        first = net
        carry = cin
        for x, y in zip(a_bits, b_bits):
            extend0((x, net, x, net, net + 2))
            extend1((y, carry, y, carry, net + 3))
            carry = net + 4
            net += 5
        self._kinds.extend(_FULL_ADDER * len(a_bits))
        self._outs.extend(range(first, net))
        self._next_net = net
        return list(range(first + 1, net, 5)), carry

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
            self._kinds,
            self._in0,
            self._in1,
            self._outs,
            self._consts,
            self._next_net,
        )
