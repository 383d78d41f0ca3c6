"""Span tracing for the traced benchmark run, installed from outside the library.

Each hook names a library function as ``"<module>:<path>"``:

- ``"fft:run_fft"``: a module-level function. The wrapper replaces it in
  every loaded ``vedicfft`` module namespace that bound the same object,
  because ``from .x import f`` binds the name at import time.
- ``"bitvec:BitVector.uint"``: a method, classmethod or property, replaced on
  the class that defines it.
- ``"verify:_VERIFIERS[*]"``: every value of a module-level dict, with the
  dict key substituted for ``{key}`` in the span name.

Targets are resolved by name when the tracer is built. A target a later
version of the library no longer has is recorded in ``absent`` instead of
failing the run, so the benchmark keeps working after refactors it may not
edit.

Spans are aggregated per op as they close: calls, inclusive time, and self
time (the span's time minus the time of its child spans). A span nested
directly inside a span of the same name (``evaluate`` calling
``evaluate_with``, ``sint`` calling ``uint``) adds its self time but not a
second call.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "vedicfft"

# (span name, target). Several targets may share one span name.
HOOKS = (
    ("kernel", "_engine:KERNELS[*]"),
    ("netlist.evaluate", "netlist:Netlist.evaluate"),
    ("netlist.evaluate", "netlist:Netlist.evaluate_with"),
    ("netlist.add_gate", "netlist:NetlistBuilder.add_gate"),
    ("netlist.instantiate", "netlist:NetlistBuilder.instantiate"),
    ("netlist.finalize", "netlist:NetlistBuilder.finalize"),
    ("netlist.finalize", "netlist:Netlist.__init__"),
    ("netlist.analysis", "netlist:Netlist.critical_path_depth"),
    ("netlist.analysis", "netlist:Netlist.gate_counts"),
    ("bitvec.encode", "bitvec:BitVector.from_unsigned"),
    ("bitvec.encode", "bitvec:BitVector.from_signed"),
    ("bitvec.decode", "bitvec:BitVector.uint"),
    ("bitvec.decode", "bitvec:BitVector.sint"),
    ("bitvec.decode", "bitvec:BitVector.value"),
    ("bitvec.construct", "bitvec:BitVector.__post_init__"),
    ("fft.run_fft", "fft:run_fft"),
    ("fft.dft_oracle", "fft:dft_oracle"),
    ("fft.build", "fft:build_butterfly2"),
    ("fft.build", "fft:build_fft4"),
    ("fft.build", "fft:build_reconfigurable_fft"),
    ("fft.build", "fft:complex_multiply_unit"),
    ("fft.build", "fft:build_unit"),
    ("arith.build", "arith:ripple_add"),
    ("arith.build", "arith:build_ripple_adder"),
    ("arith.build", "arith:build_ripple_subtractor"),
    ("arith.build", "arith:build_vedic2x2"),
    ("arith.build", "arith:build_vedic4x4"),
    ("arith.build", "arith:build_array4x4"),
    ("arith.build", "arith:build_signed_multiplier4"),
    ("arith.build", "arith:build_unit"),
    ("arith.signed_multiply", "arith:signed_multiply_4x4"),
    ("verify.{key}", "verify:_VERIFIERS[*]"),
    ("netio.dump", "netio:dump_netlist"),
    ("netio.parse", "netio:parse_netlist"),
    ("report.compare", "report:compare"),
    ("report.compare", "report:build_variants"),
    ("report.equivalence", "report:multipliers_equivalent"),
    ("report.cost", "report:cost_report"),
    ("report.render", "report:render"),
    ("report.render", "report:render_tables"),
    ("cli.main", "cli:main"),
)

# Span name -> (counter, f(args, result)), added once per outermost call.
MEASURES = {
    "netlist.evaluate": ("netlist.gate_evals", lambda args, result: len(args[0].gates)),
    "netio.dump": ("netio.bytes", lambda args, result: len(result.encode())),
}


class OpTally:
    """What the spans of one traced op added up to."""

    def __init__(self):
        self.calls = Counter()
        self.counts = Counter()
        self.incl_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.total_s = 0.0
        self.scale = 1.0  # host-speed normalisation, set by the caller


def _library_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    """Wraps the hook targets; the wrappers are in place only inside :meth:`run_op`."""

    def __init__(self, hooks=HOOKS):
        self._stack = []
        self._tally = None
        self._patches = []  # (owner, attribute or key, original, wrapped)
        self.absent = []
        for span, target in hooks:
            if not self._resolve(span, target):
                self.absent.append(target)

    # -- resolution ---------------------------------------------------------

    def _resolve(self, span: str, target: str) -> bool:
        module_name, _, path = target.partition(":")
        try:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
        except ImportError:
            return False
        if path.endswith("[*]"):
            table = getattr(module, path[:-3], None)
            if not isinstance(table, dict) or not table:
                return False
            for key, fn in table.items():
                self._add(table, key, fn, self._wrap(span.format(key=key), fn))
            return True
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            raw = vars(owner).get(attr) if isinstance(owner, type) else None
            if isinstance(raw, property) and raw.fget is not None:
                wrapped = property(self._wrap(span, raw.fget), raw.fset, raw.fdel, raw.__doc__)
            elif isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(span, raw.__func__))
            elif callable(raw):
                wrapped = self._wrap(span, raw)
            else:
                return False
            self._add(owner, attr, raw, wrapped)
            return True
        fn = getattr(module, attr, None)
        if not callable(fn):
            return False
        wrapped = self._wrap(span, fn)
        for namespace in _library_modules():
            for name, value in list(vars(namespace).items()):
                if value is fn:
                    self._add(namespace, name, fn, wrapped)
        return True

    def _add(self, owner, key, original, wrapped):
        self._patches.append((owner, key, original, wrapped))

    def _wrap(self, span: str, fn):
        stack = self._stack
        clock = time.perf_counter
        measure = MEASURES.get(span)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [span, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                tally = tracer._tally
                tally.self_s[span] += elapsed - frame[1]
                outermost = parent[0] != span
                if outermost:
                    tally.calls[span] += 1
                    tally.incl_s[span] += elapsed
            if measure is not None and outermost:
                tally.counts[measure[0]] += measure[1](args, result)
            return result

        return wrapper

    # -- running ------------------------------------------------------------

    @staticmethod
    def _set(owner, key, value):
        if isinstance(owner, dict):
            owner[key] = value
        else:
            setattr(owner, key, value)

    def run_op(self, op, *args):
        """Run ``op(*args)`` with the hooks installed; return (result, OpTally).

        The op itself is the root span; its self time is what no hook covered.
        """
        tally = OpTally()
        root = ["op", 0.0]
        self._tally = tally
        self._stack.append(root)
        for owner, key, _, wrapped in self._patches:
            self._set(owner, key, wrapped)
        start = time.perf_counter()
        try:
            result = op(*args)
        finally:
            tally.total_s = time.perf_counter() - start
            for owner, key, original, _ in reversed(self._patches):
                self._set(owner, key, original)
            self._stack.pop()
            self._tally = None
        tally.self_s["op"] = tally.total_s - root[1]
        return result, tally
