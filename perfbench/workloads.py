"""The three benchmark workloads: what one op is, its inputs, its correctness
check, and the netlist construction its first op would otherwise pay.

All three are closed loops with one caller: the next op starts only after
the last one returned and was checked. Library functions are looked up as
module attributes on every call, so the traced run's wrappers are seen.

This module imports nothing heavy at the top: ``probe.py`` times the
library import right after loading it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Every canonical unit ``vedicfft dump`` exports, in catalog order. Fixed
# here because the per-layer metric names are derived from it.
CATALOG_UNITS = (
    "vedic2x2",
    "vedic4x4",
    "array4x4",
    "adder4",
    "subtractor4",
    "butterfly2",
    "fft4",
    "fft4_q3",
    "reconfigurable",
    "reconfigurable_q3",
)

# The six datapath variants of ``vedicfft report``.
REPORT_VARIANTS = (
    "conventional_2pt",
    "vedic_2pt",
    "conventional_4pt",
    "vedic_4pt",
    "conventional_reconfigurable",
    "vedic_reconfigurable",
)

# The seven suites of ``verify_all``.
VERIFY_UNITS = ("vedic2x2", "vedic4x4", "array4x4", "adder", "subtractor", "signed4x4", "fft")

# One fft_stream frame: (select, twiddle spec), always in this order, so every
# frame does the same work and a median over frames has a single mode.
FRAME = ((4, "exact"), (4, "q3"), (2, "exact"), (2, "q3"))
FRAME_POOL = 4096
INPUT_WIDTH = 4


class LibraryMissing(RuntimeError):
    """The checkout holds no importable ``vedicfft`` under ``src/``."""


class Library:
    """The library modules an op calls through, imported from ``src/``."""

    def __init__(self):
        if not os.path.isfile(os.path.join(SRC, "vedicfft", "__init__.py")):
            raise LibraryMissing(f"no vedicfft package under {SRC}")
        if SRC not in sys.path:
            sys.path.insert(0, SRC)
        import vedicfft
        from vedicfft import arith, cli, fft, netio, report, verify

        origin = os.path.dirname(os.path.abspath(vedicfft.__file__))
        if origin != os.path.join(SRC, "vedicfft"):
            raise LibraryMissing(f"vedicfft was imported from {origin}, not {SRC}")
        self.arith, self.cli, self.fft = arith, cli, fft
        self.netio, self.report, self.verify = netio, report, verify


def run_cli(lib: Library, argv) -> tuple[int, str]:
    """``vedicfft <argv>`` in process, with standard output captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = lib.cli.main(list(argv))
    return code, out.getvalue()


def frame_pool(seed: int, frames: int = FRAME_POOL):
    """Seeded samples for ``frames`` fft_stream frames: one sample list per
    FRAME entry, components uniform over the 4-bit signed range."""
    rng = random.Random(seed)
    lo, hi = -(1 << (INPUT_WIDTH - 1)), (1 << (INPUT_WIDTH - 1)) - 1
    return [
        [
            [(rng.randint(lo, hi), rng.randint(lo, hi)) for _ in range(select)]
            for select, _ in FRAME
        ]
        for _ in range(frames)
    ]


def transform_error(lib: Library, config, samples, result) -> tuple[float, float]:
    """Worst per-component error of ``result`` against ``dft_oracle``, and
    the bound ``verify`` documents for it: N * 2^-F * max|x| (0 when exact)."""
    n = config.select
    want = lib.fft.dft_oracle([complex(re, im) for re, im in samples], n)
    got = result.values[:n]
    worst = max(max(abs(g.real - w.real), abs(g.imag - w.imag)) for g, w in zip(got, want))
    if config.twiddle_mode == "exact":
        return worst, 0.0
    peak = max(max(abs(re), abs(im)) for re, im in samples)
    return worst, n * 2.0 ** -config.fraction_bits * peak


def quant_err_max(lib: Library, seed: int, frames: int = 1500) -> float:
    """Worst q3 error over the q3 transforms of the first ``frames`` seeded
    frames; a model statistic, identical for one seed."""
    configs = [lib.fft.FftConfig.make(select, spec, INPUT_WIDTH) for select, spec in FRAME]
    worst = 0.0
    for frame in frame_pool(seed, frames):
        for config, samples in zip(configs, frame):
            if config.twiddle_mode != "exact":
                result = lib.fft.run_fft(config, samples)
                worst = max(worst, transform_error(lib, config, samples, result)[0])
    return worst


class VerifyAll:
    """One op is one ``verify_all()`` pass: 8426 oracle cases over 7 units."""

    name = "verify_all"

    def prepare(self, lib: Library):
        # The two cached reconfigurable FFT nets and two signed multipliers.
        for spec in ("exact", "q3"):
            lib.fft.run_fft(lib.fft.FftConfig.make(4, spec, INPUT_WIDTH), [(0, 0)] * 4)
        for impl in ("vedic", "array"):
            lib.arith.signed_multiply_4x4(0, 0, impl)

    def make_inputs(self, lib: Library, seed: int):
        return None  # the suites carry their own fixed seeds

    def op(self, lib: Library, inputs, i: int):
        return lib.verify.verify_all()

    def check(self, lib: Library, inputs, i: int, results) -> str | None:
        if not results:
            return "verify_all returned no results"
        bad = [r.summary() for r in results if not r.ok]
        return "; ".join(bad) or None

    def op_counts(self, results) -> dict:
        return {"verify.cases": sum(r.checked for r in results)}


class FftStream:
    """One op is a frame of 4 ``run_fft`` calls: {exact, q3} x {select 4, 2}."""

    name = "fft_stream"

    def __init__(self):
        self.worst_q3_error = 0.0

    def prepare(self, lib: Library):
        for spec in ("exact", "q3"):
            lib.fft.run_fft(lib.fft.FftConfig.make(4, spec, INPUT_WIDTH), [(0, 0)] * 4)

    def make_inputs(self, lib: Library, seed: int):
        configs = [lib.fft.FftConfig.make(select, spec, INPUT_WIDTH) for select, spec in FRAME]
        return configs, frame_pool(seed)

    def op(self, lib: Library, inputs, i: int):
        configs, pool = inputs
        return [lib.fft.run_fft(c, s) for c, s in zip(configs, pool[i % len(pool)])]

    def check(self, lib: Library, inputs, i: int, results) -> str | None:
        configs, pool = inputs
        for config, samples, result in zip(configs, pool[i % len(pool)], results):
            worst, bound = transform_error(lib, config, samples, result)
            if config.twiddle_mode != "exact":
                self.worst_q3_error = max(self.worst_q3_error, worst)
            if worst > bound:
                return f"select={config.select} {config.twiddle_mode} x={samples}: error {worst} > {bound}"
        return None

    def op_counts(self, results) -> dict:
        return {}


class Catalog:
    """One op dumps every catalog unit through the CLI, parses and re-dumps
    it, costs it, then renders ``report --format json``."""

    name = "catalog"

    def __init__(self):
        self.first_report = None

    def prepare(self, lib: Library):
        pass  # every op builds every unit afresh; set-up is the import alone

    def make_inputs(self, lib: Library, seed: int):
        return CATALOG_UNITS

    def op(self, lib: Library, units, i: int):
        rows = []
        for unit in units:
            code, text = run_cli(lib, ["dump", "--unit", unit])
            net = lib.netio.parse_netlist(text)
            redump = lib.netio.dump_netlist(net)
            rows.append((unit, code, text, redump, lib.report.cost_report(net)))
        return rows, run_cli(lib, ["report", "--format", "json"])

    def check(self, lib: Library, units, i: int, result) -> str | None:
        rows, (code, report_json) = result
        for unit, dump_code, text, redump, _ in rows:
            if dump_code != 0:
                return f"dump --unit {unit} exited {dump_code}"
            if redump != text:
                return f"{unit}: dump -> parse -> dump is not byte-identical"
        if code != 0:
            return f"report exited {code}"
        if self.first_report is None:
            json.loads(report_json)
            self.first_report = report_json
        elif report_json != self.first_report:
            return "report JSON differs from the first op of this run"
        return None

    def op_counts(self, result) -> dict:
        return {}


WORKLOADS = {w.name: w for w in (VerifyAll, FftStream, Catalog)}


def model_stats(lib: Library, seed: int) -> dict:
    """Simulated statistics of the design, no timing: gates and depth of every
    catalog unit and report variant, and the worst q3 error for ``seed``."""
    stats = {}
    for unit in CATALOG_UNITS:
        code, text = run_cli(lib, ["dump", "--unit", unit])
        if code != 0:
            raise RuntimeError(f"dump --unit {unit} exited {code}")
        net = lib.netio.parse_netlist(text)
        stats[f"unit.{unit}.gates"] = net.gate_counts().total
        stats[f"unit.{unit}.depth"] = net.critical_path_depth()
    code, text = run_cli(lib, ["report", "--format", "json"])
    if code != 0:
        raise RuntimeError(f"report exited {code}")
    for row in json.loads(text):
        kind = {"delay": "depth", "area": "gates"}.get(row["metric"])
        if kind and row["architecture"] in REPORT_VARIANTS:
            stats[f"report.{row['architecture']}.{kind}"] = row["value"]
    stats["fft.quant_err_max"] = quant_err_max(lib, seed)
    return stats
