"""Delay/area comparison of FFT datapath variants under the unit-delay,
gate-count cost model.

Six variants are compared: {vedic, conventional} multiplier cores inside
{2pt, 4pt, reconfigurable} datapaths, built with quantized twiddles so the
multiplier choice actually appears in the netlists (with exact twiddles the
datapaths are multiplier-free and identical). Depth is the delay analogue,
gate total the area analogue; both are model quantities, not nanoseconds or
FPGA resources. Before any table is emitted the two multiplier cores are
checked truth-table-identical; comparing functionally different circuits is
refused.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Mapping, Sequence

from .arith import build_array4x4, build_vedic4x4
from .fft import FftConfig, build_butterfly2, build_fft4, build_reconfigurable_fft
from .netlist import Netlist

MODEL_NOTE = (
    "unit-delay gate-count model: every gate costs 1 delay unit and 1 area "
    "unit, wires are free; twiddles quantized to Q1.3 so the multiplier "
    "implementation is exercised; vendor FPGA timing/slice/LUT figures are "
    "toolchain outputs and are not modeled"
)


class ComparisonError(ValueError):
    """Raised when a comparison would be unfair or ill-formed."""


@dataclass(frozen=True)
class CostReport:
    """Depth and gate census of one unit: the delay/area analogue record."""

    unit_name: str
    depth_units: int
    gates_by_kind: Mapping[str, int]
    gates_total: int


def cost_report(netlist: Netlist, label: str | None = None) -> CostReport:
    """Wrap critical-path depth and gate counts into one record."""
    counts = netlist.gate_counts()
    return CostReport(
        label or netlist.name,
        netlist.critical_path_depth(),
        dict(sorted(counts.by_kind.items())),
        counts.total,
    )


@dataclass(frozen=True)
class ComparisonTable:
    """One metric across all variants.

    ``rows`` holds (architecture, value) in a fixed order; ``directions``
    holds (pair, vedic value, conventional value) per datapath size, from
    which the vedic <= conventional ordering can be read off.
    """

    metric: str
    rows: tuple[tuple[str, int], ...]
    directions: tuple[tuple[str, int, int], ...]
    model_note: str

    def direction_holds(self, pair: str) -> bool:
        for name, vedic, conventional in self.directions:
            if name == pair:
                return vedic <= conventional
        raise KeyError(pair)


@dataclass(frozen=True)
class VariantSet:
    """The six datapath variants plus the two bare multiplier cores used to
    prove the comparison is apples to apples."""

    multipliers: tuple[Netlist, Netlist]  # (vedic core, conventional core)
    datapaths: Mapping[str, Netlist]


_PAIRS = (
    ("2pt", "conventional_2pt", "vedic_2pt"),
    ("4pt", "conventional_4pt", "vedic_4pt"),
    ("reconfigurable", "conventional_reconfigurable", "vedic_reconfigurable"),
)
_ROW_ORDER = tuple(
    label for _, conventional, vedic in _PAIRS for label in (conventional, vedic)
)


# Q1.3 twiddles on 4-bit samples, the configuration MODEL_NOTE names.
_CONFIG = FftConfig(4, "quantized", 3)


def build_variants() -> VariantSet:
    """Build all six variants with identical configuration except the
    multiplier implementation."""
    # The 2-point datapath has no multiplier: both rows are one netlist.
    butterfly = build_butterfly2(_CONFIG.input_width)
    datapaths = {
        "conventional_2pt": butterfly,
        "vedic_2pt": butterfly,
        "conventional_4pt": build_fft4(_CONFIG, "array"),
        "vedic_4pt": build_fft4(_CONFIG, "vedic"),
        "conventional_reconfigurable": build_reconfigurable_fft(_CONFIG, "array"),
        "vedic_reconfigurable": build_reconfigurable_fft(_CONFIG, "vedic"),
    }
    return VariantSet((build_vedic4x4(), build_array4x4()), datapaths)


def _bus_signature(netlist: Netlist) -> dict[str, tuple[str, int]]:
    sig = {bus: ("in", len(nets)) for bus, nets in netlist.inputs.items()}
    sig.update({bus: ("out", len(nets)) for bus, nets in netlist.outputs.items()})
    return sig


def multipliers_equivalent(a: Netlist, b: Netlist) -> bool:
    """Exhaustive truth-table comparison of two a,b(4) -> p(8) multipliers."""
    for net in (a, b):
        if net.input_width("a") != 4 or net.input_width("b") != 4:
            raise ComparisonError(f"{net.name} is not a 4x4 multiplier")
    columns = {"a": [x for x in range(16) for _ in range(16)], "b": list(range(16)) * 16}
    return a.evaluate_batch(columns)["p"] == b.evaluate_batch(columns)["p"]


def compare(variants: VariantSet | None = None) -> tuple[ComparisonTable, ComparisonTable]:
    """Produce the (delay, area) comparison tables.

    Refuses to compare when the two multiplier cores are not functionally
    identical or when paired variants differ in bus structure.
    """
    if variants is None:
        variants = build_variants()
    if not variants.datapaths:
        raise ComparisonError("empty variant set")
    missing = [label for label in _ROW_ORDER if label not in variants.datapaths]
    if missing:
        raise ComparisonError(f"missing variants: {missing}")
    for pair, conventional, vedic in _PAIRS:
        sig_c = _bus_signature(variants.datapaths[conventional])
        sig_v = _bus_signature(variants.datapaths[vedic])
        if sig_c != sig_v:
            raise ComparisonError(
                f"{pair} variants have mismatched bus structure; "
                "they are not configured identically"
            )
    if not multipliers_equivalent(*variants.multipliers):
        raise ComparisonError(
            "multiplier variants are not truth-table equivalent on all 256 "
            "input pairs; comparison refused"
        )
    reports = {
        label: cost_report(variants.datapaths[label], label) for label in _ROW_ORDER
    }
    delay_rows = tuple((label, reports[label].depth_units) for label in _ROW_ORDER)
    area_rows = tuple((label, reports[label].gates_total) for label in _ROW_ORDER)

    def directions(values: Mapping[str, int]):
        return tuple(
            (pair, values[vedic], values[conventional])
            for pair, conventional, vedic in _PAIRS
        )

    delay = ComparisonTable(
        "delay", delay_rows, directions(dict(delay_rows)), MODEL_NOTE
    )
    area = ComparisonTable("area", area_rows, directions(dict(area_rows)), MODEL_NOTE)
    return delay, area


# -- rendering ----------------------------------------------------------------

_METRIC_UNITS = {"delay": "unit delays", "area": "gates"}


def _direction_line(pair: str, vedic: int, conventional: int) -> str:
    if vedic <= conventional:
        relation = "vedic <= conventional"
    else:
        relation = (
            "vedic > conventional (vedic advantage NOT reproduced under this model)"
        )
    return f"{pair}: vedic {vedic} vs conventional {conventional} -> {relation}"


def _render_text(table: ComparisonTable) -> str:
    unit = _METRIC_UNITS.get(table.metric, table.metric)
    width = max(len(arch) for arch, _ in table.rows)
    lines = [f"{table.metric.capitalize()} comparison ({unit})"]
    lines.append(f"  {'architecture'.ljust(width)}  {table.metric:>8}")
    for arch, value in table.rows:
        lines.append(f"  {arch.ljust(width)}  {value:>8}")
    for pair, vedic, conventional in table.directions:
        lines.append("  " + _direction_line(pair, vedic, conventional))
    lines.append(f"  model: {table.model_note}")
    return "\n".join(lines) + "\n"


def _csv_rows(table: ComparisonTable) -> list[list[str]]:
    return [
        [arch, table.metric, str(value), table.model_note]
        for arch, value in table.rows
    ]


def _json_rows(table: ComparisonTable) -> list[dict]:
    return [
        {
            "architecture": arch,
            "metric": table.metric,
            "value": value,
            "model": table.model_note,
        }
        for arch, value in table.rows
    ]


def render(table: ComparisonTable, format: str = "text") -> str:
    """Serialize one table: ``text`` (fixed-width columns), ``csv`` (header
    architecture,metric,value,model), or ``json`` (array of row objects)."""
    return render_tables([table], format)


def render_tables(tables: Sequence[ComparisonTable], format: str = "text") -> str:
    """Serialize several tables into one deterministic document."""
    tables = list(tables)
    if not tables or any(not t.rows for t in tables):
        raise ComparisonError("refusing to render an empty table")
    if format == "text":
        return "\n".join(_render_text(t) for t in tables)
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["architecture", "metric", "value", "model"])
        for t in tables:
            writer.writerows(_csv_rows(t))
        return buf.getvalue()
    if format == "json":
        rows = [row for t in tables for row in _json_rows(t)]
        return json.dumps(rows, indent=2) + "\n"
    raise ValueError(f"unknown format {format!r}")
