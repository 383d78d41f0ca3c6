"""Gate-level combinational circuit simulation with Vedic (vertically and
crosswise) multipliers and a reconfigurable 2/4-point FFT datapath.

The package builds hardware units as validated netlist DAGs, evaluates them
bit-exactly, verifies them against arithmetic/DFT oracles, and compares
delay/area across multiplier implementations under a unit-delay, gate-count
model. One pure-Python kernel simulates them, many vectors per gate pass
(see ``Netlist.evaluate_batch``).
"""

from .arith import (
    UrdhvaTrace,
    build_array4x4,
    build_ripple_adder,
    build_ripple_subtractor,
    build_signed_multiplier4,
    build_vedic2x2,
    build_vedic4x4,
    digits_string,
    digits_value,
    format_trace,
    signed_multiply_4x4,
    urdhva_decimal,
)
from .fft import (
    FftConfig,
    FftResult,
    FixedComplex,
    Twiddle,
    build_butterfly2,
    build_fft4,
    build_reconfigurable_fft,
    complex_multiply_unit,
    dft_oracle,
    parse_inline_samples,
    parse_samples_document,
    parse_twiddle_spec,
    run_fft,
    run_fft_batch,
)
from .netio import NetlistFormatError, dump_netlist, parse_netlist
from .netlist import (
    Gate,
    GateCounts,
    GateKind,
    Netlist,
    NetlistBuilder,
    NetlistError,
)
from .report import (
    MODEL_NOTE,
    ComparisonError,
    ComparisonTable,
    CostReport,
    VariantSet,
    build_variants,
    compare,
    cost_report,
    render,
    render_tables,
)
from .verify import UnitResult, verify_all, verify_unit

__version__ = "0.1.0"


__all__ = [
    "ComparisonError",
    "ComparisonTable",
    "CostReport",
    "FftConfig",
    "FftResult",
    "FixedComplex",
    "Gate",
    "GateCounts",
    "GateKind",
    "MODEL_NOTE",
    "Netlist",
    "NetlistBuilder",
    "NetlistError",
    "NetlistFormatError",
    "Twiddle",
    "UnitResult",
    "UrdhvaTrace",
    "VariantSet",
    "build_array4x4",
    "build_butterfly2",
    "build_fft4",
    "build_reconfigurable_fft",
    "build_ripple_adder",
    "build_ripple_subtractor",
    "build_signed_multiplier4",
    "build_variants",
    "build_vedic2x2",
    "build_vedic4x4",
    "compare",
    "complex_multiply_unit",
    "cost_report",
    "dft_oracle",
    "digits_string",
    "digits_value",
    "dump_netlist",
    "format_trace",
    "parse_inline_samples",
    "parse_netlist",
    "parse_samples_document",
    "parse_twiddle_spec",
    "render",
    "render_tables",
    "run_fft",
    "run_fft_batch",
    "signed_multiply_4x4",
    "urdhva_decimal",
    "verify_all",
    "verify_unit",
]
