"""Command-line front door: mul, fft, verify, dump, report.

Results go to standard output, diagnostics to standard error. Exit codes:
0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import arith, fft, report, verify
from .netio import dump_netlist


def _cmd_mul(args) -> int:
    if args.decimal:
        if args.signed:
            raise ValueError("--signed does not apply to --decimal (digits are unsigned)")
        if args.a < 0 or args.b < 0:
            raise ValueError("--decimal operands must be non-negative")
        trace = arith.urdhva_decimal(args.a, args.b, base=10)
        if args.trace:
            print(arith.format_trace(trace))
        else:
            print(trace.product)
        return 0
    if args.signed:
        if args.trace:
            raise ValueError("--trace needs unsigned operands (use it without --signed)")
        print(arith.signed_multiply_4x4(args.a, args.b, args.impl))
        return 0
    if not 0 <= args.a <= 15 or not 0 <= args.b <= 15:
        raise ValueError("operands must be in [0, 15] (4-bit unsigned)")
    net = fft.build_unit(f"{args.impl}4x4")
    product = net.evaluate_batch({"a": [args.a], "b": [args.b]})["p"][0]
    if args.trace:
        print(arith.format_trace(arith.urdhva_decimal(args.a, args.b, base=2)))
    print(product)
    return 0


def _cmd_fft(args) -> int:
    if (args.input is None) == (args.samples is None):
        raise ValueError("provide exactly one of --input or --samples")
    if args.input is not None:
        samples, width = fft.parse_samples_document(Path(args.input).read_text())
    else:
        samples, width = fft.parse_inline_samples(args.samples), args.width
    config = fft.FftConfig.make(args.select, args.twiddle, width)
    result = fft.run_fft(config, samples)
    sys.stdout.write(result.to_json())
    return 0


def _cmd_verify(args) -> int:
    if args.unit == "all":
        results = verify.verify_all()
    else:
        results = [verify.verify_unit(args.unit)]
    for r in results:
        print(r.summary())
    failed = [r for r in results if not r.ok]
    if failed:
        print(f"{len(failed)} unit(s) FAILED", file=sys.stderr)
        return 1
    print(f"all {len(results)} unit(s) pass")
    return 0


def _cmd_dump(args) -> int:
    text = dump_netlist(fft.build_unit(args.unit))
    if args.out is not None:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_report(args) -> int:
    delay, area = report.compare()
    sys.stdout.write(report.render_tables([delay, area], args.format))
    return 0


# Built on the first ``main`` call and reused by every later one: argparse
# reads the terminal width and the output streams when it prints, not here.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vedicfft",
        description="Gate-level Vedic multipliers and a reconfigurable "
        "2/4-point FFT datapath: run, verify, export, compare.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mul", help="multiply through a gate-level multiplier")
    p.add_argument("--a", type=int, required=True, help="first operand")
    p.add_argument("--b", type=int, required=True, help="second operand")
    p.add_argument(
        "--impl", choices=("vedic", "array"), default="vedic", help="multiplier core"
    )
    p.add_argument(
        "--signed", action="store_true", help="two's-complement operands in [-8, 7]"
    )
    p.add_argument(
        "--decimal",
        action="store_true",
        help="digit-serial base-10 multiply of arbitrary size",
    )
    p.add_argument(
        "--trace",
        action="store_true",
        help="print the digit line / carry line / product block",
    )
    p.set_defaults(func=_cmd_mul)

    p = sub.add_parser("fft", help="run the reconfigurable FFT datapath")
    p.add_argument("--input", help="sample JSON file")
    p.add_argument("--samples", help="inline samples: re,im;re,im;...")
    p.add_argument("--select", type=int, choices=(2, 4), default=4)
    p.add_argument(
        "--twiddle", default="exact", help="twiddle mode: exact or q<F> (e.g. q3)"
    )
    p.add_argument(
        "--width", type=int, default=4, help="input width for inline samples"
    )
    p.set_defaults(func=_cmd_fft)

    p = sub.add_parser("verify", help="run exhaustive/randomized oracle suites")
    p.add_argument(
        "--unit",
        default="all",
        help="unit to verify: " + ", ".join(verify.unit_names()) + ", or all",
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("dump", help="export a unit in the structural text format")
    p.add_argument(
        "--unit",
        required=True,
        help="unit to export: "
        + ", ".join(fft.unit_names())
        + "; also adder<W>, subtractor<W>, fft4_q<F>, reconfigurable_q<F>",
    )
    p.add_argument("--out", help="output path (default: standard output)")
    p.set_defaults(func=_cmd_dump)

    p = sub.add_parser("report", help="delay/area comparison tables")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
