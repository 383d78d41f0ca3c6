"""vedicfft benchmark: one closed-loop workload per run, single process,
single thread, inputs generated from ``--seed`` before timing starts.

    python3 perfbench/run.py --workload verify_all --seed 1 --seconds 30 --trace 0

Run from the checkout root; the library is imported from ``src/``. The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds diagnostics that are not
gated. ``--trace 0`` reports the end-to-end metrics. ``--trace 1`` reports
the per-layer ones, from a run in which every second op is traced (see
``tracing.py``), so traced and untraced ops share the host's slow windows.

Every time is reported at a fixed host speed (see ``calibration.py``). Set-up
is timed in a fresh interpreter (``probe.py``) many times, spread evenly over
the run, and reported as the median: the host slows down for seconds at a
time, so one timing, or several back to back, lands in a slow window at
random. See ``NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import calibration
import tracing
import workloads

SETUP_SAMPLES = 25
PROBE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "probe.py")


def probe_setup(workload: str) -> tuple[float, float]:
    """One set-up timed in a fresh interpreter: (seconds, normalised seconds)."""
    done = subprocess.run(
        [sys.executable, PROBE, workload],
        cwd=workloads.ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    seconds, loop_seconds = map(float, done.stdout.split()[-2:])
    return seconds, calibration.normalise(seconds, loop_seconds)


def percentile(values, q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# -- per-layer metrics ----------------------------------------------------------


class Aggregate:
    """Per-op averages over the traced ops of one run; times at the
    reference host speed (see ``calibration.py``)."""

    def __init__(self, tallies):
        self.tallies = tallies
        self.n = len(tallies)

    def calls(self, span):
        return sum(t.calls[span] for t in self.tallies) / self.n

    def count(self, key):
        return sum(t.counts[key] for t in self.tallies) / self.n

    def self_ms(self, *spans, prefix=None):
        total = 0.0
        for t in self.tallies:
            op = sum(t.self_s[s] for s in spans)
            if prefix:
                op += sum(v for s, v in t.self_s.items() if s.startswith(prefix))
            total += op * t.scale
        return total / self.n * 1e3

    def incl_ms(self, span):
        return sum(t.incl_s[span] * t.scale for t in self.tallies) / self.n * 1e3

    def rate(self, numerator, *spans):
        seconds = sum(self.incl_ms(s) for s in spans) / 1e3
        return numerator / seconds if seconds else 0.0

    def varying_counts(self):
        """Counters whose per-op value is not the same on every traced op."""
        first = self.tallies[0]
        names = set()
        for t in self.tallies[1:]:
            names.update(k for k in set(t.calls) | set(first.calls) if t.calls[k] != first.calls[k])
            names.update(k for k in set(t.counts) | set(first.counts) if t.counts[k] != first.counts[k])
        return sorted(names)


VERIFY_SPANS = tuple(f"verify.{u}" for u in workloads.VERIFY_UNITS)

# (name, unit, better, f(Aggregate)); self_ms is per op, a span's time minus
# its child spans; calls and counts are per op and repeat exactly.
LAYER_METRICS = (
    ("kernel.calls", "count", "lower", lambda a: a.calls("kernel")),
    ("kernel.self_ms", "ms", "lower", lambda a: a.self_ms("kernel")),
    ("netlist.evaluate.calls", "count", "lower", lambda a: a.calls("netlist.evaluate")),
    ("netlist.evaluate.self_ms", "ms", "lower", lambda a: a.self_ms("netlist.evaluate")),
    ("netlist.gate_evals", "count", "lower", lambda a: a.count("netlist.gate_evals")),
    ("netlist.gate_evals_per_s", "1/s", "higher",
     lambda a: a.rate(a.count("netlist.gate_evals"), "netlist.evaluate")),
    ("netlist.add_gate.calls", "count", "lower", lambda a: a.calls("netlist.add_gate")),
    ("netlist.add_gate.self_ms", "ms", "lower", lambda a: a.self_ms("netlist.add_gate")),
    ("netlist.instantiate.self_ms", "ms", "lower", lambda a: a.self_ms("netlist.instantiate")),
    ("netlist.finalize.self_ms", "ms", "lower", lambda a: a.self_ms("netlist.finalize")),
    ("netlist.analysis.self_ms", "ms", "lower", lambda a: a.self_ms("netlist.analysis")),
    ("bitvec.encode.calls", "count", "lower", lambda a: a.calls("bitvec.encode")),
    ("bitvec.encode.self_ms", "ms", "lower", lambda a: a.self_ms("bitvec.encode")),
    ("bitvec.decode.self_ms", "ms", "lower", lambda a: a.self_ms("bitvec.decode")),
    ("bitvec.construct.self_ms", "ms", "lower", lambda a: a.self_ms("bitvec.construct")),
    ("fft.run_fft.calls", "count", "lower", lambda a: a.calls("fft.run_fft")),
    ("fft.run_fft.self_ms", "ms", "lower", lambda a: a.self_ms("fft.run_fft")),
    ("fft.dft_oracle.self_ms", "ms", "lower", lambda a: a.self_ms("fft.dft_oracle")),
    ("fft.build.self_ms", "ms", "lower", lambda a: a.self_ms("fft.build")),
    ("fft.transforms_per_s", "1/s", "higher",
     lambda a: a.rate(a.calls("fft.run_fft"), "fft.run_fft")),
    ("arith.build.self_ms", "ms", "lower", lambda a: a.self_ms("arith.build")),
    ("arith.signed_multiply.calls", "count", "lower", lambda a: a.calls("arith.signed_multiply")),
    ("arith.signed_multiply.self_ms", "ms", "lower", lambda a: a.self_ms("arith.signed_multiply")),
    ("verify.cases", "count", "higher", lambda a: a.count("verify.cases")),
    *(
        (f"{span}.ms", "ms", "lower", lambda a, span=span: a.incl_ms(span))
        for span in VERIFY_SPANS
    ),
    ("verify.self_ms", "ms", "lower", lambda a: a.self_ms(prefix="verify.")),
    ("verify.cases_per_s", "1/s", "higher",
     lambda a: a.rate(a.count("verify.cases"), *VERIFY_SPANS)),
    ("netio.dump.self_ms", "ms", "lower", lambda a: a.self_ms("netio.dump")),
    ("netio.parse.self_ms", "ms", "lower", lambda a: a.self_ms("netio.parse")),
    ("netio.bytes", "bytes", "lower", lambda a: a.count("netio.bytes")),
    ("report.compare.self_ms", "ms", "lower", lambda a: a.self_ms("report.compare")),
    ("report.equivalence.self_ms", "ms", "lower", lambda a: a.self_ms("report.equivalence")),
    ("report.cost.self_ms", "ms", "lower", lambda a: a.self_ms("report.cost")),
    ("report.render.self_ms", "ms", "lower", lambda a: a.self_ms("report.render")),
    ("cli.main.calls", "count", "lower", lambda a: a.calls("cli.main")),
    ("cli.main.self_ms", "ms", "lower", lambda a: a.self_ms("cli.main")),
    ("trace.op_ms", "ms", "lower", lambda a: sum(t.total_s * t.scale for t in a.tallies) / a.n * 1e3),
    ("trace.unhooked_ms", "ms", "lower", lambda a: a.self_ms("op")),
)

# Model statistics: no timing, identical for one seed on any host.
MODEL_METRICS = (
    *(
        (f"unit.{u}.{kind}", unit, "lower")
        for u in workloads.CATALOG_UNITS
        for kind, unit in (("gates", "gates"), ("depth", "unit_delays"))
    ),
    *(
        (f"report.{v}.{kind}", unit, "lower")
        for v in workloads.REPORT_VARIANTS
        for kind, unit in (("gates", "gates"), ("depth", "unit_delays"))
    ),
    ("fft.quant_err_max", "output_units", "lower"),
)

OVERHEAD_METRIC = ("trace.overhead_pct", "%", "lower")


def per_layer_names():
    """(name, unit, better) of every metric a ``--trace 1`` run reports."""
    return [m[:3] for m in LAYER_METRICS] + list(MODEL_METRICS) + [OVERHEAD_METRIC]


# -- the run --------------------------------------------------------------------


def attempt(workload, lib, inputs, i, tracer, loop_before):
    """Run and check op ``i``; ``loop_before`` is the calibration loop's time
    just before it. Returns (seconds, normalised seconds, problem or None,
    tally or None, the loop's time just after the op)."""
    result = tally = problem = None
    start = time.perf_counter()
    try:
        if tracer is None:
            result = workload.op(lib, inputs, i)
        else:
            result, tally = tracer.run_op(workload.op, lib, inputs, i)
    except Exception as exc:  # a raising op is a failed op, not a failed run
        problem = f"op {i} raised {exc!r}"
    elapsed = time.perf_counter() - start
    loop_after = calibration.host_time()
    normalised = calibration.normalise(elapsed, (loop_before + loop_after) / 2)
    if problem is None:
        try:
            problem = workload.check(lib, inputs, i, result)
        except Exception as exc:  # so is a result the check cannot read
            problem = f"check of op {i} raised {exc!r}"
    if tally is not None:
        tally.scale = normalised / elapsed
        tally.counts.update(workload.op_counts(result))
    return elapsed, normalised, problem, tally, loop_after


def run(name: str, seed: int, seconds: float, traced: bool):
    lib = workloads.Library()
    workload = workloads.WORKLOADS[name]()
    workload.prepare(lib)
    inputs = workload.make_inputs(lib, seed)
    tracer = tracing.Tracer() if traced else None
    probe_setup(name)  # writes bytecode caches in a fresh checkout; not counted
    loop = attempt(workload, lib, inputs, 0, None, calibration.host_time())[-1]  # warm-up

    samples = max(1, min(SETUP_SAMPLES, round(seconds)))
    start = time.perf_counter()
    deadline = start + seconds
    due = [start + (k + 0.5) * seconds / samples for k in range(samples)]
    setup, raw, plain, traced_lat, tallies, problems = [], [], [], [], [], []
    min_ops = 2 if traced else 1
    i = 1
    while True:
        now = time.perf_counter()
        if len(setup) < samples and now >= due[len(setup)]:
            setup.append(probe_setup(name))
            loop = calibration.host_time()
            continue
        if now >= deadline and i > min_ops:
            break
        use_tracer = tracer if i % 2 == 0 else None
        elapsed, normalised, problem, tally, loop = attempt(
            workload, lib, inputs, i, use_tracer, loop
        )
        if use_tracer is None:
            raw.append(elapsed)
            plain.append(normalised)
        else:
            traced_lat.append(normalised)
        if problem:
            problems.append(problem)
        elif tally is not None:
            tallies.append(tally)
        i += 1
    while len(setup) < samples:
        setup.append(probe_setup(name))

    attempted = len(plain) + len(traced_lat)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    end_to_end = {
        "setup_s": {"value": statistics.median(s for _, s in setup), "unit": "s"},
        "op_ms.p50": {"value": statistics.median(plain) * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": rss_kib / 1024, "unit": "MB"},
        "pass_ratio": {"value": (attempted - len(problems)) / attempted, "unit": "ratio"},
    }
    diagnostics = {
        "op_ms.p99": percentile(plain, 99) * 1e3,
        "ops.n": len(plain),
        "raw.op_ms.p50": statistics.median(raw) * 1e3,
        "raw.setup_s": statistics.median(r for r, _ in setup),
        "setup_s.samples": [s for _, s in setup],
        "failures": problems[:5],
    }
    if isinstance(workload, workloads.FftStream):
        diagnostics["quant_err_max.run"] = workload.worst_q3_error
    header = {"workload": name, "seed": seed, "trace": int(traced)}
    if traced:
        agg = Aggregate(tallies)
        metrics = {
            metric: {"value": value(agg) if tallies else 0.0, "unit": unit}
            for metric, unit, _, value in LAYER_METRICS
        }
        stats = workloads.model_stats(lib, seed)
        for metric, unit, _ in MODEL_METRICS:
            metrics[metric] = {"value": stats[metric], "unit": unit}
        overhead = statistics.median(traced_lat) / statistics.median(plain) - 1
        metrics[OVERHEAD_METRIC[0]] = {"value": overhead * 100, "unit": "%"}
        header["end_to_end"] = end_to_end
        diagnostics["trace.ops"] = len(tallies)
        diagnostics["trace.counts_vary"] = agg.varying_counts() if tallies else []
        diagnostics["trace.absent"] = tracer.absent
        if tracer.absent:
            print(f"absent hook targets: {', '.join(tracer.absent)}", file=sys.stderr)
    else:
        metrics = end_to_end
    header["diagnostics"] = diagnostics
    for problem in problems[:5]:
        print(f"failed: {problem}", file=sys.stderr)
    print(json.dumps(header))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": metrics,
    }
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured run length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        run(args.workload, args.seed, args.seconds, bool(args.trace))
    except workloads.LibraryMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
