"""Acceptance gate: every shipping requirement, one printed line each.

Each test exercises one requirement at its stated tolerance and records a
single PASS/FAIL line; conftest prints the collected lines as an
"acceptance gate" section in the terminal summary, so the verdicts are
always visible in the test log.
"""

import dataclasses
import random
import time

from vedicfft import (
    FftConfig,
    GateKind,
    NetlistBuilder,
    dft_oracle,
    dump_netlist,
    parse_netlist,
    run_fft,
    urdhva_decimal,
)
from vedicfft.cli import main
from vedicfft.netlist import to_signed
from vedicfft.report import ComparisonError, compare, render, render_tables
from vedicfft.verify import verify_all


def _report(log: list, label: str, ok: bool) -> None:
    log.append(f"{'PASS' if ok else 'FAIL'}  {label}")


def _spectrum(result):
    return [(s.re, s.im) for s in result.spectrum]


def _rand_vec(rng, n=4, lo=-8, hi=7):
    return [(rng.randint(lo, hi), rng.randint(lo, hi)) for _ in range(n)]


def test_digit_serial_worked_example(acceptance_log):
    label = "digit-serial 234 x 316 gives 61724 / 1222 / 73944 exactly in under 1 ms"
    elapsed = min(
        _timed(lambda: urdhva_decimal(234, 316))[1] for _ in range(5)
    )
    trace = urdhva_decimal(234, 316)
    ok = (
        trace.line_strings() == ("61724", "1222", "73944")
        and trace.product == 73944
        and elapsed < 1e-3
    )
    _report(acceptance_log, label, ok)
    assert trace.line_strings() == ("61724", "1222", "73944")
    assert trace.product == 73944
    assert elapsed < 1e-3, f"took {elapsed * 1e3:.3f} ms"


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def test_exhaustive_multiplier_correctness(acceptance_log, vedic2x2, vedic4x4, array4x4):
    label = "vedic2x2 16/16, vedic4x4 + array4x4 256/256 and mutually identical, under 1 s"
    start = time.perf_counter()
    failures = []
    for a in range(4):
        for b in range(4):
            got = vedic2x2.evaluate_batch({"a": [a], "b": [b]})["p"][0]
            if got != a * b:
                failures.append(f"vedic2x2 {a}*{b}={got}")
    for a in range(16):
        for b in range(16):
            columns = {"a": [a], "b": [b]}
            v = vedic4x4.evaluate_batch(columns)["p"][0]
            w = array4x4.evaluate_batch(columns)["p"][0]
            if v != a * b:
                failures.append(f"vedic4x4 {a}*{b}={v}")
            if w != a * b:
                failures.append(f"array4x4 {a}*{b}={w}")
            if v != w:
                failures.append(f"mismatch {a}*{b}: {v} vs {w}")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 1.0
    _report(acceptance_log, label, ok)
    assert not failures, failures[:5]
    assert elapsed < 1.0, f"took {elapsed:.2f} s"


def test_fft_oracle_equivalence_exact_mode(acceptance_log):
    label = (
        "exact FFT equals the DFT oracle on impulse, DC, basis and 1000+1000 "
        "random vectors for select=4 and select=2, under 5 s"
    )
    start = time.perf_counter()
    cfg4 = FftConfig.make(4, "exact", 4)
    cfg2 = FftConfig.make(2, "exact", 4)
    failures = []

    def check(cfg, samples, n_active):
        res = run_fft(cfg, samples)
        ref = dft_oracle([complex(r, i) for r, i in samples[:n_active]])
        want = list(ref) + [0j] * (4 - n_active)
        if res.values != want:
            failures.append((cfg.select, samples, res.values, want))

    directed4 = [[(5, 0)] + [(0, 0)] * 3, [(3, 0)] * 4]  # impulse, DC
    directed4 += [
        [(6, 0) if m == k else (0, 0) for m in range(4)] for k in range(4)
    ]  # all four basis vectors
    for vec in directed4:
        check(cfg4, vec, 4)

    directed2 = [
        [(5, 0), (0, 0), (0, 0), (0, 0)],
        [(3, 0), (3, 0), (0, 0), (0, 0)],
        [(6, 0), (0, 0), (0, 0), (0, 0)],
        [(0, 0), (6, 0), (0, 0), (0, 0)],
    ]
    for vec in directed2:
        check(cfg2, vec, 2)

    rng = random.Random(2026)
    for _ in range(1000):
        check(cfg4, _rand_vec(rng), 4)
    for _ in range(1000):
        check(cfg2, _rand_vec(rng, 2) + [(0, 0), (0, 0)], 2)

    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 5.0
    _report(acceptance_log, label, ok)
    assert not failures, failures[:3]
    assert elapsed < 5.0, f"took {elapsed:.2f} s"


def test_fft_property_suite(acceptance_log, butterfly2, recon_exact):
    label = (
        "linearity, Parseval, select-line consistency and dump/parse round-trip "
        "hold over the random sweep"
    )
    rng = random.Random(404)
    cfg4 = FftConfig.make(4, "exact", 4)
    cfg2 = FftConfig.make(2, "exact", 4)
    failures = []

    # Linearity: F(x + y) == F(x) + F(y), inputs kept in range.
    for _ in range(300):
        x = _rand_vec(rng, lo=-4, hi=3)
        y = _rand_vec(rng, lo=-4, hi=3)
        s = [(a + c, b + d) for (a, b), (c, d) in zip(x, y)]
        lhs = run_fft(cfg4, s).values
        rhs = [u + v for u, v in zip(run_fft(cfg4, x).values, run_fft(cfg4, y).values)]
        if lhs != rhs:
            failures.append(("linearity", x, y))

    # Parseval: sum |X|^2 == 4 * sum |x|^2, exact in integers.
    for _ in range(300):
        x = _rand_vec(rng)
        res = run_fft(cfg4, x)
        lhs = sum(s.re**2 + s.im**2 for s in res.spectrum)
        rhs = 4 * sum(r**2 + i**2 for r, i in x)
        if lhs != rhs:
            failures.append(("parseval", x, lhs, rhs))

    # Select-line consistency: the 2-point configuration reproduces the
    # standalone butterfly and forces the upper two bins to zero.
    for _ in range(300):
        x = _rand_vec(rng, 2)
        res = run_fft(cfg2, x + [(0, 0), (0, 0)])
        bf = butterfly2.evaluate_batch(
            {
                "x0_re": [x[0][0] & 15],
                "x0_im": [x[0][1] & 15],
                "x1_re": [x[1][0] & 15],
                "x1_im": [x[1][1] & 15],
            }
        )
        width = butterfly2.output_width("X0_re")
        want = [
            complex(to_signed(bf["X0_re"][0], width), to_signed(bf["X0_im"][0], width)),
            complex(to_signed(bf["X1_re"][0], width), to_signed(bf["X1_im"][0], width)),
            0j,
            0j,
        ]
        if res.values != want:
            failures.append(("select", x, res.values, want))

    # Dump/parse round-trip: the re-parsed datapath is bit-identical.
    clone = parse_netlist(dump_netlist(recon_exact))
    for _ in range(100):
        assignment = {
            name: [rng.randrange(1 << recon_exact.input_width(name))]
            for name in recon_exact.inputs
        }
        if recon_exact.evaluate_batch(assignment) != clone.evaluate_batch(assignment):
            failures.append(("roundtrip", assignment))

    ok = not failures
    _report(acceptance_log, label, ok)
    assert not failures, failures[:3]


def test_quantized_error_bound(acceptance_log):
    label = "Q1.3 spectrum error stays within 4 * 2^-3 * max|x| over 1000 random vectors"
    cfg = FftConfig.make(4, "q3", 4)
    rng = random.Random(515)
    failures = []
    for _ in range(1000):
        samples = _rand_vec(rng)
        res = run_fft(cfg, samples)
        ref = dft_oracle([complex(r, i) for r, i in samples])
        peak = max(max(abs(r), abs(i)) for r, i in samples)
        bound = 4 * 2**-3 * peak
        for got, want in zip(res.values, ref):
            err = max(abs(got.real - want.real), abs(got.imag - want.imag))
            if err > bound:
                failures.append((samples, got, want, err, bound))
    ok = not failures
    _report(acceptance_log, label, ok)
    assert not failures, failures[:3]


def test_comparison_directions_and_pipeline(acceptance_log):
    label = (
        "every delay and gate-count direction line matches its numbers, and "
        "the tables say where vedic is not ahead; pipeline is deterministic "
        "and refuses unequal variants"
    )
    delay, area = compare()
    checks = []

    # Each direction line states what its numbers say; where vedic is not
    # ahead, the caveat is printed rather than hidden.
    for table in (delay, area):
        text = render(table, "text")
        for pair, vedic, conventional in table.directions:
            if vedic <= conventional:
                relation = "vedic <= conventional"
            else:
                relation = "vedic > conventional (vedic advantage NOT reproduced"
            line = f"{pair}: vedic {vedic} vs conventional {conventional} -> {relation}"
            checks.append(line in text)
            checks.append(table.direction_holds(pair) == (vedic <= conventional))
        checks.append("model:" in text)
        # As measured under this model: the vedic variants are neither
        # faster nor smaller where the multiplier appears.
        outcomes = {pair: table.direction_holds(pair) for pair, _, _ in table.directions}
        checks.append(outcomes == {"2pt": True, "4pt": False, "reconfigurable": False})

    # Deterministic output.
    again = compare()
    checks.append((delay, area) == again)
    checks.append(render_tables((delay, area), "csv") == render_tables(again, "csv"))

    # Refusal of functionally unequal variants.
    from vedicfft.report import build_variants

    variants = build_variants()
    b = NetlistBuilder("broken4x4")
    a_bus = b.add_input("a", 4)
    b_bus = b.add_input("b", 4)
    wrong = [b.add_gate(GateKind.AND, (a_bus[i], b_bus[i])) for i in range(4)]
    b.set_output("p", wrong + [b.const(0)] * 4)
    bad = dataclasses.replace(variants, multipliers=(b.finalize(), variants.multipliers[1]))
    try:
        compare(bad)
        checks.append(False)
    except ComparisonError:
        checks.append(True)

    ok = all(checks)
    _report(acceptance_log, label, ok)
    assert all(checks), checks


def test_full_verification_and_report_budget(acceptance_log, capsys):
    label = "verify --unit all plus report completes in under 10 s"
    start = time.perf_counter()
    results = verify_all()
    tables = render_tables(compare(), "text")
    elapsed = time.perf_counter() - start
    all_green = all(r.ok for r in results)
    ok = all_green and elapsed < 10.0 and "Delay comparison" in tables
    _report(acceptance_log, label, ok)
    assert all_green, [r.summary() for r in results if not r.ok]
    assert elapsed < 10.0, f"took {elapsed:.2f} s"

    # The same flow through the command-line surface also exits cleanly.
    assert main(["verify", "--unit", "all"]) == 0
    assert main(["report"]) == 0
    capsys.readouterr()
