"""Exhaustive and randomized verification suites.

Each unit is checked against an independent oracle: Python integer
arithmetic for the multipliers/adders and the direct DFT sum for the FFT
datapaths. Exhaustive sweeps are used where the input space is small
(every 4-bit operand pair); fixed-seed random sweeps elsewhere, so every
run checks the same cases and results are reproducible. A suite builds its
cases first and simulates them in one batch per netlist
(``Netlist.evaluate_batch``), then checks them in order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from . import arith, fft
from .netlist import to_signed

_RANDOM_VECTORS = 1000


@dataclass(frozen=True)
class UnitResult:
    """Outcome of one unit's suite: cases checked, failures, first detail."""

    unit: str
    checked: int
    failed: int
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def summary(self) -> str:
        passed = self.checked - self.failed
        line = f"{self.unit}: {passed}/{self.checked} pass"
        if self.failed and self.detail:
            line += f" (first failure: {self.detail})"
        return line


class _Tally:
    def __init__(self, unit: str):
        self.unit = unit
        self.checked = 0
        self.failed = 0
        self.detail = ""

    def check(self, ok: bool, detail: Callable[[], str] | None = None):
        self.checked += 1
        if not ok:
            self.failed += 1
            if not self.detail and detail is not None:
                self.detail = detail()

    def result(self) -> UnitResult:
        return UnitResult(self.unit, self.checked, self.failed, self.detail)


def _batch(net, buses, cases) -> dict[str, list[int]]:
    """One gate pass of ``net`` over ``cases``: tuples of raw unsigned values,
    one per bus of ``buses`` in that order."""
    return net.evaluate_batch(
        {bus: [case[k] for case in cases] for k, bus in enumerate(buses)}
    )


def _verify_vedic2x2() -> UnitResult:
    t = _Tally("vedic2x2")
    cases = [(a, b) for a in range(4) for b in range(4)]
    products = _batch(arith.build_vedic2x2(), ("a", "b"), cases)["p"]
    for (a, b), got in zip(cases, products):
        t.check(got == a * b, lambda: f"{a}*{b}: got {got}, want {a * b}")
    return t.result()


def _verify_4x4(unit: str) -> UnitResult:
    t = _Tally(unit)
    net = fft.build_unit(unit)
    cases = [(a, b) for a in range(16) for b in range(16)]
    products = _batch(net, ("a", "b"), cases)["p"]
    if unit == "array4x4":
        reference = _batch(arith.build_vedic4x4(), ("a", "b"), cases)["p"]
    width = net.output_width("p")
    for k, ((a, b), got) in enumerate(zip(cases, products)):
        if unit == "vedic4x4":
            # The digit-serial base-2 run must match the netlist bit for bit.
            trace = arith.urdhva_decimal(a, b, base=2)
            bits = tuple((got >> i) & 1 for i in range(width))
            cross = trace.final + (0,) * (width - len(trace.final)) == bits
            label = "digit-serial"
        else:
            cross = reference[k] == got
            label = "vedic cross-check"
        t.check(
            got == a * b and cross,
            lambda: f"{a}*{b}: got {got}, want {a * b} ({label} {'ok' if cross else 'differs'})",
        )
    return t.result()


def _verify_adder() -> UnitResult:
    t = _Tally("adder")
    cases = [(a, b, cin) for a in range(16) for b in range(16) for cin in range(2)]
    out = _batch(arith.build_ripple_adder(4), ("a", "b", "cin"), cases)
    for (a, b, cin), got, cout in zip(cases, out["sum"], out["cout"]):
        total = a + b + cin
        t.check(
            got == total % 16 and cout == total // 16,
            lambda: f"{a}+{b}+{cin}: got {cout}:{got}",
        )
    rng = random.Random(41)
    for width in (8, 16):
        mask = (1 << width) - 1
        cases = [
            (rng.randrange(mask + 1), rng.randrange(mask + 1), rng.randrange(2))
            for _ in range(_RANDOM_VECTORS // 2)
        ]
        out = _batch(arith.build_ripple_adder(width), ("a", "b", "cin"), cases)
        for (a, b, cin), got, cout in zip(cases, out["sum"], out["cout"]):
            total = a + b + cin
            t.check(
                got == (total & mask) and cout == total >> width,
                lambda: f"w{width} {a}+{b}+{cin}",
            )
    return t.result()


def _verify_subtractor() -> UnitResult:
    t = _Tally("subtractor")
    cases = [(a, b) for a in range(16) for b in range(16)]
    out = _batch(arith.build_ripple_subtractor(4), ("a", "b"), cases)
    for (a, b), diff, borrow in zip(cases, out["diff"], out["borrow"]):
        t.check(
            diff == (a - b) % 16 and borrow == int(a < b),
            lambda: f"{a}-{b}: got {diff} borrow {borrow}",
        )
    rng = random.Random(43)
    for width in (8, 16):
        mask = (1 << width) - 1
        cases = [
            (rng.randrange(mask + 1), rng.randrange(mask + 1))
            for _ in range(_RANDOM_VECTORS // 2)
        ]
        out = _batch(arith.build_ripple_subtractor(width), ("a", "b"), cases)
        for (a, b), diff, borrow in zip(cases, out["diff"], out["borrow"]):
            t.check(
                diff == ((a - b) & mask) and borrow == int(a < b),
                lambda: f"w{width} {a}-{b}",
            )
    return t.result()


def _verify_signed4x4() -> UnitResult:
    t = _Tally("signed4x4")
    cases = [(a, b) for a in range(-8, 8) for b in range(-8, 8)]
    for impl in ("vedic", "array"):
        products = arith._signed_products(impl, cases)
        for (a, b), got in zip(cases, products):
            # |-8| saturates to magnitude 7; every other input is exact.
            ea = -7 if a == -8 else a
            eb = -7 if b == -8 else b
            want = ea * eb
            want_sat = a == -8 or b == -8
            t.check(
                got.product == want and got.saturated == want_sat,
                lambda: f"{impl} {a}*{b}: got {got}, want {want} sat={want_sat}",
            )
    return t.result()


def _rand_vector(rng: random.Random, lo: int = -8, hi: int = 7):
    return [
        fft.FixedComplex(rng.randint(lo, hi), rng.randint(lo, hi)) for _ in range(4)
    ]


def _verify_fft() -> UnitResult:
    # Each section draws its cases from the shared rng, checks them in one
    # batch and drops them before the next section draws: the cases stay
    # those of the original one-at-a-time order, and peak memory stays flat.
    t = _Tally("fft")
    exact4 = fft.FftConfig(select=4)
    exact2 = fft.FftConfig(select=2)
    quant4 = fft.FftConfig(4, "quantized", 3, 4)
    butterfly = fft.build_butterfly2(4)

    def oracle_cases(config, vectors, n):
        results = fft.run_fft_batch(config, vectors)
        if n == 2:
            bf = _batch(
                butterfly,
                ("x0_re", "x0_im", "x1_re", "x1_im"),
                [(x[0].re & 15, x[0].im & 15, x[1].re & 15, x[1].im & 15) for x in vectors],
            )
            bf_width = butterfly.output_width("X0_re")
        for i, (samples, result) in enumerate(zip(vectors, results)):
            want = fft.dft_oracle([s.to_complex() for s in samples[:n]], n)
            got = result.values[:n]
            t.check(
                got == want,
                lambda: f"select={n} x={samples}: got {got}, want {want}",
            )
            if n == 4:
                # Parseval: sum |X|^2 == 4 * sum |x|^2, exact in integers
                # (avoid abs(), whose square root is not exact).
                energy_in = sum(s.re**2 + s.im**2 for s in samples)
                energy_out = sum(v.real**2 + v.imag**2 for v in result.values)
                t.check(
                    energy_out == 4 * energy_in,
                    lambda: f"Parseval x={samples}: {energy_out} != 4*{energy_in}",
                )
            else:
                upper = result.values[2:]
                t.check(upper == [0j, 0j], lambda: f"upper slots not zero: {upper}")
                standalone = [
                    complex(
                        to_signed(bf[f"X{k}_re"][i], bf_width),
                        to_signed(bf[f"X{k}_im"][i], bf_width),
                    )
                    for k in range(2)
                ]
                t.check(
                    got == standalone,
                    lambda: f"select=2 disagrees with butterfly: {got} vs {standalone}",
                )

    def linearity(pairs):
        sums = [
            [fft.FixedComplex(a.re + b.re, a.im + b.im) for a, b in zip(x, y)]
            for x, y in pairs
        ]
        results = fft.run_fft_batch(exact4, [v for x, y in pairs for v in (x, y)] + sums)
        for i, (x, y) in enumerate(pairs):
            fx = results[2 * i].values
            fy = results[2 * i + 1].values
            fs = results[2 * len(pairs) + i].values
            t.check(
                fs == [a + b for a, b in zip(fx, fy)],
                lambda: f"linearity broken for x={x}, y={y}",
            )

    def time_reversal(vectors):
        flipped = [[x[0], x[3], x[2], x[1]] for x in vectors]
        results = fft.run_fft_batch(exact4, vectors + flipped)
        for i, x in enumerate(vectors):
            fx = results[i].values
            frev = results[len(vectors) + i].values
            t.check(
                frev == [fx[0], fx[3], fx[2], fx[1]],
                lambda: f"time reversal broken for x={x}",
            )

    def quantized(vectors):
        # Error bound: per component, <= N * 2^-F * max|x|.
        bound_scale = 4 * 2.0**-3
        for x, result in zip(vectors, fft.run_fft_batch(quant4, vectors)):
            want = fft.dft_oracle([s.to_complex() for s in x], 4)
            peak = max(max(abs(s.re), abs(s.im)) for s in x)
            bound = bound_scale * peak
            worst = max(
                max(abs(g.real - w.real), abs(g.imag - w.imag))
                for g, w in zip(result.values, want)
            )
            t.check(
                worst <= bound,
                lambda: f"quantized error {worst} exceeds bound {bound} for x={x}",
            )

    # Basis vectors and DC, real and imaginary.
    basis = [[fft.FixedComplex(0, 0)] * 4 for _ in range(9)]
    for k in range(4):
        basis[k][k] = fft.FixedComplex(1, 0)
        basis[4 + k][k] = fft.FixedComplex(0, 1)
    basis[8] = [fft.FixedComplex(1, 0)] * 4

    rng = random.Random(47)
    oracle_cases(exact4, basis + [_rand_vector(rng) for _ in range(_RANDOM_VECTORS)], 4)
    oracle_cases(
        exact2,
        [_rand_vector(rng)[:2] + [fft.FixedComplex(0, 0)] * 2 for _ in range(400)],
        2,
    )
    # Linearity on vectors whose sum stays in range.
    linearity([(_rand_vector(rng, -4, 3), _rand_vector(rng, -4, 3)) for _ in range(200)])
    # Time reversal on real vectors: spectrum comes back in reversed order.
    time_reversal(
        [[fft.FixedComplex(rng.randint(-8, 7), 0) for _ in range(4)] for _ in range(200)]
    )
    quantized([_rand_vector(rng) for _ in range(_RANDOM_VECTORS)])
    return t.result()


_VERIFIERS: dict[str, Callable[[], UnitResult]] = {
    "vedic2x2": _verify_vedic2x2,
    "vedic4x4": lambda: _verify_4x4("vedic4x4"),
    "array4x4": lambda: _verify_4x4("array4x4"),
    "adder": _verify_adder,
    "subtractor": _verify_subtractor,
    "signed4x4": _verify_signed4x4,
    "fft": _verify_fft,
}


def unit_names() -> tuple[str, ...]:
    return tuple(_VERIFIERS)


def verify_unit(unit: str) -> UnitResult:
    """Run one unit's suite. Raises ValueError for an unknown unit name."""
    try:
        runner = _VERIFIERS[unit]
    except KeyError:
        raise ValueError(f"unknown unit {unit!r}; choose from {', '.join(_VERIFIERS)} or all") from None
    return runner()


def verify_all() -> list[UnitResult]:
    """Run every suite in a fixed order."""
    return [runner() for runner in _VERIFIERS.values()]
