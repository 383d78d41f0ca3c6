import cmath
import dataclasses
import enum
import hashlib
import itertools
import math
import random
import tracemalloc

import pytest

from vedicfft import fft
from vedicfft import (
    FftConfig,
    FftResult,
    FixedComplex,
    Netlist,
    NetlistError,
    Twiddle,
    build_butterfly2,
    build_fft4,
    build_reconfigurable_fft,
    build_signed_multiplier4,
    complex_multiply_unit,
    dump_netlist,
    dft_oracle,
    parse_inline_samples,
    parse_netlist,
    parse_samples_document,
    parse_twiddle_spec,
    run_fft,
    run_fft_batch,
)
from vedicfft.fft import _dft_quarter_turns, build_unit, unit_names
from vedicfft.netlist import to_signed


def brute_dft(samples):
    n = len(samples)
    return [
        sum(samples[m] * cmath.exp(-2j * cmath.pi * m * k / n) for m in range(n))
        for k in range(n)
    ]


def signed_outputs(net, **values):
    """One vector of 4-bit two's-complement inputs through ``net``, every
    output read back as two's complement."""
    out = net.evaluate_batch({bus: [v & 15] for bus, v in values.items()})
    return {bus: to_signed(col[0], net.output_width(bus)) for bus, col in out.items()}


def assert_run_fft_rejects(config, bad, message):
    """The sample list ``bad`` is rejected with ``ValueError(message)``, the
    message in full: through ``run_fft``, as a one-lane ``run_fft_batch``
    and as the second of three sample lists; first with the config's
    netlist built afresh, then with its program's kernel generated."""
    fft._reconfigurable_cached.cache_clear()
    good = [(1, -2), FixedComplex(3, 4), [0, 5], (7, -8)][: config.select]
    for generated in (False, True):
        if generated:
            for _ in range(2):  # the first call compiles, the second generates
                run_fft(config, good)
            assert fft._net_for(config)._kernels
        for call in (
            lambda: run_fft(config, bad),
            lambda: run_fft_batch(config, [bad]),
            lambda: run_fft_batch(config, [good, bad, good]),
        ):
            with pytest.raises(ValueError) as info:
                call()
            assert type(info.value) is ValueError
            assert str(info.value) == message


class TestOracle:
    def test_single_point(self):
        assert dft_oracle([complex(3, -2)]) == [complex(3, -2)]

    def test_two_point(self):
        assert dft_oracle([3, 5]) == [8, -2]

    def test_four_point_known(self):
        assert dft_oracle([1, 2, 3, 4]) == [10, -2 + 2j, -2, -2 - 2j]

    def test_matches_brute_force(self):
        rng = random.Random(11)
        for n in (1, 2, 4):
            for _ in range(200):
                x = [complex(rng.randint(-8, 7), rng.randint(-8, 7)) for _ in range(n)]
                got = dft_oracle(x)
                for g, ref in zip(got, brute_dft(x)):
                    assert abs(g - ref) < 1e-9

    @pytest.mark.parametrize("n", [1, 2, 4])
    @pytest.mark.parametrize(
        "draw", [random.Random.randint, random.Random.uniform], ids=["int", "float"]
    )
    def test_columns_match_brute_force(self, n, draw):
        rng = random.Random(13 * n)
        columns = [[draw(rng, -8, 7) for _ in range(50)] for _ in range(2 * n)]
        exact = draw is random.Random.randint
        if exact:
            # Each column packed in one int, lane i the signed 16-bit field
            # at bit 16 * i: ``+`` and ``-`` act on every lane at once.
            packed = _dft_quarter_turns(
                [sum(v << 16 * i for i, v in enumerate(col)) for col in columns], n
            )
            assert len(packed) == 2 * n
            half = sum(1 << (16 * i + 15) for i in range(50))
        for i in range(50):
            out = _dft_quarter_turns([col[i] for col in columns], n)
            assert len(out) == 2 * n
            x = [complex(re[i], im[i]) for re, im in zip(columns[::2], columns[1::2])]
            got = [complex(re, im) for re, im in zip(out[::2], out[1::2])]
            for g, ref in zip(got, brute_dft(x)):
                assert abs(g - ref) < 1e-9
            if exact:  # exact Gaussian integers, lane by lane the packed form
                assert all(type(v) is int for v in out)
                lane = [(((v + half) >> 16 * i) & 0xFFFF) - (1 << 15) for v in packed]
                assert lane == out

    @pytest.mark.parametrize("n", [3, 8])
    def test_other_lengths_in_double_precision(self, n):
        # Against the sum written with cos and sin of each term's angle.
        rng = random.Random(n)
        for _ in range(50):
            x = [complex(rng.randint(-8, 7), rng.randint(-8, 7)) for _ in range(n)]
            got = dft_oracle(x, n)
            assert len(got) == n
            for k, g in enumerate(got):
                angles = [2 * math.pi * m * k / n for m in range(n)]
                ref = sum(v * complex(math.cos(t), -math.sin(t)) for v, t in zip(x, angles))
                assert abs(g - ref) < 1e-9
        dc = dft_oracle([1] * n)
        assert abs(dc[0] - n) < 1e-12 and all(abs(v) < 1e-12 for v in dc[1:])

    def test_rejects_bad_lengths(self):
        with pytest.raises(ValueError, match=r"^dft_oracle needs at least one sample$"):
            dft_oracle([])
        with pytest.raises(ValueError, match=r"^expected 4 samples, got 3$"):
            dft_oracle([1, 2, 3], 4)

    def test_quarter_turn_outputs_are_exact_integers(self):
        got = dft_oracle([complex(1, 1), complex(-2, 3), complex(0, -4), complex(5, 0)])
        for v in got:
            assert v.real == int(v.real) and v.imag == int(v.imag)


class TestFixedComplex:
    def test_range_check(self):
        FixedComplex(-8, 7).check_range(4)
        with pytest.raises(ValueError):
            FixedComplex(9, 0).check_range(4)
        with pytest.raises(ValueError):
            FixedComplex(0, -9).check_range(4)

    def test_to_complex(self):
        assert FixedComplex(-2, 5).to_complex() == complex(-2, 5)

    @pytest.mark.parametrize("bad", [True, 1.0, "1"])
    def test_rejects_non_integer_components(self, bad):
        for pair in ((bad, 0), (0, bad)):
            with pytest.raises(ValueError, match="must be integers"):
                FixedComplex(*pair)

    def test_accepts_int_subclasses(self):
        Level = enum.IntEnum("Level", {"LOW": -2, "HIGH": 3})
        assert FixedComplex(Level.LOW, Level.HIGH).to_complex() == complex(-2, 3)
        assert FixedComplex(1, Level.HIGH).im == 3

    def test_frozen_dataclass(self):
        # Its own ``__init__`` keeps what the dataclass gave: keywords,
        # equality, hashing, repr, frozen fields and ``replace``, which
        # checks the new component too.
        c = FixedComplex(re=-2, im=5)
        assert c == FixedComplex(-2, 5) and hash(c) == hash(FixedComplex(-2, 5))
        assert c != FixedComplex(5, -2)
        assert repr(c) == "FixedComplex(re=-2, im=5)"
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.re = 1
        assert dataclasses.replace(c, im=7) == FixedComplex(-2, 7)
        with pytest.raises(ValueError, match="must be integers, got 1.5"):
            dataclasses.replace(c, re=1.5)


class TestTwiddle:
    def test_exact_values(self):
        assert Twiddle.exact(0, 4).value == 1
        assert Twiddle.exact(1, 4).value == -1j
        assert Twiddle.exact(2, 4).value == -1
        assert Twiddle.exact(3, 4).value == 1j

    def test_exact_restricted_sizes(self):
        with pytest.raises(ValueError):
            Twiddle.exact(1, 3)

    def test_quantized_q3_values(self):
        minus_j = Twiddle.quantized(1, 4, 3)
        assert (minus_j.re_q, minus_j.im_q) == (0, -8)
        unity = Twiddle.quantized(0, 4, 3)
        # +1.0 scales to +8 which does not fit Q1.3; clamps to 7/8.
        assert (unity.re_q, unity.im_q) == (7, 0)
        plus_j = Twiddle.quantized(3, 4, 3)
        assert (plus_j.re_q, plus_j.im_q) == (0, 7)

    def test_quantized_needs_fraction_bits(self):
        with pytest.raises(ValueError):
            Twiddle.quantized(1, 4, 0)

    def test_quantized_needs_a_length(self):
        with pytest.raises(ValueError, match=r"^N must be >= 1, got 0$"):
            Twiddle.quantized(0, 0, 3)

    def test_quantized_eighth_turns(self):
        # N = 8 takes cos and sin: ±0.7071 rounds to ±6/8 in Q1.3, and +1.0
        # clamps to 7/8.
        twiddles = [Twiddle.quantized(k, 8, 3) for k in range(8)]
        assert [(t.re_q, t.im_q) for t in twiddles] == [
            (7, 0), (6, -6), (0, -8), (-6, -6), (-8, 0), (-6, 6), (0, 7), (6, 6)
        ]
        for k, t in enumerate(twiddles):
            assert abs(t.value - cmath.exp(-2j * math.pi * k / 8)) < 1e-12

    def test_spec_parsing(self):
        assert parse_twiddle_spec("exact") == ("exact", None)
        assert parse_twiddle_spec("q2") == ("quantized", 2)
        with pytest.raises(ValueError):
            parse_twiddle_spec("banana")
        with pytest.raises(ValueError):
            parse_twiddle_spec("q")


class TestFftConfig:
    def test_make(self):
        cfg = FftConfig.make(4, "q3", 4)
        assert cfg.twiddle_mode == "quantized"
        assert cfg.fraction_bits == 3
        assert cfg.scale_log2 == -3
        exact = FftConfig.make(2, "exact", 4)
        assert exact.fraction_bits is None
        assert exact.scale_log2 == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            FftConfig.make(3, "exact", 4)
        with pytest.raises(ValueError):
            FftConfig.make(4, "exact", 1)
        spec = "q" + "1" * 5000
        with pytest.raises(ValueError, match=f"twiddle mode '{spec}' has too many digits"):
            FftConfig.make(4, spec, 4)

    @pytest.mark.parametrize(
        "make,message",
        [
            pytest.param(
                lambda: FftConfig(4, "bogus"),
                "twiddle_mode must be exact or quantized, got 'bogus'",
                id="config-mode",
            ),
            pytest.param(
                lambda: FftConfig(4, "quantized"),
                "quantized mode needs fraction_bits >= 1",
                id="config-no-fraction-bits",
            ),
            pytest.param(
                lambda: FftConfig(4, "quantized", 0),
                "quantized mode needs fraction_bits >= 1",
                id="config-zero-fraction-bits",
            ),
            pytest.param(
                lambda: FftConfig(4, "exact", 3),
                "fraction_bits only applies to quantized mode",
                id="config-exact-fraction-bits",
            ),
            pytest.param(
                lambda: parse_twiddle_spec("q0"), "fraction bits must be >= 1", id="spec-q0"
            ),
            pytest.param(
                lambda: parse_twiddle_spec("q3\n"),
                "twiddle mode must be 'exact' or 'q<F>', got 'q3\\n'",
                id="spec-trailing-newline",
            ),
            pytest.param(
                lambda: parse_twiddle_spec("q\u0663"),
                "twiddle mode must be 'exact' or 'q<F>', got 'q\u0663'",
                id="spec-non-ascii-digit",
            ),
            pytest.param(
                lambda: parse_twiddle_spec("q03"),
                "twiddle mode must be 'exact' or 'q<F>', got 'q03'",
                id="spec-leading-zero",
            ),
            pytest.param(
                lambda: Twiddle("exact", 2),
                "exact twiddle must be one of 1, -1, j, -j, got 2",
                id="twiddle-exact-value",
            ),
            pytest.param(
                lambda: Twiddle("quantized", 1, 1, 0, 0),
                "quantized twiddle needs fraction_bits >= 1",
                id="twiddle-fraction-bits",
            ),
            pytest.param(
                lambda: Twiddle("quantized", 1, 8, 0, 3),
                "coefficient 8 not a Q1.3 integer",
                id="twiddle-coefficient-range",
            ),
            pytest.param(
                lambda: Twiddle("bogus", 1),
                "twiddle mode must be exact or quantized, got 'bogus'",
                id="twiddle-mode",
            ),
        ],
    )
    def test_rejection_messages_in_full(self, make, message):
        with pytest.raises(ValueError) as caught:
            make()
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "make,message",
        [
            pytest.param(
                lambda: FftConfig(4, "quantized", True),
                "quantized mode needs fraction_bits >= 1",
                id="config-bool-fraction-bits",
            ),
            pytest.param(
                lambda: FftConfig(4, "quantized", 3.0),
                "quantized mode needs fraction_bits >= 1",
                id="config-float-fraction-bits",
            ),
            pytest.param(
                lambda: FftConfig(input_width=4.0),
                "input_width must be >= 2, got 4.0",
                id="config-float-width",
            ),
            pytest.param(
                lambda: FftConfig(input_width="4"),
                "input_width must be >= 2, got '4'",
                id="config-str-width",
            ),
            pytest.param(
                lambda: FftConfig(input_width=True),
                "input_width must be >= 2, got True",
                id="config-bool-width",
            ),
            pytest.param(
                lambda: FftConfig(select=4.0),
                "select must be 2 or 4, got 4.0",
                id="config-float-select",
            ),
            pytest.param(
                lambda: FftConfig(select="4"),
                "select must be 2 or 4, got '4'",
                id="config-str-select",
            ),
            pytest.param(
                lambda: Twiddle("quantized", 1, 1, 0, True),
                "quantized twiddle needs fraction_bits >= 1",
                id="twiddle-bool-fraction-bits",
            ),
            pytest.param(
                lambda: Twiddle("quantized", 1, True, 0, 3),
                "coefficient True not a Q1.3 integer",
                id="twiddle-bool-coefficient",
            ),
            pytest.param(
                lambda: Twiddle.quantized(1, 4, 3.0),
                "quantized twiddle needs fraction_bits >= 1",
                id="twiddle-quantized-float-fraction-bits",
            ),
        ],
    )
    def test_field_types_checked(self, make, message):
        # A bool or non-int count is rejected where it is made: F = True
        # would otherwise share F = 1's cached datapath under another name,
        # and a float width or select would reach the netlist or to_json.
        with pytest.raises(ValueError) as caught:
            make()
        assert type(caught.value) is ValueError
        assert str(caught.value) == message

    def test_unbuildable_configs_fail_at_run(self):
        # Coefficients wider than the multiplier core are caught when the
        # datapath is assembled, not when the config object is created.
        with pytest.raises(NetlistError):
            run_fft(FftConfig.make(4, "q9", 4), [(0, 0)] * 4)
        with pytest.raises(NetlistError):
            run_fft(FftConfig.make(4, "q3", 5), [(0, 0)] * 4)


class TestButterfly2:
    def test_known_pair(self, butterfly2):
        out = signed_outputs(butterfly2, x0_re=3, x0_im=0, x1_re=5, x1_im=0)
        assert (out["X0_re"], out["X0_im"]) == (8, 0)
        assert (out["X1_re"], out["X1_im"]) == (-2, 0)

    def test_output_width_grows_one_bit(self, butterfly2):
        assert butterfly2.output_width("X0_re") == 5
        assert butterfly2.output_width("X1_im") == 5

    def test_random_against_oracle(self, butterfly2):
        rng = random.Random(21)
        for _ in range(500):
            x = [complex(rng.randint(-8, 7), rng.randint(-8, 7)) for _ in range(2)]
            out = signed_outputs(
                butterfly2,
                x0_re=int(x[0].real),
                x0_im=int(x[0].imag),
                x1_re=int(x[1].real),
                x1_im=int(x[1].imag),
            )
            ref = dft_oracle(x)
            assert complex(out["X0_re"], out["X0_im"]) == ref[0]
            assert complex(out["X1_re"], out["X1_im"]) == ref[1]


# Every 4-bit complex sample, as an x_re and an x_im column.
ALL_RE, ALL_IM = zip(*[(re, im) for re in range(-8, 8) for im in range(-8, 8)])


def all_products(unit):
    """The complex product a multiplier unit computes for every sample."""
    out = unit.evaluate_batch(
        {"x_re": [v & 15 for v in ALL_RE], "x_im": [v & 15 for v in ALL_IM]}
    )
    re_w, im_w = unit.output_width("p_re"), unit.output_width("p_im")
    return [
        complex(to_signed(re, re_w), to_signed(im, im_w))
        for re, im in zip(out["p_re"], out["p_im"])
    ]


class TestComplexMultiplier:
    def test_exact_rotation(self):
        unit = complex_multiply_unit(4, Twiddle.exact(3, 4))
        out = signed_outputs(unit, x_re=4, x_im=-3)
        # (4 - 3j) * j == 3 + 4j
        assert out == {"p_re": 3, "p_im": 4}
        # Every W^k, W^2 = -1 included, on every sample.
        for k in range(4):
            unit = complex_multiply_unit(4, Twiddle.exact(k, 4))
            want = [complex(re, im) * (-1j) ** k for re, im in zip(ALL_RE, ALL_IM)]
            assert all_products(unit) == want

    def test_exact_rotation_needs_no_multiplier(self):
        # Rotating by 1 is pure wiring; by +-j only a sign flip.
        assert complex_multiply_unit(4, Twiddle.exact(0, 4)).gate_counts().total == 0
        flip = complex_multiply_unit(4, Twiddle.exact(3, 4)).gate_counts().total
        full = complex_multiply_unit(4, Twiddle.quantized(3, 4, 3)).gate_counts().total
        assert flip < full

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_quantized_matches_integer_model(self, k):
        # The gates apply exactly the coefficient Twiddle.effective reports.
        for f in (1, 2, 3):
            tw = Twiddle.quantized(k, 4, f)
            coeff = complex(tw.re_q, tw.im_q)
            assert coeff == tw.effective * (1 << f)
            want = [complex(re, im) * coeff for re, im in zip(ALL_RE, ALL_IM)]
            assert all_products(complex_multiply_unit(4, tw)) == want

    def test_saturation_flag(self):
        # Nothing saturates, so the unit has no sat bus: the -8 coefficient
        # of -j and a -8 sample both enter the core exactly.
        unit = complex_multiply_unit(4, Twiddle.quantized(1, 4, 3))
        assert set(unit.outputs) == {"p_re", "p_im"}
        assert signed_outputs(unit, x_re=-8, x_im=0) == {"p_re": 0, "p_im": 64}

    def test_rejects_bad_shapes(self):
        with pytest.raises(NetlistError):
            complex_multiply_unit(5, Twiddle.quantized(1, 4, 3))
        with pytest.raises(NetlistError):
            complex_multiply_unit(4, Twiddle.quantized(1, 4, 9))
        zero = Twiddle(
            mode="quantized", value=0j, re_q=0, im_q=0, fraction_bits=3
        )
        with pytest.raises(NetlistError):
            complex_multiply_unit(4, zero)


def spectrum_of(result):
    return [(s.re, s.im) for s in result.spectrum]


class TestFft4Exact:
    def test_known_vector(self):
        res = run_fft(FftConfig.make(4, "exact", 4), [(1, 0), (2, 0), (3, 0), (4, 0)])
        assert spectrum_of(res) == [(10, 0), (-2, 2), (-2, 0), (-2, -2)]
        assert res.output_width == 6
        assert res.scale_log2 == 0
        assert res.values == [10, -2 + 2j, -2, -2 - 2j]

    def test_random_against_oracle(self):
        cfg = FftConfig.make(4, "exact", 4)
        rng = random.Random(31)
        for _ in range(400):
            samples = [(rng.randint(-8, 7), rng.randint(-8, 7)) for _ in range(4)]
            res = run_fft(cfg, samples)
            ref = dft_oracle([complex(r, i) for r, i in samples])
            assert res.values == ref


class TestFft4Quantized:
    def test_known_vector(self):
        res = run_fft(FftConfig.make(4, "q3", 4), [(1, 0), (2, 0), (3, 0), (4, 0)])
        # The true spectrum scaled by 8: Q1.3 holds the twiddle -j exactly.
        assert spectrum_of(res) == [(80, 0), (-16, 16), (-16, 0), (-16, -16)]
        assert res.output_width == 11
        assert res.scale_log2 == -3

    def test_dc_vector_is_exact(self):
        res = run_fft(FftConfig.make(4, "q3", 4), [(4, 0)] * 4)
        assert spectrum_of(res) == [(128, 0), (0, 0), (0, 0), (0, 0)]
        assert res.values == [16, 0, 0, 0]

    def test_error_bound_random(self):
        # The error bound is 0: Q1.3 holds -j exactly and nothing rounds.
        cfg = FftConfig.make(4, "q3", 4)
        rng = random.Random(41)
        for _ in range(300):
            samples = [(rng.randint(-8, 7), rng.randint(-8, 7)) for _ in range(4)]
            res = run_fft(cfg, samples)
            assert res.values == dft_oracle([complex(r, i) for r, i in samples])


class TestReconfigurable:
    def test_select4_matches_dedicated_fft(self):
        cfg = FftConfig.make(4, "exact", 4)
        rng = random.Random(51)
        for _ in range(200):
            samples = [(rng.randint(-8, 7), rng.randint(-8, 7)) for _ in range(4)]
            res = run_fft(cfg, samples)
            ref = dft_oracle([complex(r, i) for r, i in samples])
            assert res.values == ref
            assert res.select == 4

    def test_select2_zero_forces_upper_bins(self):
        cfg = FftConfig.make(2, "exact", 4)
        res = run_fft(cfg, [(3, 0), (5, 0), (7, 0), (7, 0)])
        # x2/x3 are ignored by the two-point path.
        assert spectrum_of(res) == [(8, 0), (-2, 0), (0, 0), (0, 0)]
        assert res.select == 2

    def test_select2_accepts_two_samples(self):
        res = run_fft(FftConfig.make(2, "exact", 4), [(3, 0), (5, 0)])
        assert spectrum_of(res) == [(8, 0), (-2, 0), (0, 0), (0, 0)]

    def test_select2_quantized_keeps_uniform_scale(self):
        res = run_fft(FftConfig.make(2, "q3", 4), [(3, 0), (5, 0)])
        assert spectrum_of(res) == [(64, 0), (-16, 0), (0, 0), (0, 0)]
        assert res.values == [8, -2, 0, 0]
        assert res.output_width == 11

    @pytest.mark.parametrize("select", [4, 2])
    @pytest.mark.parametrize("width", [2, 3, 5, 8])
    def test_exact_mode_at_other_widths(self, width, select):
        # Exact mode has no multiplier core, so its datapath builds at any
        # input width. Every combination of the two extreme components in
        # all 8 slots, then 48 seeded vectors: the batch gives the DFT (of
        # x0 and x1 at select 2, with X2 = X3 = 0 whatever x2 and x3 are)
        # at output width w + 2, and one-lane run_fft gives the batch.
        config = FftConfig.make(select, "exact", width)
        lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
        rows = [list(row) for row in itertools.product((lo, hi), repeat=8)]
        rng = random.Random(f"exact-w{width}-s{select}")
        rows += [[rng.randint(lo, hi) for _ in range(8)] for _ in range(48)]
        sample_lists = [list(zip(row[::2], row[1::2])) for row in rows]
        results = run_fft_batch(config, sample_lists)
        assert len(results) == 304
        for samples, result in zip(sample_lists, results):
            want = dft_oracle([complex(*s) for s in samples[:select]])
            want += [0j] * (4 - select)
            assert [x.to_complex() for x in result.spectrum] == want, samples
            assert result.output_width == width + 2
            assert run_fft(config, samples) == result, samples

    def test_uniform_output_width(self, recon_exact, recon_q3):
        for bus in ("X0_re", "X1_im", "X2_re", "X3_im"):
            assert recon_exact.output_width(bus) == 6
            assert recon_q3.output_width(bus) == 11

    def test_sample_count_validation(self):
        for select, count in ((4, 2), (4, 5), (4, 0), (4, 3), (2, 1), (2, 3)):
            assert_run_fft_rejects(
                FftConfig.make(select, "exact", 4),
                [(1, 0)] * count,
                f"expected 4 samples (or 2 with select=2), got {count}",
            )
        # Every sample of a list is checked before its count, and its count
        # before the range of any component.
        cfg4 = FftConfig.make(4, "q3", 4)
        assert_run_fft_rejects(
            cfg4, [(0, 0), (1, 2, 3)], "sample must be a (re, im) pair, got (1, 2, 3)"
        )
        assert_run_fft_rejects(cfg4, [(1.5, 0)] * 3, "components must be integers, got 1.5")
        assert_run_fft_rejects(
            cfg4, [(9, 0)] * 3, "expected 4 samples (or 2 with select=2), got 3"
        )

    def test_sample_range_validation(self):
        # The first component outside the width in vector order, re before
        # im: the message names its value.
        cases = [
            ("exact", [(9, 0), (0, 0), (0, 0), (0, 0)], 9),
            ("exact", [(0, 0), (0, 9), (-9, 0), (0, 0)], 9),
            ("q3", [(0, -10), (12, 0), (0, 0), (0, 0)], -10),
            ("q3", [(0, 0), (0, 0), (0, 0), (10, 11)], 10),
            ("exact", [(0, 0), FixedComplex(-9, 0), [8, 0], (0, 0)], -9),
            ("exact", [(0, 0), (0, 9)], 9),
            ("q3", [(0, -10), (12, 0)], -10),
        ]
        for twiddle, bad, value in cases:
            assert_run_fft_rejects(
                FftConfig.make(len(bad), twiddle, 4),
                bad,
                f"component {value} outside [-8, 7] for width 4",
            )
        assert_run_fft_rejects(
            FftConfig.make(4, "exact", 5),
            [(0, 0), (0, 16), (0, -17), (0, 0)],
            "component 16 outside [-16, 15] for width 5",
        )
        # A component that is not an int is reported before any range.
        assert_run_fft_rejects(
            FftConfig.make(4, "exact", 4),
            [(9, 0), (0, 1.5), (0, 0), (0, 0)],
            "components must be integers, got 1.5",
        )

    @pytest.mark.parametrize("bad", [1.9, "3", True, None])
    def test_rejects_non_integer_components(self, bad):
        # As FixedComplex does: no silent int() truncation or parsing.
        cfg = FftConfig.make(4, "exact", 4)
        for sample in ((bad, 0), (0, bad), (bad, 1.5)):
            samples = [sample, (0, 0), (0, 0), (0, 0)]
            assert_run_fft_rejects(cfg, samples, f"components must be integers, got {bad!r}")

    @pytest.mark.parametrize(
        "sample",
        [(1, 2, 3), [1], (), 5, None, "123", {1: 2, 3: 4}, {1, 2}, {"re": 1, "im": 2}],
        ids=repr,
    )
    def test_rejects_non_pair_samples(self, sample):
        # Only a FixedComplex or a sequence of two components is a sample;
        # a dict or set is not read in iteration order.
        for select in (4, 2):
            samples = [(0, 0), sample, (0, 0), (0, 0)][:select]
            assert_run_fft_rejects(
                FftConfig.make(select, "q3", 4),
                samples,
                f"sample must be a (re, im) pair, got {sample!r}",
            )

    def test_rejects_iterators_and_strings_as_samples(self):
        cfg = FftConfig.make(4, "exact", 4)
        with pytest.raises(ValueError, match=r"^sample must be a \(re, im\) pair, got <generator"):
            run_fft(cfg, [(0, 0), (v for v in (1, 2)), (0, 0), (0, 0)])
        # A two-character string is a sequence of two non-int components.
        assert_run_fft_rejects(
            cfg, [(0, 0), "12", (0, 0), (0, 0)], "components must be integers, got '1'"
        )

    @pytest.mark.parametrize(
        "config", [None, "exact", 4, FftConfig.make], ids=["None", "str", "int", "method"]
    )
    def test_rejects_a_config_that_is_not_fft_config(self, config):
        # Before any sample is read, and for an empty batch too.
        message = f"expected FftConfig, got {type(config).__name__}"
        for call in (
            lambda: run_fft(config, [(0, 0)] * 4),
            lambda: run_fft(config, [(9, 0), {1: 2}]),
            lambda: run_fft_batch(config, []),
            lambda: run_fft_batch(config, [[(0, 0)] * 4] * 2),
        ):
            with pytest.raises(NetlistError) as info:
                call()
            assert str(info.value) == message
        assert run_fft_batch(FftConfig(), []) == []

    def test_accepts_int_subclass_components(self):
        Level = enum.IntEnum("Level", {"LOW": -2, "HIGH": 3, "MAX": 7})
        for config in (FftConfig.make(4, "exact", 4), FftConfig.make(2, "q3", 4)):
            got = run_fft(config, [(Level.LOW, Level.HIGH), (1, Level.MAX)] * (config.select // 2))
            want = run_fft(config, [(-2, 3), (1, 7)] * (config.select // 2))
            assert got == want
            assert all(type(v) is int for c in got.spectrum for v in (c.re, c.im))

    def test_accepts_fixed_complex_objects(self):
        cfg = FftConfig.make(4, "exact", 4)
        res = run_fft(cfg, [FixedComplex(1, 0)] * 4)
        assert res.values[0] == 4


# The four configurations one fft_stream frame runs: each twiddle mode at
# each select value, all at width 4.
ONE_LANE_CONFIGS = [
    FftConfig.make(select, twiddle, 4) for twiddle in ("exact", "q3") for select in (4, 2)
]

GOOD_SAMPLES = [(1, -2), (3, 4), (-8, 7), (0, 5)]


def with_component(position, value):
    """``GOOD_SAMPLES`` with component ``position`` (x0_re, x0_im, ..,
    x3_im) set to ``value``."""
    row = [part for sample in GOOD_SAMPLES for part in sample]
    row[position] = value
    return list(zip(row[::2], row[1::2]))


# Every way ``run_fft`` rejects a list of 4 samples (or 3), with its full
# message, pinned: each sample is checked in turn (its kind, its length,
# its components), then the count, then the range of every component in
# vector order. Each raises ValueError at every configuration.
RUN_FFT_REJECTIONS = [
    ("float re", [(0, 0), (1.5, 0), (0, 0), (0, 0)], "components must be integers, got 1.5"),
    ("float im", [(0, 0), (0, 0), (0, -2.5), (0, 0)], "components must be integers, got -2.5"),
    ("bool re", [(True, 0), (0, 0), (0, 0), (0, 0)], "components must be integers, got True"),
    ("bool im", [(0, 0), (0, 0), (0, 0), (3, False)], "components must be integers, got False"),
    (
        "dict",
        [(0, 0), {1: 2, 3: 4}, (0, 0), (0, 0)],
        "sample must be a (re, im) pair, got {1: 2, 3: 4}",
    ),
    ("set", [(0, 0), (0, 0), {1, 2}, (0, 0)], "sample must be a (re, im) pair, got {1, 2}"),
    (
        "3-tuple",
        [(1, 2, 3), (0, 0), (0, 0), (0, 0)],
        "sample must be a (re, im) pair, got (1, 2, 3)",
    ),
    ("1-list", [(0, 0), [1], (0, 0), (0, 0)], "sample must be a (re, im) pair, got [1]"),
    ("3 samples", GOOD_SAMPLES[:3], "expected 4 samples (or 2 with select=2), got 3"),
    ("5 samples", GOOD_SAMPLES + [(0, 0)], "expected 4 samples (or 2 with select=2), got 5"),
    (
        "FixedComplex out of range",
        [FixedComplex(1, 2), FixedComplex(-9, 0), (0, 0), (0, 0)],
        "component -9 outside [-8, 7] for width 4",
    ),
    *(
        (
            f"component {position} = {value}",
            with_component(position, value),
            f"component {value} outside [-8, 7] for width 4",
        )
        for position in range(8)
        for value in (8, -9)
    ),
    # Precedence: a component that is not an int before any range, and in
    # sample order against a sample that is not a pair; the count after
    # every sample and before any range.
    (
        "float after range",
        [(9, 0), (0, 1.5), (0, 0), (0, 0)],
        "components must be integers, got 1.5",
    ),
    (
        "float before dict",
        [(1.5, 0), {1: 2}, (0, 0), (0, 0)],
        "components must be integers, got 1.5",
    ),
    (
        "dict before float",
        [{1: 2}, (1.5, 0), (0, 0), (0, 0)],
        "sample must be a (re, im) pair, got {1: 2}",
    ),
    (
        "3-tuple before bool",
        [(0, 0), (1, 2, 3), (True, 0)],
        "sample must be a (re, im) pair, got (1, 2, 3)",
    ),
    ("bool before count", [(True, 0)] * 3, "components must be integers, got True"),
    ("count before range", [(9, 0)] * 3, "expected 4 samples (or 2 with select=2), got 3"),
    (
        "first range in vector order",
        [(0, 0), (0, 9), (-9, 0), (0, 0)],
        "component 9 outside [-8, 7] for width 4",
    ),
]


def config_id(config):
    return f"{config.twiddle_mode}-{config.select}"


class TestRunFftRejections:
    @pytest.mark.parametrize("config", ONE_LANE_CONFIGS, ids=config_id)
    def test_pinned_messages_in_order(self, config):
        # A config that is not an FftConfig before any sample is read.
        with pytest.raises(NetlistError) as info:
            run_fft(dataclasses.asdict(config), [(9, 0), {1: 2}])
        assert str(info.value) == "expected FftConfig, got dict"
        for case, samples, message in RUN_FFT_REJECTIONS:
            with pytest.raises(ValueError) as info:
                run_fft(config, samples)
            assert type(info.value) is ValueError, case
            assert str(info.value) == message, case
        two = GOOD_SAMPLES[:2]
        if config.select == 4:
            with pytest.raises(ValueError) as info:
                run_fft(config, two)
            assert str(info.value) == "expected 4 samples (or 2 with select=2), got 2"
        else:
            assert run_fft(config, two) == run_fft(config, two + [(0, 0), (0, 0)])
        # An int subclass other than bool, a FixedComplex and a list are
        # read as the plain int pair.
        Level = enum.IntEnum("Level", {"LOW": -8, "HIGH": 7})
        got = run_fft(config, [FixedComplex(1, -2), [3, 4], (Level.LOW, Level.HIGH), (0, 5)])
        assert got == run_fft(config, GOOD_SAMPLES)

    def test_config_whose_build_raises(self):
        # Width 5 does not fit the 4x4 multiplier core. Every call builds
        # afresh and raises again, so no failed build is held; the samples
        # are checked before the build, the range at width 5.
        config = FftConfig(4, "quantized", 3, 5)
        for _ in range(2):
            with pytest.raises(NetlistError) as info:
                run_fft(config, GOOD_SAMPLES)
            assert str(info.value) == "complex multiplier is pinned to the 4x4 core, got width 5"
        for samples, message in (
            ([(0, 0), (1.5, 0), (0, 0), (0, 0)], "components must be integers, got 1.5"),
            ([(0, 0), (0, 16), (0, 0), (0, 0)], "component 16 outside [-16, 15] for width 5"),
            (GOOD_SAMPLES[:3], "expected 4 samples (or 2 with select=2), got 3"),
        ):
            with pytest.raises(ValueError) as info:
                run_fft(config, samples)
            assert type(info.value) is ValueError
            assert str(info.value) == message


class TestFftResult:
    def test_frozen_dataclass(self):
        # Its own ``__init__`` keeps what the dataclass gave: keywords,
        # equality, hashing, repr, frozen fields and ``replace``.
        spectrum = tuple(FixedComplex(*c) for c in ((8, 0), (-2, 0), (0, 0), (0, 0)))
        r = FftResult(spectrum=spectrum, output_width=6, scale_log2=0, select=2)
        assert r == FftResult(spectrum, 6, 0, 2) and hash(r) == hash(FftResult(spectrum, 6, 0, 2))
        assert r != FftResult(spectrum, 6, 0, 4)
        assert r == run_fft(FftConfig.make(2, "exact", 4), [(3, 0), (5, 0)])
        assert repr(r) == (
            "FftResult(spectrum=(FixedComplex(re=8, im=0), FixedComplex(re=-2, im=0), "
            "FixedComplex(re=0, im=0), FixedComplex(re=0, im=0)), output_width=6, "
            "scale_log2=0, select=2)"
        )
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.select = 4
        assert dataclasses.replace(r, select=4) == FftResult(spectrum, 6, 0, 4)
        assert [f.name for f in dataclasses.fields(r)] == [
            "spectrum",
            "output_width",
            "scale_log2",
            "select",
        ]
        with pytest.raises(TypeError):
            FftResult(spectrum, 6, 0)


# The four builds of the reconfigurable datapath: each twiddle mode with
# each multiplier core.
SHARED_CORE_VARIANTS = [
    pytest.param(config, multiplier, id=f"{mode}-{multiplier}")
    for mode, config in (("exact", FftConfig()), ("q3", FftConfig(4, "quantized", 3)))
    for multiplier in ("vedic", "array")
]


class TestSharedCore:
    """Both modes of the reconfigurable datapath against the standalone
    units: select 0 is the 2-point butterfly, select 1 the 4-point
    transform, on one shared core."""

    @pytest.mark.parametrize("config, multiplier", SHARED_CORE_VARIANTS)
    def test_select0_is_the_butterfly_on_every_pair(self, config, multiplier):
        # Every (x0, x1), with x2 and x3 drawn at random: the butterfly's
        # outputs, shifted left by F and sign-extended, and zero upper bins.
        net = build_reconfigurable_fft(config, multiplier)
        n = 1 << 16
        pairs = {
            bus: [(i >> 4 * k) & 15 for i in range(n)]
            for k, bus in enumerate(("x0_re", "x0_im", "x1_re", "x1_im"))
        }
        rng = random.Random(f"{config}-{multiplier}")
        idle = {
            bus: [rng.randrange(16) for _ in range(n)]
            for bus in ("x2_re", "x2_im", "x3_re", "x3_im")
        }
        got = net.evaluate_batch({"select": 0, **pairs, **idle})
        f = config.fraction_bits or 0
        mask = (1 << net.output_width("X0_re")) - 1
        for bus, col in build_butterfly2(4).evaluate_batch(pairs).items():
            assert got[bus] == [(to_signed(v, 5) << f) & mask for v in col], bus
        for bus in ("X2_re", "X2_im", "X3_re", "X3_im"):
            assert got[bus] == [0] * n, bus

    @pytest.mark.parametrize("config, multiplier", SHARED_CORE_VARIANTS)
    def test_select1_is_the_4_point_unit(self, config, multiplier):
        net = build_reconfigurable_fft(config, multiplier)
        rng = random.Random(f"{config}-{multiplier}")
        columns = {bus: [rng.randrange(16) for _ in range(2000)] for bus in fft._SAMPLE_BUSES}
        want = build_fft4(config, multiplier).evaluate_batch(columns)
        assert net.evaluate_batch({"select": 1, **columns}) == want


class TestResultDocuments:
    def test_document_round_trip(self):
        res = run_fft(FftConfig.make(4, "q3", 4), [(1, 0), (2, 0), (3, 0), (4, 0)])
        doc = res.to_document()
        assert doc == {
            "spectrum": [[80, 0], [-16, 16], [-16, 0], [-16, -16]],
            "output_width": 11,
            "scale_log2": -3,
            "select": 4,
        }
        assert res.to_json().endswith("\n")

    def test_sample_document_parsing(self):
        samples, width = parse_samples_document(
            '{"samples": [[1, 0], [2, 0], [3, 0], [4, 0]], "width": 4}'
        )
        assert [s.re for s in samples] == [1, 2, 3, 4]
        assert width == 4
        _, default_width = parse_samples_document('{"samples": [[1, 0]]}')
        assert default_width == 4

    @pytest.mark.parametrize(
        "text",
        [
            "not json",
            "[1, 2]",
            '{"samples": 3}',
            '{"samples": [[1]]}',
            '{"samples": [[1.5, 0]]}',
            '{"samples": [[1, 0]], "width": "x"}',
        ],
    )
    def test_sample_document_rejection(self, text):
        with pytest.raises(ValueError):
            parse_samples_document(text)

    def test_inline_parsing(self):
        pairs = parse_inline_samples("1,0;-2,3")
        assert [(p.re, p.im) for p in pairs] == [(1, 0), (-2, 3)]
        with pytest.raises(ValueError):
            parse_inline_samples("1,2;3")
        with pytest.raises(ValueError):
            parse_inline_samples("")


class TestUnitCatalog:
    def test_catalog_order(self):
        assert unit_names() == [
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
        ]

    def test_catalog_names_build(self):
        for name in unit_names():
            assert build_unit(name).name == name

    def test_sized_units(self):
        assert build_unit("adder8").input_width("a") == 8
        assert build_unit("subtractor16").output_width("diff") == 16

    def test_sized_variants(self):
        for name in ("adder1", "subtractor16", "fft4_q2", "reconfigurable_q1"):
            assert build_unit(name).name == name
        assert build_unit("reconfigurable_q3").name == "reconfigurable_q3"

    def test_unknown_unit(self):
        for name in ("zzz", "nope", "adder0", "fft4_q0", "reconfigurable_q0"):
            with pytest.raises(NetlistError, match="known units: vedic2x2, "):
                build_unit(name)
        # Leading zeros, or a trailing newline, would name a unit whose
        # netlist has another name.
        for name in ("adder04", "fft4_q03", "adder4\n", "fft4_q3\n"):
            with pytest.raises(NetlistError, match="known units"):
                build_unit(name)

    def test_rejected_size_raises_the_builder_error(self):
        with pytest.raises(NetlistError, match="Q1.9 coefficient does not fit"):
            build_unit("fft4_q9")
        with pytest.raises(NetlistError, match="4096-bit limit"):
            build_unit("subtractor4097")
        # More digits than int() converts by default (4300).
        for name in ("adder" + "1" * 5000, "fft4_q" + "1" * 5000):
            with pytest.raises(NetlistError, match=f"unit '{name}' has too many digits"):
                build_unit(name)
        # As many digits as int() converts: rejected before 1 << F is taken.
        with pytest.raises(NetlistError, match="coefficient does not fit the 4-bit core"):
            build_unit("fft4_q" + "1" * 4300)
        # More digits than str() converts: the message does not spell F out,
        # and the check runs before F is put in the netlist name.
        for build in (build_fft4, build_reconfigurable_fft):
            with pytest.raises(
                NetlistError, match="Q1.F coefficient does not fit the 4-bit core"
            ):
                build(FftConfig(4, "quantized", 10**5000))

    def test_oversized_fraction_bits_rejected_before_allocation(self):
        tracemalloc.start()
        try:
            with pytest.raises(NetlistError, match="Q1.10000000 coefficient does not fit"):
                build_fft4(FftConfig(4, "quantized", 10**7))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


Q3 = FftConfig(4, "quantized", 3)
ZERO_Q3 = Twiddle(mode="quantized", value=0j, re_q=0, im_q=0, fraction_bits=3)
ZERO_Q9 = Twiddle(mode="quantized", value=0j, re_q=0, im_q=0, fraction_bits=9)
PINNED = "complex multiplier is pinned to the 4x4 core, got width 5"
BOGUS = "unknown multiplier impl 'bogus'"


class TestCompositeBuilders:
    """Every composite unit is one builder fed by the emitters of its
    blocks: the dump bytes, the rejections and the one validation each."""

    # SHA-256 of the dump of each composite that test_golden_stdout does not
    # dump, as built when every block was a netlist of its own.
    @pytest.mark.parametrize(
        "build,digest",
        [
            pytest.param(
                lambda: build_signed_multiplier4("vedic"),
                "713fe3b95d760b2a4bca9c302dce1e35bf6015c96e66e558a62a18ca861298af",
                id="signed_vedic",
            ),
            pytest.param(
                lambda: build_signed_multiplier4("array"),
                "824da20626262cc1dbac6b9f85c6aa69eb24bbd18781648e39dfe3a53af79fcc",
                id="signed_array",
            ),
            pytest.param(
                lambda: complex_multiply_unit(4, Twiddle.quantized(1, 4, 3)),
                "cf157839c75054559c23c51cfc73c99bf996d81461346fe5aac23d385d91471c",
                id="cmul_q3_vedic",
            ),
            pytest.param(
                lambda: complex_multiply_unit(4, Twiddle.quantized(1, 4, 3), "array"),
                "db3e07279dda5d37c5d1325268b911828c576acee7a2bcc07ec1a7db2891b217",
                id="cmul_q3_array",
            ),
            pytest.param(
                lambda: complex_multiply_unit(4, Twiddle.exact(1, 4)),
                "9ecb6ca37eba2df78532d416f5e44e17b9486fb4b881434ebc4693826e388481",
                id="cmul_exact_minus_j",
            ),
            pytest.param(
                lambda: build_fft4(Q3, "array"),
                "216bb4364c3f58d4b6f1c31f3c5f24b286d49dac75a50108a4b5a61b0214c82c",
                id="fft4_q3_array",
            ),
            pytest.param(
                lambda: build_reconfigurable_fft(Q3, "array"),
                "8a5eb7f77dba7d3b1d5ebcd58de2c27fe0ee6a36bc02321a6aacb29f71c0a834",
                id="reconfigurable_q3_array",
            ),
        ],
    )
    def test_dump_bytes_pinned(self, build, digest):
        text = dump_netlist(build())
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("config", [FftConfig(), Q3], ids=["exact", "q3"])
    @pytest.mark.parametrize("build", [build_fft4, build_reconfigurable_fft])
    def test_array_build_is_named_apart_from_the_vedic_unit(self, build, config):
        vedic = build(config, "vedic").name
        assert build(config, "array").name == vedic + "_array"
        assert build_unit(vedic).name == vedic

    @pytest.mark.parametrize(
        "build,message",
        [
            pytest.param(
                lambda: complex_multiply_unit(5, Twiddle.quantized(1, 4, 9), "bogus"),
                PINNED,
                id="cmul-width-first",
            ),
            pytest.param(
                lambda: complex_multiply_unit(5, Twiddle.exact(1, 4)),
                PINNED,
                id="cmul-width-exact",
            ),
            pytest.param(
                lambda: complex_multiply_unit(4, ZERO_Q9, "bogus"),
                "Q1.9 coefficient does not fit the 4-bit core",
                id="cmul-fits-core-before-zero",
            ),
            pytest.param(
                lambda: complex_multiply_unit(4, ZERO_Q3, "bogus"),
                "quantized twiddle rounds to zero, product would vanish",
                id="cmul-zero-before-impl",
            ),
            pytest.param(
                lambda: complex_multiply_unit(4, Twiddle.quantized(1, 4, 3), "bogus"),
                BOGUS,
                id="cmul-impl",
            ),
            pytest.param(
                lambda: build_signed_multiplier4("bogus"), BOGUS, id="signed-impl"
            ),
            pytest.param(
                lambda: build_butterfly2(1), "width must be >= 2, got 1", id="butterfly"
            ),
            pytest.param(
                lambda: build_fft4("q3", "bogus"),
                "expected FftConfig, got str",
                id="fft4-config-first",
            ),
            pytest.param(
                lambda: build_fft4(FftConfig(4, "quantized", 4, 5), "bogus"),
                "Q1.4 coefficient does not fit the 4-bit core",
                id="fft4-fits-core-before-width",
            ),
            pytest.param(
                lambda: build_fft4(FftConfig(4, "quantized", 3, 5), "bogus"),
                PINNED,
                id="fft4-width-before-impl",
            ),
            pytest.param(lambda: build_fft4(Q3, "bogus"), BOGUS, id="fft4-impl"),
            pytest.param(
                lambda: build_reconfigurable_fft("q3", "bogus"),
                "expected FftConfig, got str",
                id="reconfigurable-config-first",
            ),
            pytest.param(
                lambda: build_reconfigurable_fft(FftConfig(4, "quantized", 4, 5), "bogus"),
                "Q1.4 coefficient does not fit the 4-bit core",
                id="reconfigurable-fits-core-before-width",
            ),
            pytest.param(
                lambda: build_reconfigurable_fft(FftConfig(4, "quantized", 3, 5), "bogus"),
                PINNED,
                id="reconfigurable-width-before-impl",
            ),
            pytest.param(
                lambda: build_reconfigurable_fft(Q3, "bogus"),
                BOGUS,
                id="reconfigurable-impl",
            ),
        ],
    )
    def test_rejection_message_and_precedence(self, build, message):
        with pytest.raises(NetlistError) as excinfo:
            build()
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda: build_fft4(FftConfig(), "bogus"), id="fft4"),
            pytest.param(
                lambda: build_fft4(FftConfig(input_width=5), "bogus"), id="fft4-width5"
            ),
            pytest.param(
                lambda: build_reconfigurable_fft(FftConfig(), "bogus"),
                id="reconfigurable",
            ),
            pytest.param(
                lambda: complex_multiply_unit(4, Twiddle.exact(1, 4), "bogus"),
                id="cmul",
            ),
        ],
    )
    def test_unknown_multiplier_rejected_in_exact_mode(self, build):
        with pytest.raises(NetlistError) as excinfo:
            build()
        assert str(excinfo.value) == BOGUS

    @pytest.mark.parametrize("name", unit_names())
    def test_unit_is_one_netlist(self, monkeypatch, name):
        # A unit is built as one Netlist, which trusts its builder and is
        # not validated; its dump is dump-ordered text, which the parser
        # trusts too.
        made, validated = [], []
        init, trusted = Netlist.__init__, Netlist._trusted.__func__
        validate = Netlist._validate

        def counting_init(self, net_name, *args):
            made.append(net_name)
            init(self, net_name, *args)

        def counting_trusted(cls, net_name, *args):
            made.append(net_name)
            return trusted(cls, net_name, *args)

        def counting_validate(self):
            validated.append(self.name)
            return validate(self)

        monkeypatch.setattr(Netlist, "__init__", counting_init)
        monkeypatch.setattr(Netlist, "_trusted", classmethod(counting_trusted))
        monkeypatch.setattr(Netlist, "_validate", counting_validate)
        text = dump_netlist(build_unit(name))
        assert (made, validated) == ([name], [])
        parse_netlist(text)
        assert (made, validated) == ([name, name], [])
