import cmath
import enum
import hashlib
import random
import tracemalloc

import pytest

from vedicfft import (
    FftConfig,
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
from vedicfft.fft import _dft_columns, build_unit, unit_names
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
        out = _dft_columns(columns, n)
        assert len(out) == 2 * n
        for i in range(50):
            x = [complex(re[i], im[i]) for re, im in zip(columns[::2], columns[1::2])]
            got = [complex(re[i], im[i]) for re, im in zip(out[::2], out[1::2])]
            for g, ref in zip(got, brute_dft(x)):
                assert abs(g - ref) < 1e-9
        if draw is random.Random.randint:  # exact Gaussian integers
            assert all(type(v) is int for col in out for v in col)

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

    def test_uniform_output_width(self, recon_exact, recon_q3):
        for bus in ("X0_re", "X1_im", "X2_re", "X3_im"):
            assert recon_exact.output_width(bus) == 6
            assert recon_q3.output_width(bus) == 11

    def test_sample_count_validation(self):
        cfg4 = FftConfig.make(4, "exact", 4)
        with pytest.raises(ValueError):
            run_fft(cfg4, [(1, 0), (2, 0)])
        with pytest.raises(ValueError):
            run_fft(cfg4, [(1, 0)] * 5)
        with pytest.raises(ValueError):
            run_fft(FftConfig.make(2, "exact", 4), [(1, 0)])

    def test_sample_range_validation(self):
        cfg = FftConfig.make(4, "exact", 4)
        with pytest.raises(ValueError):
            run_fft(cfg, [(9, 0), (0, 0), (0, 0), (0, 0)])

    @pytest.mark.parametrize("bad", [1.9, "3", True])
    def test_rejects_non_integer_components(self, bad):
        # As FixedComplex does: no silent int() truncation or parsing.
        cfg = FftConfig.make(4, "exact", 4)
        for sample in ((bad, 0), (0, bad)):
            samples = [sample, (0, 0), (0, 0), (0, 0)]
            with pytest.raises(ValueError, match="must be integers"):
                run_fft(cfg, samples)
            with pytest.raises(ValueError, match="must be integers"):
                run_fft_batch(cfg, [[(0, 0)] * 4, samples])

    def test_accepts_fixed_complex_objects(self):
        cfg = FftConfig.make(4, "exact", 4)
        res = run_fft(cfg, [FixedComplex(1, 0)] * 4)
        assert res.values[0] == 4


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
        # Leading zeros would name a unit whose netlist has another name.
        for name in ("adder04", "fft4_q03"):
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
                "8e9afbc01363e76c171c9c378a55afc4f48a60027baa4c5d691db4c1b747d023",
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
        # not validated; the text of it is validated once when parsed.
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
        assert (made, validated) == ([name, name], [name])
