import argparse
import hashlib
import importlib.metadata
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vedicfft
from vedicfft import parse_netlist
from vedicfft.cli import entry, main
from vedicfft.fft import unit_names

REPO_ROOT = Path(__file__).resolve().parents[1]
# The directory that holds the imported package: child processes put it first
# on PYTHONPATH so they run the code under test, never an installed copy.
PACKAGE_ROOT = Path(vedicfft.__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def checkout_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE_ROOT), env.get("PYTHONPATH")])
    )
    return env


def load_pyproject():
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with (REPO_ROOT / "pyproject.toml").open("rb") as fh:
        return tomllib.load(fh)


class TestMul:
    @pytest.mark.parametrize("impl", ["vedic", "array"])
    def test_product(self, capsys, impl):
        code, out, err = run_cli(capsys, "mul", "--a", "13", "--b", "11", "--impl", impl)
        assert (code, out, err) == (0, "143\n", "")

    def test_trace_binary(self, capsys):
        code, out, _ = run_cli(capsys, "mul", "--a", "5", "--b", "3", "--trace")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "101 x 11 (base 2)"
        assert any(line.startswith("digit line:") for line in lines)
        assert any(line.startswith("carry line:") for line in lines)
        assert lines[-1] == "15"

    def test_decimal_product(self, capsys):
        code, out, _ = run_cli(capsys, "mul", "--a", "234", "--b", "316", "--decimal")
        assert (code, out) == (0, "73944\n")

    def test_decimal_trace(self, capsys):
        code, out, _ = run_cli(
            capsys, "mul", "--a", "234", "--b", "316", "--decimal", "--trace"
        )
        assert code == 0
        assert "digit line: 61724" in out
        assert "carry line: 1222" in out
        assert out.rstrip().endswith("73944")

    def test_signed(self, capsys):
        code, out, err = run_cli(capsys, "mul", "--a", "-3", "--b", "5", "--signed")
        assert (code, out, err) == (0, "-15\n", "")

    def test_signed_saturation_note(self, capsys):
        # -8 is exact, so nothing saturates and no note goes to stderr.
        for a, b, product in (("-8", "1", "-8"), ("-8", "-8", "64")):
            code, out, err = run_cli(capsys, "mul", "--a", a, "--b", b, "--signed")
            assert (code, out, err) == (0, product + "\n", "")

    @pytest.mark.parametrize(
        "argv",
        [
            ("mul", "--a", "16", "--b", "1"),
            ("mul", "--a", "0", "--b", "-1"),
            ("mul", "--a", "8", "--b", "1", "--signed"),
            ("mul", "--a", "3", "--b", "5", "--signed", "--trace"),
            ("mul", "--a", "-1", "--b", "2", "--decimal"),
            ("mul", "--a", "1", "--b", "2", "--decimal", "--signed"),
        ],
    )
    def test_usage_errors(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("a, b, bad", [("8", "1", 8), ("-3", "-9", -9)])
    def test_signed_range_error_is_the_multipliers(self, capsys, a, b, bad):
        code, out, err = run_cli(capsys, "mul", "--a", a, "--b", b, "--signed")
        assert (code, out) == (2, "")
        assert err == f"error: {bad} does not fit in 4 two's-complement bits\n"


class TestFft:
    def test_inline_exact(self, capsys):
        code, out, _ = run_cli(capsys, "fft", "--samples", "1,0;2,0;3,0;4,0")
        assert code == 0
        doc = json.loads(out)
        assert doc == {
            "spectrum": [[10, 0], [-2, 2], [-2, 0], [-2, -2]],
            "output_width": 6,
            "scale_log2": 0,
            "select": 4,
        }

    def test_inline_quantized(self, capsys):
        code, out, _ = run_cli(
            capsys, "fft", "--samples", "1,0;2,0;3,0;4,0", "--twiddle", "q3"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["scale_log2"] == -3
        assert doc["output_width"] == 11
        assert doc["spectrum"][0] == [80, 0]

    def test_select2_inline(self, capsys):
        code, out, _ = run_cli(capsys, "fft", "--samples", "3,0;5,0", "--select", "2")
        doc = json.loads(out)
        assert code == 0
        assert doc["spectrum"] == [[8, 0], [-2, 0], [0, 0], [0, 0]]
        assert doc["select"] == 2

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "samples.json"
        path.write_text('{"samples": [[1, 0], [2, 0], [3, 0], [4, 0]], "width": 4}')
        code, out, _ = run_cli(capsys, "fft", "--input", str(path))
        assert code == 0
        assert json.loads(out)["spectrum"][0] == [10, 0]

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        code, _, err = run_cli(capsys, "fft", "--input", str(path))
        assert code == 2
        assert err.startswith("error:")

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "fft", "--input", str(tmp_path / "none.json"))
        assert code == 2
        assert err.startswith("error:")

    def test_input_source_is_exclusive(self, capsys, tmp_path):
        path = tmp_path / "samples.json"
        path.write_text('{"samples": [[1, 0]]}')
        code, _, err = run_cli(
            capsys, "fft", "--input", str(path), "--samples", "1,0"
        )
        assert code == 2
        code2, _, _ = run_cli(capsys, "fft")
        assert code2 == 2

    def test_out_of_range_sample(self, capsys):
        code, _, err = run_cli(capsys, "fft", "--samples", "9,0;0,0;0,0;0,0")
        assert code == 2
        assert "outside" in err


class TestVerify:
    def test_single_unit(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--unit", "vedic2x2")
        assert code == 0
        assert "vedic2x2: 16/16 pass" in out
        assert "all 1 unit(s) pass" in out
        assert err == ""

    def test_adder_unit(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--unit", "adder")
        assert code == 0
        assert "adder:" in out

    def test_unknown_unit(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--unit", "bogus")
        assert code == 2
        assert "unknown unit" in err


class TestDump:
    def test_stdout_layout(self, capsys):
        code, out, _ = run_cli(capsys, "dump", "--unit", "vedic2x2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "netlist vedic2x2 v1"
        assert sum(1 for line in lines if line.startswith("gate ")) == 8

    def test_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "dump", "--unit", "reconfigurable_q3")
        _, second, _ = run_cli(capsys, "dump", "--unit", "reconfigurable_q3")
        assert first == second

    def test_out_file_round_trips(self, capsys, tmp_path):
        path = tmp_path / "vedic4x4.net"
        code, out, _ = run_cli(
            capsys, "dump", "--unit", "vedic4x4", "--out", str(path)
        )
        assert code == 0
        parsed = parse_netlist(path.read_text())
        assert parsed.name == "vedic4x4"
        assert parsed.gate_counts().total == 112

    def test_fft_unit_names(self, capsys):
        code, out, _ = run_cli(capsys, "dump", "--unit", "fft4_q3")
        assert code == 0
        assert out.startswith("netlist fft4_q3 v1")

    def test_unknown_unit(self, capsys):
        for unit in ("nope", "reconfigurable_q0", "fft4_q03", "adder04"):
            code, out, err = run_cli(capsys, "dump", "--unit", unit)
            assert (code, out) == (2, "")
            assert "known units" in err

    def test_rejected_size_reports_the_builder_error(self, capsys):
        code, out, err = run_cli(capsys, "dump", "--unit", "fft4_q9")
        assert (code, out) == (2, "")
        assert "Q1.9 coefficient does not fit the 4-bit core" in err
        for argv in (
            ("dump", "--unit", "adder4097"),
            ("fft", "--samples", "1,0;2,0;3,0;4,0", "--width", "4097"),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, "")
            assert "4096-bit limit" in err
        for unit in ("adder" + "1" * 5000, "fft4_q" + "1" * 5000):
            code, out, err = run_cli(capsys, "dump", "--unit", unit)
            assert (code, out) == (2, "")
            assert f"unit '{unit}' has too many digits" in err
        # As many digits as int() converts: rejected before 1 << F is taken.
        f = "1" * 4300
        for argv in (
            ("dump", "--unit", "fft4_q" + f),
            ("fft", "--samples", "1,0;2,0;3,0;4,0", "--twiddle", "q" + f),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, "")
            assert f"Q1.{f} coefficient does not fit the 4-bit core" in err


class TestReport:
    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "report")
        assert code == 0
        assert "Delay comparison" in out
        assert "Area comparison" in out
        assert "vedic_reconfigurable" in out

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "report", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "architecture,metric,value,model"
        assert len(lines) == 13

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "report", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 12
        assert {r["metric"] for r in rows} == {"delay", "area"}

    def test_bad_format_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["report", "--format", "yaml"])
        assert excinfo.value.code == 2


# SHA-256 of the stdout of each command (ROADMAP aim 2: same behaviour). Only
# a change of spec may change a digest, and CHANGES.md then says why.
GOLDEN_STDOUT_SHA256 = {
    ("dump", "--unit", "vedic2x2"): "1ef048942bd93053e252221094343afe8a947762b848b1789337674cc4cee303",
    ("dump", "--unit", "vedic4x4"): "7035100cf253dc4cf6851839aa46def1ba12d0e5267525d66ba879a29ac94116",
    ("dump", "--unit", "array4x4"): "9b43dd4cfe0e1a5b5ddb89663cd6c718523d1c90a38186aca2f3ccceea67bdf1",
    ("dump", "--unit", "adder4"): "934f27504cef5c20ce931a2d90262dd3bc4ddee5aa006446b57ad04d7fcf2a4a",
    ("dump", "--unit", "subtractor4"): "e09a783920a8208a4db9a6a1e95f57c07f75b7789610c62d183042ec3fb5d01d",
    ("dump", "--unit", "butterfly2"): "77085034f3ade9b3cb05675bb835ff1cf32145e8c8953c5e44bcece4b0147a56",
    ("dump", "--unit", "fft4"): "e74f1f3a910a8ff9ceeb666c8a350bb0953b207d8dc6f6424d7e5bd2289fa40b",
    ("dump", "--unit", "fft4_q3"): "1f598678cf7d6893a8c69fb888522609c738ffffe91c2b9d15ef7c3c0d8b5a66",
    ("dump", "--unit", "reconfigurable"): "ce869406a8facdd706680fbbe4f5a02447bef1d444e9db034c7251e7283eab3f",
    ("dump", "--unit", "reconfigurable_q3"): "8c909f470cfc13558e23898a36312d66d6c22199e7f0aaf7162883bfb1fd7781",
    ("report", "--format", "text"): "424e4e7b0b024086980088f722df36824474cf8e391164518351771ffb7bc6e3",
    ("report", "--format", "csv"): "b576b8708433fb8d79446df956cc53f52746c0e4a59e76963a8de5e29938d954",
    ("report", "--format", "json"): "eea05b6533f884f728a67255e6539c6d94ce967ee83947548610b748677d5c67",
    ("verify", "--unit", "all"): "80064c6506ce76b3928b70370840d8903d1f759908e827d5ba29a01e08422fd0",
}


def test_golden_stdout(capsys):
    dumped = [argv[2] for argv in GOLDEN_STDOUT_SHA256 if argv[0] == "dump"]
    assert dumped == unit_names()
    changed = []
    for argv, want in GOLDEN_STDOUT_SHA256.items():
        code, out, _ = run_cli(capsys, *argv)
        if code != 0 or hashlib.sha256(out.encode()).hexdigest() != want:
            changed.append(f"vedicfft {' '.join(argv)} (exit {code})")
    assert not changed, (
        "stdout changed; diff it against the same command at the parent commit: "
        + "; ".join(changed)
    )


def test_second_main_call_builds_no_parser(capsys, monkeypatch):
    run_cli(capsys, "mul", "--a", "13", "--b", "11")
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert run_cli(capsys, "mul", "--a", "13", "--b", "11") == (0, "143\n", "")
    # The reused parser prints help to the standard output of this call.
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.startswith("usage: vedicfft ")
    assert built == []


class TestEntryPoints:
    def test_entry_raises_systemexit(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["vedicfft"])
        with pytest.raises(SystemExit) as excinfo:
            entry()  # missing subcommand -> argparse usage error
        assert excinfo.value.code == 2

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "vedicfft.cli", "mul", "--a", "13", "--b", "11"],
            capture_output=True,
            text=True,
            env=checkout_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout == "143\n"

    def test_console_script(self, tmp_path):
        # The script pyproject.toml declares, run by name in a fresh process
        # through the same launcher pip generates for a console script.
        scripts = load_pyproject()["project"].get("scripts", {})
        assert scripts.get("vedicfft") == "vedicfft.cli:entry"
        ep = importlib.metadata.EntryPoint(
            name="vedicfft", value=scripts["vedicfft"], group="console_scripts"
        )
        assert ep.load() is entry

        launcher = tmp_path / "vedicfft"
        launcher.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {ep.module} import {ep.attr}\n"
            "if __name__ == '__main__':\n"
            f"    sys.exit({ep.attr}())\n"
        )
        launcher.chmod(0o755)
        env = checkout_env()
        env["PATH"] = os.pathsep.join(filter(None, [str(tmp_path), env.get("PATH")]))

        proc = subprocess.run(
            ["vedicfft", "report", "--format", "csv"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("architecture,metric,value,model")
