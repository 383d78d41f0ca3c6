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
from vedicfft import parse_netlist, verify
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

    def test_failing_unit(self, capsys, monkeypatch):
        # Gate 2 of vedic2x2, an AND, computes OR: the suite's summary line
        # names the first failure, and the command fails on stderr.
        from vedicfft import verify
        from vedicfft.netlist import GateKind, Netlist

        unit = verify._unit
        net = unit("vedic2x2")
        assert net.gates[2].kind is GateKind.AND
        gates = [g._replace(kind=GateKind.OR) if g.id == 2 else g for g in net.gates]
        flipped = Netlist(net.name, net.inputs, net.outputs, gates, net.consts)
        monkeypatch.setattr(verify, "_unit", lambda k: flipped if k == "vedic2x2" else unit(k))
        code, out, err = run_cli(capsys, "verify", "--unit", "all")
        assert code == 1
        assert out.splitlines() == [
            "vedic2x2: 8/16 pass (first failure: 0*2: got 2, want 0)",
            "vedic4x4: 256/256 pass",
            "array4x4: 256/256 pass",
            "adder: 1512/1512 pass",
            "subtractor: 1256/1256 pass",
            "signed4x4: 512/512 pass",
            "fft: 3809/3809 pass",
        ]
        assert err == "1 unit(s) FAILED\n"


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

    def test_unit_name_with_a_trailing_newline(self, capsys):
        for unit in ("adder4\n", "fft4_q3\n"):
            code, out, err = run_cli(capsys, "dump", "--unit", unit)
            assert (code, out) == (2, "")
            assert f"unknown unit {unit!r}" in err

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
    ("dump", "--unit", "reconfigurable"): "95f5033a14e67d1fbe98ddfa60381096b673189fe0b5e8917bd33d76e5692fb2",
    ("dump", "--unit", "reconfigurable_q3"): "95e5136676869f932d93116ac71d20dd2e9632838b60aebe60a5a077f2aa5236",
    ("report", "--format", "text"): "582d7a6e84e798d2e9b4972342f203f4fe397ad1e4358e4e0cde7d9479aca773",
    ("report", "--format", "csv"): "f51e7e1b18fcde0bba7793964f6251c03fc82a2868c97f9322d76f5acf49032f",
    ("report", "--format", "json"): "52c19c5afe04a2c950a9e12eac982b44586d82bf0cd50950307dfca04034682a",
    ("verify", "--unit", "all"): "fed1f775d808721e55e7aa387218a96b500b883c55243a8d95ebac65d0d3ce6b",
    # One-lane paths: a Q1.3 4-point transform, the tied select-2 program
    # and the signed -8 * -8 corner.
    ("fft", "--samples", "1,0;2,0;3,0;4,0", "--twiddle", "q3"): (
        "95cc69b9c6501c982bd40e31a756a0f832a4c78e5f8caa8891201b33c3fbb3b1"
    ),
    ("fft", "--samples", "1,0;2,0", "--select", "2"): (
        "eb5f858f23768a187da531afa4ebb8c7a16445859d4b52fe3f4c59267844aba1"
    ),
    ("mul", "--a", "-8", "--b", "-8", "--signed"): (
        "913f5d1da2feaf4deeccc9e55cbb350a20f12b3f507e87be85dbb77fdd3cb9bc"
    ),
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


# Run in a fresh interpreter: the command given as arguments through
# ``cli.main``, or for ``prepare`` the one-lane calls that the benchmark's
# ``prepare`` steps make. Prints the programs compiled and the kernels
# generated, then one ``<netlist>:<form>`` per kernel held by the netlists
# still alive, ``one`` for a one-lane kernel and ``lanes`` for a lanes one.
COUNT_KERNELS = """\
import contextlib, gc, io, sys
from vedicfft import arith, cli, fft, netlist
counts = {"compiled": 0, "generated": 0}

def counting(name, f):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return f(*args, **kwargs)
    return wrapper

netlist.Netlist._compile = counting("compiled", netlist.Netlist._compile)
netlist._generate_kernel = counting("generated", netlist._generate_kernel)
if sys.argv[1:] == ["prepare"]:
    for spec in ("exact", "q3"):
        fft.run_fft(fft.FftConfig.make(4, spec, 4), [(0, 0)] * 4)
    for impl in ("vedic", "array"):
        arith.signed_multiply_4x4(0, 0, impl)
else:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(sys.argv[1:]) == 0
nets = [obj for obj in gc.get_objects() if isinstance(obj, netlist.Netlist)]
held = [
    f"{n.name}:{form}"
    for n in nets
    for form, kernels in (("one", n._kernels), ("lanes", n._lane_kernels))
    for _ in kernels
]
print(counts["compiled"], counts["generated"], *sorted(held))
"""


def count_kernels(*argv):
    """(programs compiled, kernels generated, kernels held) by ``argv`` in
    a fresh interpreter, as :data:`COUNT_KERNELS` prints them."""
    proc = subprocess.run(
        [sys.executable, "-c", COUNT_KERNELS, *argv],
        capture_output=True,
        text=True,
        env=checkout_env(),
    )
    assert proc.returncode == 0, proc.stderr
    compiled, generated, *held = proc.stdout.split()
    return int(compiled), int(generated), held


@pytest.mark.parametrize(
    "argv",
    [
        ("mul", "--a", "13", "--b", "11"),
        ("mul", "--a", "-3", "--b", "5", "--signed"),
        ("fft", "--samples", "1,0;2,0;3,0;4,0"),
        ("fft", "--samples", "1,0;2,0;3,0;4,0", "--twiddle", "q3"),
        ("fft", "--samples", "1,0;2,0", "--select", "2"),
        ("fft", "--samples", "1,0;2,0", "--select", "2", "--twiddle", "q3"),
        ("report",),
        ("prepare",),
    ],
    ids=" ".join,
)
def test_no_command_generates_a_kernel(argv):
    # A kernel is generated only when a compiled program is evaluated
    # again. These commands evaluate each program they compile once, so
    # they generate no kernel and no netlist they leave alive holds one.
    compiled, generated, held = count_kernels(*argv)
    assert compiled >= 1
    assert (generated, held) == (0, [])


def test_verify_generates_only_the_vedic4x4_kernel():
    # ``verify --unit all`` evaluates every program it compiles once, but
    # vedic4x4's twice: array4x4's suite cross-checks against it. The
    # second evaluation generates its lanes kernel, the one kernel the
    # command generates.
    compiled, generated, held = count_kernels("verify", "--unit", "all")
    assert compiled >= 1
    assert (generated, held) == (1, ["vedic4x4:lanes"])


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

    def test_package_invocation(self):
        # ``python -m vedicfft`` is the ``vedicfft`` command: one line per
        # suite and the summary, the lines ``main`` prints in process.
        proc = subprocess.run(
            [sys.executable, "-m", "vedicfft", "verify", "--unit", "all"],
            capture_output=True,
            text=True,
            env=checkout_env(),
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == 8
        assert lines[:-1] == [r.summary() for r in verify.verify_all()]
        assert lines[-1] == "all 7 unit(s) pass"

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
