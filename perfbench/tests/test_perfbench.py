"""Self-tests for the benchmark: short runs of every workload, traced and not.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("verify_all", "fft_stream", "catalog")
EXACT_UNITS = ("count", "bytes", "gates", "unit_delays", "output_units")


def bench(workload, trace, seed=3, seconds="1", cwd=ROOT):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


@pytest.fixture(scope="module")
def untraced():
    return {w: bench(w, 0) for w in WORKLOADS}


@pytest.fixture(scope="module")
def traced():
    return {w: bench(w, 1) for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_run_reports_every_end_to_end_metric(untraced, spec, workload):
    _, result = untraced[workload]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(traced, spec, workload):
    header, result = traced[workload]
    assert result["correct"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert header["diagnostics"]["trace.counts_vary"] == []


def test_per_layer_spec_matches_the_code(spec):
    assert [[m["name"], m["unit"], m["better"]] for m in spec["per_layer"]] == [
        list(m) for m in run.per_layer_names()
    ]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_runs_name_the_same_end_to_end_metrics(
    untraced, traced, workload
):
    assert set(traced[workload][0]["end_to_end"]) == set(untraced[workload][1]["metrics"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_and_model_statistics_repeat(traced, workload):
    _, first = traced[workload]
    _, again = bench(workload, 1)
    exact = {
        name: m["value"] for name, m in first["metrics"].items() if m["unit"] in EXACT_UNITS
    }
    assert exact == {name: again["metrics"][name]["value"] for name in exact}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_child_self_time_never_exceeds_the_op(traced, workload):
    metrics = traced[workload][1]["metrics"]
    children = sum(
        m["value"] for name, m in metrics.items()
        if name.endswith(".self_ms")
    )
    op_ms = metrics["trace.op_ms"]["value"]
    assert metrics["trace.unhooked_ms"]["value"] >= 0
    assert children <= op_ms
    assert children + metrics["trace.unhooked_ms"]["value"] == pytest.approx(op_ms)


def test_workloads_exercise_their_layers(traced):
    value = {w: {k: m["value"] for k, m in traced[w][1]["metrics"].items()} for w in WORKLOADS}
    assert value["verify_all"]["verify.cases"] > 0
    assert value["fft_stream"]["fft.run_fft.calls"] == 4
    assert value["fft_stream"]["netlist.add_gate.calls"] == 0
    assert value["catalog"]["cli.main.calls"] == len(workloads.CATALOG_UNITS) + 1
    assert value["catalog"]["netio.bytes"] > 0


def test_missing_hook_targets_are_reported_absent():
    workloads.Library()
    from vedicfft import fft

    original = fft.run_fft
    tracer = tracing.Tracer(
        (
            ("a", "no_such_module:f"),
            ("b", "fft:no_such_function"),
            ("c", "netlist:Netlist.no_such_method"),
            ("d", "verify:_NO_SUCH_TABLE[*]"),
            ("fft.run_fft", "fft:run_fft"),
        )
    )
    assert tracer.absent == [
        "no_such_module:f",
        "fft:no_such_function",
        "netlist:Netlist.no_such_method",
        "verify:_NO_SUCH_TABLE[*]",
    ]
    config = fft.FftConfig.make(4, "exact", 4)
    result, tally = tracer.run_op(lambda: fft.run_fft(config, [(1, 0)] * 4))
    assert tally.calls["fft.run_fft"] == 1
    assert [c.re for c in result.spectrum] == [4, 0, 0, 0]
    assert fft.run_fft is original


def test_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "catalog", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
