"""Self-test of the benchmark harness at a tiny size.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
from inputs import random_gks, random_mixed_state
from lindbladsim import serialize, trotter
from lindbladsim.lindblad import LindbladError, QuantumState
from workloads import WORKLOADS, CliCall, LibraryCall, Workload, write_json

SPEC = run.SPEC


def tiny_workload(*extra):
    """A passing library call, a passing CLI call, a malformed-document refusal
    and the given extra calls, each made by extra(g, rho0, gen, capture)."""
    def build(seed, workdir, capture):
        rng = np.random.default_rng(seed)
        g = random_gks(2, rng)
        rho0 = QuantumState(d=2, rho=random_mixed_state(2, rng))
        gen = write_json(f"{workdir}/g.json", serialize.generator_to_json(g))
        return [
            LibraryCall(g, rho0, 0.5, 1e-3, capture),
            CliCall(["validate", gen]),
            CliCall(["validate", gen], expect=2, malformed=True),  # refused: exit_code
            *(make(g, rho0, gen, capture) for make in extra),
        ]
    return Workload("tiny", "harness self-test", "call_s", 50.0, build)


def test_workloads_match_spec():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()}


def test_untraced_run_reports_every_metric_and_counts_refusals():
    result = run.run(tiny_workload(), seed=3, seconds=0.0, trace=False)
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert len(result["setup_samples_s"]) == run.SETUP_REPEATS
    assert result["passes"] == 1
    assert result["attempted"] == 3 and result["failed"] == 1
    assert result["fail_reasons"] == {"exit_code": 1}
    assert result["correct"] is True


def test_trace_check_after_the_plan_is_a_counted_refusal(monkeypatch):
    def run_plan(plan, components, rho0):
        raise LindbladError("state trace (0.99+0j) is not 1")

    monkeypatch.setattr(trotter, "run_plan", run_plan)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    result = run.run(tiny_workload(), seed=3, seconds=0.0, trace=False)
    assert result["fail_reasons"] == {"exit_code": 1, "trace_check": 1}
    assert result["metrics"]["n_exp"]["value"] > 0
    assert result["correct"] is True


def raise_at_once(*args, **kwargs):
    raise LindbladError("state trace (0.99+0j) is not 1")


WRONG = {
    "simulate fails at once": (
        lambda g, rho0, gen, capture: LibraryCall(g, rho0, 0.5, 1e-3, capture),
        {"exception": 2, "exit_code": 1}),
    "bad exit code on a good document": (
        lambda g, rho0, gen, capture: CliCall(["validate", gen], expect=2),
        {"exit_code": 2}),
    "wrong output": (
        lambda g, rho0, gen, capture: CliCall(["validate", gen], verify=raise_at_once),
        {"exit_code": 1, "wrong_output": 1}),
}


@pytest.mark.parametrize("case", sorted(WRONG))
def test_wrong_answers_make_the_run_incorrect(case, monkeypatch):
    make, reasons = WRONG[case]
    if case == "simulate fails at once":
        monkeypatch.setattr(trotter, "simulate", raise_at_once)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    result = run.run(tiny_workload(make), seed=3, seconds=0.0, trace=False)
    assert result["fail_reasons"] == reasons
    assert result["correct"] is False


def test_traced_run_reports_every_layer_and_restores_bindings():
    build_plan, channel = trotter.build_plan, trotter.Component.channel
    result = run.run(tiny_workload(), seed=3, seconds=0.0, trace=True)
    assert trotter.build_plan is build_plan and trotter.Component.channel is channel
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert result["attempted"] == 6 and result["failed"] == 2
    assert result["correct"] is True
    # three traced calls, one of them a library call on m = 4 components
    assert metrics["lindblad.one_one_norm.calls"]["value"] == 4 / 3
    assert metrics["cli.validate_s"]["value"] > 0
    assert metrics["trotter.build_plan_s"]["value"] > 0
    assert metrics["trotter.block.channel_reuse"]["value"] >= 1


def test_percentile_counts_samples_beyond():
    assert run.percentile(range(1, 101), 90) == (90, 10)
    assert run.percentile([3.0, 1.0, 2.0], 100) == (3.0, 0)


def test_refuses_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / run.BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    done = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "random-d6",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
