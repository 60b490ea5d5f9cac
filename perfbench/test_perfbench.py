"""Fast self-test of the benchmark: python3 -m pytest perfbench -q

Runs every workload at a tiny size with tracing off and on, checks that each
metric named in BENCHMARK.json is emitted with its unit, and that injected
wrong results are counted as failures.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import speed

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_tiny_run_emits_every_metric(name, trace):
    record = run.measure(name, seed=3, seconds=0.0, trace=trace, tiny=True)
    assert record["correct"] and record["failed"] == 0 and record["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    emitted = {k: v["unit"] for k, v in record["metrics"].items()}
    assert emitted == expected
    assert all(isinstance(v["value"], (int, float)) for v in record["metrics"].values())
    assert record["env"]["kernel"] in ("pure", "compiled")


def test_traced_depth_sweep_never_reaches_the_kernel():
    metrics = run.measure("depth-sweep", seed=3, seconds=0.0, trace=True, tiny=True)["metrics"]
    assert metrics["kernel.candidates"]["value"] == 0
    assert metrics["lattice.add.calls"]["value"] > 0
    assert metrics["action.henon_act.steps"]["value"] >= metrics["action.henon_act.calls"]["value"] > 0


def _drop_one_map(mods):
    real = mods.certifier.fix_set_bruteforce
    mods.certifier.fix_set_bruteforce = lambda n, p, force_pure=False: real(n, p, force_pure)[:-1]


def _wrong_worst_case(mods):
    real = mods.certifier.worst_case_intersection
    mods.certifier.worst_case_intersection = lambda n, deg, axis: real(n, deg, axis) - 1


@pytest.mark.parametrize(
    "name, inject", [("prime-search", _drop_one_map), ("depth-sweep", _wrong_worst_case)]
)
def test_injected_wrong_result_is_a_failure(name, inject):
    with speed.Gauge() as gauge:
        setup_s, mods, workload = run.set_up(name, 3, gauge, tiny=True)
        inject(mods)
        record = run.run_measured(mods, workload, setup_s, 3, 0.0, False, gauge)
    assert not record["correct"]
    assert record["failed"] == record["attempted"]
    assert record["metrics"]["ok_frac"]["value"] == 0.0


def test_cli_output_must_repeat_byte_for_byte():
    workload = run.make_workload("cli-canonical", seed=3, tiny=True)
    argv = ["orbit", "--n", "3", "--label", "q0", "--iters", "2"]
    first = json.dumps({"orbit": [{"index": 5}, {"index": 10}]}).encode()
    assert workload.check(argv, 0, first) == []
    assert workload.check(argv, 0, first + b" ") == ["stdout differs from the first run of the same argv"]
    assert workload.check(argv, 1, first) == ["exit code 1"]


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    argv = [sys.executable, "perfbench/run.py", "--workload", "depth-sweep", "--seed", "1", "--seconds", "1"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
