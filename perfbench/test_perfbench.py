"""Tests of the benchmark's own code: ``python -m pytest perfbench``."""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import metrics
from bdris.experiments import run_trial
from child import HostSpeed, make_config, unit_tasks
from tracing import Tracer, kernels_restored, traced_trial, wrapped_kernels
from workloads import RECEIVERS, WORKLOADS, config_fields, master_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def outcome(trial):
    return trial.seed, trial.nmse_h, trial.nmse_g, trial.ser, trial.iterations


def benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_and_units_are_well_formed():
    for table in (metrics.END_TO_END, metrics.PER_LAYER):
        for name, unit in table.items():
            assert NAME.fullmatch(name), name
            assert UNIT.fullmatch(unit), unit
    assert not set(metrics.END_TO_END) & set(metrics.PER_LAYER)
    for name in WORKLOADS:
        assert NAME.fullmatch(name), name


def test_benchmark_json_lists_the_emitted_metrics():
    spec = benchmark_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["paths"] == [HERE.name]


def test_workload_generation_is_seed_deterministic():
    for workload in WORKLOADS.values():
        assert config_fields(workload, 7, 3) == config_fields(workload, 7, 3)
        assert master_seed(workload, 7) != master_seed(workload, 8)
        assert master_seed(workload, 7, 0) != master_seed(workload, 7, 1)
        cfg = make_config(workload, 7)
        assert cfg == make_config(workload, 7)
        assert list(unit_tasks(workload, cfg, 2)) == list(unit_tasks(workload, cfg, 2))
    small = WORKLOADS["sweep-accept"]
    first = [run_trial(make_config(small, 7), rx, 10.0, 1, 0) for rx in RECEIVERS]
    again = [run_trial(make_config(small, 7), rx, 10.0, 1, 0) for rx in RECEIVERS]
    other = [run_trial(make_config(small, 8), rx, 10.0, 1, 0) for rx in RECEIVERS]
    assert list(map(outcome, first)) == list(map(outcome, again))
    assert list(map(outcome, first)) != list(map(outcome, other))


@pytest.mark.parametrize("receiver", RECEIVERS)
def test_traced_recomposition_equals_run_trial(receiver):
    cfg = make_config(WORKLOADS["sweep-accept"], 3)
    expected = run_trial(cfg, receiver, 0.0, 0, 5)
    tracer = Tracer()
    with wrapped_kernels(tracer):
        got = traced_trial(tracer, cfg, receiver, 0.0, 0, 5)
    assert kernels_restored()
    assert outcome(got) == outcome(expected)
    names = {s.name for s in tracer.spans}
    assert "tensor_ops.pinv" in names and "signal.add_noise" in names
    assert all(s.end >= s.start for s in tracer.spans)


def test_kernel_wrappers_are_restored_after_an_error():
    with pytest.raises(ZeroDivisionError):
        with wrapped_kernels(Tracer()):
            assert not kernels_restored()
            raise ZeroDivisionError
    assert kernels_restored()



@pytest.mark.parametrize("jobs", [1, 2])
def test_reference_blocks_are_timed_with_the_workload_parallelism(jobs):
    with HostSpeed(jobs) as host:
        host.block()
        host.tick()  # too soon after the first block: no second one
        assert len(host.samples) == 1 and host.seconds > 0
    if host.pool is not None:
        with pytest.raises(RuntimeError):  # the reference pool has been shut down
            host.pool.submit(int)


def test_timing_metrics_are_in_reference_units():
    timed = [n for n in metrics.END_TO_END if ".trial_cost" in n or ".latency." in n]
    assert len(timed) == 6
    assert all(metrics.END_TO_END[n] == metrics.REF for n in timed)


def test_statistics_helpers():
    assert metrics.p50([3, 1, 2]) == 2
    assert metrics.p90(range(1, 101)) == pytest.approx(90.9)
    assert metrics.geomean([1e-2, 1e-4]) == pytest.approx(1e-3)
    assert math.isclose(metrics.geomean([5.0]), 5.0)
    with pytest.raises(KeyError):
        metrics.emit({"setup_s": 1.0}, metrics.END_TO_END)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "trial-0db",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
