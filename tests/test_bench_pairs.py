"""The summary that tools/bench_pairs.py writes, on synthetic runs, and the
reference unit of tools/trial_timing.py on a fake clock."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "cost", "better": "lower", "bound": 0.25},
              {"name": "completed_ratio", "better": "higher", "bound": 0.01}]


def run(workload, pair, side, cost, completed=1.0, attempted=100):
    metrics = {"cost": {"value": cost, "unit": "svd512x32"},
               "completed_ratio": {"value": completed, "unit": "ratio"}}
    return {"workload": workload, "pair": pair, "side": side,
            "result": {"correct": True, "attempted": attempted, "metrics": metrics}}


def test_medians_quartiles_and_pairs_won():
    parent = [3.0, 3.2, 2.9, 3.1, 3.4]
    change = [2.7, 2.8, 3.0, 2.6, 2.9]
    runs = []
    for pair, (p, c) in enumerate(zip(parent, change)):
        order = [("parent", p), ("change", c)]
        for side, value in order if pair % 2 == 0 else order[::-1]:
            runs.append(run("w", pair, side, value))
    cost = bench_pairs.summarize(runs, END_TO_END)["w"]["metrics"]["cost"]
    assert cost["parent"] == parent and cost["change"] == change
    assert cost["parent_median"] == 3.1 and cost["change_median"] == 2.8
    assert cost["parent_quartiles"] == pytest.approx([3.0, 3.1, 3.2])
    assert cost["change_quartiles"] == pytest.approx([2.7, 2.8, 2.9])
    assert cost["ratio"] == pytest.approx(2.8 / 3.1)
    assert cost["change_better_pairs"] == 4  # pair 2 is 2.9 -> 3.0
    assert cost["median_gap_over_parent_iqr"]  # 0.3 > 0.2


def test_direction_comes_from_the_metric():
    runs = [run("w", 0, "parent", 1.0, 0.98), run("w", 0, "change", 1.0, 0.99),
            run("w", 1, "change", 1.0, 0.97), run("w", 1, "parent", 1.0, 0.98)]
    metrics = bench_pairs.summarize(runs, END_TO_END)["w"]["metrics"]
    assert metrics["completed_ratio"]["change_better_pairs"] == 1
    assert metrics["cost"]["change_better_pairs"] == 0  # ties win nothing
    assert not metrics["cost"]["median_gap_over_parent_iqr"]


def test_incomplete_pairs_and_workloads_are_kept_apart():
    runs = [run("a", 0, "parent", 2.0), run("a", 0, "change", 1.0),
            run("a", 1, "parent", 2.0),                        # no change side
            {**run("a", 2, "change", 1.0), "result": None},    # a failed run
            run("a", 2, "parent", 2.0),
            run("b", 0, "parent", 5.0), run("b", 0, "change", 6.0)]
    summary = bench_pairs.summarize(runs, END_TO_END)
    assert summary["a"]["pairs"] == 1 and summary["b"]["pairs"] == 1
    assert summary["a"]["metrics"]["cost"]["parent_quartiles"] == [2.0, 2.0, 2.0]
    assert summary["b"]["metrics"]["cost"]["change_better_pairs"] == 0


def test_attempted_trials_are_kept_per_side_beside_the_metrics():
    # a side that completes more trials in a run of fixed length reads a
    # higher peak RSS; its attempted trials tell that from a memory regression
    runs = [run("w", 0, "parent", 2.0, attempted=900),
            run("w", 0, "change", 1.0, attempted=1300),
            run("w", 1, "change", 1.0, attempted=1250),
            run("w", 1, "parent", 2.0, attempted=1000),
            run("w", 2, "parent", 2.0, attempted=950),
            run("w", 2, "change", 1.0, attempted=1400),
            run("w", 3, "parent", 2.0, attempted=5000)]  # no change side
    attempted = bench_pairs.summarize(runs, END_TO_END)["w"]["attempted"]
    assert attempted == {"parent": [900, 1000, 950], "change": [1300, 1250, 1400],
                         "parent_median": 950, "change_median": 1300}


def test_sides_alternate_which_runs_first():
    assert bench_pairs.pair_order(0) == ("parent", "change")
    assert bench_pairs.pair_order(1) == ("change", "parent")


def test_in_process_summary():
    def timing(side, ms, cost, first_ms, rss):
        return {"side": side, "overrides": ["blocks=16"],
                "reference": {"shape": [512, 32], "svd_ms": 2.0},
                "tucker": {"ms_per_trial": ms, "cost": cost, "sweeps_mean": 30.0,
                           "sweeps_max": 50, "first_call_ms": first_ms,
                           "first_call_cost": first_ms / 2.0, "nmse_h_median": 0.25,
                           "nmse_g_median": 0.125, "ser_mean": 0.5},
                "peak_rss_mb": rss}

    runs = [timing("parent", 12.0, 6.0, 40.0, 102.0),
            timing("change", 6.0, 3.5, 30.0, 43.0),
            timing("change", 7.0, 3.0, 20.0, 44.0),
            timing("parent", 10.0, 5.5, 60.0, 101.0),
            timing("parent", 11.0, 4.0, 50.0, 103.0),
            timing("change", 8.0, 4.5, 25.0, 42.5)]
    summary = bench_pairs.in_process_summary(runs)
    # the reference block is no receiver
    assert set(summary) == {"tucker", "peak_rss_mb"}
    assert summary["peak_rss_mb"] == {
        "parent": {"values": [102.0, 101.0, 103.0], "median": 102.0},
        "change": {"values": [43.0, 44.0, 42.5], "median": 43.0}}
    tucker = summary["tucker"]
    assert set(tucker) == {"parent", "change"}
    assert tucker["parent"]["ms_per_trial"] == [12.0, 10.0, 11.0]
    assert tucker["parent"]["ms_per_trial_median"] == 11.0
    assert tucker["change"]["ms_per_trial_median"] == 7.0
    assert tucker["parent"]["cost"] == [6.0, 5.5, 4.0]
    assert tucker["parent"]["cost_median"] == 5.5
    assert tucker["change"]["cost_median"] == 3.5
    assert tucker["change"]["sweeps_mean"] == 30.0
    assert (tucker["parent"]["nmse_h_median"], tucker["parent"]["nmse_g_median"],
            tucker["parent"]["ser_mean"]) == (0.25, 0.125, 0.5)
    assert tucker["parent"]["first_call_ms"] == [40.0, 60.0, 50.0]
    assert tucker["parent"]["first_call_ms_median"] == 50.0
    assert tucker["change"]["first_call_cost_median"] == 12.5


def test_in_process_summary_of_the_shared_block():
    def timing(side, ms, cost, shared_ms, shared_cost):
        block = {"ms_per_trial": ms, "cost": cost, "sweeps_mean": 30.0, "sweeps_max": 50}
        return {"side": side, "overrides": ["snr_db=0"],
                "reference": {"shape": [512, 32], "svd_ms": 2.0},
                "tucker": block,
                "shared": {"tucker": {**block, "ms_per_trial": shared_ms,
                                      "cost": shared_cost}}}

    runs = [timing("parent", 12.0, 6.0, 11.0, 5.5), timing("change", 7.0, 3.5, 5.0, 2.5),
            timing("change", 8.0, 4.0, 6.0, 3.0), timing("parent", 10.0, 5.0, 9.0, 4.5),
            timing("parent", 11.0, 5.5, 10.0, 5.0), timing("change", 9.0, 4.5, 7.0, 3.5)]
    summary = bench_pairs.in_process_summary(runs)
    assert set(summary) == {"tucker", "shared"}
    assert summary["tucker"]["parent"]["ms_per_trial"] == [12.0, 10.0, 11.0]
    shared = summary["shared"]
    assert set(shared) == {"tucker"} and set(shared["tucker"]) == {"parent", "change"}
    assert shared["tucker"]["parent"]["ms_per_trial"] == [11.0, 9.0, 10.0]
    assert shared["tucker"]["parent"]["ms_per_trial_median"] == 10.0
    assert shared["tucker"]["change"]["cost"] == [2.5, 3.0, 3.5]
    assert shared["tucker"]["change"]["cost_median"] == 3.0
    assert shared["tucker"]["change"]["sweeps_max"] == 50
    assert "first_call_ms" not in shared["tucker"]["change"]  # timed alone only


def test_trial_timing_uses_first_snr_and_reference_units(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(
        "trial_timing", Path(__file__).resolve().parent.parent / "tools" / "trial_timing.py")
    trial_timing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trial_timing)
    seen = []
    clock = [0.0]

    class Done:
        iterations = 3

        def __init__(self, trial_index):
            # the first call (trial 2) is timed, but not scored
            self.nmse_h = (0.1, 0.3, 9.0)[trial_index]
            self.nmse_g = (0.02, 0.01, 9.0)[trial_index]
            self.ser = (0.0, 0.25, 9.0)[trial_index]

        def astuple(self):
            return (self.nmse_h, self.nmse_g, self.ser, self.iterations, 1.0)

    class Clock:
        @staticmethod
        def perf_counter():
            return clock[0]

    def fake_trial(cfg, receiver, snr_db, snr_index, trial_index):
        seen.append((snr_db, receiver, trial_index))
        clock[0] += 0.05 if trial_index == 2 else 0.001  # the first call is slow
        return Done(trial_index)

    blocks = iter([2.0, 1.0, 4.0, 3.0, 2.5])
    monkeypatch.setattr(trial_timing, "run_trial", fake_trial)
    monkeypatch.setattr(trial_timing, "time", Clock)
    monkeypatch.setattr(trial_timing, "reference_ms", lambda matrix: next(blocks))
    monkeypatch.setattr(trial_timing, "TRIALS", 2)
    assert trial_timing.main(["--set", "snr_db=30,10"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert {snr for snr, _, _ in seen} == {30.0} and out["snr_db"] == 30.0
    assert out["reference"]["svd_ms_blocks"] == [2.0, 1.0, 4.0, 3.0, 2.5]
    # each block's unit is the mean of the references right before and after it
    units = {"pakron": (1.5, 2.75), "tucker": (2.5, 2.75), "zf-oracle": (3.5, 2.75)}
    receivers = ("pakron", "tucker", "zf-oracle")
    # each receiver alone (first call on trial 2, then 0 and 1), then the shared
    # block: every receiver on trial 0, then on trial 1, in trial-0db order
    alone = [(rx, t) for rx in receivers for t in (2, 0, 1)]
    shared = [(rx, t) for t in (0, 1) for rx in receivers]
    assert [(rx, t) for _, rx, t in seen] == alone + shared
    for receiver in receivers:
        for timing, unit in zip((out[receiver], out["shared"][receiver]), units[receiver]):
            assert timing["ms_per_trial"] == pytest.approx(1.0)
            assert timing["svd_ms"] == unit
            assert timing["cost"] == pytest.approx(1.0 / unit)
            assert timing["sweeps_mean"] == 3 and timing["sweeps_max"] == 3
            # the accuracy of the trials timed: trials 0 and 1
            assert timing["nmse_h_median"] == pytest.approx(0.2)
            assert timing["nmse_g_median"] == pytest.approx(0.015)
            assert timing["ser_mean"] == pytest.approx(0.125)
        # the first call is timed apart from the per-trial mean, in its block's unit
        assert out[receiver]["first_call_ms"] == pytest.approx(50.0)
        assert out[receiver]["first_call_cost"] == pytest.approx(50.0 / units[receiver][0])
        assert "first_call_ms" not in out["shared"][receiver]
    assert out["peak_rss_mb"] > 0.0


def test_tier1_suite_is_timed_on_the_trees_own_package(monkeypatch, tmp_path):
    calls = []

    class Finished:
        returncode = 0
        stdout = "....\n307 passed in 14.02s\n"

    def fake_run(cmd, cwd, capture_output, text, env):
        calls.append((cmd, cwd, env))
        return Finished()

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    got = bench_pairs.suite_run(tmp_path)
    (cmd, cwd, env), = calls
    assert cmd[1:] == list(bench_pairs.SUITE) and cwd == tmp_path
    assert env["PYTHONPATH"] == str(tmp_path / "src")
    assert env["OPENBLAS_NUM_THREADS"] == "1"
    assert got["returncode"] == 0 and got["summary"] == "307 passed in 14.02s"
    assert got["wall_s"] >= 0.0


def test_source_lines_count_the_package_modules_only(tmp_path):
    package = tmp_path / "src" / "bdris"
    package.mkdir(parents=True)
    (package / "a.py").write_text("x = 1\ny = 2\n")
    (package / "b.py").write_text("\n\n\nlast line without a newline")
    (package / "notes.txt").write_text("not\ncounted\n")
    (tmp_path / "src" / "other.py").write_text("not counted\n")
    assert bench_pairs.src_lines(tmp_path) == 5  # what wc -l totals


TIMING_SPEC = importlib.util.spec_from_file_location(
    "trial_timing", Path(__file__).resolve().parent.parent / "tools" / "trial_timing.py")
trial_timing = importlib.util.module_from_spec(TIMING_SPEC)
TIMING_SPEC.loader.exec_module(trial_timing)


def test_one_slow_reference_subblock_leaves_the_unit():
    def clock(subblock_ms):
        # each sub-block reads its start, then its end subblock_ms later
        ticks = []
        for ms in subblock_ms:
            start = ticks[-1] + 1.0 if ticks else 0.0
            ticks += [start, start + ms / 1e3]
        return iter(ticks).__next__

    steady = [4.0] * trial_timing.REF_SUBBLOCKS
    slow = steady[:3] + [40.0] + steady[4:]
    matrix = np.ones((2, 2))
    svd_ms = [trial_timing.reference_ms(matrix, clock(ms)) for ms in (steady, slow)]
    assert svd_ms == pytest.approx([4.0 / trial_timing.REF_SVDS] * 2, rel=1e-12)
    timing = {"ms_per_trial": 6.0}
    trial_timing.in_units(timing, svd_ms)
    assert timing["svd_ms"] == pytest.approx(2.0, rel=1e-12)
    assert timing["cost"] == pytest.approx(3.0, rel=1e-12)


def test_outputs_digest_leaves_out_wall_time_and_is_kept_per_side():
    from bdris.experiments import TrialResult

    a = TrialResult(1, 0.0, "tucker", 0.1, 0.2, 0.0, 5, 3.0)
    b = TrialResult(2, 0.0, "tucker", 0.3, 0.4, 0.25, 7, 4.0)
    slower = [TrialResult(*t.astuple()[:-1], 99.0) for t in (a, b)]
    digest = trial_timing.timing(1.0, [a, b])["outputs_sha256"]
    assert trial_timing.timing(5.0, slower)["outputs_sha256"] == digest
    assert trial_timing.timing(1.0, [b, a])["outputs_sha256"] != digest  # trial order
    other = trial_timing.timing(1.0, [a, TrialResult(2, 0.0, "tucker", 0.3, 0.4, 0.25,
                                                     8, 4.0)])["outputs_sha256"]
    assert other != digest

    def run(side, cost, outputs):
        return {"side": side, "tucker": {"ms_per_trial": cost, "cost": cost,
                                         "outputs_sha256": outputs}}

    summary = bench_pairs.in_process_summary(
        [run("parent", 2.0, digest), run("change", 1.0, other),
         run("change", 1.5, other), run("parent", 2.5, digest)])
    assert summary["tucker"]["parent"]["outputs_sha256"] == digest
    assert summary["tucker"]["change"]["outputs_sha256"] == other
