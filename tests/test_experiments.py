import csv
import json
import math
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import warnings
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bdris.config import SolverOptions, SystemConfig
from bdris.errors import (IdentifiabilityError, NumericalError,
                          ScalingResolutionError)
from bdris import experiments
from bdris.experiments import (
    TrialFailure,
    TrialResult,
    json_safe,
    nmse_aligned,
    run_sweep,
    run_trial,
    ser,
    trial_to_dict,
    write_trials_csv,
)
from bdris.receivers import RECEIVERS
from util import desk_config, draw_instance, patch_entry, read_trials_csv

TOLERATED = (ScalingResolutionError, NumericalError, IdentifiabilityError,
             np.linalg.LinAlgError)
SWEEP_CFG = SystemConfig(tx_antennas=2, rx_antennas=4, ris_elements=8, groups=2,
                         blocks=16, slots=4, frames=2, modulation_order=4,
                         seed=20240)


def scores(trial):
    """A trial's outcome without its timing."""
    if isinstance(trial, TrialResult):
        return trial.astuple()[:-1]
    return (trial.seed, trial.snr_db, trial.receiver, trial.error)


def fail_on_scenario(mp, receiver, cfg, trial_index, snr_index=0):
    """Make ``receiver``'s entry fail the one trial, in whatever batch, that
    runs on the scenario of ``(snr_index, trial_index)`` of ``cfg``, chosen by
    that scenario's seed; the batch's other trials run as they did."""
    seed = experiments.derive_seed(cfg.seed, "scenario", snr_index, trial_index)
    target = draw_instance(cfg, seed)[0]  # its design
    run = RECEIVERS[receiver].run

    def fails_one(cases, solver):
        outputs, wall_ms = run(cases, solver)
        return [NumericalError("synthetic failure")
                if np.array_equal(case[1].psi, target.psi) else out
                for case, out in zip(cases, outputs)], wall_ms

    patch_entry(mp, receiver, run=fails_one)


@pytest.fixture
def fresh_scenarios():
    """An empty scenario cache before and after the test, so that a patched
    draw is neither bypassed by a scenario cached earlier nor leaves one."""
    experiments._noised_scenario.cache_clear()
    yield
    experiments._noised_scenario.cache_clear()


class TestNmseAligned:
    def test_exact(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        assert nmse_aligned(a, a) < 1e-30

    def test_zero_estimate(self):
        a = np.ones((3, 2), dtype=complex)
        assert nmse_aligned(a, np.zeros_like(a)) == 1.0

    def test_per_column_unit_modulus_invariance(self):
        rng = np.random.default_rng(2)
        truth = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
        est = truth + 0.1 * (rng.standard_normal((5, 4))
                             + 1j * rng.standard_normal((5, 4)))
        phases = np.exp(2j * np.pi * rng.random(4))
        base = nmse_aligned(truth, est)
        assert np.isclose(nmse_aligned(truth, est * phases[None, :]), base)

    def test_zero_truth_rejected(self):
        with pytest.raises(ValueError):
            nmse_aligned(np.zeros((2, 2)), np.ones((2, 2)))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            nmse_aligned(np.ones((2, 2)), np.ones((3, 2)))


class TestSer:
    def test_identical(self):
        sym = draw_instance(desk_config(), 4)[2]
        assert ser(sym, sym.x) == 0.0

    def test_all_wrong(self):
        sym = draw_instance(desk_config(), 5)[2]
        rotated = sym.x * np.exp(2j * np.pi / sym.alphabet.size)
        assert ser(sym, rotated) == 1.0

    def test_one_of_hundred(self):
        cfg = desk_config(slots=51, tx_antennas=2)
        sym = draw_instance(cfg, 6)[2]
        detected = sym.x.copy()
        bad = np.argmin(np.abs(sym.alphabet - detected[10, 0]))
        detected[10, 0] = sym.alphabet[(bad + 2) % sym.alphabet.size]
        assert np.isclose(ser(sym, detected), 0.01)

    def test_reference_row_excluded(self):
        sym = draw_instance(desk_config(), 7)[2]
        detected = sym.x.copy()
        detected[0, :] = sym.alphabet[1]  # corrupt only the reference row
        assert ser(sym, detected) == 0.0

    def test_no_data_symbol_is_nan_without_a_warning(self):
        # slots = 1: the block holds only the reference row
        cfg = desk_config(tx_antennas=1, rx_antennas=2, ris_elements=2, blocks=4,
                          slots=1, frames=2)
        sym = draw_instance(cfg, 8)[2]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isnan(ser(sym, sym.x))


def test_json_safe_writes_non_finite_floats_as_strings():
    obj = {"a": math.nan, "b": [math.inf, -math.inf, np.float64(math.nan),
                                np.float32(math.inf), (1.5, np.int64(3))]}
    safe = json_safe(obj)
    assert safe == {"a": "nan", "b": ["inf", "-inf", "nan", "inf", [1.5, 3]]}
    assert json.loads(json.dumps(safe, allow_nan=False)) == safe


class TestRunTrial:
    def test_receiver_dispatch_and_fields(self):
        cfg = desk_config(seed=5)
        for rx in ("pakron", "tucker", "zf-oracle"):
            trial = run_trial(cfg, rx, 20.0, 0, 0)
            assert trial.receiver == rx
            assert np.isfinite(trial.nmse_h) and np.isfinite(trial.nmse_g)
            assert 0.0 <= trial.ser <= 1.0

    def test_unknown_and_reserved_receivers(self):
        for receiver in ("genie", "hybrid"):
            with pytest.raises(ValueError):
                run_trial(desk_config(), receiver, 10.0)

    def test_common_randomness_across_receivers(self):
        cfg = desk_config(seed=6)
        a = run_trial(cfg, "pakron", 10.0, 0, 3)
        b = run_trial(cfg, "tucker", 10.0, 0, 3)
        assert a.seed == b.seed  # same scenario, different receiver

    @pytest.mark.parametrize("cfg", [SystemConfig(), SWEEP_CFG,
                                     SystemConfig(blocks=16),
                                     SystemConfig(channel_model="geometric")],
                             ids=["default", "sweep", "blocks16", "geometric"])
    def test_receivers_run_on_one_read_only_scenario(self, cfg, fresh_scenarios):
        trials = [run_trial(cfg, rx, 10.0, 0, 1) for rx in RECEIVERS]
        assert experiments._noised_scenario.cache_info().hits == 2
        _, design, channels, symbols, received = experiments._noised_scenario(
            cfg, 10.0, 0, 1, cfg.seed)
        for array in (design.p, design.w, design.psi, channels.h, channels.g,
                      symbols.x, received.y):
            assert not array.flags.writeable
        assert len({t.seed for t in trials}) == 1
        assert all(np.isfinite(t.nmse_h) and 0.0 <= t.ser <= 1.0 for t in trials)

    def test_geometric_channel_model_end_to_end(self):
        cfg = desk_config(channel_model="geometric", paths=2, seed=14)
        trial = run_trial(cfg, "tucker", 20.0, 0, 0)
        assert np.isfinite(trial.nmse_h) and np.isfinite(trial.nmse_g)
        assert trial.nmse_g < 1.0


class TestRunSweep:
    def test_bookkeeping(self):
        cfg = desk_config(snr_db=(10.0,), seed=7)
        trials, report = run_sweep(cfg, ["tucker"], runs=2)
        assert len(trials) == 2
        assert len(report.cells) == 1
        cell = report.cells[0]
        assert cell["runs_completed"] == 2
        assert cell["failures"] == 0

    def test_noiseless_semi_blind_accuracy(self):
        solver = SolverOptions(delta=1e-14, max_iters=300)
        cfg = desk_config(snr_db=(math.inf,), seed=8, solver=solver)
        _, report = run_sweep(cfg, ["pakron", "tucker"], runs=3)
        for cell in report.cells:
            assert cell["nmse_g_mean"] <= 1e-8

    def test_identifiability_gate(self):
        cfg = desk_config(ris_elements=16, groups=2, blocks=15, frames=2,
                          snr_db=(10.0,))
        with pytest.raises(IdentifiabilityError):
            run_sweep(cfg, ["pakron"], runs=1)

    def test_deterministic_reports(self):
        cfg = desk_config(snr_db=(5.0, 15.0), seed=9)
        _, r1 = run_sweep(cfg, ["pakron", "tucker"], runs=2)
        _, r2 = run_sweep(cfg, ["pakron", "tucker"], runs=2)
        assert _strip_timing(r1.to_dict()) == _strip_timing(r2.to_dict())

    def test_failures_recorded_not_dropped(self, monkeypatch):
        def boom(*args, **kwargs):
            raise NumericalError("synthetic failure")

        patch_entry(monkeypatch, "pakron", run=boom)
        cfg = desk_config(snr_db=(10.0,), seed=10)
        trials, report = run_sweep(cfg, ["pakron"], runs=2)
        assert all(isinstance(t, TrialFailure) for t in trials)
        assert report.cells[0]["failures"] == 2
        assert report.cells[0]["runs_completed"] == 0

    def test_csv_roundtrip_and_aggregates(self, tmp_path):
        cfg = desk_config(snr_db=(10.0,), seed=11)
        trials, report = run_sweep(cfg, ["tucker"], runs=4)
        path = tmp_path / "trials.csv"
        write_trials_csv(path, trials)
        header = path.read_text().splitlines()[0]
        assert header == "seed,snr_db,receiver,nmse_h,nmse_g,ser,iters,wall_ms,error"
        loaded = read_trials_csv(path)
        assert [t.seed for t in loaded] == [t.seed for t in trials]
        # aggregates recomputable from the persisted rows
        cell = report.cells[0]
        assert np.isclose(cell["nmse_h_mean"],
                          np.mean([t.nmse_h for t in loaded]))
        assert np.isclose(cell["nmse_h_median"],
                          np.median([t.nmse_h for t in loaded]))

    def test_csv_writes_failed_trials_as_rows(self, monkeypatch, tmp_path):
        cfg = desk_config(snr_db=(10.0,), seed=14)
        fail_on_scenario(monkeypatch, "tucker", cfg, trial_index=1)
        trials, report = run_sweep(cfg, ["tucker"], runs=3)
        assert [type(t) for t in trials] == [TrialResult, TrialFailure, TrialResult]
        assert report.cells[0]["failures"] == 1
        path = tmp_path / "trials.csv"
        write_trials_csv(path, trials)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["seed"]) for r in rows] == [t.seed for t in trials]
        assert rows[1]["error"] == "NumericalError: synthetic failure"
        assert rows[1]["receiver"] == "tucker" and float(rows[1]["snr_db"]) == 10.0
        assert all(rows[1][f] == "" for f in
                   ("nmse_h", "nmse_g", "ser", "iters", "wall_ms"))
        assert rows[0]["error"] == rows[2]["error"] == ""
        assert read_trials_csv(path) == trials

    def test_unknown_receiver_rejected_before_any_trial(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return run_trial(*args, **kwargs)

        monkeypatch.setattr(experiments, "run_trial", counting)
        with pytest.raises(ValueError, match="bogus"):
            run_sweep(desk_config(snr_db=(10.0,)), ["tucker", "bogus"], runs=3)
        assert calls == []

    @pytest.mark.parametrize("runs, jobs", [(0, 1), (-3, 1), (2, 0), (2, -4)])
    def test_rejects_runs_or_jobs_below_one(self, runs, jobs):
        with pytest.raises(ValueError, match="at least 1"):
            run_sweep(desk_config(snr_db=(10.0,)), ["zf-oracle"], runs=runs, jobs=jobs)

    def test_each_scenario_is_drawn_once(self, monkeypatch, fresh_scenarios):
        draws = []
        draw = experiments.draw_scenario

        def counting(cfg, seed):
            draws.append(seed)
            return draw(cfg, seed)

        monkeypatch.setattr(experiments, "draw_scenario", counting)
        cfg = desk_config(snr_db=(5.0, 15.0), seed=21)
        trials, _ = run_sweep(cfg, ["pakron", "tucker"], runs=3)
        assert len(draws) == 2 * 3  # once per (SNR, trial), not per receiver
        assert sorted(draws) == sorted({t.seed for t in trials})
        assert [(t.snr_db, t.receiver) for t in trials] == [
            (snr, rx) for snr in (5.0, 15.0) for rx in ("pakron", "tucker")
            for _ in range(3)]

    def test_one_receivers_failure_spares_the_other(self, monkeypatch,
                                                    fresh_scenarios):
        cfg = desk_config(snr_db=(10.0,), seed=22)
        fail_on_scenario(monkeypatch, "pakron", cfg, trial_index=0)
        trials, report = run_sweep(cfg, ["pakron", "tucker"], runs=2)
        assert [type(t) for t in trials] == [TrialFailure, TrialResult,
                                             TrialResult, TrialResult]
        assert trials[0].seed == trials[2].seed  # tucker's trial on that scenario
        assert scores(trials[2]) == scores(run_trial(cfg, "tucker", 10.0, 0, 0))
        assert [c["failures"] for c in report.cells] == [1, 0]

    def test_error_raised_for_a_block_runs_its_trials_alone(self, monkeypatch):
        # an entry that raises for a batch of several trials: each trial of
        # the block runs alone, so no outcome depends on the block
        run = RECEIVERS["tucker"].run

        def refuses_batches(cases, solver):
            if len(cases) > 1:
                raise NumericalError("synthetic batch failure")
            return run(cases, solver)

        cfg = desk_config(snr_db=(10.0,), seed=23)
        expected = [scores(run_trial(cfg, "tucker", 10.0, 0, r)) for r in range(3)]
        patch_entry(monkeypatch, "tucker", run=refuses_batches)
        trials, report = run_sweep(cfg, ["tucker"], runs=3)
        assert [scores(t) for t in trials] == expected
        assert report.cells[0]["failures"] == 0

    def test_report_json_serializable(self):
        cfg = desk_config(snr_db=(10.0,), seed=12)
        _, report = run_sweep(cfg, ["zf-oracle"], runs=1)
        payload = json.dumps(report.to_dict())
        assert "zf-oracle" in payload


def _strip_timing(obj):
    if isinstance(obj, dict):
        return {k: _strip_timing(v) for k, v in obj.items()
                if not k.startswith("wall_ms")}
    if isinstance(obj, list):
        return [_strip_timing(v) for v in obj]
    return obj


def test_trial_result_keeps_exact_values():
    # the numbers are packed into one bytes object; they read back unchanged
    values = dict(seed=2**64 - 1, snr_db=math.inf, receiver="tucker",
                  nmse_h=0.1 + 2**-56, nmse_g=5e-324, ser=-0.0, iterations=500,
                  wall_ms=1.25)
    trial = TrialResult(**values)
    assert trial.astuple() == tuple(values.values())
    assert math.copysign(1.0, trial.ser) == -1.0
    again = pickle.loads(pickle.dumps(trial))
    assert again == trial and hash(again) == hash(trial)
    assert again != TrialResult(**{**values, "iterations": 499})
    assert trial_to_dict(trial) == {**values, "snr_db": "inf"}
    assert repr(trial).startswith("TrialResult(seed=18446744073709551615, snr_db=inf, ")
    with pytest.raises(AttributeError):
        trial.error  # a TrialFailure field


def test_trial_with_a_nan_ser_equals_itself():
    # a one-slot frame holds only the reference row, so its SER is NaN
    trial = TrialResult(seed=1, snr_db=10.0, receiver="zf-oracle", nmse_h=0.0,
                        nmse_g=0.0, ser=math.nan, iterations=0, wall_ms=0.5)
    again = pickle.loads(pickle.dumps(trial))
    assert trial == trial and again == trial and again in {trial}


def test_parallel_matches_serial():
    cfg = desk_config(snr_db=(10.0,), seed=13)
    t1, _ = run_sweep(cfg, ["tucker"], runs=3, jobs=1)
    t2, _ = run_sweep(cfg, ["tucker"], runs=3, jobs=2)
    for a, b in zip(t1, t2):
        assert isinstance(a, TrialResult) and isinstance(b, TrialResult)
        assert (a.seed, a.nmse_h, a.nmse_g, a.ser) == (b.seed, b.nmse_h, b.nmse_g, b.ser)


@settings(max_examples=6, deadline=None)
@given(tx=st.integers(1, 2), rx=st.integers(1, 3), ris=st.sampled_from([2, 4]),
       extra_slots=st.integers(0, 1), frames=st.integers(1, 3),
       extra_blocks=st.integers(0, 2),
       receivers=st.lists(st.sampled_from(tuple(RECEIVERS)), min_size=1,
                          max_size=3, unique=True),
       snrs=st.one_of(st.lists(st.sampled_from([0.0, 10.0, 30.0]), min_size=1,
                               max_size=2), st.just([math.inf])),
       runs=st.integers(1, 3), seed=st.integers(0, 2**16))
def test_property_sweeps_equal_per_call_trials(tx, rx, ris, extra_slots, frames,
                                               extra_blocks, receivers, snrs,
                                               runs, seed):
    slots = tx + extra_slots
    d = tx * ris
    blocks = max(-(-d // frames), -(-d // (slots * rx)), -(-ris // (frames * slots)),
                 -(-tx // (frames * rx))) + extra_blocks
    cfg = desk_config(tx_antennas=tx, rx_antennas=rx, ris_elements=ris, groups=2,
                      slots=slots, frames=frames, blocks=blocks,
                      snr_db=tuple(snrs), seed=seed,
                      solver=SolverOptions(max_iters=60))
    expected = []
    for si, snr in enumerate(snrs):
        for receiver in receivers:
            for r in range(runs):
                try:
                    expected.append(scores(run_trial(cfg, receiver, snr, si, r)))
                except TOLERATED as err:
                    expected.append((experiments.derive_seed(seed, "scenario", si, r),
                                     snr, receiver, f"{type(err).__name__}: {err}"))
    # compared by repr, which is exact for floats and equal for the NaN SER
    # of a one-slot frame (it holds only the reference row)
    for jobs in (1, 2):
        trials, _ = run_sweep(cfg, receivers, runs, jobs=jobs)
        assert [repr(scores(t)) for t in trials] == [repr(e) for e in expected]


@pytest.mark.parametrize("cfg, jobs", [
    (SystemConfig(snr_db=(0.0, 30.0)), 1),
    (SystemConfig(snr_db=(0.0, 30.0)), 2),
    (SystemConfig(blocks=16, snr_db=(10.0,)), 1),
], ids=["default-serial", "default-pooled", "blocks16"])
def test_batch_composition_changes_no_bit(cfg, jobs):
    # run_sweep runs blocks of up to ceil(runs / jobs) trials in lockstep;
    # each trial must keep run_trial's bits.  At the default dims a block of
    # 16 trials stacks 256 KiB, numpy's size for eliding temporaries, and at
    # blocks = 16 (< d) every solve takes eigvalsh.
    runs = 32
    receivers = ["pakron", "tucker"]
    assert -(-runs // jobs) >= 16
    expected = [repr(scores(run_trial(cfg, rx, snr, si, r)))
                for si, snr in enumerate(cfg.snr_db) for rx in receivers
                for r in range(runs)]
    trials, _ = run_sweep(cfg, receivers, runs, jobs=jobs)
    assert [repr(scores(t)) for t in trials] == expected


def _pool_pids():
    return sorted(p.pid for p in multiprocessing.active_children())


def _ended(pid) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def _kill_own_worker(args):
    os._exit(1)


class TestKeptPool:
    """run_sweep forks its workers at the first pooled call and keeps them for
    later calls with the same ``jobs``."""

    def serial_and_pooled(self, cfg, jobs=2, receivers=("tucker", "zf-oracle")):
        serial, _ = run_sweep(cfg, receivers, runs=3, jobs=1)
        pooled, _ = run_sweep(cfg, receivers, runs=3, jobs=jobs)
        return [repr(scores(t)) for t in serial], [repr(scores(t)) for t in pooled]

    def test_a_script_exits_cleanly_and_ends_its_workers(self):
        code = ("import multiprocessing\n"
                "from bdris.experiments import run_sweep\n"
                "from bdris.config import SystemConfig\n"
                "run_sweep(SystemConfig(snr_db=(10.0,)), ['zf-oracle'], runs=2, jobs=2)\n"
                "print(*[p.pid for p in multiprocessing.active_children()])")
        env = {**os.environ, "PYTHONPATH": str(Path(experiments.__file__).resolve().parents[1])}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0 and done.stderr == ""
        pids = [int(p) for p in done.stdout.split()]
        assert len(pids) == 2 and all(_ended(p) for p in pids)

    def test_calls_reuse_the_workers_and_serve_no_stale_scenario(self):
        # B has A's dims; each serial result is drawn with an empty cache, so
        # that a kept worker's cached scenario of the other config would show
        a = desk_config(seed=5)
        b = replace(a, seed=6, solver=SolverOptions(max_iters=7, init_seed=3))
        serial = {}
        for cfg in (a, b):
            experiments._noised_scenario.cache_clear()
            serial[cfg] = [repr(scores(t)) for t in run_sweep(cfg, ["tucker"], 3)[0]]
        assert serial[a] != serial[b]
        workers = None
        for cfg in (a, b, a):
            pooled, _ = run_sweep(cfg, ["tucker"], 3, jobs=2)
            assert [repr(scores(t)) for t in pooled] == serial[cfg]
            workers = workers or _pool_pids()
            assert len(workers) == 2 and _pool_pids() == workers

    def test_another_jobs_replaces_the_pool(self):
        cfg = desk_config(seed=7)
        self.serial_and_pooled(cfg, jobs=2)
        two = _pool_pids()
        serial, pooled = self.serial_and_pooled(cfg, jobs=3)
        three = _pool_pids()
        assert pooled == serial and len(three) == 3
        assert not set(two) & set(three) and all(_ended(p) for p in two)

    def test_a_forked_child_runs_its_own_pool(self):
        cfg = desk_config(seed=8)
        serial, _ = self.serial_and_pooled(cfg)  # the parent's pool exists
        ctx = multiprocessing.get_context("fork")
        reader, writer = ctx.Pipe(duplex=False)

        def child():
            trials, _ = run_sweep(cfg, ["tucker", "zf-oracle"], runs=3, jobs=2)
            writer.send([repr(scores(t)) for t in trials])

        proc = ctx.Process(target=child)
        proc.start()
        try:
            got = reader.recv() if reader.poll(60) else None
            proc.join(60)
        finally:
            proc.kill()  # only if it still runs
        assert got == serial and proc.exitcode == 0
        # and the parent's pool still serves the parent
        assert self.serial_and_pooled(cfg)[1] == serial

    def test_a_broken_pool_is_replaced(self):
        cfg = desk_config(seed=9)
        self.serial_and_pooled(cfg)
        victim = _pool_pids()[0]
        os.kill(victim, signal.SIGKILL)
        serial, pooled = self.serial_and_pooled(cfg)
        assert pooled == serial and victim not in _pool_pids()

    def test_a_second_break_raises(self, monkeypatch):
        experiments._close_pool()  # the next pool is forked with the patch
        monkeypatch.setattr(experiments, "_block_task", _kill_own_worker)
        with pytest.raises(BrokenProcessPool):
            run_sweep(desk_config(), ["zf-oracle"], runs=2, jobs=2)
        assert experiments._pool is None
