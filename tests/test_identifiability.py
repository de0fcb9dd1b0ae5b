import dataclasses
import itertools

import numpy as np
import pytest

from bdris.config import SolverOptions, SystemConfig
from bdris.errors import IdentifiabilityError
from bdris.identifiability import (
    check_feasible,
    complexity_dominant,
    full_report,
    kmin_bounds,
    kruskal_check,
)
from bdris.receivers import RECEIVERS, Receiver, pakron_stage1, tucker_tals
from bdris.signal import build_core
from bdris.tensor_ops import khatri_rao, kron, unfold
from util import desk_config, draw_instance

SEMI_BLIND = ("pakron", "tucker")
REFERENCE_DIMS = dict(tx_antennas=2, rx_antennas=4, ris_elements=16, groups=2,
                  blocks=32, slots=4, frames=2, snr_db=(0.0,))


class TestKminBounds:
    def test_reference_configuration(self):
        report = kmin_bounds(desk_config(**REFERENCE_DIMS))
        assert report["kmin_pakron"] == 16
        assert report["kmin_tucker"] == 2

    def test_matching_kmins_when_frames_large(self):
        cfg = desk_config(tx_antennas=2, ris_elements=8, slots=2,
                          rx_antennas=2, frames=8, groups=2, blocks=4)
        report = kmin_bounds(cfg)
        assert report["kmin_pakron"] == report["kmin_tucker"] == 4

    def test_monotonicity(self):
        base_kwargs = dict(tx_antennas=2, rx_antennas=3, ris_elements=8,
                           groups=2, blocks=4, slots=5, frames=3)
        ref = kmin_bounds(desk_config(**base_kwargs))
        grow_relax = [dict(frames=6), dict(slots=10), dict(rx_antennas=6)]
        for change in grow_relax:
            rep = kmin_bounds(desk_config(**{**base_kwargs, **change}))
            assert rep["kmin_pakron"] <= ref["kmin_pakron"]
            assert rep["kmin_tucker"] <= ref["kmin_tucker"]
        grow_tighten = [dict(ris_elements=16), dict(tx_antennas=4)]
        for change in grow_tighten:
            rep = kmin_bounds(desk_config(**{**base_kwargs, **change}))
            assert rep["kmin_pakron"] >= ref["kmin_pakron"]
            assert rep["kmin_tucker"] >= ref["kmin_tucker"]


class TestKruskal:
    def test_satisfied_example(self):
        cfg = desk_config(tx_antennas=2, ris_elements=4, slots=4,
                          rx_antennas=4, frames=2, groups=2, blocks=8)
        report = kruskal_check(cfg)
        assert (report["kruskal_lhs"], report["kruskal_rhs"]) == (26, 18)
        assert report["kruskal_ok"]

    def test_violated_example(self):
        cfg = desk_config(tx_antennas=2, ris_elements=8, slots=2,
                          rx_antennas=1, frames=1, groups=2, blocks=2)
        report = kruskal_check(cfg)
        assert (report["kruskal_lhs"], report["kruskal_rhs"]) == (5, 34)
        assert not report["kruskal_ok"]

    def test_rank_one_with_many_frames_always_holds(self):
        cfg = desk_config(tx_antennas=2, ris_elements=4, slots=2,
                          rx_antennas=2, frames=8, groups=2, blocks=2)
        report = kruskal_check(cfg, rank_h=1)
        assert report["kruskal_ok"]
        assert report["rank_deficient_override"]

    def test_rank_one_with_few_frames_uses_sum(self):
        cfg = desk_config(tx_antennas=2, ris_elements=8, slots=2,
                          rx_antennas=2, frames=2, groups=2, blocks=4)
        report = kruskal_check(cfg, rank_h=1)
        # 4 + 2 + 2 = 8 < 34
        assert report["kruskal_lhs"] == 8
        assert not report["kruskal_ok"]


    @pytest.mark.parametrize("rank_h", [0, -3, 5, 99, True, 2.7, "3"])
    def test_impossible_rank_rejected(self, rank_h):
        # rank(H) <= min(rx_antennas, ris_elements) = 4 at the defaults, and
        # a rank is an integer: neither a bool nor a float or a string of one
        with pytest.raises(ValueError, match="rank_h"):
            kruskal_check(SystemConfig(frames=40), rank_h)

    def test_rank_range_ends_accepted(self):
        cfg = SystemConfig()
        assert kruskal_check(cfg, 1)["kruskal_lhs"] == 32 + 4 + 2
        assert kruskal_check(cfg, 4) == kruskal_check(cfg)


class TestComplexity:
    def test_reference_configuration(self):
        terms = complexity_dominant(desk_config(**REFERENCE_DIMS))
        assert terms["pakron"] == 524288
        assert terms["tucker"] == 524288

    def test_all_ones(self):
        cfg = desk_config(tx_antennas=1, rx_antennas=1, ris_elements=1,
                          groups=1, blocks=1, slots=1, frames=1)
        terms = complexity_dominant(cfg)
        assert terms == {"pakron": 1, "tucker": 1}


class TestEmpiricalRankDeficiency:
    def test_pakron_mixing_deficient_below_kmin(self):
        cfg = desk_config(**{**REFERENCE_DIMS, "blocks": 15})
        assert cfg.blocks == kmin_bounds(cfg)["kmin_pakron"] - 1
        design, channels, _, _ = draw_instance(cfg, 0)
        mix = khatri_rao(channels.gbar, design.psi)
        assert np.linalg.matrix_rank(mix) < cfg.tx_ris_dim

    def test_tucker_mixing_deficient_below_kmin(self):
        cfg = desk_config(tx_antennas=2, rx_antennas=2, ris_elements=8,
                          groups=2, blocks=3, slots=2, frames=4)
        assert cfg.blocks == kmin_bounds(cfg)["kmin_tucker"] - 1
        design, channels, symbols, _ = draw_instance(cfg, 1)
        core = build_core(cfg.ris_elements, cfg.tx_antennas)
        hs = channels.h @ design.s
        mats = [hs, symbols.x, design.psi, channels.gbar]
        # the binding constraint here is the stacked-channel update (mode 3)
        others = kron(kron(mats[2], mats[1]), mats[0])
        v = unfold(core, 3) @ others.T
        assert np.linalg.matrix_rank(v) < cfg.tx_ris_dim

    def test_tucker_symbol_mixing_deficient(self):
        cfg = desk_config(tx_antennas=2, rx_antennas=1, ris_elements=1,
                          groups=1, blocks=1, slots=2, frames=1)
        design, channels, symbols, _ = draw_instance(cfg, 2)
        core = build_core(1, 2)
        hs = channels.h @ design.s
        others = kron(kron(channels.gbar, design.psi), hs)
        v = unfold(core, 1) @ others.T
        assert np.linalg.matrix_rank(v) < cfg.tx_antennas


class TestFeasibilityGate:
    def test_raises_named_inequality(self):
        cfg = desk_config(**{**REFERENCE_DIMS, "blocks": 15})
        with pytest.raises(IdentifiabilityError) as exc:
            check_feasible(cfg, "pakron")
        assert exc.value.inequality == "frames*blocks >= tx_antennas*ris_elements"
        assert (exc.value.lhs, exc.value.rhs) == (30, 32)

    def test_oracle_not_gated(self):
        cfg = desk_config(**{**REFERENCE_DIMS, "blocks": 1})
        check_feasible(cfg, "zf-oracle")

    @pytest.mark.parametrize("table", ["real", "patched"])
    def test_every_receiver_with_inequalities_is_reported(self, monkeypatch, table):
        if table == "patched":
            # a new entry with inequalities needs no edit to identifiability
            monkeypatch.setitem(RECEIVERS, "probe", Receiver(
                "probe", RECEIVERS["tucker"].run,
                inequalities=(("frames*blocks*slots", "ris_elements"),)))
        report = full_report(desk_config(**REFERENCE_DIMS))
        assert len(report["inequalities"]) == 1 + sum(
            len(entry.inequalities) for entry in RECEIVERS.values())
        for entry in RECEIVERS.values():
            if entry.inequalities:
                assert f"kmin_{entry.name}" in report
                assert all(f"{entry.name}: {lhs} >= {rhs}" in report["inequalities"]
                           for lhs, rhs in entry.inequalities)
        if table == "patched":
            assert report["kmin_probe"] == 2  # ceil(16 / (frames*slots))

    def test_full_report_shape(self):
        report = full_report(desk_config(**REFERENCE_DIMS))
        assert {"kmin_pakron", "kmin_tucker", "kruskal_lhs", "kruskal_rhs",
                "kruskal_ok", "inequalities"} <= set(report)
        assert len(report["inequalities"]) == 6


def small_configs(blocks_grid=(1,)):
    """Valid configs over a grid of small dimensions."""
    for mt, mr, n, extra_slots, frames, blocks in itertools.product(
            (1, 2, 3), (1, 2, 4), (2, 4, 8), (0, 2), (1, 2, 5), blocks_grid):
        yield desk_config(tx_antennas=mt, rx_antennas=mr, ris_elements=n,
                          groups=1, slots=mt + extra_slots, frames=frames,
                          blocks=blocks)


def violation(check):
    try:
        check()
    except IdentifiabilityError as err:
        return err.inequality, err.lhs, err.rhs
    return None


class TestInequalityTable:
    @pytest.mark.parametrize("receiver", SEMI_BLIND)
    def test_kmin_is_smallest_feasible_blocks(self, receiver):
        for cfg in small_configs():
            kmin = kmin_bounds(cfg)[f"kmin_{receiver}"]
            blocks = 1
            while violation(lambda: check_feasible(
                    dataclasses.replace(cfg, blocks=blocks), receiver)):
                blocks += 1
            assert blocks == kmin, cfg

    @pytest.mark.parametrize("receiver", SEMI_BLIND)
    def test_receiver_gate_matches_check_feasible(self, receiver):
        solver = SolverOptions(max_iters=1)
        seen = set()
        for cfg in small_configs(blocks_grid=(1, 2, 3)):
            expected = violation(lambda: check_feasible(cfg, receiver))
            if expected is None:
                continue
            mt, mr, n = cfg.tx_antennas, cfg.rx_antennas, cfg.ris_elements
            y = np.zeros((mr, cfg.slots, cfg.blocks, cfg.frames), dtype=complex)
            psi = np.ones((cfg.blocks, mt * n), dtype=complex)
            if receiver == "pakron":
                z = y.reshape(mr * cfg.slots, cfg.blocks, cfg.frames, order="F")
                got = violation(lambda: pakron_stage1(
                    z, psi, (cfg.slots, mt), (mr, n), solver, 0))
            else:
                got = violation(lambda: tucker_tals(
                    y, build_core(n, mt), psi, solver, 0))
            assert got == expected, cfg
            seen.add(got[0])
        assert seen == {f"{lhs} >= {rhs}"
                        for lhs, rhs in RECEIVERS[receiver].inequalities}

