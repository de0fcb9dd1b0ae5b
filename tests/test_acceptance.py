"""End-to-end acceptance gate.

Each criterion is one test; every test prints a single
``[criterion N] PASS/FAIL`` line (bypassing capture so the lines always show)
before asserting, so a full run yields a per-criterion scoreboard.
"""

import sys
import time

import numpy as np
import pytest

from bdris.config import SystemConfig, derive_seed
from bdris.errors import IdentifiabilityError
from bdris.experiments import nmse_aligned, run_sweep, ser
from bdris.identifiability import full_report, kruskal_check
from bdris.receivers import pakron, tucker
from bdris.signal import add_noise, reshape_views
from bdris.tensor_ops import khatri_rao, kron, unfold
from util import (desk_config, draw_instance, loop_oracle, rel_err, tight_solver,
                  unfold_multi)

NOISELESS_CFG = dict(tx_antennas=2, rx_antennas=4, ris_elements=4, groups=2,
                     blocks=8, slots=4, frames=4)
SWEEP_CFG = SystemConfig(tx_antennas=2, rx_antennas=4, ris_elements=8,
                         groups=2, blocks=16, slots=4, frames=2,
                         snr_db=(0.0, 10.0, 20.0, 30.0),
                         modulation_order=4, seed=20240)
SWEEP_RUNS = 200


def announce(capsys, criterion, ok, detail):
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}"
    with capsys.disabled():
        print(line, flush=True)


@pytest.fixture(scope="module")
def channel_sweep():
    """Shared Monte-Carlo sweep for criteria 4 and 5."""
    return run_sweep(SWEEP_CFG, ["pakron", "tucker"], runs=SWEEP_RUNS)[1]


def test_criterion_1_kernel_oracle_equivalence(capsys):
    """Factored synthesis == quadruple-loop oracle; all unfolding identities."""
    t0 = time.time()
    rng = np.random.default_rng(1)
    instances = 0
    worst_oracle = 0.0
    worst_identity = 0.0
    while instances < 100:
        mt = int(rng.integers(1, 3))
        mr = int(rng.integers(1, 5))
        q = int(rng.choice([1, 2]))
        n = q * int(rng.integers(1, 4))
        k = int(rng.integers(2, 7))
        t = int(rng.integers(mt, mt + 3))
        frames = int(rng.integers(1, 4))
        if mr * t * k * frames > 10_000:
            continue
        cfg = SystemConfig(tx_antennas=mt, rx_antennas=mr, ris_elements=n,
                           groups=q, blocks=k, slots=t, frames=frames,
                           snr_db=(0.0,))
        design, channels, symbols, received = draw_instance(
            cfg, int(rng.integers(0, 2**32)))
        worst_oracle = max(worst_oracle, rel_err(
            received.y, loop_oracle(cfg, design, channels, symbols)))

        views = reshape_views(received, design)
        hs = channels.h @ design.s
        omega = kron(symbols.x, hs)
        mats = [hs, symbols.x, design.psi, channels.gbar]
        checks = [
            rel_err(unfold(views.z, 0),
                    omega @ khatri_rao(channels.gbar, design.psi).T),
            rel_err(unfold(views.z, 2),
                    channels.gbar @ khatri_rao(design.psi, omega).T),
            0.0 if np.array_equal(
                unfold_multi(views.q4, [0, 1], [2, 3]).ravel(order="F"),
                unfold(received.y, 0).ravel(order="F")) else 1.0,
        ]
        for mode in range(4):
            others = [mats[m] for m in reversed(range(4)) if m != mode]
            mix = others[0]
            for o in others[1:]:
                mix = kron(mix, o)
            checks.append(rel_err(
                unfold(views.q4, mode),
                mats[mode] @ unfold(views.core, mode) @ mix.T))
        worst_identity = max(worst_identity, max(checks))
        instances += 1
    elapsed = time.time() - t0
    ok = worst_oracle < 1e-12 and worst_identity < 1e-12 and elapsed < 60
    announce(capsys, 1, ok, f"100 instances, worst oracle err {worst_oracle:.2e}, "
                    f"worst identity err {worst_identity:.2e}, {elapsed:.1f}s")
    assert worst_oracle < 1e-12
    assert worst_identity < 1e-12
    assert elapsed < 60


def test_criterion_2_tucker_noiseless_exact_recovery(capsys):
    t0 = time.time()
    cfg = desk_config(**NOISELESS_CFG)
    solver = tight_solver(max_iters=200)
    good = 0
    for seed in range(20):
        design, channels, symbols, received = draw_instance(cfg, seed)
        out = tucker(received, design, symbols.alphabet, solver,
                     derive_seed(seed, "tucker-init"))
        nmse = max(nmse_aligned(channels.h @ design.s, out.hs_hat),
                   nmse_aligned(symbols.x, out.x_hat),
                   nmse_aligned(channels.gbar, out.gbar_hat))
        if nmse <= 1e-8 and out.iterations <= 200:
            good += 1
    elapsed = time.time() - t0
    ok = good >= 19 and elapsed < 60
    announce(capsys, 2, ok, f"{good}/20 seeds with all NMSE <= 1e-8 within 200 sweeps, "
                    f"{elapsed:.1f}s")
    assert good >= 19
    assert elapsed < 60


def test_criterion_3_pakron_noiseless_recovery(capsys):
    cfg = desk_config(**NOISELESS_CFG)
    solver = tight_solver(max_iters=500, structure_projection=True)
    good = 0
    ser_zero = 0
    for seed in range(20):
        design, channels, symbols, received = draw_instance(cfg, seed)
        out = pakron(received, design, symbols.alphabet, solver,
                     derive_seed(seed, "pakron-init"))
        fit_ok = out.final_fit <= 1e-8
        g_ok = nmse_aligned(channels.gbar, out.gbar_hat) <= 1e-8
        if fit_ok and g_ok:
            good += 1
            if ser(symbols, out.x_detected) == 0.0:
                ser_zero += 1
    ok = good >= 19 and ser_zero == good
    announce(capsys, 3, ok, f"{good}/20 seeds with stage-I fit and NMSE(G) <= 1e-8; "
                    f"SER zero in {ser_zero}/{good} of them")
    assert good >= 19
    assert ser_zero == good


def _violations(values):
    """Adjacent increasing pairs: list of (index, relative increase)."""
    out = []
    for i in range(len(values) - 1):
        if values[i + 1] >= values[i]:
            out.append((i, (values[i + 1] - values[i]) / values[i]))
    return out


def test_criterion_4_monotone_nmse_vs_snr(channel_sweep, capsys):
    details = []
    ok = True
    for rx in ("pakron", "tucker"):
        for metric in ("nmse_h_mean", "nmse_g_mean"):
            seq = [c[metric] for c in channel_sweep.cells if c["receiver"] == rx]
            bad = _violations(seq)
            this_ok = not bad or (len(bad) == 1 and bad[0][1] <= 0.05)
            ok = ok and this_ok
            details.append(f"{rx}/{metric.split('_')[1]}: "
                           + "->".join(f"{v:.1e}" for v in seq))
            assert this_ok, f"{rx} {metric} not decreasing: {seq}"
    announce(capsys, 4, ok, "; ".join(details))


def test_criterion_5_receiver_ordering(channel_sweep, capsys):
    cells = {(c["receiver"], c["snr_db"]): c for c in channel_sweep.cells}
    h_ok = all(cells[("tucker", s)]["nmse_h_median"]
               <= 1.2 * cells[("pakron", s)]["nmse_h_median"]
               for s in SWEEP_CFG.snr_db)
    g_ok = all(cells[("tucker", s)]["nmse_g_median"]
               <= cells[("pakron", s)]["nmse_g_median"]
               for s in (0.0, 10.0))
    announce(capsys, 5, h_ok and g_ok,
             f"median NMSE(H) tucker<=1.2x pakron at all SNRs: {h_ok}; "
             f"median NMSE(G) tucker<=pakron at 0/10 dB: {g_ok}")
    assert h_ok
    assert g_ok


def test_criterion_6_ser_sanity_vs_oracle(capsys):
    mapping = SWEEP_CFG.to_mapping()
    mapping["snr_db"] = [25.0]
    cfg = SystemConfig.from_mapping(mapping)
    _, report = run_sweep(cfg, ["tucker", "zf-oracle"], runs=SWEEP_RUNS)
    cells = {c["receiver"]: c for c in report.cells}
    tucker_ser = cells["tucker"]["ser_mean"]
    zf_ser = cells["zf-oracle"]["ser_mean"]
    ok = tucker_ser <= 10 * zf_ser and tucker_ser <= 1e-2 and zf_ser <= 1e-2
    announce(capsys, 6, ok, f"QPSK 25 dB, {SWEEP_RUNS} runs: tucker SER {tucker_ser:.2e}, "
                    f"oracle SER {zf_ser:.2e}")
    assert tucker_ser <= 10 * zf_ser
    assert tucker_ser <= 1e-2 and zf_ser <= 1e-2


def test_criterion_7_identifiability_arithmetic(capsys):
    reference_cfg = SystemConfig(tx_antennas=2, rx_antennas=4, ris_elements=16,
                             groups=2, blocks=32, slots=4, frames=2,
                             snr_db=(0.0,))
    report = full_report(reference_cfg)
    kmin_ok = report["kmin_pakron"] == 16 and report["kmin_tucker"] == 2

    kruskal_cfg = desk_config(tx_antennas=2, ris_elements=4, slots=4,
                              rx_antennas=4, frames=2, groups=2, blocks=8)
    kr = kruskal_check(kruskal_cfg)
    kruskal_ok = (kr["kruskal_lhs"], kr["kruskal_rhs"], kr["kruskal_ok"]) == (26, 18, True)

    short_cfg = SystemConfig(tx_antennas=2, rx_antennas=4, ris_elements=16,
                             groups=2, blocks=15, slots=4, frames=2,
                             snr_db=(0.0,))
    design, channels, symbols, received = draw_instance(short_cfg, 7)
    mix = khatri_rao(channels.gbar, design.psi)
    deficient = np.linalg.matrix_rank(mix) < short_cfg.tx_ris_dim
    try:
        pakron(received, design, symbols.alphabet, short_cfg.solver, 0)
        named_error = False
        inequality = "(not raised)"
    except IdentifiabilityError as err:
        named_error = True
        inequality = err.inequality
    ok = kmin_ok and kruskal_ok and deficient and named_error
    announce(capsys, 7, ok, f"kmins {report['kmin_pakron']}/{report['kmin_tucker']}, "
                    f"kruskal 26>=18 {kruskal_ok}, mixing rank-deficient "
                    f"{deficient}, raised '{inequality}'")
    assert kmin_ok and kruskal_ok and deficient and named_error


def test_criterion_8_monotone_deterministic_trajectories(capsys):
    cfg = desk_config(ris_elements=8, groups=2, blocks=16, frames=2)
    rng = np.random.default_rng(88)
    checked = 0
    for seed in range(50):
        design, channels, symbols, received = draw_instance(cfg, 500 + seed)
        snr = float(rng.uniform(0.0, 30.0))
        noisy = add_noise(received, snr, 900 + seed)
        for run, init in ((pakron, 1000 + seed), (tucker, 2000 + seed)):
            a = run(noisy, design, symbols.alphabet, cfg.solver, init)
            b = run(noisy, design, symbols.alphabet, cfg.solver, init)
            traj = a.residual_trajectory
            slack = 1e-12 * traj[0]
            assert all(traj[i + 1] <= traj[i] + slack
                       for i in range(len(traj) - 1)), \
                f"non-monotone trajectory ({run.__name__}, seed {seed})"
            assert traj == b.residual_trajectory
            assert np.array_equal(a.x_hat, b.x_hat)
            assert np.array_equal(a.gbar_hat, b.gbar_hat)
        checked += 1
    announce(capsys, 8, True, f"{checked} noisy instances x 2 receivers: trajectories "
                      f"non-increasing and bit-identical across reruns")
