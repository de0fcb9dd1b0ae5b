import dataclasses
import hashlib
import math
import statistics
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bdris import experiments, receivers, signal, tensor_ops
from bdris.config import SolverOptions, SystemConfig
from bdris.errors import (ConfigError, IdentifiabilityError, NumericalError,
                          ScalingResolutionError)
from bdris.experiments import (TrialFailure, TrialResult, nmse_aligned, run_sweep, run_trial,
                               ser)
from bdris.receivers import (
    hard_decisions,
    kron_factorize,
    pakron,
    pakron_stage1,
    resolve_and_detect,
    tucker,
    tucker_tals,
    zf_perfect_csi,
)
from bdris.signal import (ReceivedTensor, add_noise, build_core, complex_normal,
                          psk_alphabet, reshape_views)
from bdris.tensor_ops import khatri_rao, kron, nearest_kronecker, pinv, unfold
from util import (
    count_calls,
    desk_config,
    draw_instance,
    kron_split_explicit,
    patch_entry,
    rel_err,
    solve_rows,
    tight_solver,
    tucker_mixing,
    tucker_tals_explicit,
    vec,
)


def stage1(cfg, design, received, solver, init_seed=0, gbar_init=None):
    views = reshape_views(received, design)
    res = pakron_stage1(views.z, design.psi, (cfg.slots, cfg.tx_antennas),
                        (cfg.rx_antennas, cfg.ris_elements), solver,
                        init_seed, gbar_init=gbar_init)
    return views.z, res


def explicit_fit(z, psi, res):
    """Normalized residual of the returned factors, from the full model."""
    model = res.gbar @ khatri_rao(psi, res.omega).T
    return float(np.linalg.norm(unfold(z, 2) - model) ** 2 / np.linalg.norm(z) ** 2)


class TestStageOne:
    def test_single_stream_noiseless_fit(self):
        cfg = desk_config(tx_antennas=1, rx_antennas=4, ris_elements=4,
                          groups=2, blocks=8, slots=4, frames=4)
        design, channels, symbols, received = draw_instance(cfg, 1)
        views = reshape_views(received, design)
        res = pakron_stage1(views.z, design.psi, (cfg.slots, 1),
                            (cfg.rx_antennas, cfg.ris_elements),
                            tight_solver(), init_seed=5)
        assert res.fit <= 1e-8

    def test_truth_init_is_fixed_point(self):
        cfg = desk_config()
        design, channels, symbols, received = draw_instance(cfg, 2)
        views = reshape_views(received, design)
        solver = SolverOptions(delta=1e-15, max_iters=1,
                               structure_projection=False)
        res = pakron_stage1(views.z, design.psi,
                            (cfg.slots, cfg.tx_antennas),
                            (cfg.rx_antennas, cfg.ris_elements),
                            solver, init_seed=0, gbar_init=channels.gbar)
        assert res.trajectory[0] <= 1e-12
        omega_true = kron(symbols.x, channels.h @ design.s)
        assert rel_err(res.omega, omega_true) < 1e-10

    def test_identifiability_gate_names_inequality(self):
        cfg = desk_config(ris_elements=16, groups=2, blocks=15, frames=2,
                          slots=4, rx_antennas=4)
        design, channels, symbols, received = draw_instance(cfg, 3)
        with pytest.raises(IdentifiabilityError) as exc:
            pakron(received, design, symbols.alphabet, cfg.solver, 0)
        assert exc.value.inequality == "frames*blocks >= tx_antennas*ris_elements"

    def test_trajectory_monotone_noisy(self):
        cfg = desk_config()
        design, channels, symbols, received = draw_instance(cfg, 4)
        noisy = add_noise(received, 10.0, 44)
        views = reshape_views(noisy, design)
        res = pakron_stage1(views.z, design.psi,
                            (cfg.slots, cfg.tx_antennas),
                            (cfg.rx_antennas, cfg.ris_elements),
                            SolverOptions(delta=1e-10, max_iters=100),
                            init_seed=6)
        traj = res.trajectory
        slack = 1e-12 * traj[0]
        assert all(traj[i + 1] <= traj[i] + slack for i in range(len(traj) - 1))

    @pytest.mark.parametrize("snr", [10.0, math.inf])
    def test_gram_fit_equals_explicit_residual(self, snr):
        cfg = desk_config()
        design, _, _, received = draw_instance(cfg, 30)
        if math.isfinite(snr):
            received = add_noise(received, snr, 31)
        solver = SolverOptions(delta=1e-12, structure_projection=False)
        z, res = stage1(cfg, design, received, solver, init_seed=32)
        assert abs(res.trajectory[-1] - explicit_fit(z, design.psi, res)) <= 1e-12
        assert res.fit == res.trajectory[-1]
        assert min(res.trajectory) >= 0.0

    def test_zero_column_init_takes_pinv_fallback(self):
        cfg = desk_config()
        design, channels, _, received = draw_instance(cfg, 33)
        received = add_noise(received, 10.0, 34)
        gbar_init = channels.gbar.copy()
        gbar_init[:, 1] = 0.0  # singular Gram: Cholesky fails
        solver = SolverOptions(max_iters=1, structure_projection=False)
        z, res = stage1(cfg, design, received, solver, gbar_init=gbar_init)
        expected = unfold(z, 0) @ pinv(khatri_rao(gbar_init, design.psi).T,
                                       solver.pinv_tol)
        assert np.array_equal(res.omega, expected)

    @pytest.mark.parametrize("projection, calls", [(True, 0), (False, 0)])
    def test_sweeps_form_no_khatri_rao_product(self, monkeypatch, projection, calls):
        # neither the sweeps nor the structure projection build the matrix:
        # the projection reads its fit off its last solve, as a sweep does
        shapes = []

        def counting(a, b):
            shapes.append((a.shape, b.shape))
            return tensor_ops.khatri_rao(a, b)

        monkeypatch.setattr(receivers, "khatri_rao", counting)
        cfg = desk_config()
        design, _, _, received = draw_instance(cfg, 35)
        solver = SolverOptions(max_iters=40, structure_projection=projection)
        _, res = stage1(cfg, design, add_noise(received, 0.0, 36), solver, 37)
        assert res.iterations > 3
        assert len(shapes) == calls

    @pytest.mark.parametrize("case", ["noisy", "noiseless", "blocks16"])
    def test_projection_equals_explicit_re_solves(self, case):
        # the projection's re-solves on the contracted systems equal the
        # normal equations of the explicit Khatri-Rao matrices
        cfg = SystemConfig(blocks=16) if case == "blocks16" else desk_config()
        design, _, _, received = draw_instance(cfg, 53)
        if case != "noiseless":
            received = add_noise(received, 10.0, 54)
        solver = SolverOptions(max_iters=30)
        z, res = stage1(cfg, design, received, solver, init_seed=55)
        _, loop = stage1(cfg, design, received,
                         dataclasses.replace(solver, structure_projection=False), 55)
        omega_p = kron(*nearest_kronecker(loop.omega, (cfg.slots, cfg.tx_antennas),
                                          (cfg.rx_antennas, cfg.ris_elements)))
        gbar = solve_rows(unfold(z, 2), khatri_rao(design.psi, omega_p).T,
                          solver.pinv_tol)
        kr = khatri_rao(gbar, design.psi).T
        omega = solve_rows(unfold(z, 0), kr, solver.pinv_tol)
        assert rel_err(res.gbar, gbar) < 1e-10
        assert rel_err(res.omega, omega) < 1e-10
        assert abs(res.fit - explicit_fit(z, design.psi, res)) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(tx=st.integers(1, 2), rx=st.integers(1, 3), ris=st.sampled_from([2, 4]),
           extra_slots=st.integers(0, 2), frames=st.integers(1, 3),
           extra_blocks=st.integers(0, 3),
           snr=st.one_of(st.floats(0.0, 40.0), st.just(math.inf)),
           seed=st.integers(0, 2**16))
    def test_property_monotone_and_fit_exact(self, tx, rx, ris, extra_slots, frames,
                                             extra_blocks, snr, seed):
        slots = tx + extra_slots
        d = tx * ris
        blocks = max(-(-d // frames), -(-d // (slots * rx))) + extra_blocks
        cfg = desk_config(tx_antennas=tx, rx_antennas=rx, ris_elements=ris,
                          groups=2, slots=slots, frames=frames, blocks=blocks)
        design, _, _, received = draw_instance(cfg, seed)
        if math.isfinite(snr):
            received = add_noise(received, snr, seed + 1)
        solver = SolverOptions(delta=1e-10, max_iters=200, structure_projection=False)
        z, res = stage1(cfg, design, received, solver, init_seed=seed + 2)
        # The Gram fit cancels terms whose magnitudes sum to terms.sum(), so
        # it rounds by a few eps of that (relative to ||z||^2): 1e-16 on
        # well-conditioned instances, 5e-12 on tiny ones with an
        # ill-conditioned psi.
        m = khatri_rao(design.psi, res.omega).T
        terms = np.abs(res.gbar) @ np.abs(m @ m.conj().T) * np.abs(res.gbar)
        rounding = 8 * np.finfo(float).eps * terms.sum() / np.linalg.norm(z) ** 2
        traj = res.trajectory
        slack = 1e-12 * traj[0] + rounding  # criterion 8's slack plus rounding
        assert all(traj[i + 1] <= traj[i] + slack for i in range(len(traj) - 1))
        assert abs(traj[-1] - explicit_fit(z, design.psi, res)) <= 1e-12 + rounding

    def test_ill_conditioned_psi_instance(self):
        # the property's hardest known instance: d = 2, blocks = 2 and
        # cond(psi) ≈ 490, where the data is fit exactly and the fit is all
        # rounding (4.1e-12 from the explicit residual, within the slack)
        cfg = desk_config(tx_antennas=1, rx_antennas=2, ris_elements=2, groups=2,
                          slots=2, frames=1, blocks=2)
        design, _, _, received = draw_instance(cfg, 1158)
        received = add_noise(received, 0.0, 1159)
        assert 480 < math.sqrt(design.psi_spectrum[1]) < 500
        solver = SolverOptions(delta=1e-10, max_iters=200, structure_projection=False)
        z, res = stage1(cfg, design, received, solver, init_seed=1160)
        m = khatri_rao(design.psi, res.omega).T
        terms = np.abs(res.gbar) @ np.abs(m @ m.conj().T) * np.abs(res.gbar)
        rounding = 8 * np.finfo(float).eps * terms.sum() / np.linalg.norm(z) ** 2
        assert explicit_fit(z, design.psi, res) < 1e-20
        assert abs(res.trajectory[-1] - explicit_fit(z, design.psi, res)) <= 1e-12 + rounding


class TestSweepSystems:
    """Each quantity of a pakron_stage1 sweep is computed once: a kept
    candidate's omega system is the next sweep's, and the plain update's fit
    comes from its solve."""

    @staticmethod
    def prepared(seed, snr_db):
        cfg = desk_config()
        design, channels, symbols, received = draw_instance(cfg, seed)
        z = reshape_views(add_noise(received, snr_db, seed + 1), design).z
        return cfg, design, channels, symbols, z, receivers._contract(
            z, design.psi, tensor_ops.gram_spectrum(design.psi))

    def test_kept_candidates_system_is_the_next_sweeps(self, monkeypatch):
        cfg, design, _, _, z, (zp, psi_gram, _, _) = self.prepared(86, 0.0)
        events = []
        build, solve = receivers._omega_system, receivers._solve_system
        loop = receivers._extrapolated_als

        def logged_loop(sweep, fit_at, factors, solver, step, rel_tol, lock):
            def logged_sweep(factors):
                events.append(("sweep", factors))
                return sweep(factors)

            def logged_fit_at(factors):
                events.append(("fit_at", factors))
                return fit_at(factors)
            return loop(logged_sweep, logged_fit_at, factors, solver, step, rel_tol,
                        lock)

        monkeypatch.setattr(receivers, "_extrapolated_als", logged_loop)
        monkeypatch.setattr(receivers, "_omega_system",
                            lambda *args: events.append(("build", args[2])) or build(*args))
        monkeypatch.setattr(receivers, "_solve_system",
                            lambda lock, system, *args: events.append(("solve", system))
                            or solve(lock, system, *args))
        solver = SolverOptions(max_iters=40, structure_projection=False)
        res = pakron_stage1(z, design.psi, (cfg.slots, cfg.tx_antennas),
                            (cfg.rx_antennas, cfg.ris_elements), solver, 87)

        starts = [i for i, (kind, _) in enumerate(events) if kind == "sweep"]
        assert len(starts) == res.iterations > 3
        kept = refused = 0
        for i in starts[3:]:
            candidate = next(arg for kind, arg in reversed(events[:i]) if kind == "fit_at")
            factors = events[i][1]
            end = next((j for j in range(i + 1, len(events))
                        if events[j][0] in ("sweep", "fit_at")), len(events))
            builds = [arg for kind, arg in events[i + 1:end] if kind == "build"]
            solved = next(arg for kind, arg in events[i + 1:end] if kind == "solve")
            if factors is candidate:
                kept += 1
                assert builds == []
                expected = build(zp, psi_gram, factors[1])
                assert all(np.array_equal(a, b) for a, b in zip(solved, expected))
            else:
                refused += 1
                assert len(builds) == 1 and builds[0] is factors[1]
        assert kept > 0 and refused > 0

    @pytest.mark.parametrize("untrusted", [False, True], ids=["lu", "pinv"])
    def test_solved_fit_equals_gram_fit(self, monkeypatch, untrusted):
        pinvs = count_calls(monkeypatch, receivers, "pinv")
        for seed in (88, 90, 92):
            cfg, design, channels, symbols, z, prep = self.prepared(seed, 10.0)
            zp, psi_gram, znorm2, psi_cond = prep
            rng = np.random.default_rng(seed)
            omega = kron(symbols.x, channels.h @ design.s)
            omega = omega + 0.1 * complex_normal(rng, omega.shape)
            gbar = channels.gbar + 0.1 * complex_normal(rng, channels.gbar.shape)
            if untrusted:  # a zero column makes B, and so the Gram, singular
                omega[:, 1] = gbar[:, 1] = 0.0
            for system_at, at, fallback in (
                    (receivers._gbar_system, omega, receivers._gbar_pinv),
                    (receivers._omega_system, gbar, receivers._omega_pinv)):
                # a batch of one trial
                system = system_at(zp[None], psi_gram[None], at[None])
                x = receivers._solve_system(
                    receivers.Lockstep(1), system, np.array([psi_cond]),
                    cfg.solver.pinv_tol,
                    lambda i, at, tol: fallback(z, design.psi, at, tol), at[None])
                rhs, gram, _ = system
                [solved] = receivers._solved_fit(x, rhs, np.array([znorm2]))
                [gram_fit] = receivers._gram_fit(x, rhs, gram, np.array([znorm2]))
                assert 0 < solved < 1
                assert abs(solved - gram_fit) <= 1e-14
        assert len(pinvs) == (6 if untrusted else 0)


class TestKronFactorize:
    def test_separable_recovery_up_to_scale(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        h = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        cfg = desk_config(rx_antennas=3, slots=4)
        design, _, _, _ = draw_instance(cfg, 8)
        omega = kron(x, h @ design.s)
        x_hat, h_hat = kron_factorize(omega, design.s, slots=4, rx_antennas=3)
        c = x_hat[0, 0] / x[0, 0]
        assert rel_err(x_hat, c * x) < 1e-10
        assert rel_err(h_hat, h / c) < 1e-10
        assert x_hat.shape == (4, 2) and h_hat.shape == (3, 4)

    def test_rank1_scale_equivariance(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        h = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        cfg = desk_config(rx_antennas=3, slots=4)
        design, _, _, _ = draw_instance(cfg, 10)
        omega = kron(x, h @ design.s)
        scale = 0.7 - 1.3j
        x1, h1 = kron_factorize(omega, design.s, 4, 3)
        x2, h2 = kron_factorize(scale * omega, design.s, 4, 3)
        outer1 = np.outer(vec(x1), vec(h1))
        outer2 = np.outer(vec(x2), vec(h2))
        assert rel_err(outer2, scale * outer1) < 1e-10

    def test_equals_explicit_split_on_non_separable_input(self):
        # omega is split without its explicit product with kron(I, S^H)
        rng = np.random.default_rng(56)
        cfg = desk_config(rx_antennas=3, slots=4)
        design, _, _, received = draw_instance(cfg, 57)
        _, res = stage1(cfg, design, add_noise(received, 0.0, 58),
                        SolverOptions(max_iters=20, structure_projection=False), 59)
        shape = res.omega.shape
        noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for omega in (res.omega, noise):
            x, h = kron_factorize(omega, design.s, 4, 3)
            x0, h0 = kron_split_explicit(omega, design.s, 4, 3)
            assert rel_err(kron(x, h @ design.s), omega) > 1e-3  # not separable
            assert rel_err(kron(x, h), kron(x0, h0)) < 1e-12

    def test_stage2_reconstruction_error(self):
        # on perfectly separable input the rank-1 split is lossless
        rng = np.random.default_rng(11)
        x = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
        h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        cfg = desk_config(rx_antennas=4, slots=5)
        design, _, _, _ = draw_instance(cfg, 12)
        omega = kron(x, h @ design.s)
        x_hat, h_hat = kron_factorize(omega, design.s, 5, 4)
        assert rel_err(kron(x_hat, h_hat @ design.s), omega) < 1e-10


    @pytest.mark.parametrize("size", [1, 13])
    def test_stack_equals_the_per_matrix_calls(self, size):
        # each trial's omega with its own unitary S, as the receivers stack them
        rng = np.random.default_rng(60)
        omega = rng.standard_normal((size, 12, 8)) + 1j * rng.standard_normal((size, 12, 8))
        s = np.linalg.qr(rng.standard_normal((size, 4, 4))
                         + 1j * rng.standard_normal((size, 4, 4)))[0]
        x_hat, h_hat = kron_factorize(omega, s, 4, 3)
        for j in range(size):
            x, h = kron_factorize(omega[j], s[j], 4, 3)
            assert np.array_equal(x_hat[j], x) and np.array_equal(h_hat[j], h)


class TestPakron:
    def test_noiseless_recovery(self):
        cfg = desk_config()
        design, channels, symbols, received = draw_instance(cfg, 13)
        out = pakron(received, design, symbols.alphabet, tight_solver(), 14)
        assert nmse_aligned(channels.gbar, out.gbar_hat) <= 1e-8
        assert nmse_aligned(channels.h @ design.s, out.hs_hat) <= 1e-8
        assert ser(symbols, out.x_detected) == 0.0

    def test_snr_improves_static_channel_estimate(self):
        cfg = desk_config()
        lo, hi = [], []
        for seed in range(20):
            design, channels, symbols, received = draw_instance(cfg, 100 + seed)
            hs = channels.h @ design.s
            for snr, bucket in ((0.0, lo), (30.0, hi)):
                noisy = add_noise(received, snr, 200 + seed)
                out = pakron(noisy, design, symbols.alphabet, cfg.solver, seed)
                bucket.append(nmse_aligned(hs, out.hs_hat))
        assert np.median(hi) < np.median(lo)

    def test_deterministic(self):
        cfg = desk_config()
        design, channels, symbols, received = draw_instance(cfg, 15)
        noisy = add_noise(received, 10.0, 16)
        a = pakron(noisy, design, symbols.alphabet, cfg.solver, 17)
        b = pakron(noisy, design, symbols.alphabet, cfg.solver, 17)
        assert np.array_equal(a.x_hat, b.x_hat)
        assert np.array_equal(a.gbar_hat, b.gbar_hat)
        assert a.residual_trajectory == b.residual_trajectory


@pytest.mark.parametrize("receiver", [pakron, tucker])
def test_invalid_solver_options_raise_config_error(receiver):
    # before reaching the sweep loop, where max_iters = 0 leaves no trajectory
    design, _, symbols, received = draw_instance(
        SystemConfig(ris_elements=8, groups=2, blocks=16), 0)
    with pytest.raises(ConfigError, match="max_iters"):
        receiver(received, design, symbols.alphabet, SolverOptions(max_iters=0), 1)


def run_tals(design, received, solver, init_seed=0, **inits):
    views = reshape_views(received, design)
    return views.q4, tucker_tals(views.q4, views.core, design.psi, solver,
                                 init_seed, **inits)


class TestTucker:
    def test_noiseless_recovery(self):
        cfg = desk_config()
        design, channels, symbols, received = draw_instance(cfg, 18)
        out = tucker(received, design, symbols.alphabet,
                     tight_solver(max_iters=200), 19)
        assert nmse_aligned(channels.h @ design.s, out.hs_hat) <= 1e-8
        assert nmse_aligned(symbols.x, out.x_hat) <= 1e-8
        assert nmse_aligned(channels.gbar, out.gbar_hat) <= 1e-8
        assert out.iterations <= 200

    def test_truth_init_immediate_fixed_point(self):
        cfg = desk_config()
        design, channels, symbols, received = draw_instance(cfg, 20)
        views = reshape_views(received, design)
        solver = SolverOptions(delta=1e-15, max_iters=1)
        _, _, _, traj, _ = tucker_tals(views.q4, views.core, design.psi,
                                       solver, 0, x_init=symbols.x,
                                       gbar_init=channels.gbar)
        assert traj[0] <= 1e-12

    def test_trajectory_monotone(self):
        cfg = desk_config()
        design, channels, symbols, received = draw_instance(cfg, 21)
        noisy = add_noise(received, 5.0, 22)
        out = tucker(noisy, design, symbols.alphabet, cfg.solver, 23)
        traj = out.residual_trajectory
        slack = 1e-12 * traj[0]
        assert all(traj[i + 1] <= traj[i] + slack for i in range(len(traj) - 1))

    def test_unitary_removal_consistency(self):
        cfg = desk_config()
        design, channels, symbols, received = draw_instance(cfg, 24)
        out = tucker(received, design, symbols.alphabet, tight_solver(), 25)
        assert rel_err(out.h_hat @ design.s, out.hs_hat) < 1e-12

    def test_core_must_be_canonical(self):
        cfg = desk_config()
        design, _, symbols, received = draw_instance(cfg, 26)
        views = reshape_views(received, design)
        with pytest.raises(ValueError):
            tucker_tals(views.q4, views.core + 1.0, design.psi,
                        cfg.solver, 0)

    @pytest.mark.parametrize("entry, value", [
        ((1, 0, 1, 1), np.nan),      # NaN in place of a one
        ((0, 1, 2, 3), np.nan),      # NaN in place of a zero
        ((0, 1, 2, 3), 1e-300),      # one extra nonzero
        ((2, 1, 6, 6), 0.0),         # a missing one
        ((2, 1, 6, 6), 1 + 1e-16j),  # a one off by an imaginary part
    ])
    def test_core_check_rejects_any_change(self, entry, value):
        cfg = desk_config()
        design, _, _, received = draw_instance(cfg, 26)
        views = reshape_views(received, design)
        core = views.core.copy()
        core[entry] = value
        with pytest.raises(ValueError, match="canonical"):
            tucker_tals(views.q4, core, design.psi, cfg.solver, 0)

    def test_canonical_copy_takes_full_check_with_same_output(self, monkeypatch):
        # every canonical core is scanned, and each gives tucker()'s estimates
        cfg = desk_config()
        design, _, symbols, received = draw_instance(cfg, 26)
        received = add_noise(received, 10.0, 27)
        out = tucker(received, design, symbols.alphabet, cfg.solver, 0)
        fresh = build_core(cfg.ris_elements, cfg.tx_antennas)
        read_only = fresh.copy()
        read_only.setflags(write=False)
        scanned = []
        count_nonzero = np.count_nonzero

        def counting(a, *args, **kwargs):
            scanned.append(a.shape)
            return count_nonzero(a, *args, **kwargs)

        monkeypatch.setattr(np, "count_nonzero", counting)
        for calls, core in enumerate((fresh, fresh.copy(), read_only, fresh.real), 1):
            f, x, gbar, traj, converged = tucker_tals(received.y, core, design.psi,
                                                      cfg.solver, 0)
            assert scanned.count(fresh.shape) == calls
            assert traj == out.residual_trajectory and converged == out.converged
            assert np.array_equal(f, out.hs_hat) and np.array_equal(gbar, out.gbar_hat)
            resolved = resolve_and_detect(dataclasses.replace(out, x_hat=x),
                                          symbols.alphabet)
            assert np.array_equal(resolved.x_hat, out.x_hat)

    def test_read_only_altered_core_rejected(self):
        # a read-only core is scanned like any other
        cfg = desk_config()
        design, _, _, received = draw_instance(cfg, 26)
        views = reshape_views(received, design)
        core = views.core.copy()
        core[2, 1, 6, 6] = 0.0
        core.setflags(write=False)
        with pytest.raises(ValueError, match="canonical"):
            tucker_tals(views.q4, core, design.psi, cfg.solver, 0)

    def test_core_check_rejects_wrong_shape(self):
        cfg = desk_config()
        design, _, _, received = draw_instance(cfg, 26)
        views = reshape_views(received, design)
        with pytest.raises(ValueError, match="canonical"):
            tucker_tals(views.q4, views.core[:, :, :-1], design.psi, cfg.solver, 0)

    def test_core_of_other_dimensions_rejected(self):
        cfg = desk_config()
        design, _, _, received = draw_instance(cfg, 26)
        with pytest.raises(ValueError, match="canonical"):
            tucker_tals(received.y, build_core(cfg.ris_elements, 1), design.psi,
                        cfg.solver, 0)

    def test_real_canonical_core_accepted(self):
        cfg = desk_config()
        design, _, _, received = draw_instance(cfg, 26)
        views = reshape_views(received, design)
        solver = SolverOptions(max_iters=2)
        expected = tucker_tals(views.q4, views.core, design.psi, solver, 0)
        real = tucker_tals(views.q4, views.core.real, design.psi, solver, 0)
        assert all(np.array_equal(a, b) for a, b in zip(real, expected))

    def test_identifiability_gate_names_inequality(self):
        # blocks*slots*rx too small relative to tx*ris
        cfg = desk_config(tx_antennas=2, rx_antennas=1, ris_elements=8,
                          groups=2, blocks=3, slots=2, frames=4)
        design, channels, symbols, received = draw_instance(cfg, 27)
        views = reshape_views(received, design)
        with pytest.raises(IdentifiabilityError) as exc:
            tucker_tals(views.q4, views.core, design.psi, cfg.solver, 0)
        assert "blocks*slots*rx_antennas" in exc.value.inequality

    @pytest.mark.parametrize("overrides, snr", [
        ({}, 0.0), ({}, 10.0), ({}, math.inf),
        ({"tx_antennas": 1}, 5.0), ({"frames": 1}, 5.0), ({"frames": 1}, math.inf),
        ({"ris_elements": 16, "blocks": 32, "frames": 2}, 0.0),
    ])
    def test_matches_explicit_oracle(self, overrides, snr):
        cfg = desk_config(**overrides)
        design, _, _, received = draw_instance(cfg, 40)
        if math.isfinite(snr):
            received = add_noise(received, snr, 41)
        q4, (f, x, gbar, traj, converged) = run_tals(design, received,
                                                     cfg.solver, init_seed=42)
        f0, x0, gbar0, traj0, converged0 = tucker_tals_explicit(
            q4, design.psi, cfg.tx_antennas, cfg.solver, 42)
        assert len(traj) == len(traj0) and converged == converged0
        assert np.max(np.abs(np.subtract(traj, traj0))) <= 1e-12
        for new, old in ((f, f0), (x, x0), (gbar, gbar0)):
            assert rel_err(new, old) <= 1e-10

    @pytest.mark.parametrize("overrides", [
        {}, {"tx_antennas": 1}, {"tx_antennas": 3, "slots": 5, "ris_elements": 6,
                                 "groups": 3, "blocks": 20, "frames": 3}])
    def test_mixing_matches_explicit_contraction(self, overrides):
        cfg = desk_config(**overrides)
        design, channels, symbols, _ = draw_instance(cfg, 45)
        f, x, n = channels.h @ design.s, symbols.x, cfg.ris_elements
        for mode, other in ((0, x), (1, f)):
            got = receivers._mixing(mode, other, design.psi, channels.gbar, n)
            want = tucker_mixing(mode, f, x, design.psi, channels.gbar)
            assert got.shape == want.shape
            assert rel_err(got, want) <= 1e-13

    def test_singular_f_gram_takes_pinv_fallback(self):
        cfg = desk_config()
        design, channels, symbols, received = draw_instance(cfg, 43)
        received = add_noise(received, 10.0, 44)
        gbar_init = channels.gbar.copy()
        gbar_init[:, [1, 1 + cfg.ris_elements]] = 0.0  # element 1: F Gram singular
        solver = SolverOptions(max_iters=1)
        q4, (f, _, _, _, _) = run_tals(design, received, solver,
                                       x_init=symbols.x, gbar_init=gbar_init)
        v1 = receivers._mixing(0, symbols.x, design.psi, gbar_init, cfg.ris_elements)
        assert np.array_equal(f, unfold(q4, 0) @ pinv(v1, solver.pinv_tol))

    def test_zero_x_init_takes_pinv_fallback(self):
        # the F Gram contracts the omega Gram with X^T conj(X) = 0: it is zero
        # however well conditioned the omega Gram is
        cfg = desk_config()
        design, channels, symbols, received = draw_instance(cfg, 48)
        x_init = np.zeros_like(symbols.x)
        solver = SolverOptions(max_iters=1)
        q4, (f, x, gbar, traj, _) = run_tals(design, received, solver,
                                             x_init=x_init, gbar_init=channels.gbar)
        v1 = tucker_mixing(0, None, x_init, design.psi, channels.gbar)
        assert np.array_equal(f, unfold(q4, 0) @ pinv(v1, solver.pinv_tol))
        assert not f.any() and not x.any() and not gbar.any()
        assert traj == (1.0,)

    def test_sweeps_form_no_mixing_matrix(self, monkeypatch):
        calls = []

        def counting(name):
            def kernel(*args, **kwargs):
                calls.append(name)
                return getattr(tensor_ops, name)(*args, **kwargs)
            return kernel

        for name in ("pinv", "khatri_rao"):
            monkeypatch.setattr(receivers, name, counting(name))
        cfg = desk_config()
        design, _, _, received = draw_instance(cfg, 45)
        _, (_, _, _, traj, _) = run_tals(design, add_noise(received, 0.0, 46),
                                         cfg.solver, init_seed=47)
        assert len(traj) > 3
        assert calls == []

    @settings(max_examples=40, deadline=None)
    @given(tx=st.integers(1, 2), rx=st.integers(1, 3), ris=st.sampled_from([2, 4]),
           extra_slots=st.integers(0, 2), frames=st.integers(1, 3),
           extra_blocks=st.integers(0, 3),
           snr=st.one_of(st.floats(0.0, 40.0), st.just(math.inf)),
           seed=st.integers(0, 2**16))
    def test_property_monotone_and_fit_exact(self, tx, rx, ris, extra_slots, frames,
                                             extra_blocks, snr, seed):
        slots = tx + extra_slots
        d = tx * ris
        blocks = max(-(-d // (slots * rx)), -(-ris // (frames * slots)),
                     -(-tx // (frames * rx))) + extra_blocks
        cfg = desk_config(tx_antennas=tx, rx_antennas=rx, ris_elements=ris,
                          groups=2, slots=slots, frames=frames, blocks=blocks)
        design, _, _, received = draw_instance(cfg, seed)
        if math.isfinite(snr):
            received = add_noise(received, snr, seed + 1)
        solver = SolverOptions(delta=1e-10, max_iters=200)
        q4, (f, x, gbar, traj, _) = run_tals(design, received, solver,
                                             init_seed=seed + 2)
        # the Gram fit's rounding bound, as in TestStageOne's property
        v4 = tucker_mixing(3, f, x, design.psi, gbar)
        terms = np.abs(gbar) @ np.abs(v4 @ v4.conj().T) * np.abs(gbar)
        rounding = 8 * np.finfo(float).eps * terms.sum() / np.linalg.norm(q4) ** 2
        slack = 1e-12 * traj[0] + rounding  # criterion 8's slack plus rounding
        assert all(traj[i + 1] <= traj[i] + slack for i in range(len(traj) - 1))
        fit = np.linalg.norm(unfold(q4, 3) - gbar @ v4) ** 2 / np.linalg.norm(q4) ** 2
        assert abs(traj[-1] - fit) <= 1e-12 + rounding

    def test_deterministic(self):
        cfg = desk_config()
        design, channels, symbols, received = draw_instance(cfg, 28)
        noisy = add_noise(received, 10.0, 29)
        a = tucker(noisy, design, symbols.alphabet, cfg.solver, 30)
        b = tucker(noisy, design, symbols.alphabet, cfg.solver, 30)
        assert np.array_equal(a.hs_hat, b.hs_hat)
        assert a.residual_trajectory == b.residual_trajectory


def forty_trials(cfg, receiver, snr_db):
    """``run_trial`` trial indices 0-39 at ``snr_db``."""
    return [run_trial(cfg, receiver, snr_db, cfg.snr_db.index(snr_db), t)
            for t in range(40)]


def assert_saves_sweeps(trials, baseline):
    """Fewer sweeps in total than on the same ``baseline`` trials, neither
    NMSE median more than 2 % higher and the total SER no higher."""
    assert sum(t.iterations for t in trials) < sum(t.iterations for t in baseline)
    for name in ("nmse_h", "nmse_g"):
        assert (statistics.median(getattr(t, name) for t in trials)
                <= 1.02 * statistics.median(getattr(t, name) for t in baseline))
    assert sum(t.ser for t in trials) <= sum(t.ser for t in baseline)


class TestExtrapolatedALS:
    """The one sweep loop both receivers run, on scripted sweeps: each
    factor is a number, a sweep halves it and its fit is its square."""

    @staticmethod
    def script(jump_fit=None, max_iters=20, delta=1e-9, receiver="pakron",
               sweep_fit=None, rel_tol=None):
        log = []

        def sweep_one(factors):
            log.append(("sweep", factors))
            new = tuple(0.5 * f for f in factors)
            return new, new[0] ** 2 if sweep_fit is None else sweep_fit(new)

        def fit_one(factors):
            log.append(("fit_at", factors))
            return factors[0] ** 2 if jump_fit is None else jump_fit(factors)

        solver = SolverOptions(delta=delta, max_iters=max_iters)
        entry = receivers.RECEIVERS[receiver]
        if rel_tol is None:
            rel_tol = entry.rel_tol

        # the loop runs a batch of one trial, each factor a stack of one number
        def sweep(factors):
            new, fit = sweep_one(tuple(float(f[0]) for f in factors))
            return tuple(np.array([f]) for f in new), [fit]

        def fit_at(factors):
            return [fit_one(tuple(float(f[0]) for f in factors))]

        factors, trajectories, converged = receivers._extrapolated_als(
            sweep, fit_at, (np.array([1.0]), np.array([2.0])), solver, entry.step,
            rel_tol, receivers.Lockstep(1))
        return log, (tuple(float(f) for f in factors[0]), trajectories[0],
                     converged[0])

    @staticmethod
    def default_instances(snr_db):
        """The 20 seeded default-config instances, noised at ``snr_db``."""
        cfg = SystemConfig()
        instances = []
        for seed in range(20):
            design, _, _, received = draw_instance(cfg, 900 + seed)
            instances.append((design, add_noise(received, snr_db, 950 + seed)))
        return cfg, instances

    @staticmethod
    def total_tucker_sweeps(cfg, instances):
        return sum(len(run_tals(design, received, cfg.solver, seed)[1][3])
                   for seed, (design, received) in enumerate(instances))

    def test_first_candidate_at_sweep_three(self):
        log, (_, trajectory, _) = self.script()
        kinds = [kind for kind, _ in log]
        assert kinds[:4] == ["sweep", "sweep", "sweep", "fit_at"]
        assert kinds.count("fit_at") == len(trajectory) - 2

    @pytest.mark.parametrize("receiver, step", [
        ("pakron", np.sqrt(3)), ("tucker", 3 ** (1 / 3))], ids=["pakron", "tucker"])
    def test_candidate_is_the_receivers_step(self, receiver, step):
        log, _ = self.script(max_iters=3, receiver=receiver)
        (_, old), (kind, jump) = log[2:]
        new = (0.5 * old[0], 0.5 * old[1])
        assert kind == "fit_at"
        assert jump == tuple(o + step * (n - o) for o, n in zip(old, new))

    def test_candidate_kept_only_when_strictly_lower(self):
        # a tie with the plain update refuses the candidate
        _, (factors, trajectory, _) = self.script(
            jump_fit=lambda _: 0.5 ** 6, max_iters=3)
        assert factors == (0.5 ** 3, 2 * 0.5 ** 3) and trajectory[-1] == 0.5 ** 6
        _, (factors, trajectory, _) = self.script(
            jump_fit=lambda f: f[0] ** 2 if f[0] < 0.5 ** 3 else np.inf, max_iters=3)
        step = np.sqrt(3)
        assert factors[0] == 0.25 + step * (0.125 - 0.25) < 0.5 ** 3
        assert trajectory[-1] == factors[0] ** 2

    def test_trajectory_never_rises(self):
        _, (_, trajectory, _) = self.script(max_iters=60, delta=0.0)
        assert len(trajectory) > 3
        assert all(b <= a for a, b in zip(trajectory, trajectory[1:]))

    def test_not_converged_at_max_iters(self):
        _, (_, trajectory, converged) = self.script(
            jump_fit=lambda _: np.inf, max_iters=4, delta=1e-12)
        assert len(trajectory) == 4 and not converged
        _, (_, trajectory, converged) = self.script(
            jump_fit=lambda _: np.inf, max_iters=60, delta=1e-12)
        assert len(trajectory) < 60 and converged

    def test_stops_when_the_fit_moves_less_than_its_relative_tolerance(self):
        # the fit creeps down to 0.5 by 1e-3 * 0.5^k at sweep k: by sweep 5
        # that is within 1e-4 of the fit, though never within delta = 0
        creep = dict(sweep_fit=lambda f: 0.5 + 1e-3 * f[0], jump_fit=lambda _: np.inf,
                     delta=0.0)
        _, (_, trajectory, converged) = self.script(rel_tol=1e-4, **creep)
        assert len(trajectory) == 5 and converged
        assert abs(trajectory[-1] - trajectory[-2]) <= 1e-4 * trajectory[-1]
        assert abs(trajectory[-2] - trajectory[-3]) > 1e-4 * trajectory[-2]
        _, (_, trajectory, converged) = self.script(rel_tol=0.0, **creep)
        assert len(trajectory) == 20 and not converged

    @staticmethod
    def outputs(receiver, cfg, instances):
        alphabet = signal.psk_alphabet(cfg.modulation_order)
        run = receivers.RECEIVERS[receiver].run
        return [run([(received, design, alphabet, seed, None)], cfg.solver)[0][0]
                for seed, (design, received) in enumerate(instances)]

    def check_stops_where_delta_alone_does(self, monkeypatch, receiver, snr_db):
        cfg, instances = self.default_instances(snr_db)
        relative = self.outputs(receiver, cfg, instances)
        # the premise: each stopping fit is below delta / eps, where eps * fit
        # cannot exceed delta
        eps = receivers.RECEIVERS[receiver].rel_tol
        assert all(out.residual_trajectory[-1] < cfg.solver.delta / eps
                   for out in relative)
        patch_entry(monkeypatch, receiver, rel_tol=0.0)
        for a, b in zip(relative, self.outputs(receiver, cfg, instances)):
            for field in dataclasses.fields(a):
                assert np.array_equal(getattr(a, field.name), getattr(b, field.name))

    # only where the premise holds: at 30 dB pakron's stopping fits (4.2e-4
    # to 5.1e-4) are above delta / eps = 3.3e-4, so the relative rule can
    # stop first
    @pytest.mark.parametrize("snr_db", [40.0])
    def test_pakron_at_high_snr_stops_where_delta_alone_does(self, monkeypatch, snr_db):
        self.check_stops_where_delta_alone_does(monkeypatch, "pakron", snr_db)

    @pytest.mark.parametrize("snr_db", [30.0])
    def test_tucker_at_high_snr_stops_where_delta_alone_does(self, monkeypatch, snr_db):
        self.check_stops_where_delta_alone_does(monkeypatch, "tucker", snr_db)

    @staticmethod
    def check_relative_rule_saves_sweeps(monkeypatch, receiver, cfg, snr_db):
        # against the absolute rule (eps = 0)
        relative = forty_trials(cfg, receiver, snr_db)
        patch_entry(monkeypatch, receiver, rel_tol=0.0)
        assert_saves_sweeps(relative, forty_trials(cfg, receiver, snr_db))

    @pytest.mark.parametrize("snr_db", [0.0, 20.0])
    def test_pakron_relative_rule_saves_sweeps_at_no_worse_nmse(self, monkeypatch,
                                                              snr_db):
        self.check_relative_rule_saves_sweeps(monkeypatch, "pakron", SystemConfig(),
                                              snr_db)

    # blocks = 16 (< d = 32) is where tucker's fit creeps longest
    @pytest.mark.parametrize("blocks, snr_db", [(32, 0.0), (32, 20.0), (16, 0.0)])
    def test_tucker_relative_rule_saves_sweeps_at_no_worse_nmse(self, monkeypatch,
                                                              blocks, snr_db):
        self.check_relative_rule_saves_sweeps(monkeypatch, "tucker",
                                              SystemConfig(blocks=blocks), snr_db)

    def test_tucker_takes_fewer_sweeps_than_plain_als(self, monkeypatch):
        cfg, instances = self.default_instances(0.0)
        extrapolated = self.total_tucker_sweeps(cfg, instances)
        plain = receivers._extrapolated_als
        monkeypatch.setattr(receivers, "_extrapolated_als",
                            lambda sweep, fit_at, factors, solver, step, rel_tol, lock:
                            plain(sweep, lambda f: [np.inf] * len(f[0]), factors, solver,
                                  step, rel_tol, lock))
        assert extrapolated < self.total_tucker_sweeps(cfg, instances)

    def test_tucker_step_takes_fewer_sweeps_than_sqrt_step(self, monkeypatch):
        cfg, instances = self.default_instances(20.0)
        own_step = self.total_tucker_sweeps(cfg, instances)
        patch_entry(monkeypatch, "tucker", step=math.sqrt)
        assert own_step < self.total_tucker_sweeps(cfg, instances)


def record_solves(mp):
    """Record ``(rhs, gram, tol, cond_bound, x)`` for every Gram that the
    receivers' ``solve_grams`` calls solve, one record per trial of a
    call's stack, with ``x`` ``None`` for an untrusted Gram."""
    records = []
    solve_grams = tensor_ops.solve_grams

    def recording(rhs, gram, tol, cond_bound=None):
        x, trusted = solve_grams(rhs, gram, tol, cond_bound)
        for j, ok in enumerate(trusted):
            records.append((rhs[j], gram[j], tol,
                            None if cond_bound is None else cond_bound[j],
                            x[j] if ok else None))
        return x, trusted

    mp.setattr(receivers, "solve_grams", recording)
    return records


def output_digest(design, received, alphabet, solver):
    digest = hashlib.sha256()
    for run in (pakron, tucker):
        out = run(received, design, alphabet, solver, 51)
        for value in (out.hs_hat, out.gbar_hat, out.x_hat, out.x_detected,
                      np.array(out.residual_trajectory), out.final_fit, out.iterations):
            digest.update(np.asarray(value).tobytes())
    return digest.hexdigest()


class TestCertifiedGrams:
    """Every receiver Gram is a Hadamard product B ∘ psi_gram; Schur's bound
    on its condition number lets a well-conditioned one skip computing its
    eigenvalues."""

    @pytest.mark.parametrize("receiver", ["pakron", "tucker"])
    def test_default_config_runs_no_cholesky(self, monkeypatch, receiver):
        factored = count_calls(monkeypatch, np.linalg, "cholesky")
        exact = count_calls(monkeypatch, tensor_ops, "hermitian_cond")
        # the LU solves, each through np.linalg.solve's kernel
        solved = count_calls(monkeypatch, tensor_ops, "_lu_solve")
        trial = run_trial(SystemConfig(), receiver, 0.0)
        assert trial.iterations > 3
        assert factored == [] and exact == []
        # pakron: the start's solve, two updates per sweep and the
        # projection's two re-solves
        per_sweep, extra = (2, 3) if receiver == "pakron" else (3, 0)
        assert len(solved) == per_sweep * trial.iterations + extra

    def test_rank_deficient_psi_never_certifies(self, monkeypatch):
        # blocks < d: psi^T conj(psi) is singular, so no bound passes the
        # rule, every solve is decided by the Gram's exact condition number,
        # and the receivers' bits are those of the path without a bound
        cfg = SystemConfig(blocks=16)
        design, _, symbols, received = draw_instance(cfg, 50)
        received = add_noise(received, 0.0, 52)
        solve_grams = tensor_ops.solve_grams
        records = record_solves(monkeypatch)
        exact = count_calls(monkeypatch, tensor_ops, "hermitian_cond")
        digest = output_digest(design, received, symbols.alphabet, cfg.solver)
        assert records and len(exact) == len(records)

        def unbounded(rhs, gram, tol, cond_bound=None):
            return solve_grams(rhs, gram, tol)

        monkeypatch.setattr(receivers, "solve_grams", unbounded)
        assert output_digest(design, received, symbols.alphabet, cfg.solver) == digest

    @pytest.mark.parametrize("receiver", ["pakron", "tucker"])
    @settings(max_examples=30, deadline=None)
    @given(tx=st.integers(1, 2), rx=st.integers(1, 3), ris=st.sampled_from([2, 4]),
           extra_slots=st.integers(0, 2), frames=st.integers(1, 3),
           extra_blocks=st.integers(0, 3),
           snr=st.one_of(st.floats(0.0, 40.0), st.just(math.inf)),
           tol=st.sampled_from([1e-12, 1e-8, 1e-4, 1e-2]),
           seed=st.integers(0, 2**16))
    def test_property_certified_grams_pass_rcond(self, receiver, tx, rx, ris,
                                                 extra_slots, frames, extra_blocks,
                                                 snr, tol, seed):
        slots = tx + extra_slots
        d = tx * ris
        blocks = max(-(-d // frames), -(-d // (slots * rx)), -(-ris // (frames * slots)),
                     -(-tx // (frames * rx))) + extra_blocks
        cfg = desk_config(tx_antennas=tx, rx_antennas=rx, ris_elements=ris,
                          groups=2, slots=slots, frames=frames, blocks=blocks)
        design, _, _, received = draw_instance(cfg, seed)
        if math.isfinite(snr):
            received = add_noise(received, snr, seed + 1)
        solver = SolverOptions(delta=1e-10, max_iters=30, pinv_tol=tol)
        with pytest.MonkeyPatch.context() as mp:
            records = record_solves(mp)
            if receiver == "pakron":
                stage1(cfg, design, received, solver, init_seed=seed + 2)
            else:
                run_tals(design, received, solver, init_seed=seed + 2)
        eps = np.finfo(float).eps
        for rhs, gram, tol, _, x in records:
            if x is None:
                continue
            assert 1 / np.linalg.cond(gram, 1) >= tol
            lstsq = np.linalg.lstsq(gram.T, rhs.T, rcond=None)[0].T
            assert rel_err(x, lstsq) <= 100 * eps * np.linalg.cond(gram)


def clear_preparations():
    """Forget the cached scenario."""
    experiments._noised_scenario.cache_clear()


def same_output(a, b) -> bool:
    return all(np.array_equal(getattr(a, f.name), getattr(b, f.name))
               for f in dataclasses.fields(a))


ACCEPTANCE_CFG = SystemConfig(tx_antennas=2, rx_antennas=4, ris_elements=8, groups=2,
                              blocks=16, slots=4, frames=2, seed=20240)


class TestSharedPreparation:
    """The draw's psi decomposition, kept on the design, is shared by every
    receiver on a trial, and changes no result."""

    @pytest.fixture(autouse=True)
    def fresh(self):
        clear_preparations()
        yield
        clear_preparations()

    @pytest.mark.parametrize("cfg", [SystemConfig(), ACCEPTANCE_CFG],
                             ids=["default", "acceptance"])
    def test_cold_and_warm_caches_agree(self, cfg):
        for trial in range(3):
            for receiver, other in (("pakron", "tucker"), ("tucker", "pakron")):
                clear_preparations()
                cold = run_trial(cfg, receiver, 0.0, 0, trial)
                clear_preparations()
                run_trial(cfg, other, 0.0, 0, trial)
                warm = run_trial(cfg, receiver, 0.0, 0, trial)
                assert cold.astuple()[:-1] == warm.astuple()[:-1]

            design, _, symbols, received = draw_instance(cfg, 60 + trial)
            received = add_noise(received, 0.0, 61 + trial)
            for run, other in ((pakron, tucker), (tucker, pakron)):
                clear_preparations()
                cold = run(received, design, symbols.alphabet, cfg.solver, 7)
                other(received, design, symbols.alphabet, cfg.solver, 7)
                warm = run(received, design, symbols.alphabet, cfg.solver, 7)
                assert same_output(cold, warm)

    def test_pair_decomposes_psi_once(self, monkeypatch):
        cfg = SystemConfig()
        eig = count_calls(monkeypatch, np.linalg, "eigvalsh")
        eigh = count_calls(monkeypatch, np.linalg, "eigh")
        svd = count_calls(monkeypatch, np.linalg, "svd")
        rank = count_calls(monkeypatch, np.linalg, "matrix_rank")
        rank1 = count_calls(monkeypatch, tensor_ops, "best_rank1")
        pinvs = count_calls(monkeypatch, receivers, "pinv")
        for trial in range(2):
            del eig[:], eigh[:], rank1[:]
            run_trial(cfg, "pakron", 0.0, 0, trial)
            run_trial(cfg, "tucker", 0.0, 0, trial)
            # the draw's rank check is the one decomposition of psi; the three
            # eighs are pakron's start and its two rank-1 fits (structure
            # projection, Kronecker split), and no trial takes an SVD
            assert len(eig) == 1 and rank == [] and pinvs == [] and svd == []
            assert len(eigh) == 3 and len(rank1) == 2

    @pytest.mark.parametrize("cfg", [SystemConfig(), ACCEPTANCE_CFG],
                             ids=["default", "acceptance"])
    def test_bare_psi_entry_points_match_the_receivers(self, cfg):
        # pakron_stage1 and tucker_tals decompose a bare psi themselves;
        # pakron() and tucker() read the design's: the bits are the same
        n, mt = cfg.ris_elements, cfg.tx_antennas
        for trial in range(3):
            design, _, symbols, received = draw_instance(cfg, 70 + trial)
            received = add_noise(received, 0.0, 71 + trial)
            psi, solver = np.array(design.psi), cfg.solver
            out = pakron(received, design, symbols.alphabet, solver, 9)
            z = np.reshape(received.y, (cfg.rx_antennas * cfg.slots,
                                        cfg.blocks, cfg.frames), order="F")
            res = pakron_stage1(z, psi, (cfg.slots, mt), (cfg.rx_antennas, n),
                                solver, 9)
            x_raw, h_hat = kron_factorize(res.omega, design.s, cfg.slots,
                                          cfg.rx_antennas)
            assert np.array_equal(out.h_hat, h_hat)
            assert np.array_equal(out.gbar_hat, res.gbar)
            assert out.residual_trajectory == res.trajectory
            assert out.final_fit == res.fit
            assert same_output(out, resolve_and_detect(
                dataclasses.replace(out, x_hat=x_raw), symbols.alphabet))

            out = tucker(received, design, symbols.alphabet, solver, 9)
            f, x_raw, gbar, trajectory, converged = tucker_tals(
                received.y, build_core(n, mt), psi, solver, 9)
            assert np.array_equal(out.hs_hat, f)
            assert np.array_equal(out.gbar_hat, gbar)
            assert out.residual_trajectory == trajectory
            assert out.converged == converged
            assert same_output(out, resolve_and_detect(
                dataclasses.replace(out, x_hat=x_raw), symbols.alphabet))


def record_starts(mp):
    """Record the factors every sweep loop of the receivers starts from."""
    starts = []
    loop = receivers._extrapolated_als

    def recording(sweep, fit_at, factors, *args):
        starts.append(factors)
        return loop(sweep, fit_at, factors, *args)

    mp.setattr(receivers, "_extrapolated_als", recording)
    return starts


def seeded_draw(frames, d, init_seed):
    return complex_normal(np.random.default_rng(init_seed), (frames, d))


class TestKhatriRaoStart:
    """Without ``gbar_init``, pakron's stage I starts from the closed-form
    Khatri-Rao factorization of its contracted data when psi has full column
    rank and a trusted Gram, and from the seeded random draw otherwise."""

    @pytest.mark.parametrize("cfg", [desk_config(frames=1), desk_config(frames=3),
                                     SystemConfig()],
                             ids=["frames1", "frames3", "default"])
    def test_noiseless_start_is_the_channel_up_to_column_scale(self, monkeypatch, cfg):
        assert cfg.blocks >= cfg.tx_antennas * cfg.ris_elements
        design, channels, _, received = draw_instance(cfg, 1200 + cfg.frames)
        starts = record_starts(monkeypatch)
        stage1(cfg, design, received, SolverOptions(max_iters=1), init_seed=1)
        assert nmse_aligned(channels.gbar, starts[0][1][0]) <= 1e-20

    def test_rank_deficient_psi_starts_from_the_seeded_draw(self):
        # blocks = 16 < d = 32: the outputs are those of the seeded draw given
        # as gbar_init, to the bit
        cfg = SystemConfig(blocks=16)
        design, _, _, received = draw_instance(cfg, 1210)
        for snr_db in (0.0, 30.0):
            noisy = add_noise(received, snr_db, 1211)
            _, res = stage1(cfg, design, noisy, cfg.solver, init_seed=1212)
            draw = seeded_draw(cfg.frames, design.psi.shape[1], 1212)
            _, given = stage1(cfg, design, noisy, cfg.solver, gbar_init=draw)
            assert same_output(res, given)

    def test_untrusted_psi_gram_falls_back_to_the_seeded_draw(self, monkeypatch):
        # blocks = d, but two equal columns make psi's Gram singular
        cfg = desk_config()
        design, _, _, received = draw_instance(cfg, 1220)
        z = reshape_views(add_noise(received, 10.0, 1221), design).z
        psi = np.array(design.psi)
        psi[:, 1] = psi[:, 0]
        shapes = (cfg.slots, cfg.tx_antennas), (cfg.rx_antennas, cfg.ris_elements)
        solver = SolverOptions(max_iters=5)
        records = record_solves(monkeypatch)
        starts = record_starts(monkeypatch)
        res = pakron_stage1(z, psi, *shapes, solver, 1222)
        draw = seeded_draw(cfg.frames, psi.shape[1], 1222)
        assert records[0][0].shape == (z.shape[2] * z.shape[0], psi.shape[1])
        assert records[0][-1] is None
        assert np.array_equal(starts[0][1][0], draw)
        assert same_output(res, pakron_stage1(z, psi, *shapes, solver, 0, gbar_init=draw))

    @pytest.mark.parametrize("cfg, snr_db", [(SystemConfig(), 0.0),
                                             (ACCEPTANCE_CFG, 30.0)],
                             ids=["default-0dB", "acceptance-30dB"])
    def test_start_saves_sweeps_at_no_worse_nmse_or_ser(self, monkeypatch, cfg, snr_db):
        # against the seeded random start at eps = 1e-3
        started = forty_trials(cfg, "pakron", snr_db)
        stage_one = receivers.pakron_stage1_batch

        def random_start(lock, zs, psis, spectra, left_shape, right_shape, solver,
                         init_seeds, gbar_inits=None):
            draws = [seeded_draw(z.shape[-1], psi.shape[1], init_seed)
                     for z, psi, init_seed in zip(zs, psis, init_seeds)]
            return stage_one(lock, zs, psis, spectra, left_shape, right_shape, solver,
                             init_seeds, draws)

        monkeypatch.setattr(receivers, "pakron_stage1_batch", random_start)
        patch_entry(monkeypatch, "pakron", rel_tol=1e-3)
        assert_saves_sweeps(started, forty_trials(cfg, "pakron", snr_db))


class TestReceiverTable:
    """Every trial runs its receiver's entry of ``receivers.RECEIVERS``, with
    one signature; only the oracle reads the true channels."""

    @staticmethod
    def scenario():
        cfg = desk_config()
        design, channels, symbols, received = draw_instance(cfg, 31)
        return cfg, design, channels, symbols, add_noise(received, 10.0, 32)

    @pytest.mark.parametrize("receiver",
                             [name for name in receivers.RECEIVERS if name != "zf-oracle"])
    def test_semi_blind_entries_run_with_the_channels_withheld(self, receiver):
        cfg, design, channels, symbols, received = self.scenario()
        run = receivers.RECEIVERS[receiver].run
        (given,), _ = run([(received, design, symbols.alphabet, 7, channels)], cfg.solver)
        (withheld,), _ = run([(received, design, symbols.alphabet, 7, None)], cfg.solver)
        for field in dataclasses.fields(given):
            assert np.array_equal(getattr(given, field.name),
                                  getattr(withheld, field.name)), field.name

    def test_oracle_scores_exactly_zero_nmse(self):
        cfg, design, channels, symbols, received = self.scenario()
        (scores,) = experiments.evaluate(
            "zf-oracle", [(design, channels, symbols, received)], cfg.solver, [0])
        assert scores["nmse_h"] == scores["nmse_g"] == 0.0
        # the zero-forcing estimate and its plain hard decisions, no rescale
        x_hat = zf_perfect_csi(received, channels, design, cfg.solver.pinv_tol)
        detected = symbols.alphabet[hard_decisions(x_hat, symbols.alphabet)]
        (out,), _ = receivers.RECEIVERS["zf-oracle"].run(
            [(received, design, symbols.alphabet, 0, channels)], cfg.solver)
        assert np.array_equal(out.x_hat, x_hat)
        assert np.array_equal(out.x_detected, detected)
        assert (out.hs_hat, out.gbar_hat) == (None, None)
        assert scores["ser"] == ser(symbols, detected)
        assert scores["iterations"] == 0


class TestLockstep:
    """A receiver's batch runs its trials in lockstep, and each trial gets the
    output it gets alone, whatever else the batch holds."""

    @staticmethod
    def cases(n):
        cfg = SystemConfig()
        scenarios = [experiments._noised_scenario(cfg, 0.0, 0, r, cfg.seed) for r in range(n)]
        return cfg, [(received, design, symbols.alphabet, 40 + r, channels)
                     for r, (_, design, channels, symbols, received) in enumerate(scenarios)]

    @pytest.mark.parametrize("receiver", ["pakron", "tucker"])
    def test_batch_gives_each_trial_its_own_output(self, receiver):
        cfg, cases = self.cases(6)
        run = receivers.RECEIVERS[receiver].run
        outputs, wall_ms = run(cases, cfg.solver)
        assert len(wall_ms) == len(cases) and min(wall_ms) > 0
        for case, out in zip(cases, outputs):
            (alone,), _ = run([case], cfg.solver)
            assert same_output(out, alone)

    @pytest.mark.parametrize("receiver", ["pakron", "tucker"])
    def test_a_trial_that_fails_mid_sweep_spares_the_others(self, monkeypatch, receiver):
        cfg, cases = self.cases(5)
        run = receivers.RECEIVERS[receiver].run
        alone = [run([case], cfg.solver)[0][0] for case in cases]
        solve, calls = receivers._solve, []

        def failing(lock, *args):
            # trial 2's fifth solve raises, as a failed pinv fallback would
            calls.append(1)
            if len(calls) == 5:
                lock.errors[2] = NumericalError("synthetic failure")
            return solve(lock, *args)

        monkeypatch.setattr(receivers, "_solve", failing)
        outputs, _ = run(cases, cfg.solver)
        assert isinstance(outputs[2], NumericalError)
        for j in (0, 1, 3, 4):
            assert same_output(outputs[j], alone[j])


    @pytest.mark.parametrize("receiver", ["pakron", "tucker"])
    def test_a_trial_whose_reference_estimate_is_zero_spares_the_others(self, monkeypatch,
                                                                           receiver):
        cfg, cases = self.cases(6)
        run = receivers.RECEIVERS[receiver].run
        alone = [run([case], cfg.solver)[0][0] for case in cases]
        resolve, seen, sizes = receivers._resolve, [], []

        def recording(x, alphabet):
            seen.append(x)
            return resolve(x, alphabet)

        monkeypatch.setattr(receivers, "_resolve", recording)
        run([cases[3]], cfg.solver)
        target = seen[0][0]  # trial 3's soft symbols, as its resolution sees them

        def zeroing(x, alphabet):
            # trial 3's reference row reads zero, in whatever stack
            sizes.append(len(x))
            x = x.copy(order="K")
            x[[np.array_equal(row, target) for row in x], 0] = 0.0
            return resolve(x, alphabet)

        monkeypatch.setattr(receivers, "_resolve", zeroing)
        outputs, _ = run(cases, cfg.solver)
        assert sizes == [6] + [1] * 6  # the stack, then each trial alone
        assert isinstance(outputs[3], ScalingResolutionError)
        for j in (0, 1, 2, 4, 5):
            assert same_output(outputs[j], alone[j])

    @pytest.mark.parametrize("call, error", [(0, np.linalg.LinAlgError), (1, NumericalError),
                                             (2, NumericalError)],
                             ids=["start", "projection", "split"])
    def test_a_trial_whose_stacked_eigh_fails_spares_the_others(self, monkeypatch, call,
                                                              error):
        # pakron's three stacked eighs: the start's Grams, the projection's
        # and the split's rank-1 fits
        cfg, cases = self.cases(6)
        run = receivers.RECEIVERS["pakron"].run
        alone = [run([case], cfg.solver)[0][0] for case in cases]
        eigh, seen = np.linalg.eigh, []

        def recording(a):
            seen.append(a)
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", recording)
        run([cases[3]], cfg.solver)
        assert len(seen) == 3
        target = seen[call][0]  # trial 3's matrices of that call

        def failing(a):
            if a.shape[1:] == target.shape and any(np.array_equal(m, target) for m in a):
                raise np.linalg.LinAlgError("synthetic failure")
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", failing)
        outputs, _ = run(cases, cfg.solver)
        assert isinstance(outputs[3], error)
        for j in (0, 1, 2, 4, 5):
            assert same_output(outputs[j], alone[j])

    def test_a_failed_stacked_call_is_charged_to_all_its_trials(self, monkeypatch):
        # a clock that reads 0 at the start, 3 s after the failed stacked
        # call and one second more after each rerun trial
        monkeypatch.setattr(receivers.time, "perf_counter",
                            iter([0.0, 3.0, 4.0, 5.0, 6.0]).__next__)
        lock = receivers.Lockstep(3)

        def double(a):
            if len(a) > 1 or a[0] == 1:
                raise NumericalError("synthetic failure")
            return 2 * a

        assert lock.stacked(double, np.arange(3)).tolist() == [0, 4]
        assert lock.live.tolist() == [0, 2] and isinstance(lock.errors[1], NumericalError)
        assert lock.ms == [2000.0, 2000.0, 2000.0]


@pytest.mark.parametrize("shape, error", [((2, 2), np.linalg.LinAlgError),
                                          ((8, 8), NumericalError)],
                         ids=["start", "projection"])
def test_a_step_that_fails_every_trial_fails_each(monkeypatch, shape, error):
    # the start's eigh (frames x frames Grams) or the projection's rank-1 fit
    # (8 x 8 Grams at the default dimensions) fails for every live trial
    eigh = np.linalg.eigh

    def failing(a):
        if a.shape[-2:] == shape:
            raise np.linalg.LinAlgError("synthetic failure")
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", failing)
    cfg = SystemConfig(snr_db=(10.0,), seed=3)
    with pytest.raises(error):
        run_trial(cfg, "pakron", 10.0, 0, 1)
    trials, report = run_sweep(cfg, ["pakron"], runs=3)
    assert [type(t) for t in trials] == [TrialFailure] * 3
    assert all(t.error.startswith(error.__name__) for t in trials)
    assert report.cells[0]["failures"] == 3


class TestTrialPathBuildsNoCore:
    """Trials read the received tensor through the view their arithmetic
    uses; the fourth-order core and ``reshape_views`` are for callers that
    ask for them."""

    @pytest.fixture
    def no_core(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a trial built the core or the tensor views")

        clear_preparations()
        monkeypatch.setattr(signal, "build_core", refuse)
        monkeypatch.setattr(signal, "reshape_views", refuse)
        yield
        clear_preparations()

    @pytest.mark.parametrize("receiver", list(receivers.RECEIVERS))
    def test_run_trial(self, no_core, receiver):
        assert run_trial(desk_config(), receiver, 10.0, 0, 0).iterations >= 0

    def test_serial_sweep(self, no_core):
        trials, _ = run_sweep(desk_config(snr_db=(0.0, 30.0)),
                              list(receivers.RECEIVERS), runs=2)
        assert len(trials) == 12 and all(isinstance(t, TrialResult) for t in trials)

    def test_first_trials_allocate_far_less_than_a_core(self):
        # d = 128: the core would be 32 MiB; no other test uses these dims
        cfg = SystemConfig(ris_elements=32, tx_antennas=4, groups=4, blocks=128)
        clear_preparations()
        peaks = {}
        tracemalloc.start()
        try:
            for receiver in ("pakron", "tucker"):
                tracemalloc.reset_peak()
                run_trial(cfg, receiver, 0.0, 0, 0)
                peaks[receiver] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
            clear_preparations()
        assert max(peaks.values()) < 8, peaks


@pytest.mark.parametrize("receiver", [pakron, tucker])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_received_tensor_raises(receiver, bad):
    cfg = desk_config()
    design, _, symbols, received = draw_instance(cfg, 39)
    y = received.y.copy()
    y[1, 2, 3, 0] = bad
    with pytest.raises(NumericalError, match="non-finite"):
        receiver(ReceivedTensor(y=y), design, symbols.alphabet, cfg.solver, 0)


@pytest.mark.parametrize("receiver", [pakron, tucker])
@pytest.mark.parametrize("scale", [0.0, 1e-170], ids=["zero-channel", "underflow"])
def test_zero_energy_received_tensor_raises(receiver, scale):
    # with a zero surface-to-receiver channel the received tensor is zero,
    # and at 1e-170 its energy underflows to 0: every fit divides by it
    cfg = desk_config()
    design, channels, symbols, _ = draw_instance(cfg, 39)
    channels = signal.ChannelSet(h=scale * channels.h, g=channels.g)
    received = signal.synthesize_received(channels, design, symbols)
    with pytest.raises(NumericalError, match="zero energy"):
        receiver(received, design, symbols.alphabet, cfg.solver, 0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, 1e160])
def test_contract_refuses_non_finite_or_zero_data(bad):
    cfg = desk_config()
    design, _, _, received = draw_instance(cfg, 39)
    z = np.reshape(received.y, (-1, cfg.blocks, cfg.frames), order="F").copy()
    if np.isfinite(bad):
        z *= bad  # all zero, or finite entries whose ||z||^2 overflows
    else:
        z[1, 2, 0] = bad
    with pytest.raises(NumericalError, match="zero energy" if bad == 0 else "non-finite"):
        receivers._contract(z, design.psi, design.psi_spectrum)


class TestZeroForcing:
    def test_noiseless_exact(self):
        cfg = desk_config()
        design, channels, symbols, received = draw_instance(cfg, 31)
        x_hat = zf_perfect_csi(received, channels, design)
        assert x_hat.shape == (cfg.slots, cfg.tx_antennas)
        assert rel_err(x_hat, symbols.x) < 1e-10

    def test_qpsk_25db_ser_over_1e4_symbols(self):
        cfg = desk_config(slots=51)  # 100 data symbols per trial
        errors = 0
        total = 0
        for seed in range(100):
            design, channels, symbols, received = draw_instance(cfg, 300 + seed)
            noisy = add_noise(received, 25.0, 400 + seed)
            x_hat = zf_perfect_csi(noisy, channels, design)
            out_ser = ser(symbols, symbols.alphabet[
                np.argmin(np.abs(x_hat[..., None] - symbols.alphabet), axis=-1)])
            errors += out_ser * (cfg.slots - 1) * cfg.tx_antennas
            total += (cfg.slots - 1) * cfg.tx_antennas
        assert total >= 10_000
        assert errors / total <= 1e-3


class TestResolveAndDetect:
    def _output_with(self, x):
        from bdris.receivers import ReceiverOutput
        return ReceiverOutput(h_hat=None, hs_hat=None, gbar_hat=None,
                              x_hat=x, x_detected=None, iterations=0,
                              residual_trajectory=(0.0,), converged=True,
                              final_fit=0.0)

    def test_cancels_per_stream_scaling(self):
        cfg = desk_config()
        sym = draw_instance(cfg, 32)[2]
        rng = np.random.default_rng(33)
        e = np.exp(2j * np.pi * rng.random(cfg.tx_antennas))
        out = resolve_and_detect(self._output_with(sym.x * e[None, :]),
                                 sym.alphabet)
        assert rel_err(out.x_hat, sym.x) < 1e-12
        assert ser(sym, out.x_detected) == 0.0

    def test_perfect_input_unchanged(self):
        sym = draw_instance(desk_config(), 34)[2]
        out = resolve_and_detect(self._output_with(sym.x.copy()), sym.alphabet)
        assert rel_err(out.x_hat, sym.x) < 1e-12
        assert ser(sym, out.x_detected) == 0.0

    def test_single_flip_counts(self):
        cfg = desk_config(slots=51, tx_antennas=2, blocks=8)  # 100 data symbols
        sym = draw_instance(cfg, 35)[2]
        x = sym.x.copy()
        alphabet = sym.alphabet
        x[5, 1] = alphabet[(np.argmin(np.abs(alphabet - x[5, 1])) + 1) % len(alphabet)]
        out = resolve_and_detect(self._output_with(x), alphabet)
        assert np.isclose(ser(sym, out.x_detected), 0.01)

    def test_tiny_column_is_rescaled(self):
        sym = draw_instance(desk_config(), 36)[2]
        x = sym.x.copy()
        x[:, 1] *= 1e-160
        out = resolve_and_detect(self._output_with(x), sym.alphabet)
        assert rel_err(out.x_hat, sym.x) < 1e-12
        assert ser(sym, out.x_detected) == 0.0

    def test_reference_negligible_in_its_column_raises(self):
        sym = draw_instance(desk_config(), 36)[2]
        x = sym.x.copy()
        x[0, 0] = 1e-20
        with pytest.raises(ScalingResolutionError):
            resolve_and_detect(self._output_with(x), sym.alphabet)

    def test_zero_reference_raises(self):
        sym = draw_instance(desk_config(), 36)[2]
        x = sym.x.copy()
        x[0, 0] = 0.0
        with pytest.raises(ScalingResolutionError):
            resolve_and_detect(self._output_with(x), sym.alphabet)


    @pytest.mark.parametrize("size", [1, 13])
    def test_stack_equals_the_per_trial_calls(self, size):
        # the receivers resolve a stack of trials; each row gets the bits of
        # resolve_and_detect and of its one-trial arithmetic
        rng = np.random.default_rng(61)
        x = rng.standard_normal((size, 5, 2)) + 1j * rng.standard_normal((size, 5, 2))
        x[-1, :, 1] *= 1e-160  # a tiny column is rescaled
        alphabet = psk_alphabet(4)
        x_res, detected = receivers._resolve(x, np.array([alphabet] * size))
        for j in range(size):
            out = resolve_and_detect(self._output_with(x[j]), alphabet)
            assert np.array_equal(x_res[j], out.x_hat)
            assert np.array_equal(detected[j], out.x_detected)
            one = x[j] * (complex(alphabet[0]) / x[j][0, :])[None, :]
            assert np.array_equal(x_res[j], one)
            expected = alphabet[hard_decisions(one, alphabet)]
            expected[0, :] = alphabet[0]
            assert np.array_equal(detected[j], expected)

    def test_a_zero_reference_in_the_stack_raises(self):
        x = np.ones((13, 5, 2), complex)
        x[7, 0, 1] = 0.0
        with pytest.raises(ScalingResolutionError):
            receivers._resolve(x, np.array([psk_alphabet(4)] * 13))


def test_output_fields_are_complete():
    cfg = desk_config()
    design, channels, symbols, received = draw_instance(cfg, 37)
    out = tucker(received, design, symbols.alphabet, tight_solver(), 38)
    assert out.iterations == len(out.residual_trajectory)
    assert out.converged
    assert run_trial(cfg, "tucker", 10.0).wall_ms > 0
    assert dataclasses.is_dataclass(out)
