import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from bdris import signal
from bdris.config import SystemConfig, derive_seed
from bdris.errors import ConfigError, NumericalError
from bdris.experiments import run_trial
from bdris.signal import (
    ReceivedTensor,
    ScatteringDesign,
    add_noise,
    build_core,
    design_scattering,
    draw_scenario,
    gen_channels,
    gen_symbols,
    psk_alphabet,
    reshape_views,
    synthesize_received,
)
from bdris.tensor_ops import gram_spectrum, khatri_rao, kron, unfold
from util import (
    ambiguity_equivalent,
    count_calls,
    desk_config,
    draw_instance,
    loop_oracle,
    nmode_product,
    rel_err,
    selection_matrix,
    unfold_multi,
)


class TestScatteringDesign:
    def test_unitarity(self):
        cfg = desk_config(ris_elements=16, groups=4, blocks=16)
        design = design_scattering(cfg, 1)
        n = cfg.ris_elements
        err = np.linalg.norm(design.s @ design.s.conj().T - np.eye(n))
        assert err <= 1e-12 * n

    def test_two_element_single_group_block(self):
        cfg = desk_config(ris_elements=2, groups=1, tx_antennas=1, slots=2)
        design = design_scattering(cfg, 2)
        expected = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        assert np.allclose(design.s, expected)

    def test_per_block_scattering_stays_unitary(self):
        cfg = desk_config()
        design = design_scattering(cfg, 3)
        nbar = cfg.ris_elements // cfg.groups
        for q in range(cfg.groups):
            sl = slice(q * nbar, (q + 1) * nbar)
            for k in range(cfg.blocks):
                sk = design.s[sl, sl] @ np.diag(design.p[k, sl])
                assert np.allclose(sk.conj().T @ sk, np.eye(nbar), atol=1e-12)

    def test_unit_modulus_rotations(self):
        design = design_scattering(desk_config(), 4)
        assert np.allclose(design.p.conj() * design.p,
                           np.ones_like(design.p), atol=1e-12)

    def test_psi_rowwise_structure(self):
        design = design_scattering(desk_config(), 5)
        assert np.array_equal(design.psi,
                              khatri_rao(design.w.T, design.p.T).T)
        for k in range(design.psi.shape[0]):
            assert np.array_equal(design.psi[k], np.kron(design.w[k], design.p[k]))
        # psi is derived from the rotations and coding, never given
        assert "psi" not in {f.name for f in dataclasses.fields(ScatteringDesign)}
        again = ScatteringDesign(s=design.s, p=design.p, w=design.w)
        assert np.array_equal(again.psi, khatri_rao(design.w.T, design.p.T).T)

    def test_psi_full_rank(self):
        cfg = desk_config(blocks=6)  # blocks < tx*ris: rank limited by blocks
        design = design_scattering(cfg, 6)
        assert np.linalg.matrix_rank(design.psi) == min(cfg.blocks, cfg.tx_ris_dim)

    def test_dft_phase_design(self):
        cfg = desk_config(phase_design="dft")
        design = design_scattering(cfg, 7)
        assert np.allclose(np.abs(design.p), 1.0)
        assert np.allclose(np.abs(design.w), 1.0)
        assert np.linalg.matrix_rank(design.psi) == min(cfg.blocks, cfg.tx_ris_dim)
        # deterministic regardless of seed
        assert np.array_equal(design.p, design_scattering(cfg, 99).p)

    @pytest.mark.parametrize("cfg", [
        SystemConfig(),
        SystemConfig(ris_elements=8, blocks=16, seed=20240),  # acceptance dims
        SystemConfig(blocks=16),                               # blocks < d
        SystemConfig(ris_elements=8, groups=4, blocks=40, tx_antennas=3, slots=4),
    ], ids=["default", "acceptance", "blocks-lt-d", "tall"])
    def test_gram_rank_check_decides_as_matrix_rank(self, cfg):
        # 500 seeded designs per config: every draw passes the Gram check
        # and its rank equals np.linalg.matrix_rank's
        full = min(cfg.blocks, cfg.tx_ris_dim)
        for seed in range(500):
            psi = design_scattering(cfg, seed).psi
            assert gram_spectrum(psi)[2] == np.linalg.matrix_rank(psi) == full

    def test_gram_rank_check_on_dft_designs(self):
        # the dft design depends on the dimensions only, so vary them: with
        # blocks < d its columns repeat and the rank is blocks
        count = 0
        for n, groups, mt in ((16, 2, 2), (8, 2, 2), (4, 1, 1), (8, 4, 3)):
            for blocks in range(1, 129):
                cfg = SystemConfig(ris_elements=n, groups=groups, tx_antennas=mt,
                                   slots=mt, blocks=blocks, phase_design="dft")
                psi = design_scattering(cfg, 0).psi
                assert gram_spectrum(psi)[2] == np.linalg.matrix_rank(psi) \
                    == min(blocks, cfg.tx_ris_dim)
                count += 1
        assert count == 512

    @pytest.mark.parametrize("blocks", [32, 16, 48])
    def test_rank_deficient_psi_is_rejected(self, monkeypatch, blocks):
        def repeated(a, b):
            kr = khatri_rao(a, b)  # psi^T
            kr[:, 0] = kr[:, 1]  # two equal rows of psi
            kr[0] = kr[1]        # and two equal columns
            return kr

        def low_rank(a, b):
            kr = khatri_rao(a, b)
            u, sv, vh = np.linalg.svd(kr, full_matrices=False)
            sv[-1] = 0.0
            return (u * sv) @ vh

        for construct in (repeated, low_rank):
            monkeypatch.setattr(signal, "khatri_rao", construct)
            with pytest.raises(ValueError, match="rank deficient"):
                design_scattering(SystemConfig(blocks=blocks), 3)

    def test_design_refuses_rank_deficient_rotations_and_coding(self):
        drawn = design_scattering(SystemConfig(), 3)
        p, w = drawn.p.copy(), drawn.w.copy()
        p[1], w[1] = p[0], w[0]  # two equal rows of psi, 32 blocks for d = 32
        with pytest.raises(ValueError, match="rank deficient"):
            ScatteringDesign(s=drawn.s, p=p, w=w)
        w[:, 1] = w[:, 0]  # coding that cannot tell the two streams apart
        with pytest.raises(ValueError, match="rank deficient"):
            ScatteringDesign(s=drawn.s, p=drawn.p, w=w)

    def test_groups_must_divide_elements(self):
        with pytest.raises(ConfigError):
            desk_config(ris_elements=6, groups=4)

    def test_psi_spectrum_is_decomposed_once_per_design(self, monkeypatch):
        cfg = SystemConfig()
        calls = count_calls(monkeypatch, np.linalg, "eigvalsh")
        design = design_scattering(cfg, 5)  # the rank check reads it
        spectrum = design.psi_spectrum
        assert design.psi_spectrum is spectrum
        assert calls == ["eigvalsh"]
        gram, cond, rank = spectrum
        assert np.array_equal(gram, design.psi.T @ design.psi.conj())
        assert (cond, rank) == gram_spectrum(design.psi)[1:]
        assert not gram.flags.writeable
        with pytest.raises(ValueError):
            gram[0, 0] = 0.0
        # another design object with the same psi decomposes it again
        del calls[:]
        again = dataclasses.replace(design)
        assert again.psi_spectrum is not spectrum
        assert np.array_equal(again.psi_spectrum[0], gram)
        assert calls == ["eigvalsh"]


class TestChannels:
    def test_rayleigh_unit_power(self):
        cfg = SystemConfig(tx_antennas=20, rx_antennas=200, ris_elements=200,
                           groups=1, blocks=4, slots=20, frames=25,
                           snr_db=(0.0,))
        ch = gen_channels(cfg, 8)
        samples = np.concatenate([np.abs(ch.h.ravel()) ** 2,
                                  np.abs(ch.g.ravel()) ** 2])
        assert samples.size >= 1e5
        assert abs(samples.mean() - 1.0) < 0.05

    def test_geometric_single_path_rank_one(self):
        cfg = desk_config(ris_elements=16, groups=2, blocks=16,
                          channel_model="geometric", paths=1)
        ch = gen_channels(cfg, 9)
        assert np.linalg.matrix_rank(ch.h, tol=1e-10) == 1
        for gi in ch.g:
            assert np.linalg.matrix_rank(gi, tol=1e-10) == 1

    def test_geometric_requires_square_grid(self):
        cfg = desk_config(ris_elements=8, groups=2, channel_model="geometric")
        with pytest.raises(ValueError):
            gen_channels(cfg, 10)

    def test_deterministic(self):
        cfg = desk_config()
        a = gen_channels(cfg, 11)
        b = gen_channels(cfg, 11)
        assert np.array_equal(a.h, b.h) and np.array_equal(a.g, b.g)

    def test_gbar_rows_are_vectorized_slices(self):
        ch = gen_channels(desk_config(), 12)
        for i, gi in enumerate(ch.g):
            assert np.array_equal(ch.gbar[i].reshape(gi.shape, order="F"), gi)


class TestSymbols:
    def test_qpsk_alphabet(self):
        alphabet = psk_alphabet(4)
        expected = np.exp(1j * np.pi * (2 * np.arange(4) + 1) / 4)
        assert np.allclose(alphabet, expected)

    def test_order64_distinct_unit_modulus(self):
        alphabet = psk_alphabet(64)
        assert len(np.unique(np.round(alphabet, 12))) == 64
        assert np.allclose(np.abs(alphabet), 1.0)

    def test_reference_row_convention(self):
        cfg = desk_config(modulation_order=8)
        sym = gen_symbols(cfg, 13)
        assert np.all(sym.x[0] == sym.alphabet[0])

    def test_entries_are_alphabet_members(self):
        sym = gen_symbols(desk_config(), 14)
        dist = np.abs(sym.x[..., None] - sym.alphabet)
        assert np.all(dist.min(axis=-1) < 1e-12)


class TestSynthesis:
    def test_matches_quadruple_loop_oracle(self):
        cfg = desk_config(rx_antennas=2, ris_elements=4, groups=2, blocks=3,
                          slots=2, frames=2)
        design, channels, symbols, received = draw_instance(cfg, 15)
        oracle = loop_oracle(cfg, design, channels, symbols)
        assert rel_err(received.y, oracle) < 1e-12

    def test_single_group_collapses(self):
        cfg = desk_config(groups=1)
        design, channels, symbols, received = draw_instance(cfg, 16)
        for k in range(cfg.blocks):
            for i in range(cfg.frames):
                direct = (channels.h @ design.s @ np.diag(design.p[k])
                          @ channels.g[i] @ np.diag(design.w[k]) @ symbols.x.T)
                assert rel_err(received.y[:, :, k, i], direct) < 1e-12

    def test_per_frame_stacked_columns(self):
        cfg = desk_config()
        design, channels, symbols, received = draw_instance(cfg, 17)
        views = reshape_views(received, design)
        mix = kron(symbols.x, channels.h @ design.s)
        for i in range(cfg.frames):
            expected = mix @ np.diag(channels.gbar[i]) @ khatri_rao(
                design.w.T, design.p.T)
            assert rel_err(views.z[:, :, i], expected) < 1e-12

    def test_dimension_mismatch(self):
        cfg = desk_config()
        design, channels, symbols, _ = draw_instance(cfg, 18)
        bad = gen_channels(desk_config(ris_elements=8, groups=2), 18)
        with pytest.raises(ValueError):
            synthesize_received(bad, design, symbols)


class TestSynthesisProperty:
    @settings(max_examples=40, deadline=None)
    @given(tx=st.integers(1, 3), rx=st.integers(1, 3),
           ris_groups=st.sampled_from([(4, 1), (4, 2), (4, 4), (9, 1), (9, 3),
                                       (6, 2), (6, 3)]),
           extra_slots=st.integers(0, 2), blocks=st.integers(1, 8),
           frames=st.integers(1, 3), geometric=st.booleans(),
           dft=st.booleans(), seed=st.integers(0, 2**16))
    def test_product_equals_loop_oracle(self, tx, rx, ris_groups, extra_slots,
                                        blocks, frames, geometric, dft, seed):
        ris, groups = ris_groups
        assume(not geometric or ris in (4, 9))  # planar arrays are square
        cfg = SystemConfig(
            tx_antennas=tx, rx_antennas=rx, ris_elements=ris, groups=groups,
            blocks=blocks, slots=tx + extra_slots, frames=frames,
            channel_model="geometric" if geometric else "rayleigh", paths=2,
            phase_design="dft" if dft else "random")
        design, channels, symbols, received = draw_instance(cfg, seed)
        assert received.y.shape == (rx, tx + extra_slots, blocks, frames)
        oracle = loop_oracle(cfg, design, channels, symbols)
        assert rel_err(received.y, oracle) <= 1e-12


class TestSharedConstants:
    def test_scattering_is_shared_and_read_only(self):
        cfg = desk_config()
        a, b = design_scattering(cfg, 1), design_scattering(cfg, 2)
        assert a.s is b.s
        for shared in (a.s, a.s.real, a.s.T):
            assert not shared.flags.writeable
            with pytest.raises(ValueError):
                shared.setflags(write=True)
            with pytest.raises(ValueError):
                shared[(0,) * shared.ndim] = 2.0

    def test_each_dimension_pair_has_its_own(self):
        scattering = {(n, q): design_scattering(desk_config(ris_elements=n, groups=q), 0).s
                      for n, q in ((4, 1), (4, 2), (8, 2))}
        assert len({id(s) for s in scattering.values()}) == 3
        assert scattering[(4, 1)].shape == scattering[(4, 2)].shape == (4, 4)
        assert not np.array_equal(scattering[(4, 1)], scattering[(4, 2)])


class TestReadOnlyScenario:
    @pytest.mark.parametrize("fields", [{}, dict(channel_model="geometric"),
                                        dict(phase_design="dft")])
    def test_scenario_and_noised_tensor_reject_writes(self, fields):
        design, channels, symbols, received = draw_instance(desk_config(**fields), 24)
        noisy = add_noise(received, 10.0, 25)
        for array in (design.p, design.w, design.psi, channels.h, channels.g,
                      channels.gbar, symbols.x, symbols.alphabet, received.y,
                      noisy.y):
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 0.0

    def test_noise_leaves_a_writable_input_writable(self):
        y = np.ones((2, 2, 3, 1), dtype=complex)
        noisy = add_noise(ReceivedTensor(y=y), 10.0, 26)
        assert y.flags.writeable and not noisy.y.flags.writeable


class TestNoise:
    def test_noiseless_passthrough(self):
        _, _, _, received = draw_instance(desk_config(), 19)
        out = add_noise(received, math.inf, 1)
        assert out is received

    @pytest.mark.parametrize("scale, message", [(0.0, "zero energy"),
                                                (1e160, "non-finite entries or energy")],
                             ids=["zero", "overflowing"])
    def test_zero_or_overflowing_energy_is_refused(self, scale, message):
        # the noise power is set from ||Y||^2, which must be finite and positive
        received = draw_scenario(SystemConfig(), 1)[3]
        scaled = ReceivedTensor(y=received.y * scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=message):
                add_noise(scaled, 10.0, 1)

    @pytest.mark.parametrize("snr_db", [-math.inf, math.nan, 4000.0, -4000.0],
                             ids=["-inf", "nan", "ratio-overflows", "ratio-underflows"])
    def test_only_plus_inf_is_noiseless(self, snr_db):
        cfg = desk_config()
        _, _, _, received = draw_instance(cfg, 19)
        with pytest.raises(ValueError, match="snr_db must be finite or [+]inf"):
            add_noise(received, snr_db, 1)
        with pytest.raises(ValueError, match="snr_db must be finite or [+]inf"):
            run_trial(cfg, "tucker", snr_db)

    def test_empirical_snr(self):
        rng = np.random.default_rng(20)
        y = rng.standard_normal((10, 10, 100, 100)) + \
            1j * rng.standard_normal((10, 10, 100, 100))
        received = ReceivedTensor(y=y)
        noisy = add_noise(received, 10.0, 21)
        measured = 10 * math.log10(
            np.linalg.norm(y) ** 2 / np.linalg.norm(noisy.y - y) ** 2)
        assert abs(measured - 10.0) < 0.2
        assert abs(noisy.achieved_snr_db - measured) < 1e-9

    def test_deterministic(self):
        _, _, _, received = draw_instance(desk_config(), 22)
        a = add_noise(received, 5.0, 23)
        b = add_noise(received, 5.0, 23)
        assert np.array_equal(a.y, b.y)


class TestViews:
    def test_mode1_identity_from_truth(self):
        cfg = desk_config()
        design, channels, symbols, received = draw_instance(cfg, 24)
        views = reshape_views(received, design)
        omega = kron(symbols.x, channels.h @ design.s)
        expected = omega @ khatri_rao(channels.gbar, design.psi).T
        assert rel_err(unfold(views.z, 0), expected) < 1e-12

    def test_generalized_unfolding_same_data(self):
        cfg = desk_config()
        design, _, _, received = draw_instance(cfg, 25)
        views = reshape_views(received, design)
        assert np.array_equal(
            unfold_multi(views.q4, [0, 1], [2, 3]).ravel(order="F"),
            unfold(received.y, 0).ravel(order="F"))

    def test_core_reconstructs_received(self):
        cfg = desk_config()
        design, channels, symbols, received = draw_instance(cfg, 26)
        views = reshape_views(received, design)
        t = views.core
        for mode, mat in [(0, channels.h @ design.s), (1, symbols.x),
                          (2, design.psi), (3, channels.gbar)]:
            t = nmode_product(t, mat, mode)
        assert rel_err(t, views.q4) < 1e-12

    def test_core_unfolding_is_selection(self):
        core = build_core(4, 2)
        assert np.array_equal(unfold_multi(core, [0, 1], [2, 3]),
                              selection_matrix(8).T)


def test_ambiguity_rescaling_leaves_tensor_unchanged():
    cfg = desk_config()
    design, channels, symbols, received = draw_instance(cfg, 27)
    rng = np.random.default_rng(28)
    element = np.exp(2j * np.pi * rng.random(cfg.ris_elements))
    stream = np.exp(2j * np.pi * rng.random(cfg.tx_antennas))
    ch2, sym2 = ambiguity_equivalent(channels, design, symbols, element, stream)
    received2 = synthesize_received(ch2, design, sym2)
    assert rel_err(received2.y, received.y) < 1e-12
    assert np.isclose(np.linalg.norm(received2.y), np.linalg.norm(received.y))


def test_derive_seed_stability():
    assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
    assert derive_seed(1, "a", 2) != derive_seed(1, "a", 3)
