import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from bdris import tensor_ops
from bdris.signal import design_scattering
from bdris.tensor_ops import (
    best_rank1,
    gram_spectrum,
    hermitian_cond,
    khatri_rao,
    kron,
    kron_rearrange,
    last_result_cache,
    nearest_kronecker,
    pinv,
    schur_cond_bound,
    solve_gram,
    unfold,
    unvec,
    vec,
)
from util import (
    count_calls,
    desk_config,
    fold,
    identity_tensor,
    nmode_product,
    rel_err,
    selection_matrix,
    solve_rows,
    trilinear_oracle,
    unfold_multi,
)


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestUnfold:
    def test_enumerated_2x2x2(self):
        # entry(i,j,k) = 1 + i + 2j + 4k (0-based), i.e. values follow the
        # first-mode-fastest linearization
        t = np.arange(1, 9).reshape((2, 2, 2), order="F")
        expected = np.array([[1, 3, 5, 7], [2, 4, 6, 8]])
        assert np.array_equal(unfold(t, 0), expected)

    def test_zeros(self):
        t = np.zeros((3, 2, 4))
        for mode in range(3):
            assert not unfold(t, mode).any()

    def test_fold_inverse_all_modes(self):
        rng = np.random.default_rng(0)
        t = random_complex(rng, 3, 4, 2)
        for mode in range(3):
            assert np.array_equal(fold(unfold(t, mode), mode, t.shape), t)

    def test_mode_out_of_range(self):
        with pytest.raises(ValueError):
            unfold(np.zeros((2, 2)), 2)
        with pytest.raises(ValueError):
            unfold(np.zeros((2, 2)), -1)

    def test_norm_preserved(self):
        rng = np.random.default_rng(1)
        t = random_complex(rng, 3, 5, 2, 4)
        for mode in range(4):
            assert np.isclose(np.linalg.norm(unfold(t, mode)), np.linalg.norm(t))

    def test_unfold_multi_matches_plain(self):
        rng = np.random.default_rng(2)
        t = random_complex(rng, 3, 4, 2)
        assert np.array_equal(unfold_multi(t, [0], [1, 2]), unfold(t, 0))

    def test_unfold_multi_partition_check(self):
        with pytest.raises(ValueError):
            unfold_multi(np.zeros((2, 2, 2)), [0], [1])


class TestNmodeProduct:
    def test_identity(self):
        rng = np.random.default_rng(3)
        t = random_complex(rng, 2, 3, 4)
        for mode in range(3):
            out = nmode_product(t, np.eye(t.shape[mode]), mode)
            assert np.allclose(out, t)

    def test_order2_collapses_to_matmul(self):
        rng = np.random.default_rng(4)
        t = random_complex(rng, 3, 4)
        m = random_complex(rng, 5, 3)
        assert np.allclose(nmode_product(t, m, 0), m @ t)

    def test_trilinear_against_loop_oracle(self):
        rng = np.random.default_rng(5)
        a = rng.integers(-3, 4, size=(3, 2)).astype(complex)
        b = rng.integers(-3, 4, size=(2, 2)).astype(complex)
        c = rng.integers(-3, 4, size=(2, 2)).astype(complex)
        z = identity_tensor(3, 2)
        for mode, m in enumerate((a, b, c)):
            z = nmode_product(z, m, mode)
        assert np.allclose(z, trilinear_oracle(a, b, c))
        assert np.allclose(unfold(z, 0), a @ khatri_rao(c, b).T)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            nmode_product(np.zeros((2, 3)), np.zeros((4, 5)), 0)

    def test_all_diagonal_core_unfoldings(self):
        # the three Kolda-style unfolding identities, against the explicit
        # rank-one-sum oracle
        rng = np.random.default_rng(6)
        a = random_complex(rng, 4, 3)
        b = random_complex(rng, 2, 3)
        c = random_complex(rng, 5, 3)
        t = trilinear_oracle(a, b, c)
        assert rel_err(unfold(t, 0), a @ khatri_rao(c, b).T) < 1e-12
        assert rel_err(unfold(t, 1), b @ khatri_rao(c, a).T) < 1e-12
        assert rel_err(unfold(t, 2), c @ khatri_rao(b, a).T) < 1e-12


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_hand_expansion(self):
        out = kron(np.array([[1, 2]]), np.array([[3], [4]]))
        assert np.array_equal(out, np.array([[3, 6], [4, 8]]))

    def test_mixed_product(self):
        rng = np.random.default_rng(7)
        a, b, c, d = (random_complex(rng, 2, 2) for _ in range(4))
        assert np.allclose(kron(a, b) @ kron(c, d), kron(a @ c, b @ d))

    @pytest.mark.parametrize("a_shape, b_shape", [((4, 2), (4, 16)), ((1, 3), (5, 1)),
                                                  ((2, 2), (3, 0))])
    def test_bit_equal_to_numpy(self, a_shape, b_shape):
        rng = np.random.default_rng(8)
        a, b = random_complex(rng, *a_shape), random_complex(rng, *b_shape)
        assert np.array_equal(kron(a, b), np.kron(a, b))
        assert kron(a, b).shape == np.kron(a, b).shape


class TestKhatriRao:
    def test_single_column(self):
        out = khatri_rao(np.array([[1], [2]]), np.array([[3], [4]]))
        assert np.array_equal(out, np.array([[3], [4], [6], [8]]))

    def test_selection_matrix_link(self):
        rng = np.random.default_rng(8)
        a = random_complex(rng, 3, 2)
        b = random_complex(rng, 4, 2)
        xi = selection_matrix(2)
        assert np.allclose(khatri_rao(a, b), kron(a, b) @ xi)

    def test_ones(self):
        out = khatri_rao(np.ones((2, 1)), np.ones((3, 1)))
        assert np.array_equal(out, np.ones((6, 1)))

    def test_column_mismatch(self):
        with pytest.raises(ValueError):
            khatri_rao(np.ones((2, 2)), np.ones((2, 3)))


class TestPinv:
    def test_identity(self):
        assert np.allclose(pinv(np.eye(3)), np.eye(3))

    def test_singular_diagonal(self):
        assert np.allclose(pinv(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))

    def test_left_inverse(self):
        rng = np.random.default_rng(9)
        a = random_complex(rng, 6, 3)
        assert rel_err(pinv(a) @ a, np.eye(3)) < 1e-10

    @pytest.mark.parametrize("deficient", [False, True])
    def test_moore_penrose_identities(self, deficient):
        rng = np.random.default_rng(10 + deficient)
        a = random_complex(rng, 8, 5)
        if deficient:
            a[:, 3] = a[:, 0] + a[:, 1]
            a[:, 4] = 2 * a[:, 2]
        ai = pinv(a)
        scale = np.linalg.norm(a)
        assert np.linalg.norm(a @ ai @ a - a) < 1e-10 * scale
        assert np.linalg.norm(ai @ a @ ai - ai) < 1e-10 * np.linalg.norm(ai)
        assert np.linalg.norm((a @ ai).conj().T - a @ ai) < 1e-10
        assert np.linalg.norm((ai @ a).conj().T - ai @ a) < 1e-10


class TestSolveRows:
    TOL = 1e-12

    def test_matches_pinv_well_conditioned(self):
        rng = np.random.default_rng(17)
        for d, n, r in ((32, 512, 2), (16, 64, 16), (2, 256, 16), (1, 3, 1)):
            m = random_complex(rng, d, n)
            z = random_complex(rng, r, n)
            assert rel_err(solve_rows(z, m, self.TOL), z @ pinv(m, self.TOL)) < 1e-12

    def test_khatri_rao_gram_from_factor_grams(self):
        # pakron stage I passes the Gram of a Khatri-Rao product this way
        rng = np.random.default_rng(20)
        a = random_complex(rng, 4, 6)
        b = random_complex(rng, 8, 6)
        m = khatri_rao(a, b).T
        z = random_complex(rng, 3, 32)
        gram = (a.T @ a.conj()) * (b.T @ b.conj())
        assert rel_err(gram, m @ m.conj().T) < 1e-14
        x = solve_gram(z @ m.conj().T, gram, self.TOL)
        assert rel_err(x, z @ pinv(m, self.TOL)) < 1e-12

    def test_solve_gram_reports_untrusted_gram(self):
        rng = np.random.default_rng(21)
        m = random_complex(rng, 4, 12)
        rhs = random_complex(rng, 2, 4)
        singular = m @ m.conj().T
        singular[:, 2] = singular[2, :] = 0.0
        assert solve_gram(rhs, singular, self.TOL) is None
        scaled = np.diag([1.0, 1.0, 1.0, 1e-7]) @ m  # positive definite, rcond ~3e-15
        assert solve_gram(rhs, scaled @ scaled.conj().T, self.TOL) is None
        assert solve_gram(rhs, m @ m.conj().T, self.TOL) is not None

    def test_rank_deficient_falls_back_to_pinv(self):
        rng = np.random.default_rng(18)
        m = random_complex(rng, 5, 20)
        m[3] = m[1]
        z = random_complex(rng, 4, 20)
        assert np.array_equal(solve_rows(z, m, self.TOL), z @ pinv(m, self.TOL))

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 6), extra=st.integers(0, 8), r=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_property_equals_pinv(self, d, extra, r, seed):
        rng = np.random.default_rng(seed)
        m = random_complex(rng, d, d + extra)
        z = random_complex(rng, r, d + extra)
        # the normal equations square the condition number of m
        bound = 100 * np.finfo(float).eps * np.linalg.cond(m) ** 2
        assert rel_err(solve_rows(z, m, self.TOL), z @ pinv(m, self.TOL)) <= bound


class TestCertifiedSolve:
    """``solve_gram``'s trust rule: the condition bound when it passes the
    rule, the Gram's exact 2-norm condition number otherwise; LU when
    trusted, ``None`` when not."""
    EPS = np.finfo(float).eps

    def gram_with_spectrum(self, rng, eigenvalues):
        q, _ = np.linalg.qr(random_complex(rng, len(eigenvalues), len(eigenvalues)))
        return (q * eigenvalues) @ q.conj().T

    def test_certified_gram_skips_cholesky(self, monkeypatch):
        # a bound that passes the rule needs no eigenvalues and no factor
        rng = np.random.default_rng(23)
        gram = self.gram_with_spectrum(rng, np.geomspace(1.0, 1e3, 8))
        rhs = random_complex(rng, 5, 8)
        calls = count_calls(monkeypatch, np.linalg, "cholesky")
        exact = count_calls(monkeypatch, tensor_ops, "hermitian_cond")
        x = solve_gram(rhs, gram, 1e-12, np.linalg.cond(gram))
        assert calls == [] and exact == []
        assert np.array_equal(x, np.linalg.solve(gram.T, rhs.T).T)
        assert rel_err(x, solve_gram(rhs, gram, 1e-12)) < 100 * self.EPS * 1e3

    @pytest.mark.parametrize("bound", [None, math.nan, math.inf])
    def test_no_certificate_takes_exact_cond_path(self, monkeypatch, bound):
        # no bound, or one that passes nothing: the exact condition number
        # decides, and the trusted Gram is solved by the same LU
        rng = np.random.default_rng(24)
        gram = self.gram_with_spectrum(rng, np.geomspace(1.0, 10.0, 6))
        rhs = random_complex(rng, 3, 6)
        exact = count_calls(monkeypatch, tensor_ops, "hermitian_cond")
        assert np.array_equal(solve_gram(rhs, gram, 1e-12, bound),
                              np.linalg.solve(gram.T, rhs.T).T)
        assert exact == ["hermitian_cond"]

    def test_untrusted_grams_without_a_bound(self):
        rng = np.random.default_rng(27)
        d, tol = 6, 1e-8
        rhs = random_complex(rng, 2, d)
        nan = self.gram_with_spectrum(rng, np.geomspace(1.0, 10.0, d))
        nan[2, 3] = nan[3, 2] = np.nan
        assert solve_gram(rhs, nan, tol) is None
        indefinite = self.gram_with_spectrum(rng, [-1.0, 1.0, 2.0, 3.0, 4.0, 5.0])
        assert solve_gram(rhs, indefinite, tol) is None
        # just inside and just past d * cond_2 * tol = 1
        for factor, trusted in ((0.99, True), (1.01, False)):
            kappa = factor / (d * tol)
            gram = self.gram_with_spectrum(rng, np.geomspace(1.0, kappa, d))
            assert (solve_gram(rhs, gram, tol) is not None) == trusted

    def test_rule_keeps_the_factor_d(self):
        # cond_1 <= d cond_2: a Gram with cond_2 * tol == 1 can still fail
        # rcond_1 >= tol, so cond_2 alone must not certify it
        rng = np.random.default_rng(25)
        gram = self.gram_with_spectrum(rng, np.geomspace(1.0, 1e4, 16))
        cond2, cond1 = np.linalg.cond(gram), np.linalg.cond(gram, 1)
        assert cond1 > 1.5 * cond2
        rhs = random_complex(rng, 2, 16)
        assert solve_gram(rhs, gram, 1 / cond2) is None
        assert solve_gram(rhs, gram, 1 / cond2, cond2) is None
        assert solve_gram(rhs, gram, 1 / (16 * cond2), cond2) is not None

    def test_rounding_floor(self, monkeypatch):
        # with tol = 0 only the floor d^2 * eps * kappa <= 1 limits the rule:
        # a bound past it sends the Gram to the exact condition number
        rng = np.random.default_rng(26)
        d = 32
        gram = self.gram_with_spectrum(rng, np.geomspace(1.0, 1e3, d))
        rhs = random_complex(rng, 2, d)
        exact = count_calls(monkeypatch, tensor_ops, "hermitian_cond")
        solve_gram(rhs, gram, 0.0, 1.0 / (d * d * self.EPS))
        assert exact == []
        assert solve_gram(rhs, gram, 0.0, 1.01 / (d * d * self.EPS)) is not None
        assert exact == ["hermitian_cond"]
        ill = self.gram_with_spectrum(rng, np.geomspace(1.0, 1.01 / (d * d * self.EPS), d))
        assert solve_gram(rhs, ill, 0.0) is None

    def test_hermitian_cond(self):
        assert hermitian_cond(np.diag([2.0, 8.0])) == 4.0
        for a in (np.diag([1.0, 0.0]), np.diag([1.0, -1e-17]),
                  np.full((2, 2), np.nan), np.full((3, 3), np.nan)):
            assert hermitian_cond(a) == np.inf

    def test_schur_bound_needs_positive_diagonal(self):
        assert schur_cond_bound(3.0, np.array([2.0, 4.0])) == 6.0
        for diag in ([1.0, 0.0], [1.0, np.nan], [np.nan, np.nan]):
            assert schur_cond_bound(3.0, np.array(diag)) == np.inf

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 4), mt=st.integers(1, 3), rows=st.integers(1, 5),
           extra=st.integers(0, 4), spread=st.floats(0.0, 3.0),
           seed=st.integers(0, 2**32 - 1))
    def test_property_schur_bound(self, n, mt, rows, extra, spread, seed):
        # cond_2(B ∘ P) <= kappa for B = F^T conj(F), P = psi^T conj(psi); so are
        # tucker's F and X Grams, sum_t (x_t ⊗ I)^T G conj(x_t ⊗ I) and
        # sum_r (I ⊗ f_r)^T G conj(I ⊗ f_r)
        rng = np.random.default_rng(seed)
        d = n * mt
        scales = 10.0 ** rng.uniform(-spread, spread, (1, d))
        psi = random_complex(rng, d + extra, d) * scales
        factor = random_complex(rng, rows, d) * 10.0 ** rng.uniform(-spread, spread, (1, d))
        p = psi.T @ psi.conj()
        gram = (factor.T @ factor.conj()) * p
        kappa = schur_cond_bound(hermitian_cond(p), np.diag(factor.T @ factor.conj()).real)
        x = random_complex(rng, mt + 1, mt)
        f = random_complex(rng, 3, n)
        lift_x = [kron(row[:, None], np.eye(n)) for row in x]
        lift_f = [kron(np.eye(mt), row[:, None]) for row in f]
        f_gram = sum(a.T @ gram @ a.conj() for a in lift_x)
        x_gram = sum(a.T @ gram @ a.conj() for a in lift_f)
        slack = 1 + 1e-6
        for g in (gram, f_gram, x_gram):
            assert np.linalg.cond(g) <= kappa * slack


class TestLastResultCache:
    """One entry, keyed by the shape, dtype and bytes of the arguments."""

    def counted(self):
        calls = []

        @last_result_cache
        def gram(a, b):
            calls.append(None)
            return a.T @ b.conj(), float(np.linalg.norm(a))

        return gram, calls

    def test_equal_contents_hit(self):
        gram, calls = self.counted()
        rng = np.random.default_rng(40)
        a, b = random_complex(rng, 6, 4), random_complex(rng, 6, 4)
        first = gram(a, b)
        assert gram(a.copy(), np.array(b)) is first
        assert len(calls) == 1

    def test_other_contents_never_hit(self):
        gram, calls = self.counted()
        rng = np.random.default_rng(41)
        a, b = random_complex(rng, 6, 4), random_complex(rng, 6, 4)
        gram(a, b)
        nudged = a.copy()  # one entry one ulp away
        nudged[3, 2] = np.nextafter(nudged[3, 2].real, np.inf) + 1j * nudged[3, 2].imag
        assert np.array_equal(gram(nudged, b)[0], nudged.T @ b.conj())
        assert len(calls) == 2
        written = a.copy()
        gram(written, b)
        written[0, 0] += 1.0  # the same array, changed in place
        assert np.array_equal(gram(written, b)[0], written.T @ b.conj())
        assert len(calls) == 4

    def test_same_bytes_other_shape_dtype_or_layout_miss(self):
        gram, calls = self.counted()
        zeros = np.zeros((2, 2))
        assert gram(zeros, zeros)[0].dtype == np.float64
        ints = np.zeros((2, 2), dtype=np.int64)
        assert gram(ints, ints)[0].dtype == np.int64
        assert gram(zeros.reshape(4, 1), zeros.reshape(4, 1))[0].shape == (1, 1)
        c = np.arange(4.0).reshape(2, 2)
        f = np.array(c.T, order="F")  # same memory bytes as c, transposed content
        assert f.tobytes(order="A") == c.tobytes(order="A")
        assert np.array_equal(gram(c, c)[0], c.T @ c)
        assert np.array_equal(gram(f, f)[0], f.T @ f)
        assert len(calls) == 5

    def test_one_entry_read_only_results_and_clear(self):
        gram, calls = self.counted()
        rng = np.random.default_rng(42)
        a, b = random_complex(rng, 3, 3), random_complex(rng, 3, 3)
        first = gram(a, a)
        assert not first[0].flags.writeable
        with pytest.raises(ValueError):
            first[0][0, 0] = 0.0
        gram(b, b)
        assert gram(a, a) is not first  # only the last call is kept
        gram.cache_clear()
        gram(a, a)
        assert len(calls) == 4


class TestGramSpectrum:
    """Gram, condition number and rank from one eigendecomposition."""

    def test_matches_hermitian_cond_and_matrix_rank(self):
        rng = np.random.default_rng(43)
        for rows, cols in ((8, 8), (12, 5), (5, 12)):
            a = random_complex(rng, rows, cols)
            gram, cond, rank = gram_spectrum(a)
            assert np.array_equal(gram, a.T @ a.conj())
            assert cond == hermitian_cond(a.T @ a.conj())
            assert rank == np.linalg.matrix_rank(a) == min(rows, cols)
            assert not gram.flags.writeable

    def test_rank_deficient_and_degenerate_input(self):
        rng = np.random.default_rng(44)
        a = random_complex(rng, 10, 3) @ random_complex(rng, 3, 6)  # rank 3
        _, cond, rank = gram_spectrum(a)
        assert rank == 3 and cond > 1e10
        assert gram_spectrum(np.zeros((4, 3)))[1:] == (np.inf, 0)
        assert gram_spectrum(np.full((3, 3), np.nan))[1:] == (np.inf, 0)

    def test_one_eigendecomposition(self, monkeypatch):
        rng = np.random.default_rng(45)
        a = random_complex(rng, 16, 8)
        calls = count_calls(monkeypatch, np.linalg, "eigvalsh")
        first = gram_spectrum(a)
        assert gram_spectrum(a.copy()) is first
        assert calls == ["eigvalsh"]


def test_psi_contracted_right_hand_sides():
    # pakron stage I forms both normal-equation right-hand sides from
    # zp = z^T @ conj(psi) instead of the Khatri-Rao matrices
    rng = np.random.default_rng(22)
    rows, blocks, frames, d = 6, 10, 3, 5
    z = random_complex(rng, rows, blocks, frames)
    psi = random_complex(rng, blocks, d)
    gbar = random_complex(rng, frames, d)
    omega = random_complex(rng, rows, d)
    zp = np.transpose(z, (2, 0, 1)) @ psi.conj()
    rhs1 = unfold(z, 0) @ khatri_rao(gbar, psi).conj()
    rhs3 = unfold(z, 2) @ khatri_rao(psi, omega).conj()
    assert rel_err((zp * gbar.conj()[:, None, :]).sum(0), rhs1) < 1e-12
    assert rel_err((zp * omega.conj()).sum(1), rhs3) < 1e-12


class TestScipyOracles:
    """The numpy kernels equal the scipy.linalg routines they replaced."""

    def test_khatri_rao(self):
        rng = np.random.default_rng(19)
        a = random_complex(rng, 3, 4)
        b = random_complex(rng, 5, 4)
        assert np.array_equal(khatri_rao(a, b), scipy.linalg.khatri_rao(a, b))

    @pytest.mark.parametrize("n, groups", [(2, 1), (4, 2), (8, 2), (16, 1), (16, 2), (12, 2)])
    def test_scattering_matrix(self, n, groups):
        design = design_scattering(desk_config(ris_elements=n, groups=groups,
                                               tx_antennas=1, blocks=n), 0)
        nbar = n // groups
        block = scipy.linalg.dft(nbar) / math.sqrt(nbar)
        expected = scipy.linalg.block_diag(*([block] * groups)).astype(complex)
        assert np.array_equal(design.s, expected)


class TestBestRank1:
    def test_hand_computed_pair(self):
        u, v, sigma = best_rank1(np.array([[1.0, 2.0], [2.0, 4.0]]))
        assert np.isclose(sigma, 5.0)
        ref = np.array([1.0, 2.0]) / np.sqrt(5)
        # singular vectors defined up to a common phase
        assert np.isclose(abs(np.vdot(u, ref)), 1.0)
        assert np.isclose(abs(np.vdot(v, ref)), 1.0)

    def test_exact_rank1(self):
        rng = np.random.default_rng(11)
        u0 = random_complex(rng, 5)
        v0 = random_complex(rng, 3)
        a = np.outer(u0, v0.conj())
        u, v, sigma = best_rank1(a)
        assert rel_err(sigma * np.outer(u, v.conj()), a) < 1e-12

    def test_zero_matrix(self):
        u, v, sigma = best_rank1(np.zeros((3, 2)))
        assert sigma == 0.0
        assert np.isclose(np.linalg.norm(u), 1.0)

    def test_residual_matches_tail_singular_values(self):
        rng = np.random.default_rng(12)
        a = random_complex(rng, 6, 4)
        u, v, sigma = best_rank1(a)
        resid = np.linalg.norm(a - sigma * np.outer(u, v.conj())) ** 2
        s = np.linalg.svd(a, compute_uv=False)
        assert np.isclose(resid, np.sum(s[1:] ** 2), rtol=1e-10)


class TestSelectionMatrix:
    def test_l1(self):
        assert np.array_equal(selection_matrix(1), np.array([[1.0]]))

    def test_l2(self):
        expected = np.array([[1, 0], [0, 0], [0, 0], [0, 1]], dtype=complex)
        assert np.array_equal(selection_matrix(2), expected)

    def test_extracts_khatri_rao(self):
        rng = np.random.default_rng(13)
        a = random_complex(rng, 3, 3)
        b = random_complex(rng, 3, 3)
        assert np.allclose(kron(a, b) @ selection_matrix(3), khatri_rao(a, b))

    def test_invalid(self):
        with pytest.raises(ValueError):
            selection_matrix(0)


class TestKronRearrange:
    def test_maps_kron_to_outer(self):
        rng = np.random.default_rng(14)
        a = random_complex(rng, 4, 2)
        b = random_complex(rng, 3, 5)
        out = kron_rearrange(kron(a, b), a.shape, b.shape)
        assert np.allclose(out, np.outer(vec(a), vec(b)))

    def test_nearest_kronecker_exact(self):
        rng = np.random.default_rng(15)
        a = random_complex(rng, 2, 3)
        b = random_complex(rng, 4, 2)
        fa, fb = nearest_kronecker(kron(a, b), a.shape, b.shape)
        assert rel_err(kron(fa, fb), kron(a, b)) < 1e-12

    def test_shape_check(self):
        with pytest.raises(ValueError):
            kron_rearrange(np.zeros((4, 4)), (2, 2), (3, 2))


def test_vec_unvec_roundtrip():
    rng = np.random.default_rng(16)
    a = random_complex(rng, 3, 4)
    assert np.array_equal(unvec(vec(a), 3, 4), a)
    # vec stacks columns: the first column leads
    assert np.array_equal(vec(a)[:3], a[:, 0])
