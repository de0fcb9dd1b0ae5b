"""Dense complex matrix/tensor kernel on numpy: unfoldings, Kronecker and
Khatri-Rao products, least squares (normal equations, SVD), condition bounds
for Hadamard-product Grams and rank-1 fits.

Linearization convention, used everywhere in this package: the first
(leftmost) mode varies fastest, i.e. tensors are flattened in Fortran
(column-major) order and ``vec`` of a matrix stacks its columns.  Under this
convention, for a third-order tensor with factor matrices ``A, B, C`` and a
(super)diagonal core,

    unfold(Z, 0) == A @ khatri_rao(C, B).T
    unfold(Z, 1) == B @ khatri_rao(C, A).T
    unfold(Z, 2) == C @ khatri_rao(B, A).T

and for a dense core ``G`` of any order,

    unfold(Z, n) == M_n @ unfold(G, n) @ kron(M_last, ..., skipping M_n).T
"""

import numpy as np

from .errors import NumericalError

DEFAULT_PINV_TOL = 1e-12
_EPS = np.finfo(float).eps


def vec(a):
    """Stack the columns of a matrix (or flatten a tensor, first mode fastest)."""
    return np.ravel(a, order="F")


def unvec(v, rows, cols):
    """Inverse of :func:`vec` for matrices."""
    return np.reshape(v, (rows, cols), order="F")


def unfold(t, mode):
    """Mode-``mode`` unfolding: ``dims[mode] x prod(other dims)`` matrix.

    Columns enumerate the complement modes with lower-numbered modes varying
    fastest.
    """
    t = np.asarray(t)
    if not 0 <= mode < t.ndim:
        raise ValueError(f"mode index {mode} out of range for order-{t.ndim} tensor")
    return np.reshape(np.moveaxis(t, mode, 0), (t.shape[mode], -1), order="F")


def kron(a, b):
    """Kronecker product of two matrices; block (i, j) of the result is
    ``a[i, j] * b``.  Equal to ``np.kron``, without its per-call overhead."""
    a = np.asarray(a)
    b = np.asarray(b)
    out = a[:, None, :, None] * b[None, :, None, :]
    return out.reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def khatri_rao(a, b):
    """Column-wise Kronecker product of two matrices with equal column counts."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape[1] != b.shape[1]:
        raise ValueError(
            f"column-count mismatch: {a.shape[1]} vs {b.shape[1]}"
        )
    return (a[:, None, :] * b[None, :, :]).reshape(-1, a.shape[1])


def pinv(a, tol=DEFAULT_PINV_TOL):
    """Moore-Penrose pseudo-inverse via SVD.

    Singular values below ``tol * sigma_max`` are treated as zero.
    """
    try:
        return np.linalg.pinv(np.asarray(a), rcond=tol)
    except np.linalg.LinAlgError as err:
        raise NumericalError(f"SVD did not converge in pinv: {err}") from err


def hermitian_cond(a):
    """2-norm condition number of a Hermitian matrix from its extreme
    eigenvalues; ``inf`` unless it is positive definite (NaN input too)."""
    w = np.linalg.eigvalsh(a)
    return w[-1] / w[0] if w[0] > 0 else np.inf


def schur_cond_bound(p_cond, b_diag):
    """Upper bound on the 2-norm condition number of ``B ∘ P`` for Hermitian
    positive semidefinite ``B`` (diagonal ``b_diag``) and ``P`` (condition
    number ``p_cond``): ``p_cond * max(b_diag) / min(b_diag)``, ``inf`` unless
    ``min(b_diag) > 0``.  By the Schur product theorem (Horn & Johnson, *Topics
    in Matrix Analysis*, Thm 5.3.4) every eigenvalue of ``B ∘ P`` lies in
    ``[lambda_min(P) min(b_diag), lambda_max(P) max(b_diag)]``.
    """
    lo = b_diag.min()
    return p_cond * b_diag.max() / lo if lo > 0 else np.inf


def solve_gram(rhs, gram, tol=DEFAULT_PINV_TOL, cond_bound=None):
    """``rhs @ inv(gram)`` for a Hermitian positive definite Gram, or ``None``
    when the Gram is not trusted.

    A Gram is trusted when its 1-norm reciprocal condition number is at least
    ``tol``.  Given ``cond_bound``, an upper bound on its 2-norm condition
    number (see :func:`schur_cond_bound`), a ``d x d`` Gram with
    ``d * cond_bound <= 1 / tol`` is trusted without a test, because
    ``cond_1 <= d * cond_2``; the bound must also stay below ``1 / (d**2 *
    eps)``, where rounding of order ``d * eps`` in the computed Gram and in the
    bound could reach its smallest eigenvalue.  Such a Gram is solved by LU.
    Any other Gram is factored by Cholesky (Kolda & Bader 2009, §3.4), and its
    exact rcond is computed from the inverse of the factor; ``None`` when
    Cholesky fails or that rcond is below ``tol``.  A NaN bound certifies
    nothing.
    """
    d = gram.shape[0]
    if (cond_bound is not None and d * cond_bound * tol <= 1
            and d * d * _EPS * cond_bound <= 1):
        return np.linalg.solve(gram.T, rhs.T).T
    try:
        l_inv = np.linalg.inv(np.linalg.cholesky(gram))
    except np.linalg.LinAlgError:
        return None
    gram_inv = l_inv.conj().T @ l_inv
    rcond = 1.0 / (np.linalg.norm(gram, 1) * np.linalg.norm(gram_inv, 1))
    if not rcond >= tol:  # also true for NaN
        return None
    return rhs @ gram_inv


def solve_rows(z, m, tol=DEFAULT_PINV_TOL, cond_bound=None):
    """``z @ pinv(m, tol)`` for a wide ``m``: :func:`solve_gram` on the normal
    equations ``x @ (m @ m^H) = z @ m^H`` (``cond_bound`` bounds the 2-norm
    condition number of ``m @ m^H``), else ``z @ pinv(m, tol)``."""
    m = np.asarray(m)
    mh = m.conj().T
    x = solve_gram(z @ mh, m @ mh, tol, cond_bound)
    return z @ pinv(m, tol) if x is None else x


def best_rank1(a):
    """Dominant singular triple ``(u, v, sigma)`` of a matrix.

    ``sigma * outer(u, v.conj())`` is the Frobenius-optimal rank-1
    approximation of ``a``.  A zero matrix yields ``sigma == 0`` with valid
    unit-norm singular vectors.
    """
    a = np.asarray(a)
    if a.size == 0:
        raise ValueError("empty matrix")
    try:
        u, s, vh = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as err:
        raise NumericalError(f"SVD did not converge in best_rank1: {err}") from err
    return u[:, 0], vh[0].conj(), float(s[0])


def kron_rearrange(m, left_shape, right_shape):
    """Rearrange a ``(ra*rb) x (ca*cb)`` matrix so a Kronecker-structured
    input ``kron(A, B)`` maps to the rank-1 matrix ``vec(A) @ vec(B).T``.

    ``left_shape = (ra, ca)`` and ``right_shape = (rb, cb)`` are the factor
    shapes.  This is the standard rank-1 rearrangement behind nearest
    Kronecker-product problems.
    """
    ra, ca = left_shape
    rb, cb = right_shape
    m = np.asarray(m)
    if m.shape != (ra * rb, ca * cb):
        raise ValueError(
            f"matrix shape {m.shape} incompatible with factors {left_shape} x {right_shape}"
        )
    # rows of m enumerate (i_a, i_b) with i_b fastest; columns (j_a, j_b)
    # with j_b fastest.  Target: rows (i_a, j_a) i_a fastest, cols (i_b, j_b).
    m4 = np.reshape(m, (rb, ra, cb, ca), order="F")
    return np.reshape(np.transpose(m4, (1, 3, 0, 2)), (ra * ca, rb * cb), order="F")


def nearest_kronecker(m, left_shape, right_shape):
    """Frobenius-nearest separable matrix ``kron(A, B)`` to ``m``.

    Returns the factors ``(A, B)``; their Kronecker product is the
    projection.  The split of the overall scale between the factors is the
    symmetric ``sqrt(sigma)`` one.
    """
    u, v, sigma = best_rank1(kron_rearrange(m, left_shape, right_shape))
    a = unvec(np.sqrt(sigma) * u, *left_shape)
    b = unvec(np.sqrt(sigma) * v.conj(), *right_shape)
    return a, b
