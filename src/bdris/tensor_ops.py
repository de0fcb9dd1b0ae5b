"""Dense complex matrix/tensor kernel on numpy: unfoldings, Kronecker and
Khatri-Rao products, least squares (normal equations by LU, with a trust rule
on the Gram's condition number; SVD pseudo-inverse), a column Gram with its
condition number and rank from one eigendecomposition, condition bounds for
Hadamard-product Grams, rank-1 fits and the nearest Kronecker product, and a
one-entry cache keyed by array contents.

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

import functools

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


def _eigvalsh(a):
    """Ascending eigenvalues of a Hermitian matrix; NaN when they do not
    converge, as on NaN input."""
    try:
        return np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError:
        return np.full(a.shape[0], np.nan)


def _cond(w):
    """Condition number from ascending eigenvalues; ``inf`` unless all are
    positive."""
    return w[-1] / w[0] if w[0] > 0 else np.inf


def hermitian_cond(a):
    """2-norm condition number of a Hermitian matrix from its extreme
    eigenvalues; ``inf`` unless it is positive definite (NaN input too)."""
    return _cond(_eigvalsh(a))


def _content_key(a):
    """Shape, dtype and bytes of an array: equal keys mean equal contents.
    The bytes are taken in the array's own memory order (named in the key),
    so a contiguous array is copied without reordering."""
    a = np.asarray(a)
    order = "F" if a.flags.f_contiguous and not a.flags.c_contiguous else "C"
    return a.shape, a.dtype.str, order, a.tobytes(order=order)


def last_result_cache(fn):
    """Keep the result of the last call of ``fn(*arrays)``, keyed by the
    contents of its array arguments (:func:`_content_key`), never by their
    identity: a new array with the same bytes hits, the same array written
    in between misses.  One entry is held.  Arrays in the result are made
    read-only, since every caller with equal arguments shares them.
    ``cache_clear()`` drops the entry."""
    entry = []

    @functools.wraps(fn)
    def cached(*arrays):
        key = [_content_key(a) for a in arrays]
        if not entry or entry[0] != key:
            result = fn(*arrays)
            for value in result:
                if isinstance(value, np.ndarray):
                    value.flags.writeable = False
            entry[:] = key, result
        return entry[1]

    cached.cache_clear = entry.clear
    return cached


@last_result_cache
def gram_spectrum(a):
    """``(gram, cond, rank)`` of a ``rows x cols`` matrix ``a`` from one
    ``eigvalsh`` of its column Gram ``gram = a.T @ conj(a)``: the Gram's
    2-norm condition number (as :func:`hermitian_cond`) and the rank of ``a``.

    The rank counts the Gram's eigenvalues above ``max(rows, cols) * eps *
    lambda_max``, the resolution of the Gram itself: its entries are sums of
    ``rows`` rounded products and its computed eigenvalues are accurate to
    about ``cols * eps * lambda_max``, so smaller ones are zero as far as the
    Gram can tell.  This is ``np.linalg.matrix_rank``'s tolerance applied to
    the squared singular values; it differs from ``matrix_rank`` only for an
    ``a`` whose singular values spread more than ``1 / sqrt(max(rows, cols)
    * eps)``: about 1.2e7 at 32 x 32, a Gram condition number of 1.4e14,
    past the 4.4e12 that :func:`solve_gram`'s rule accepts at that size.
    Cached for the last ``a`` (:func:`last_result_cache`), so the draw's rank
    check and every receiver on the same ``a`` share one decomposition.
    """
    gram = a.T @ a.conj()
    w = _eigvalsh(gram)
    rank = int(np.count_nonzero(w > w[-1] * max(a.shape) * _EPS))
    return gram, _cond(w), rank


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
    """``rhs @ inv(gram)`` for a Hermitian positive definite ``d x d`` Gram,
    solved by LU, or ``None`` when the Gram is not trusted.

    A Gram is trusted when ``d * kappa * tol <= 1`` and ``d**2 * eps * kappa
    <= 1`` for its 2-norm condition number ``kappa``.  The first makes its
    1-norm reciprocal condition number at least ``tol``, because ``cond_1 <= d
    * cond_2``; the second keeps rounding of order ``d * eps`` in the computed
    Gram from reaching its smallest eigenvalue.  ``kappa`` is ``cond_bound``,
    an upper bound such as :func:`schur_cond_bound`, when that bound passes
    the rule, and :func:`hermitian_cond` of the Gram otherwise (a NaN bound
    passes nothing; a NaN or indefinite Gram is not trusted).
    """
    d = gram.shape[0]

    def trusted(kappa):
        return d * kappa * tol <= 1 and d * d * _EPS * kappa <= 1

    if cond_bound is None or not trusted(cond_bound):
        if not trusted(hermitian_cond(gram)):
            return None
    return np.linalg.solve(gram.T, rhs.T).T


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
