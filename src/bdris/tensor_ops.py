"""Dense complex matrix/tensor kernel on numpy: unfoldings, Kronecker and
Khatri-Rao products, least squares (normal equations by LU, with a trust rule
on the Gram's condition number; SVD pseudo-inverse), a column Gram with its
condition number and rank from one eigendecomposition, condition bounds for
Hadamard-product Grams, rank-1 fits (from the smaller Gram's leading
eigenpair) and the nearest Kronecker product.

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
# the LU gufunc behind np.linalg.solve
from numpy.linalg import _umath_linalg

from .errors import NumericalError

DEFAULT_PINV_TOL = 1e-12
_EPS = np.finfo(float).eps


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
    """Kronecker product of two matrices, or of each pair of two stacks of
    them; block (i, j) of the result is ``a[i, j] * b``.  Equal to
    ``np.kron``, without its per-call overhead."""
    a = np.asarray(a)
    b = np.asarray(b)
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(*out.shape[:-4], a.shape[-2] * b.shape[-2],
                       a.shape[-1] * b.shape[-1])


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
    """Ascending eigenvalues of a Hermitian matrix, or of each of a stack;
    NaN for a matrix whose eigenvalues do not converge, as on NaN input."""
    try:
        return np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError:
        if a.ndim > 2:  # find the matrix that failed
            return np.array([_eigvalsh(m) for m in a])
        return np.full(a.shape[0], np.nan)


def _cond(w):
    """Condition numbers from ascending eigenvalues (on the last axis);
    ``inf`` unless all are positive."""
    lo = w[..., 0]
    return np.divide(w[..., -1], lo, out=np.full(lo.shape, np.inf), where=lo > 0)


def hermitian_cond(a):
    """2-norm condition number of a Hermitian matrix, or of each of a stack,
    from its extreme eigenvalues; ``inf`` unless it is positive definite (NaN
    input too)."""
    return _cond(_eigvalsh(a))


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
    past the 4.4e12 that :func:`solve_grams`'s rule accepts at that size.
    Each call decomposes ``a``; a scattering design keeps its ``psi``'s result
    (:attr:`bdris.signal.ScatteringDesign.psi_spectrum`).
    """
    gram = a.T @ a.conj()
    w = _eigvalsh(gram)
    rank = int(np.count_nonzero(w > w[-1] * max(a.shape) * _EPS))
    return gram, _cond(w), rank


def schur_cond_bound(p_cond, b_diag):
    """Upper bounds on the 2-norm condition numbers of a stack of ``B ∘ P``
    for Hermitian positive semidefinite ``B`` (diagonals ``b_diag``, one row
    per matrix) and ``P`` (condition numbers ``p_cond``), as a list: ``p_cond
    * max(b_diag) / min(b_diag)``, ``inf`` unless ``min(b_diag) > 0``.  By the
    Schur product theorem (Horn & Johnson, *Topics in Matrix Analysis*, Thm
    5.3.4) every eigenvalue of ``B ∘ P`` lies in ``[lambda_min(P) min(b_diag),
    lambda_max(P) max(b_diag)]``.  The receivers pass the real diagonal of the
    factor Gram ``B`` they formed, so a zero diagonal entry of ``P`` costs the
    bound nothing.
    """
    return [p * hi / lo if lo > 0 else np.inf for p, hi, lo in zip(
        p_cond.tolist(), b_diag.max(-1).tolist(), b_diag.min(-1).tolist())]


def _singular(*_):
    raise np.linalg.LinAlgError("Singular matrix")


def _lu_solve(gram, rhs):
    """``rhs[j] @ inv(gram[j])`` by LU: ``np.linalg.solve``'s kernel and its
    error on a singular matrix, without its argument checks, which cost more
    than the LU of a 16 x 16 Gram."""
    with np.errstate(call=_singular, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        return _umath_linalg.solve(gram.mT, rhs.mT).mT


def solve_grams(rhs, gram, tol=DEFAULT_PINV_TOL, cond_bound=None):
    """``rhs[j] @ inv(gram[j])`` for each Hermitian positive definite ``d x
    d`` Gram of a stack that is trusted, solved by LU; returns ``(x,
    trusted)``, ``trusted`` a list of bools, with the rows of the untrusted
    Grams zero.

    A Gram is trusted when ``d * kappa * tol <= 1`` and ``d**2 * eps * kappa
    <= 1`` for its 2-norm condition number ``kappa``.  The first makes its
    1-norm reciprocal condition number at least ``tol``, because ``cond_1 <= d
    * cond_2``; the second keeps rounding of order ``d * eps`` in the computed
    Gram from reaching its smallest eigenvalue, so no trusted Gram is singular
    to LU.  ``kappa`` is the Gram's entry of ``cond_bound``, upper bounds such
    as :func:`schur_cond_bound`, when that bound passes the rule, and
    :func:`hermitian_cond` of the Gram otherwise (a NaN bound passes nothing;
    a NaN or indefinite Gram is not trusted).  Each Gram's solution has the
    bits it has when solved alone.
    """
    d = gram.shape[-1]

    def trusted(kappa):
        return [d * k * tol <= 1 and d * d * _EPS * k <= 1 for k in kappa]

    ok = [False] * len(gram) if cond_bound is None else trusted(cond_bound)
    if not all(ok):
        rest = [j for j, good in enumerate(ok) if not good]
        for j, good in zip(rest, trusted(hermitian_cond(gram[rest]).tolist())):
            ok[j] = good
    if all(ok):
        return _lu_solve(gram, rhs), ok
    x = np.zeros_like(rhs, dtype=np.result_type(rhs, gram))
    if any(ok):
        x[ok] = _lu_solve(gram[ok], rhs[ok])
    return x, ok


def best_rank1(a):
    """Dominant singular triple ``(u, v, sigma)`` of a matrix, or of each of a
    stack (stacks of ``u``, ``v`` and ``sigma``).

    ``sigma * outer(u, v.conj())`` is the Frobenius-optimal rank-1
    approximation of ``a``.  The triple comes from the leading eigenpair of
    the smaller Gram, ``a @ a^H`` (or ``a^H @ a`` when ``a`` is tall):
    ``sigma`` is the root of its eigenvalue, the eigenvector is one singular
    vector and the other is ``a^H u / sigma`` (``a v / sigma``), which costs
    less than a full SVD and gives the same product.  A zero matrix yields
    ``sigma == 0`` with valid unit-norm singular vectors.
    """
    a = np.asarray(a)
    if a.size == 0:
        raise ValueError("empty matrix")
    wide = a.shape[-2] <= a.shape[-1]
    b = a if wide else a.conj().mT  # a wide view: b = sigma * x @ y^H
    try:
        w, q = np.linalg.eigh(b @ b.conj().mT)
    except np.linalg.LinAlgError as err:
        raise NumericalError(f"eigh did not converge in best_rank1: {err}") from err
    x = q[..., -1]
    sigma = np.sqrt(np.maximum(w[..., -1], 0.0))
    y = (b.conj().mT @ x[..., None])[..., 0]
    positive = sigma > 0  # the first unit vector where sigma is 0
    y = np.where(positive[..., None], y / np.where(positive, sigma, 1.0)[..., None],
                 np.arange(y.shape[-1]) == 0)
    return (x, y, sigma) if wide else (y, x, sigma)


def kron_rearrange(m, left_shape, right_shape):
    """Rearrange a ``(ra*rb) x (ca*cb)`` matrix, or each of a stack, so a
    Kronecker-structured input ``kron(A, B)`` maps to the rank-1 matrix
    ``vec(A) @ vec(B).T``.

    ``left_shape = (ra, ca)`` and ``right_shape = (rb, cb)`` are the factor
    shapes.  This is the standard rank-1 rearrangement behind nearest
    Kronecker-product problems.
    """
    ra, ca = left_shape
    rb, cb = right_shape
    m = np.asarray(m)
    if m.shape[-2:] != (ra * rb, ca * cb):
        raise ValueError(
            f"matrix shape {m.shape} incompatible with factors {left_shape} x {right_shape}"
        )
    # rows of m enumerate (i_a, i_b) with i_b fastest; columns (j_a, j_b)
    # with j_b fastest.  Target: rows (i_a, j_a) i_a fastest, cols (i_b, j_b):
    # the transpose of rows (j_b, i_b) and columns (j_a, i_a), last fastest
    lead, k = m.shape[:-2], m.ndim - 2
    m4 = m.mT.reshape(*lead, ca, cb, ra, rb).transpose(*range(k), k + 1, k + 3, k, k + 2)
    return m4.reshape(*lead, cb * rb, ca * ra).mT


def nearest_kronecker(m, left_shape, right_shape):
    """Frobenius-nearest separable matrix ``kron(A, B)`` to ``m``, or to each
    of a stack.

    Returns the factors ``(A, B)``; their Kronecker product is the
    projection.  The split of the overall scale between the factors is the
    symmetric ``sqrt(sigma)`` one.
    """
    u, v, sigma = best_rank1(kron_rearrange(m, left_shape, right_shape))
    root = np.sqrt(sigma)[..., None]  # folded back into matrices column by column
    a = (root * u).reshape(*u.shape[:-1], left_shape[1], left_shape[0]).mT
    b = (root * v.conj()).reshape(*v.shape[:-1], right_shape[1], right_shape[0]).mT
    return a, b
