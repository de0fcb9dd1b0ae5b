"""Semi-blind estimation of (channel pair, symbols) from the received tensor.

Both receivers read the received tensor ``y`` through its third-order view
``z`` (``y`` reshaped to rx*slots x blocks x frames in Fortran order, no copy):

* ``pakron``  - two stages.  Stage I runs bilinear alternating least squares
  on the third-order view to estimate the mixed factor
  ``omega = kron(X, H @ S)`` together with the stacked per-frame channel; its
  updates and fit work on the data contracted with the known coding and
  rotation matrix ``psi``.
  With the structure projection on, stage I ends by re-solving the stacked
  channel at the nearest Kronecker product to ``omega`` and then ``omega``,
  on the same systems.  Stage II splits ``omega`` into ``X`` and ``H`` by the
  nearest Kronecker product (an SVD rank-1 fit of its rearrangement).
* ``tucker``  - single stage.  Trilinear alternating least squares for the
  fourth-order model, whose known selection core no arithmetic reads: its
  ``H @ S`` and ``X`` updates split stage I's ``omega`` system over the two
  Kronecker factors of ``omega``; its channel update and fit are stage I's.

Both run their sweeps through one loop, ``_extrapolated_als``, which also
tries an extrapolated step per sweep and keeps it when it lowers the fit.

Every Gram either receiver solves is a Hadamard product of a factor Gram with
``psi``'s Gram, or (``tucker``'s ``H @ S`` and ``X`` updates) a contraction of
one, so Schur's bound on its condition number comes from ``cond(psi^T
conj(psi))`` and a diagonal.  ``solve_gram`` solves a trusted Gram by LU,
reading its condition number off this bound or, when the bound is too loose,
off the Gram's eigenvalues; an untrusted one falls back to ``pinv`` of the
explicit matrix, which is built only then.

Both receivers start from the same preparation of one received tensor
(``_contract``): the data contracted with ``conj(psi)``, ``psi``'s Gram, its
diagonal and condition number, and ``||z||^2``.  It is cached for the last
``(z, psi)`` by content, and ``psi``'s Gram and condition number come from the
decomposition the scenario draw made for its rank check
(:func:`bdris.tensor_ops.gram_spectrum`), so on one trial ``psi`` is
decomposed once and the data contracted once, whichever receivers run.

Both inherit the model's indeterminacies: a per-stream scale on the symbol
columns (pinned by the known reference row, see ``resolve_and_detect``) and a
per-element column scale on ``H @ S`` compensated inside the stacked channel
(left to evaluation-time column alignment).

A zero-forcing oracle with perfect channel knowledge is included as a symbol
detection baseline.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import SolverOptions
from .errors import NumericalError, ScalingResolutionError
from .identifiability import require_feasible
from .signal import ChannelSet, ReceivedTensor, ScatteringDesign, complex_normal
# perfbench wraps best_rank1, khatri_rao and pinv as attributes of this module
from .tensor_ops import (  # noqa: F401
    best_rank1,
    gram_spectrum,
    khatri_rao,
    kron,
    last_result_cache,
    nearest_kronecker,
    pinv,
    schur_cond_bound,
    solve_gram,
    unfold,
)

RECEIVER_NAMES = ("pakron", "tucker", "zf-oracle")


@dataclass(frozen=True)
class ReceiverOutput:
    h_hat: np.ndarray | None      # rx_antennas x ris_elements
    hs_hat: np.ndarray | None     # effective channel H @ S (same shape)
    gbar_hat: np.ndarray | None   # frames x (tx_antennas * ris_elements)
    x_hat: np.ndarray             # slots x tx_antennas, soft symbol estimates
    x_detected: np.ndarray | None
    iterations: int
    residual_trajectory: tuple    # normalized reconstruction error per sweep
    converged: bool
    final_fit: float              # error of the returned factors


@dataclass(frozen=True)
class StageOneResult:
    omega: np.ndarray             # (slots*rx) x (tx*ris) mixed factor
    gbar: np.ndarray
    trajectory: tuple
    iterations: int
    converged: bool
    fit: float


def _require_finite(data):
    if not np.all(np.isfinite(data)):
        raise NumericalError("received tensor has non-finite entries")


# Both receivers solve the normal equations (Kolda & Bader 2009, §3.4) of
# unfold(z, 2) == gbar @ khatri_rao(psi, omega).T on zp = z^T @ conj(psi),
# with Khatri-Rao Grams as Hadamard products B ∘ psi_gram of factor Grams.
# Each solve is passed Schur's bound on its Gram's condition number, from
# cond(psi_gram) and the diagonal of B.

@last_result_cache
def _contract(z, psi):
    """``(zp, psi_gram, psi_diag, znorm2, psi_cond)`` of the third-order view
    ``z`` and ``psi``: ``zp = z^T @ conj(psi)`` (frames x rows x d), ``psi``'s
    Gram ``psi^T conj(psi)``, its real diagonal, ``||z||^2`` and the Gram's
    condition number.

    The Gram and its condition number are :func:`gram_spectrum`'s, so they
    come from the decomposition the draw made for its rank check.  The
    result is kept for the last ``(z, psi)``, keyed by their shape, dtype
    and bytes (:func:`last_result_cache`), and its arrays are read-only: a
    second receiver on the same received tensor reuses it bit for bit,
    while arrays of equal shape and other content recompute it.
    """
    psi_gram, psi_cond, _ = gram_spectrum(psi)
    return (np.transpose(z, (2, 0, 1)) @ psi.conj(), psi_gram,
            psi_gram.diagonal().real, float(np.linalg.norm(z) ** 2), psi_cond)


def _cond_bound(gram, psi_diag, psi_cond):
    """:func:`schur_cond_bound` of ``gram = B ∘ psi_gram``, reading B's
    diagonal off the Gram's and ``psi_gram``'s (``psi_diag``)."""
    return schur_cond_bound(psi_cond, gram.diagonal().real / psi_diag)


def _contracted_bound(bound, x):
    """Bound for ``sum_t (x_t ⊗ I)^T G conj(x_t ⊗ I)`` over the rows ``x_t`` of
    ``x``: its eigenvalues lie in ``||x||^2 [lambda_min(G), lambda_max(G)]``, so
    it keeps ``G``'s condition bound while ``x`` is finite and nonzero."""
    scale = np.vdot(x, x).real
    return bound if 0 < scale < np.inf else np.inf


def _omega_system(zp, psi_gram, gbar):
    return (zp * gbar.conj()[:, None, :]).sum(0), (gbar.T @ gbar.conj()) * psi_gram


def _gbar_system(zp, psi_gram, omega):
    return (zp * omega.conj()).sum(1), psi_gram * (omega.T @ omega.conj())


def _gram_fit(gbar, rhs, gram, znorm2):
    """Normalized residual of the ``gbar`` system, from its Gram, clamped at 0."""
    err = znorm2 - 2 * np.vdot(gbar, rhs).real + np.vdot(gbar, gbar @ gram).real
    return max(float(err) / znorm2, 0.0)


def _solve(rhs, gram, tol, cond_bound, fallback, *args):
    """``rhs @ inv(gram)`` by :func:`solve_gram` with the Gram's condition
    bound; on an untrusted Gram, ``fallback(*args, tol)``, which builds the
    unfolding and the explicit mixing matrix only then."""
    x = solve_gram(rhs, gram, tol, cond_bound)
    return fallback(*args, tol) if x is None else x


# the fallbacks of _solve: least squares by pinv of an explicit mixing matrix

def _omega_pinv(z, psi, gbar, tol):
    return unfold(z, 0) @ pinv(khatri_rao(gbar, psi).T, tol)


def _gbar_pinv(z, psi, omega, tol):
    return unfold(z, 2) @ pinv(khatri_rao(psi, omega).T, tol)


def _mode_pinv(q4, mode, factor, psi, gbar, n, tol):
    return unfold(q4, mode) @ pinv(_mixing(mode, factor, psi, gbar, n), tol)


def _extrapolated_als(sweep, fit_at, factors, solver: SolverOptions):
    """Alternating least squares from ``factors`` with an extrapolated step.

    ``sweep(factors)`` returns the updated factors and their fit.  From sweep
    3 on, every factor is also tried at ``old + sqrt(sweep) * (new - old)``
    (Bro 1998, §4.6), and that point is kept when ``fit_at`` of it is strictly
    lower, so a sweep never ends above the plain update's fit.  The loop stops
    when the fit changes by no more than ``solver.delta`` (converged) or after
    ``solver.max_iters`` sweeps.

    Returns ``(factors, trajectory, converged)`` with the fit of every sweep.
    """
    trajectory = []
    prev = np.inf
    for k in range(1, solver.max_iters + 1):
        new, fit = sweep(factors)
        if k >= 3:
            step = math.sqrt(k)
            jump = tuple(old + step * (upd - old) for old, upd in zip(factors, new))
            jump_fit = fit_at(jump)
            if jump_fit < fit:
                new, fit = jump, jump_fit
        factors = new
        trajectory.append(fit)
        if abs(fit - prev) <= solver.delta:
            return factors, tuple(trajectory), True
        prev = fit
    return factors, tuple(trajectory), False


def pakron_stage1(z, psi, left_shape, right_shape, solver: SolverOptions,
                  init_seed: int, gbar_init=None) -> StageOneResult:
    """Bilinear ALS on the third-order view ``z``.

    Alternates ``omega <- unfold(z,0) @ pinv(khatri_rao(gbar, psi).T)`` and
    ``gbar <- unfold(z,2) @ pinv(khatri_rao(psi, omega).T)`` without forming
    either Khatri-Rao matrix: both are solved from the normal equations on
    the ``psi``-contracted data (``_omega_system``, ``_gbar_system``), with a
    ``pinv`` fallback on an untrusted Gram.  The fit is the ``gbar`` system's
    Gram fit, clamped at 0.  The sweeps run in :func:`_extrapolated_als` on
    the factors ``(omega, gbar)``.

    ``left_shape = (slots, tx_antennas)`` and
    ``right_shape = (rx_antennas, ris_elements)`` describe the Kronecker
    structure of ``omega``; when ``solver.structure_projection`` is set, a
    final sweep re-solves ``gbar`` at the nearest separable matrix to the
    converged ``omega``, then ``omega``, on the same systems.  That pins the
    per-column scale indeterminacy to a separable one without degrading the
    noiseless fit, and the reported fit is then the explicit residual of the
    returned factors.
    """
    z = np.asarray(z)
    _require_finite(z)
    tm_r, k, frames = z.shape
    d = psi.shape[1]
    (slots, mt), (mr, n) = left_shape, right_shape
    if slots * mr != tm_r or mt * n != d:
        raise ValueError("factor shapes inconsistent with the data view")
    require_feasible("pakron", dict(tx_antennas=mt, rx_antennas=mr, ris_elements=n,
                                    blocks=k, slots=slots, frames=frames))

    gbar = (np.array(gbar_init, dtype=complex) if gbar_init is not None
            else complex_normal(np.random.default_rng(init_seed), (frames, d)))
    tol = solver.pinv_tol
    zp, psi_gram, psi_diag, znorm2, psi_cond = _contract(z, psi)

    def sweep(factors):
        gbar = factors[1]
        rhs, gram = _omega_system(zp, psi_gram, gbar)
        omega = _solve(rhs, gram, tol, _cond_bound(gram, psi_diag, psi_cond),
                       _omega_pinv, z, psi, gbar)
        rhs, gram = _gbar_system(zp, psi_gram, omega)
        gbar = _solve(rhs, gram, tol, _cond_bound(gram, psi_diag, psi_cond),
                      _gbar_pinv, z, psi, omega)
        return (omega, gbar), _gram_fit(gbar, rhs, gram, znorm2)

    def fit_at(factors):
        omega, gbar = factors
        return _gram_fit(gbar, *_gbar_system(zp, psi_gram, omega), znorm2)

    (omega, gbar), trajectory, converged = _extrapolated_als(
        sweep, fit_at, (None, gbar), solver)
    fit = trajectory[-1]

    if solver.structure_projection:
        omega_p = kron(*nearest_kronecker(omega, left_shape, right_shape))
        rhs, gram = _gbar_system(zp, psi_gram, omega_p)
        gbar = _solve(rhs, gram, tol, _cond_bound(gram, psi_diag, psi_cond),
                      _gbar_pinv, z, psi, omega_p)
        rhs, gram = _omega_system(zp, psi_gram, gbar)
        omega = _solve(rhs, gram, tol, _cond_bound(gram, psi_diag, psi_cond),
                       _omega_pinv, z, psi, gbar)
        residual = unfold(z, 0) - omega @ khatri_rao(gbar, psi).T
        fit = float(np.linalg.norm(residual) ** 2) / znorm2

    return StageOneResult(omega=omega, gbar=gbar, trajectory=trajectory,
                          iterations=len(trajectory), converged=converged, fit=fit)


def kron_factorize(omega, s, slots, rx_antennas):
    """Split an estimated ``kron(X, H @ S)`` into ``(X, H)``.

    The nearest Kronecker product to ``omega`` gives ``X`` and ``H @ S``, and
    ``S^H`` removes the known unitary factor.  This equals the nearest
    Kronecker product to ``omega @ kron(I, S^H)``, because that product
    right-multiplies the rank-1 rearrangement by a unitary matrix.  The split is
    exact for perfectly structured input, up to one complex scale trade-off
    between the two factors.
    """
    n = s.shape[0]
    x_hat, hs_hat = nearest_kronecker(omega, (slots, omega.shape[1] // n),
                                      (rx_antennas, n))
    return x_hat, hs_hat @ s.conj().T


def pakron(received: ReceivedTensor, design: ScatteringDesign, alphabet,
           solver: SolverOptions, init_seed: int, gbar_init=None) -> ReceiverOutput:
    """Two-stage semi-blind receiver (alternating LS + Kronecker split)."""
    mr, slots, k, frames = received.y.shape
    z = np.reshape(received.y, (mr * slots, k, frames), order="F")
    n = design.s.shape[0]
    mt = design.psi.shape[1] // n
    stage1 = pakron_stage1(z, design.psi, (slots, mt), (mr, n),
                           solver, init_seed, gbar_init=gbar_init)
    x_raw, h_hat = kron_factorize(stage1.omega, design.s, slots, mr)
    out = ReceiverOutput(
        h_hat=h_hat,
        hs_hat=h_hat @ design.s,
        gbar_hat=stage1.gbar,
        x_hat=x_raw,
        x_detected=None,
        iterations=stage1.iterations,
        residual_trajectory=stage1.trajectory,
        converged=stage1.converged,
        final_fit=stage1.fit,
    )
    return resolve_and_detect(out, alphabet)


def _mixing(mode, factor, psi, gbar, n):
    """Mixing matrix ``V`` of mode 0 or 1 of the fourth-order view
    (``unfold(q4, 0) == F @ V``, ``unfold(q4, 1) == X @ V``), given the other
    factor (``X`` or ``F``).  The structured core reduces mode 1's to a
    product of ``F`` with ``khatri_rao(gbar, psi)``, whose rows
    (frames·blocks) reshape to tx x ris matrices; columns run over (r, k, i)
    with r fastest.  Mode 0's, which only ``tucker``'s F fallback builds,
    keeps the three-operand einsum, so that fallback's bits are unchanged."""
    mt = psi.shape[1] // n
    if mode == 0:
        slices = [np.reshape(a, (a.shape[0], n, mt), order="F") for a in (psi, gbar)]
        return np.einsum("tm,knm,inm->ntki", factor, *slices).reshape(n, -1, order="F")
    kr = khatri_rao(gbar, psi).reshape(-1, mt, n)
    return (kr @ factor.T).transpose(1, 0, 2).reshape(mt, -1)


def tucker_tals(q4, core, psi, solver: SolverOptions, init_seed: int,
               x_init=None, gbar_init=None):
    """:func:`tucker`'s trilinear ALS on the fourth-order view ``q4``, given
    its core: ``core`` must be :func:`bdris.signal.build_core`'s for ``psi``'s
    dimensions, and every call checks its shape, its ``d`` nonzeros and its
    ones at the canonical positions.

    Returns ``(f, x, gbar, trajectory, converged)`` with the trajectory of
    normalized reconstruction errors.
    """
    n, mt = core.shape[0], core.shape[1]
    d = n * mt
    r = np.arange(d)  # the ones of build_core(n, mt) sit at (r % n, r // n, r, r)
    if (core.shape != (n, mt, d, d) or psi.shape[1] != d
            or np.count_nonzero(core) != d
            or not np.all(core[r % n, r // n, r, r] == 1)):
        raise ValueError("core must be the canonical selection-structured core")
    return _tucker_als(q4, n, psi, solver, init_seed, x_init, gbar_init)


def _tucker_als(q4, n, psi, solver: SolverOptions, init_seed: int,
                x_init=None, gbar_init=None):
    """Trilinear ALS for ``n`` surface elements on the fourth-order view.

    Per sweep it updates the effective channel ``F = H @ S``, the symbols
    ``X`` and the stacked per-frame channel ``gbar`` on ``pakron_stage1``'s
    ``psi``-contracted systems with ``omega = kron(X, F)``.  The F and X
    updates split its ``omega`` system (formed once per sweep from ``gbar``)
    over the two Kronecker factors, as products with a block view of its
    right-hand side and Gram; the ``gbar`` update and the clamped Gram fit
    are its ``gbar`` system.  A mode whose Gram is not trusted falls back to
    ``pinv`` of its explicit mixing matrix.  The sweeps run in
    :func:`_extrapolated_als` on the factors ``(F, X, gbar)``.
    """
    q4 = np.asarray(q4)
    _require_finite(q4)
    mr, slots, k, frames = q4.shape
    mt = psi.shape[1] // n
    d = n * mt
    require_feasible("tucker", dict(tx_antennas=mt, rx_antennas=mr, ris_elements=n,
                                    blocks=k, slots=slots, frames=frames))

    rng = np.random.default_rng(init_seed)
    x = (np.array(x_init, dtype=complex) if x_init is not None
         else complex_normal(rng, (slots, mt)))
    gbar = (np.array(gbar_init, dtype=complex) if gbar_init is not None
            else complex_normal(rng, (frames, d)))

    tol = solver.pinv_tol
    z = np.reshape(q4, (mr * slots, k, frames), order="F")
    zp, psi_gram, psi_diag, znorm2, psi_cond = _contract(z, psi)

    def sweep(factors):
        _, x, gbar = factors
        rhs, gram = _omega_system(zp, psi_gram, gbar)
        bound = _cond_bound(gram, psi_diag, psi_cond)
        # omega = kron(X, F): block (t, m) of rhs is rx x n, block (m, p) of
        # gram is n x n; rows of these views run over the blocks
        rb = rhs.reshape(slots, mr, mt, n).transpose(0, 2, 1, 3).reshape(slots * mt, -1)
        gb = gram.reshape(mt, n, mt, n).transpose(0, 2, 1, 3).reshape(mt * mt, -1)
        f = _solve((x.conj().ravel() @ rb).reshape(mr, n),
                   ((x.T @ x.conj()).ravel() @ gb).reshape(n, n), tol,
                   _contracted_bound(bound, x), _mode_pinv, q4, 0, x, psi, gbar, n)
        x = _solve((rb @ f.conj().ravel()).reshape(slots, mt),
                   (gb @ (f.T @ f.conj()).ravel()).reshape(mt, mt), tol,
                   _contracted_bound(bound, f), _mode_pinv, q4, 1, f, psi, gbar, n)
        omega = kron(x, f)
        rhs, gram = _gbar_system(zp, psi_gram, omega)
        gbar = _solve(rhs, gram, tol, _cond_bound(gram, psi_diag, psi_cond),
                      _gbar_pinv, z, psi, omega)
        return (f, x, gbar), _gram_fit(gbar, rhs, gram, znorm2)

    def fit_at(factors):
        f, x, gbar = factors
        return _gram_fit(gbar, *_gbar_system(zp, psi_gram, kron(x, f)), znorm2)

    (f, x, gbar), trajectory, converged = _extrapolated_als(
        sweep, fit_at, (None, x, gbar), solver)
    return f, x, gbar, trajectory, converged


def tucker(received: ReceivedTensor, design: ScatteringDesign, alphabet,
           solver: SolverOptions, init_seed: int,
           x_init=None, gbar_init=None) -> ReceiverOutput:
    """Single-stage semi-blind receiver (trilinear ALS on the 4-way view)."""
    f, x_raw, gbar, trajectory, converged = _tucker_als(
        received.y, design.s.shape[0], design.psi, solver, init_seed,
        x_init, gbar_init)
    out = ReceiverOutput(
        h_hat=f @ design.s.conj().T,  # S is unitary, so this inverts it exactly
        hs_hat=f,
        gbar_hat=gbar,
        x_hat=x_raw,
        x_detected=None,
        iterations=len(trajectory),
        residual_trajectory=trajectory,
        converged=converged,
        final_fit=trajectory[-1],
    )
    return resolve_and_detect(out, alphabet)


def zf_perfect_csi(received: ReceivedTensor, channels: ChannelSet,
                   design: ScatteringDesign, pinv_tol=1e-12) -> np.ndarray:
    """Zero-forcing symbol estimate with perfect channel knowledge.

    Inverts the known mode-1 mixing of the fourth-order view:
    ``X = unfold(q4, 1) @ pinv(V)`` with ``V`` built from the true channels
    and the design.
    """
    v2 = _mixing(1, channels.h @ design.s, design.psi, channels.gbar,
                 design.s.shape[0])
    return unfold(received.y, 1) @ pinv(v2, pinv_tol)


def hard_decisions(x, alphabet) -> np.ndarray:
    """Indices of the nearest constellation points (ties to the lower index)."""
    dist = np.abs(np.asarray(x)[..., None] - np.asarray(alphabet))
    return np.argmin(dist, axis=-1)


def resolve_and_detect(out: ReceiverOutput, alphabet) -> ReceiverOutput:
    """Fix the per-stream scale from the known reference row, then detect.

    Column m of the soft estimate is scaled by ``alphabet[0] / x_hat[0, m]``,
    the known reference symbol over its estimate, cancelling the per-stream
    diagonal indeterminacy; the remaining rows are hard-decided to the nearest
    constellation point.  The channel estimates are left untouched.
    """
    ref = complex(alphabet[0])
    x = out.x_hat
    pivot = x[0, :]
    # zero relative to its column: a tiny column whose scale is intact is fine
    if np.any(np.abs(pivot) <= np.finfo(float).eps * np.linalg.norm(x, axis=0)):
        raise ScalingResolutionError(
            "reference-row estimate is numerically zero; cannot resolve scaling"
        )
    x_res = x * (ref / pivot)[None, :]
    detected = np.asarray(alphabet)[hard_decisions(x_res, alphabet)]
    detected[0, :] = ref
    return replace(out, x_hat=x_res, x_detected=detected)
