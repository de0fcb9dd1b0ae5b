"""Semi-blind estimation of (channel pair, symbols) from the received tensor.

Two receivers consume the views produced by :func:`bdris.signal.reshape_views`:

* ``pakron``  - two stages.  Stage I runs bilinear alternating least squares
  on the third-order view to estimate the mixed factor
  ``omega = kron(X, H @ S)`` together with the stacked per-frame channel; its
  updates and fit work on the data contracted with the known coding and
  rotation matrix ``psi``, and each sweep tries an extrapolated step.
  Stage II splits ``omega`` by an SVD rank-1 factorization of its Kronecker
  rearrangement.
* ``tucker``  - single stage.  Trilinear alternating least squares on the
  fourth-order view with its known structured core, jointly updating
  ``H @ S``, ``X`` and the stacked per-frame channel.  Its ``H @ S`` and
  ``X`` updates split stage I's ``omega`` system over the two Kronecker
  factors of ``omega``; its channel update and fit are stage I's.

Every Gram either receiver solves is a Hadamard product of a factor Gram with
``psi``'s Gram, or (``tucker``'s ``H @ S`` and ``X`` updates) a contraction of
one, so Schur's bound on its condition number comes from ``cond(psi^T
conj(psi))`` and a diagonal.  ``solve_gram`` solves a Gram that this bound
certifies by LU, any other by Cholesky with an rcond test, and an untrusted
one falls back to ``pinv`` of the explicit matrix.

Both inherit the model's indeterminacies: a per-stream scale on the symbol
columns (pinned by the known reference row, see ``resolve_and_detect``) and a
per-element column scale on ``H @ S`` compensated inside the stacked channel
(left to evaluation-time column alignment).

A zero-forcing oracle with perfect channel knowledge is included as a symbol
detection baseline.
"""

import time
from dataclasses import dataclass, replace

import numpy as np

from .config import SolverOptions
from .errors import NumericalError, ScalingResolutionError
from .identifiability import require_feasible
from .signal import (ChannelSet, ReceivedTensor, ScatteringDesign,
                     complex_normal, reshape_views)
from .tensor_ops import (
    best_rank1,
    hermitian_cond,
    khatri_rao,
    kron,
    kron_rearrange,
    nearest_kronecker,
    pinv,
    schur_cond_bound,
    solve_gram,
    solve_rows,
    unfold,
    unvec,
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
    wall_time: float = 0.0


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
# cond(psi_gram) (once per call) and the diagonal of B.

def _contract(z, psi):
    psi_gram = psi.T @ psi.conj()
    return (np.transpose(z, (2, 0, 1)) @ psi.conj(), psi_gram,
            float(np.linalg.norm(z) ** 2), hermitian_cond(psi_gram))


def _cond_bound(gram, psi_gram, psi_cond):
    """:func:`schur_cond_bound` of ``gram = B ∘ psi_gram``, reading B's
    diagonal off the Gram's."""
    return schur_cond_bound(psi_cond, gram.diagonal().real / psi_gram.diagonal().real)


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


def _solve(rhs, gram, tol, unfolded, mixing, cond_bound):
    """``rhs @ inv(gram)`` by :func:`solve_gram` with the Gram's condition
    bound; on an untrusted Gram, ``unfolded @ pinv(mixing(), tol)``, building
    the mixing matrix only then."""
    x = solve_gram(rhs, gram, tol, cond_bound)
    return unfolded @ pinv(mixing(), tol) if x is None else x


def pakron_stage1(z, psi, left_shape, right_shape, solver: SolverOptions,
                  init_seed: int, gbar_init=None) -> StageOneResult:
    """Bilinear ALS on the third-order view ``z``.

    Alternates ``omega <- unfold(z,0) @ pinv(khatri_rao(gbar, psi).T)`` and
    ``gbar <- unfold(z,2) @ pinv(khatri_rao(psi, omega).T)`` without forming
    either Khatri-Rao matrix: both are solved from the normal equations on
    the ``psi``-contracted data (``_omega_system``, ``_gbar_system``), with a
    ``pinv`` fallback on an untrusted Gram.  The fit is the ``gbar`` system's
    Gram fit, clamped at 0.  From sweep 3 on, both factors move on to
    ``old + sqrt(sweep) * (new - old)`` (Bro 1998, §4.6) when that lowers the
    fit, so the fits never rise; the loop stops when the fit improves by no
    more than ``solver.delta``.

    ``left_shape = (slots, tx_antennas)`` and
    ``right_shape = (rx_antennas, ris_elements)`` describe the Kronecker
    structure of ``omega``; when ``solver.structure_projection`` is set, a
    final sweep replaces the converged ``omega`` by its nearest separable
    matrix and re-solves both factors once, which pins the per-column scale
    indeterminacy to a separable one without degrading the noiseless fit.
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

    z1 = unfold(z, 0)
    z3 = unfold(z, 2)
    gbar = (np.array(gbar_init, dtype=complex) if gbar_init is not None
            else complex_normal(np.random.default_rng(init_seed), (frames, d)))
    tol = solver.pinv_tol
    zp, psi_gram, znorm2, psi_cond = _contract(z, psi)
    trajectory = []
    prev = np.inf
    converged = False
    omega = None
    for sweep in range(1, solver.max_iters + 1):
        rhs, gram = _omega_system(zp, psi_gram, gbar)
        omega_new = _solve(rhs, gram, tol, z1, lambda: khatri_rao(gbar, psi).T,
                           _cond_bound(gram, psi_gram, psi_cond))
        rhs, gram = _gbar_system(zp, psi_gram, omega_new)
        gbar_new = _solve(rhs, gram, tol, z3, lambda: khatri_rao(psi, omega_new).T,
                          _cond_bound(gram, psi_gram, psi_cond))
        err = _gram_fit(gbar_new, rhs, gram, znorm2)
        if sweep >= 3:
            step = np.sqrt(sweep)
            omega_x = omega + step * (omega_new - omega)
            gbar_x = gbar + step * (gbar_new - gbar)
            err_x = _gram_fit(gbar_x, *_gbar_system(zp, psi_gram, omega_x), znorm2)
            if err_x < err:
                omega_new, gbar_new, err = omega_x, gbar_x, err_x
        omega, gbar = omega_new, gbar_new
        trajectory.append(err)
        if abs(err - prev) <= solver.delta:
            converged = True
            break
        prev = err
    fit = trajectory[-1]

    if solver.structure_projection:
        xa, hb = nearest_kronecker(omega, left_shape, right_shape)
        omega_p = kron(xa, hb)
        # Grams psi_gram ∘ (F^T conj(F)) for F = omega_p, then gbar: the bound
        # reads their diagonals, the squared column norms of F
        gbar = solve_rows(z3, khatri_rao(psi, omega_p).T, tol, schur_cond_bound(
            psi_cond, np.linalg.norm(omega_p, axis=0) ** 2))
        kr_gp = khatri_rao(gbar, psi)
        omega = solve_rows(z1, kr_gp.T, tol, schur_cond_bound(
            psi_cond, np.linalg.norm(gbar, axis=0) ** 2))
        fit = float(np.linalg.norm(z1 - omega @ kr_gp.T) ** 2) / znorm2

    return StageOneResult(omega=omega, gbar=gbar, trajectory=tuple(trajectory),
                          iterations=len(trajectory), converged=converged, fit=fit)


def kron_factorize(omega, s, slots, rx_antennas):
    """Split an estimated ``kron(X, H @ S)`` into ``(X, H)``.

    Right-multiplying by ``kron(I, S^H)`` removes the known unitary factor;
    the Kronecker rearrangement of the result is rank-1 for perfectly
    structured input, with ``vec(X)`` and ``vec(H)`` as its singular pair.
    The split is exact up to one complex scale trade-off between the two
    factors.
    """
    n = s.shape[0]
    mt = omega.shape[1] // n
    delta = omega @ kron(np.eye(mt), s.conj().T)
    rearranged = kron_rearrange(delta, (slots, mt), (rx_antennas, n))
    u, v, sigma = best_rank1(rearranged)
    root = np.sqrt(sigma)
    x_hat = unvec(root * u, slots, mt)
    h_hat = unvec(root * v.conj(), rx_antennas, n)
    return x_hat, h_hat


def pakron(received: ReceivedTensor, design: ScatteringDesign, alphabet,
           solver: SolverOptions, init_seed: int, gbar_init=None) -> ReceiverOutput:
    """Two-stage semi-blind receiver (alternating LS + Kronecker split)."""
    t0 = time.perf_counter()
    views = reshape_views(received, design)
    mr, slots, _, _ = received.y.shape
    n = design.s.shape[0]
    mt = design.psi.shape[1] // n
    stage1 = pakron_stage1(views.z, design.psi, (slots, mt), (mr, n),
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
    out = resolve_and_detect(out, alphabet)
    return replace(out, wall_time=time.perf_counter() - t0)


def _mixing(spec, factor, psi, gbar, n):
    """Mixing matrix ``V`` of mode 0 or 1 of the fourth-order view (``unfold(q4,
    mode) == F @ V`` or ``X @ V``): the structured core reduces it to the einsum
    ``spec`` of the other factor with the ``psi`` and ``gbar`` slices."""
    mt = psi.shape[1] // n
    slices = [np.reshape(a, (a.shape[0], n, mt), order="F") for a in (psi, gbar)]
    v = np.einsum(spec, factor, *slices)
    return v.reshape(v.shape[0], -1, order="F")


def tucker_tals(q4, core, psi, solver: SolverOptions, init_seed: int,
                x_init=None, gbar_init=None):
    """Trilinear ALS on the fourth-order view with known structured core.

    Per sweep it updates the effective channel ``F = H @ S``, the symbols
    ``X`` and the stacked per-frame channel ``gbar`` on ``pakron_stage1``'s
    ``psi``-contracted systems with ``omega = kron(X, F)``.  The F and X
    updates split its ``omega`` system (formed once per sweep from ``gbar``)
    over the two Kronecker factors; the ``gbar`` update and the clamped Gram
    fit are its ``gbar`` system.  A mode whose Gram is not trusted falls back
    to ``pinv`` of its explicit mixing matrix.

    Returns ``(f, x, gbar, trajectory, converged)`` with the trajectory of
    normalized reconstruction errors.
    """
    q4 = np.asarray(q4)
    _require_finite(q4)
    mr, slots, k, frames = q4.shape
    n, mt = core.shape[0], core.shape[1]
    d = n * mt
    require_feasible("tucker", dict(tx_antennas=mt, rx_antennas=mr, ris_elements=n,
                                    blocks=k, slots=slots, frames=frames))
    r = np.arange(d)  # the ones of build_core(n, mt) sit at (r % n, r // n, r, r)
    if (core.shape != (n, mt, d, d) or np.count_nonzero(core) != d
            or not np.all(core[r % n, r // n, r, r] == 1)):
        raise ValueError("core must be the canonical selection-structured core")

    rng = np.random.default_rng(init_seed)
    x = (np.array(x_init, dtype=complex) if x_init is not None
         else complex_normal(rng, (slots, mt)))
    gbar = (np.array(gbar_init, dtype=complex) if gbar_init is not None
            else complex_normal(rng, (frames, d)))

    tol = solver.pinv_tol
    z = np.reshape(q4, (mr * slots, k, frames), order="F")
    zp, psi_gram, znorm2, psi_cond = _contract(z, psi)
    q1, q2, z3 = unfold(q4, 0), unfold(q4, 1), unfold(z, 2)
    trajectory = []
    prev = np.inf
    converged = False
    f = None
    for _ in range(solver.max_iters):
        # the omega system, indexed (r, t, n, m) as omega = kron(X, F)
        rhs, gram = _omega_system(zp, psi_gram, gbar)
        bound = _cond_bound(gram, psi_gram, psi_cond)
        r4 = np.reshape(rhs, (mr, slots, n, mt), order="F")
        g4 = np.reshape(gram, (n, mt, n, mt), order="F")
        f = _solve(np.einsum("tm,rtnm->rn", x.conj(), r4),
                   np.einsum("mp,nmqp->nq", x.T @ x.conj(), g4), tol, q1,
                   lambda: _mixing("tm,knm,inm->ntki", x, psi, gbar, n),
                   _contracted_bound(bound, x))
        x = _solve(np.einsum("rn,rtnm->tm", f.conj(), r4),
                   np.einsum("nq,nmqp->mp", f.T @ f.conj(), g4), tol, q2,
                   lambda: _mixing("rn,knm,inm->mrki", f, psi, gbar, n),
                   _contracted_bound(bound, f))
        omega = kron(x, f)
        rhs, gram = _gbar_system(zp, psi_gram, omega)
        gbar = _solve(rhs, gram, tol, z3, lambda: khatri_rao(psi, omega).T,
                      _cond_bound(gram, psi_gram, psi_cond))
        err = _gram_fit(gbar, rhs, gram, znorm2)
        trajectory.append(err)
        if abs(err - prev) <= solver.delta:
            converged = True
            break
        prev = err

    return f, x, gbar, tuple(trajectory), converged


def tucker(received: ReceivedTensor, design: ScatteringDesign, alphabet,
           solver: SolverOptions, init_seed: int,
           x_init=None, gbar_init=None) -> ReceiverOutput:
    """Single-stage semi-blind receiver (trilinear ALS on the 4-way view)."""
    t0 = time.perf_counter()
    views = reshape_views(received, design)
    f, x_raw, gbar, trajectory, converged = tucker_tals(
        views.q4, views.core, design.psi, solver, init_seed,
        x_init=x_init, gbar_init=gbar_init)
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
    out = resolve_and_detect(out, alphabet)
    return replace(out, wall_time=time.perf_counter() - t0)


def zf_perfect_csi(received: ReceivedTensor, channels: ChannelSet,
                   design: ScatteringDesign, pinv_tol=1e-12) -> np.ndarray:
    """Zero-forcing symbol estimate with perfect channel knowledge.

    Inverts the known mode-1 mixing of the fourth-order view:
    ``X = unfold(q4, 1) @ pinv(V)`` with ``V`` built from the true channels
    and the design.
    """
    v2 = _mixing("rn,knm,inm->mrki", channels.h @ design.s, design.psi,
                 channels.gbar, design.s.shape[0])
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
