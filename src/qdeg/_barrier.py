"""The log-det barrier of the symmetric-extension oracle.

``barrier`` is the one Newton loop. It searches the affine set A of
``qdeg.symext`` restricted to a face of the target's range, and
``face_search`` builds every such search space: the face of a
rank-deficient target, or the full space, which is the face of a
full-rank one. ``decide`` routes a target between the two. The
derivation is in the ``qdeg.symext`` docstring. ``symext`` imports this
module on first use, so that ``import qdeg`` compiles none of it.
"""

from __future__ import annotations

import functools

import numpy as np

from . import linalg
from .errors import NumericalFailure
from .symext import (
    BARRIER_CENTRED,
    BARRIER_SHRINK,
    BARRIER_START_GAP,
    CERT_RTOL,
    ExtensionProblem,
    OracleResult,
    OracleStatus,
    _psd_part,
    _residual,
    _tensor_eye,
)

# On the face: a singular value of P_anti (R (x) I) below _CUT (above
# 1 - _CUT) marks a swap-symmetric (antisymmetric) direction of V, a
# singular value of the face's constraint map below _CUT times the
# largest marks a free direction, and a least-squares residual above
# _CUT means that A misses the face. A near-miss costs only speed:
# every witness is checked against the target.
_CUT = 1e-9


@functools.cache
def _antisymmetric_rows() -> np.ndarray:
    """(2, 8) rows |x> (x) singlet: an orthonormal basis of the swap's -1 eigenspace."""
    singlet = np.array([0.0, 1.0, -1.0, 0.0], dtype=np.complex128) / np.sqrt(2.0)
    rows = np.kron(np.eye(2), singlet)
    rows.setflags(write=False)
    return rows


@functools.cache
def _hermitian_basis(sizes: tuple[int, ...]) -> np.ndarray:
    """Orthonormal basis (under Re tr(A^dag B)) of the block-diagonal Hermitian
    matrices with diagonal blocks of the given sizes, as a read-only
    (p, n, n) stack."""
    n = sum(sizes)
    units = []
    first = 0
    for size in sizes:
        for j in range(first, first + size):
            e = np.zeros((n, n), dtype=np.complex128)
            e[j, j] = 1.0
            units.append(e)
            for k in range(j + 1, first + size):
                e = np.zeros((n, n), dtype=np.complex128)
                e[j, k] = e[k, j] = np.sqrt(0.5)
                units.append(e)
                e = np.zeros((n, n), dtype=np.complex128)
                e[j, k], e[k, j] = 1j * np.sqrt(0.5), -1j * np.sqrt(0.5)
                units.append(e)
        first += size
    stack = np.stack(units)
    stack.setflags(write=False)
    return stack


def _face(top: np.ndarray) -> tuple | None:
    """The geometry of the face V of a range R with orthonormal basis ``top``
    (4 x r), or None when V = {0}.

    With E = R (x) I, the right singular vectors of P_anti E with singular
    value 0 (1) span the swap-symmetric (antisymmetric) part of V in E's
    coordinates (i, c); stacked as g they give Q = E g. The marginal of
    Q Y Q^dag is R tr_c(g Y g^dag) R^dag, so on the face A is
    {Y block-diagonal : tr_c(g Y g^dag) = R^dag target R}, a linear system
    ``a`` in the coordinates of Y in ``units``, whose least-norm solution
    is ``solve`` times the real and imaginary parts of R^dag target R.
    Returns ``(top, a, solve, units, basis, directions, q)``.
    """
    r = top.shape[1]
    e = _tensor_eye(top)
    _, s, vh = np.linalg.svd(_antisymmetric_rows() @ e)
    s = np.concatenate([s, np.zeros(2 * r - 2)])
    sym, anti = s < _CUT, s > 1.0 - _CUT
    g = linalg.dagger(np.concatenate([vh[sym], vh[anti]]))
    k = g.shape[1]
    if k == 0:
        return None
    units = _hermitian_basis((np.count_nonzero(sym), np.count_nonzero(anti)))
    units = units.reshape(len(units), k * k)
    # gg[(i, j), (a, b)] = sum_c g[(i, c), a] conj(g[(j, c), b]), so that
    # tr_c(g Y g^dag) = gg @ vec(Y)
    gc = g.reshape(r, 2, k).transpose(1, 0, 2).reshape(2, r * k)
    gg = (gc.T @ gc.conj()).reshape(r, k, r, k).transpose(0, 2, 1, 3).reshape(r * r, k * k)
    m = gg @ units.T
    a = np.concatenate([m.real, m.imag])
    u, sv, vt = np.linalg.svd(a)
    fixed = np.count_nonzero(sv > _CUT * sv[0])
    solve = (vt[:fixed].T / sv[:fixed]) @ u[:, :fixed].T
    free = (vt[fixed:] @ units).reshape(-1, k, k)
    directions = np.concatenate([free, -np.eye(k, dtype=np.complex128)[None]])
    basis = free.view(np.float64).reshape(len(free), 2 * k * k)
    return top, a, solve, units, basis, directions, e @ g


@functools.cache
def _full_face() -> tuple:
    """``_face`` of R = C^4 with basis I: the full space, the same for every
    target, so built once, on first use. Its arrays are read-only."""
    face = _face(np.eye(4, dtype=np.complex128))
    for array in face:
        array.setflags(write=False)
    return face


def face_search(target: np.ndarray, vectors: np.ndarray, r: int) -> tuple | None:
    """A restricted to the face V of a target of Choi rank r.

    R is spanned by the last r columns of ``vectors``, the target's
    eigenvectors in ascending order; at r = 4 it is C^4, with the basis I,
    and V is the whole swap-invariant space. On the face, A is searched
    from its least-norm point (see ``_face``). Returns the barrier's search
    ``(x0, basis, directions, lift)`` with lift = Q, or None when V = {0}
    or A misses the face.
    """
    face = _full_face() if r == 4 else _face(vectors[:, 4 - r:])
    if face is None:
        return None
    top, a, solve, units, basis, directions, q = face
    m = linalg.dagger(top) @ target @ top
    b = np.concatenate([m.real.ravel(), m.imag.ravel()])
    coef = solve @ b
    if linalg.frobenius(a @ coef - b) > _CUT:
        return None
    k = q.shape[1]
    return (coef @ units).reshape(k, k), basis, directions, q


def _lift(q: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The 8x8 extension Q Y Q^dag of a point Y of a face."""
    y = q @ y @ linalg.dagger(q)
    return (y + linalg.dagger(y)) / 2.0


def barrier(problem: ExtensionProblem, search: tuple, start: int = 0) -> tuple[OracleResult | None, int]:
    """The barrier on ``search``, counting its Newton steps from ``start``
    up to ``problem.max_iter``.

    ``search = (x0, basis, directions, lift)`` is an affine set
    {x0 + sum_k z_k D_k} from ``face_search``: ``basis`` holds the real
    views of the orthonormal D_k as rows, ``directions`` the stack
    D_1..D_m, -I, and ``lift`` is Q, which maps a point Y of the set to its
    8x8 extension Q Y Q^dag.

    Returns ``(result, steps)``. A run in the full space, the only search
    of dimension 8 (a face of a rank-r target has dimension <= 2r <= 6),
    ends FEASIBLE, INFEASIBLE with the certificate lifted as Q W Q^dag or,
    at the cap, INCONCLUSIVE. A run on a face ends with a FEASIBLE witness
    or None: the face is ruled out when its one point is not a witness,
    when its dual certificate proves it empty or when a centred bound
    t + dim(V) mu falls below 0, and left open at the cap.
    """
    target, tol, cap = problem.target, problem.tol, problem.max_iter
    x0, basis, directions, lift = search
    k, n = len(x0), len(directions)
    final = k == 8
    eye = np.eye(k, dtype=np.complex128)
    flat = directions.view(np.float64).reshape(n, 2 * k * k)
    x = x0
    w, v = linalg._eigh(x)
    # S = X - t I starts BARRIER_START_GAP above singular; mu zeroes the t-gradient
    t = float(w[0]) - BARRIER_START_GAP
    w = w - t
    mu = 1.0 / float((1.0 / w).sum())
    for it in range(start, cap + 1):
        lam_x = w + t  # the spectrum of X
        # the projection adds a PSD N to X with ||tr_Y'(N)|| >= tr(N) / 2
        # >= -lam_x[0] / 2, so a larger negative eigenvalue cannot pass
        if lam_x[0] >= -2.0 * tol:
            y = _lift(lift, x if lam_x[0] > 0.0 else _psd_part(lam_x, v))
            residual = _residual(y, target)
            if residual <= tol:
                return OracleResult(OracleStatus.FEASIBLE, y, residual, it), it
        if not final and n == 1:
            return None, it
        s_inv = (v / w) @ linalg.dagger(v)
        coords = flat @ s_inv.view(np.float64).ravel()  # <A_k, S^-1>, A = D_1..D_m, -I
        # x0 is the least-norm point of A, so it is orthogonal to the D_k and
        # <P_{L^perp}(mu S^-1), x0> = mu <S^-1, x0>
        if mu * np.vdot(s_inv, x0).real < -CERT_RTOL:
            dual = mu * (s_inv - (coords[:-1] @ basis).view(np.complex128).reshape(k, k))
            dual = (dual + linalg.dagger(dual)) / 2.0
            # the PSD lift W = dual + c I, c = max(0, -lambda_min(dual))
            cert = dual + max(0.0, -float(linalg._eigvalsh(dual)[0])) * eye
            if np.vdot(cert, x0).real < -CERT_RTOL * max(1.0, linalg.frobenius(cert)):
                if not final:
                    return None, it
                residual = _residual(_lift(lift, _psd_part(lam_x, v)), target)
                return OracleResult(OracleStatus.INFEASIBLE, None, residual, it,
                                    certificate=_lift(lift, cert)), it
        if it == cap:
            break
        # Newton step on f = -t / mu - log det S over (z, t), S moving along
        # A_k = D_1..D_m, -I: grad_k = -tr(S^-1 A_k) (-1/mu more for t) and
        # hess_kl = tr(F_k F_l) with F_k = A_k S^-1
        f = (directions.reshape(n * k, k) @ s_inv).reshape(n, k, k)
        hess = (f.reshape(n, k * k) @ f.transpose(0, 2, 1).reshape(n, k * k).T).real
        grad = -coords
        grad[-1] -= 1.0 / mu
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure(f"Newton system failed: {exc}") from exc
        decrement = float(np.sqrt(max(0.0, -grad @ step)))
        if not np.isfinite(decrement):
            raise NumericalFailure("Newton step is not finite")
        centred = decrement < BARRIER_CENTRED
        if not final and centred and t + k * mu < 0.0:
            return None, it
        # a step inside the Dikin ellipsoid (decrement < 1) keeps S positive
        # definite; the halving only absorbs rounding
        alpha = 1.0 if centred else 1.0 / (1.0 + decrement)
        dx = (step[:-1] @ basis).view(np.complex128).reshape(k, k)
        dx = (dx + linalg.dagger(dx)) / 2.0
        for _ in range(64):
            x_new, t_new = x + alpha * dx, t + alpha * step[-1]
            w_new, v_new = linalg._eigh(x_new - t_new * eye)
            if w_new[0] > 0.0:
                break
            alpha /= 2.0
        else:
            raise NumericalFailure("barrier step left the cone")
        x, t, w, v = x_new, t_new, w_new, v_new
        if centred:
            mu /= BARRIER_SHRINK
    if not final:
        return None, cap
    residual = _residual(_lift(lift, _psd_part(w + t, v)), target)
    return OracleResult(OracleStatus.INCONCLUSIVE, None, residual, cap), cap


def decide(problem: ExtensionProblem, vectors: np.ndarray, rank: int) -> OracleResult:
    """The target's face at Choi rank 2 or 3; the full space, the face of
    rank 4, for whatever the face leaves open and at ranks 1 and 4."""
    result, steps = None, 0
    if rank in (2, 3):
        face = face_search(problem.target, vectors, rank)
        if face is not None:
            result, steps = barrier(problem, face)
    if result is None:
        result, _ = barrier(problem, face_search(problem.target, vectors, 4), start=steps)
    return result
