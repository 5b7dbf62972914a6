"""The log-det barrier of the symmetric-extension oracle.

``barrier`` is the one Newton loop. It searches the affine set A of
``qdeg.symext`` restricted to a face of the target's range, and
``face_search`` builds every such search space: the face of a
rank-deficient target, or the full space, which is the face of a
full-rank one. ``lift_certificate`` turns a face's certificate into an
8x8 one, and ``decide`` routes a target between the two spaces. The
derivation is in the ``qdeg.symext`` docstring. ``symext`` imports this
module on first use, so that ``import qdeg`` compiles none of it.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

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
    _swap,
    _tensor_eye,
)

# On the face: a singular value of P_anti (R (x) I) below _CUT (above
# 1 - _CUT) marks a swap-symmetric (antisymmetric) direction of V, a
# singular value of the face's constraint map below _CUT times the
# largest marks a free direction, and a least-squares residual above
# _CUT means that A misses the face. A near-miss costs only speed:
# every witness is checked against the target.
_CUT = 1e-9

_EYE4 = np.eye(4)
_EYE8 = np.eye(8)


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
    matrices with diagonal blocks of the given sizes, each flattened row by
    row, as a read-only (p, n * n) array."""
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
    stack = np.stack(units).reshape(len(units), n * n)
    stack.setflags(write=False)
    return stack


@functools.cache
def _marginal_basis(r: int) -> tuple[np.ndarray, np.ndarray]:
    """The orthonormal basis of the Hermitian r x r matrices, (r * r, r * r),
    and its conjugate, which takes a matrix's coordinates; both read-only."""
    basis = _hermitian_basis((r,))
    conj = basis.conj()
    conj.setflags(write=False)
    return basis, conj


@functools.cache
def _minus_eye(k: int) -> np.ndarray:
    """-I as a read-only (1, k, k) stack: the last direction of every search."""
    out = -np.eye(k, dtype=np.complex128)[None]
    out.setflags(write=False)
    return out


class _Face(NamedTuple):
    """The geometry of the face V of a range R; see ``_face``."""

    top: np.ndarray | None  # 4 x r orthonormal basis of R; None for R = C^4, whose basis is I
    a: np.ndarray  # (r * r, p) constraint map, from Y in units to R^dag tr_Y'(Q Y Q^dag) R in marginals
    solve: np.ndarray  # the least-norm solution operator of ``a``
    units: np.ndarray  # (p, k * k) orthonormal basis of the block-diagonal Y
    marginals: np.ndarray  # (r * r, r * r) orthonormal basis of the Hermitian r x r matrices
    marginals_h: np.ndarray  # its conjugate
    basis: np.ndarray  # real views of the free directions, as rows
    directions: np.ndarray  # the free directions, then -I
    q: np.ndarray  # 8 x k orthonormal basis of V


def _face(top: np.ndarray) -> _Face | None:
    """The geometry of the face V of a range R with orthonormal basis ``top``
    (4 x r), or None when V = {0}.

    With E = R (x) I, the right singular vectors of P_anti E with singular
    value 0 (1) span the swap-symmetric (antisymmetric) part of V in E's
    coordinates (i, c); stacked as g they give Q = E g. The marginal of
    Q Y Q^dag is R tr_c(g Y g^dag) R^dag, so on the face A is
    {Y block-diagonal : tr_c(g Y g^dag) = R^dag target R}, a linear system
    ``a`` from the coordinates of Y in ``units`` to those of an r x r
    Hermitian matrix in ``marginals``: r^2 rows, one per real degree of
    freedom. Its least-norm solution is ``solve`` times the coordinates of
    R^dag target R.
    """
    r = top.shape[1]
    e = _tensor_eye(top)
    _, s, vh = np.linalg.svd(_antisymmetric_rows() @ e)
    # s is descending, and the rows of vh past the second span the kernel
    s = s.tolist()
    n_sym, n_anti = 2 * r - 2 + sum(x < _CUT for x in s), sum(x > 1.0 - _CUT for x in s)
    k = n_sym + n_anti
    if k == 0:
        return None
    g = linalg.dagger(np.concatenate((vh[2 * r - n_sym:], vh[:n_anti])))
    units = _hermitian_basis((n_sym, n_anti))
    marginals, marginals_h = _marginal_basis(r)
    # gg[(i, j), (a, b)] = sum_c g[(i, c), a] conj(g[(j, c), b]), so that
    # tr_c(g Y g^dag) = gg @ vec(Y)
    gc = g.reshape(r, 2, k).transpose(1, 0, 2).reshape(2, r * k)
    gg = (gc.T @ gc.conj()).reshape(r, k, r, k).transpose(0, 2, 1, 3).reshape(r * r, k * k)
    a = (marginals_h @ gg @ units.T).real
    u, sv, vt = np.linalg.svd(a)
    values = sv.tolist()
    fixed = sum(x > _CUT * values[0] for x in values)
    solve = (vt[:fixed].T / sv[:fixed]) @ u[:, :fixed].T
    basis = vt[fixed:] @ units.view(np.float64)
    free = basis.view(np.complex128).reshape(-1, k, k)
    directions = np.concatenate([free, _minus_eye(k)])
    return _Face(top, a, solve, units, marginals, marginals_h, basis, directions, e @ g)


@functools.cache
def _full_face() -> _Face:
    """``_face`` of R = C^4 with basis I: the full space, the same for every
    target, so built once, on first use. Its arrays are read-only, and its
    ``top`` is None, so that a target is taken as it is."""
    face = _face(np.eye(4, dtype=np.complex128))._replace(top=None)
    for array in face[1:]:
        array.setflags(write=False)
    return face


def _search(face: _Face, target: np.ndarray) -> tuple | None:
    """A restricted to ``face``, searched from its least-norm point: the
    barrier's search ``(x0, basis, directions, lift)`` with lift = Q, or None
    when A misses the face."""
    m = target if face.top is None else linalg.dagger(face.top) @ target @ face.top
    b = (face.marginals_h @ m.ravel()).real
    coef = face.solve @ b
    if linalg.frobenius(face.a @ coef - b) > _CUT:
        return None
    k = face.q.shape[1]
    return (coef @ face.units).reshape(k, k), face.basis, face.directions, face.q


def face_search(target: np.ndarray, vectors: np.ndarray, r: int) -> tuple | None:
    """A restricted to the face V of a target of Choi rank r.

    R is spanned by the last r columns of ``vectors``, the target's
    eigenvectors in ascending order; at r = 4 it is C^4, with the basis I,
    and V is the whole swap-invariant space. Returns the barrier's search
    (see ``_search``), or None when V = {0} or A misses the face.
    """
    face = _full_face() if r == 4 else _face(vectors[:, 4 - r:])
    return None if face is None else _search(face, target)


def _lift(q: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The 8x8 extension Q Y Q^dag of a point Y of a face."""
    y = q @ y @ linalg.dagger(q)
    return (y + linalg.dagger(y)) / 2.0


@functools.cache
def _sym_tensor_eye() -> np.ndarray:
    """The (64, 16) matrix that maps B to sym(B (x) I), the swap-invariant
    part of B (x) I, both flattened row by row."""
    units = np.eye(16, dtype=np.complex128).reshape(16, 4, 4)
    out = np.stack([(m + _swap(m)).ravel() / 2.0 for m in map(_tensor_eye, units)], axis=1)
    out.setflags(write=False)
    return out


def _point(problem: ExtensionProblem, y0: np.ndarray, lift: np.ndarray, start: int) -> tuple[OracleResult | None, int]:
    """``barrier`` on a face of one point y0, which takes no step: y0 is a
    witness, or v v^dag, v the eigenvector of its lowest eigenvalue, is its
    certificate when <v v^dag, y0> passes the oracle's rule; else None."""
    target, tol = problem.target, problem.tol
    w, v = linalg._eigh(y0)
    if w[0] >= -2.0 * tol:
        y = _lift(lift, y0) if w[0] > 0.0 else _psd_part(w, lift @ v)
        residual = _residual(y, target)
        if residual <= tol:
            return OracleResult(OracleStatus.FEASIBLE, y, residual, start), start
    if w[0] >= 0.0:
        return None, start
    u = v[:, :1]
    cert = u * u.conj().T  # <v v^dag, y0> = w[0] < 0
    if np.vdot(cert, y0).real < -CERT_RTOL * max(1.0, linalg.frobenius(cert)):
        residual = _residual(_psd_part(w, lift @ v), target)
        return OracleResult(OracleStatus.INFEASIBLE, None, residual, start, certificate=cert), start
    return None, start


def barrier(problem: ExtensionProblem, search: tuple, start: int = 0) -> tuple[OracleResult | None, int]:
    """The barrier on ``search``, counting its Newton steps from ``start``
    up to ``problem.max_iter``.

    ``search = (x0, basis, directions, lift)`` is an affine set
    {x0 + sum_k z_k D_k} from ``face_search``: ``basis`` holds the real
    views of the orthonormal D_k as rows, ``directions`` the stack
    D_1..D_m, -I, and ``lift`` is Q, which maps a point Y of the set to its
    8x8 extension Q Y Q^dag.

    Returns ``(result, steps)``. A run ends FEASIBLE with the witness
    Q Y Q^dag or INFEASIBLE with a certificate W, PSD, orthogonal to the
    set's linear part and negative on it. In the full space, the only
    search of dimension 8 (a face of a rank-r target has dimension
    <= 2r <= 6), W is lifted as Q W Q^dag, and a run with neither proof
    ends INCONCLUSIVE at the cap. On a face W stays in the face's
    coordinates, for ``decide`` to lift. A face of one point y0 takes no
    step (``_point``): it is a witness, or v v^dag, v the eigenvector of
    y0's lowest eigenvalue, is its certificate when <v v^dag, y0> passes
    the same rule, or the run returns None. A face run also returns None
    at the cap.
    """
    x0, basis, directions, lift = search
    if len(directions) == 1:
        return _point(problem, x0, lift, start)
    target, tol, cap = problem.target, problem.tol, problem.max_iter
    k, n = len(x0), len(directions)
    final = k == 8
    eye = -directions[-1]  # the directions end with -I
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
            y = _lift(lift, x) if lam_x[0] > 0.0 else _psd_part(lam_x, lift @ v)
            residual = _residual(y, target)
            if residual <= tol:
                return OracleResult(OracleStatus.FEASIBLE, y, residual, it), it
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
                residual = _residual(_psd_part(lam_x, lift @ v), target)
                return OracleResult(OracleStatus.INFEASIBLE, None, residual, it,
                                    certificate=_lift(lift, cert) if final else cert), it
        if it == cap:
            break
        # Newton step on f = -t / mu - log det S over (z, t), S moving along
        # A_k = D_1..D_m, -I: grad_k = -tr(S^-1 A_k) (-1/mu more for t) and
        # hess_kl = Re tr(F_k F_l) with F_k = A_k S^-1, the real dot product
        # of the (re, im) views of F_k and conj(F_l^T)
        f = (directions.reshape(n * k, k) @ s_inv).reshape(n, k, k)
        f_t = f.transpose(0, 2, 1).reshape(n, k * k)
        hess = f.reshape(n, k * k).view(np.float64) @ np.conjugate(f_t, out=f_t).view(np.float64).T
        grad = -coords
        grad[-1] -= 1.0 / mu
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure(f"Newton system failed: {exc}") from exc
        decrement = math.sqrt(max(0.0, -grad @ step))
        if not math.isfinite(decrement):
            raise NumericalFailure("Newton step is not finite")
        centred = decrement < BARRIER_CENTRED
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
    residual = _residual(_psd_part(w + t, lift @ v), target)
    return OracleResult(OracleStatus.INCONCLUSIVE, None, residual, cap), cap


def lift_certificate(face: _Face, target: np.ndarray, cert: np.ndarray, x0: np.ndarray) -> np.ndarray | None:
    """The 8x8 certificate lifted from the certificate W_Y of ``face``, or
    None when it fails the oracle's rule <W, x0> < -CERT_RTOL max(1, ||W||_F).

    W_Y is orthogonal to the face's free directions, so it lies in the row
    space of ``a``: W_Y = a^T eta, eta the coordinates of a Hermitian y on
    R. Then B = R y R^dag has <sym(B (x) I), Q Y Q^dag> = <W_Y, Y>. With
    N = sym(P (x) I), P the projector onto the target's kernel, the lift is
    W = sym(B (x) I) + eps I + tau N. Every term lies in L^perp, so W takes
    one value on A, <B + tau P, target> + eps tr(target). With
    eps = -<W_Y, x0> / 2 > 0 that value is negative, and W equals
    W_Y + eps I on V = ker N, which is positive definite. N is positive
    definite on V^perp, so the least tau that makes W PSD is the largest
    eigenvalue of -N^-1/2 K N^-1/2, K the Schur complement of V in
    sym(B (x) I) + eps I. At that tau W is singular, so it is PSD up to
    rounding, which the rule's margin absorbs, as it absorbs the rounding
    of the barrier's own PSD shift.
    """
    top, top_h = face.top, linalg.dagger(face.top)
    r, k = top.shape[1], face.q.shape[1]
    eta = face.solve.T @ (face.units.view(np.float64) @ cert.view(np.float64).ravel())
    b = top @ (eta @ face.marginals).reshape(r, r) @ top_h
    kernel = _EYE4 - top @ top_h
    sym = _sym_tensor_eye()
    sb, n = (sym @ b.ravel()).reshape(8, 8), (sym @ kernel.ravel()).reshape(8, 8)
    eps = -np.vdot(cert, x0).real / 2.0
    d, u = linalg._eigh(n)  # ascending: V first
    if not d[k] > _CUT:
        return None
    g = linalg.dagger(u) @ sb @ u + eps * _EYE8
    try:
        schur = g[k:, k:] - g[k:, :k] @ np.linalg.solve(g[:k, :k], g[:k, k:])
    except np.linalg.LinAlgError:
        return None
    scale = 1.0 / np.sqrt(d[k:])
    tau = max(0.0, -float(linalg._eigvalsh(schur * scale[:, None] * scale)[0]))
    w = sb + tau * n + eps * _EYE8
    value = np.vdot(b + tau * kernel, target).real + eps * target.trace().real
    if value < -CERT_RTOL * max(1.0, linalg.frobenius(w)):
        return w
    return None


def decide(problem: ExtensionProblem, vectors: np.ndarray, rank: int) -> OracleResult:
    """One route per Choi rank. Ranks 2 and 3 go to the target's face, run
    to a witness or to a certificate of the face, which ``lift_certificate``
    lifts to 8x8. The full space, the face of rank 4, decides ranks 1 and 4
    and whatever the face leaves open: a face V = {0} or one that A misses,
    a face run that reaches the cap, and a lifted certificate that fails
    the oracle's rule, as near-boundary targets' do. Its steps count after
    the face's."""
    result, steps = None, 0
    if rank in (2, 3):
        face = _face(vectors[:, 4 - rank:])
        search = None if face is None else _search(face, problem.target)
        if search is not None:
            result, steps = barrier(problem, search)
        if result is not None and result.status is OracleStatus.INFEASIBLE:
            cert = lift_certificate(face, problem.target, result.certificate, search[0])
            result = None if cert is None else OracleResult(
                OracleStatus.INFEASIBLE, None, result.residual, steps, certificate=cert)
    if result is None:
        result, _ = barrier(problem, face_search(problem.target, vectors, 4), start=steps)
    return result
