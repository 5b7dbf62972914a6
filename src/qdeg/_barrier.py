"""The log-det barrier of the symmetric-extension oracle.

``barrier`` is the one Newton loop. It searches the affine set A of
``qdeg.symext`` restricted to a ``_Face`` of the target's range, from the
face's least-norm point (``_search``), and always answers with one
``OracleResult``. ``_face`` builds every face: that of a rank-deficient
target, or the full space, which is the face of a full-rank one
(``_full_face``). ``decide`` routes a target between the two spaces and
lifts every certificate to 8x8, by Q W Q^dag in the full space and by
``lift_certificate`` on a face. The derivation is in the ``qdeg.symext``
docstring. ``symext`` imports this module on first use, so that
``import qdeg`` compiles none of it.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import NumericalFailure
from .symext import CERT_RTOL, ExtensionProblem, OracleResult, OracleStatus

#: Path following: the start sets S = X - t I this far above singular, a
#: Newton decrement below BARRIER_CENTRED counts as centred (and takes a
#: full step), and each centred step divides mu by BARRIER_SHRINK.
BARRIER_START_GAP = 1.0 / 32.0
BARRIER_CENTRED = 1.0
BARRIER_SHRINK = 50.0

# On the face: a singular value of P_anti (R (x) I) below _CUT (above
# 1 - _CUT) marks a swap-symmetric (antisymmetric) direction of V, a
# singular value of the face's constraint map below _CUT times the
# largest marks a free direction, and a least-squares residual above
# _CUT means that A misses the face. A near-miss costs only speed:
# every witness is checked against the target.
_CUT = 1e-9

_EYE4 = np.eye(4)
_EYE8 = np.eye(8)
_I2_AXES = np.eye(2, dtype=np.complex128).reshape(1, 2, 1, 2)


def _swap(m: np.ndarray) -> np.ndarray:
    """swap(Y, Y') m swap(Y, Y') as a permutation of tensor axes."""
    return m.reshape(2, 2, 2, 2, 2, 2).transpose(0, 2, 1, 3, 5, 4).reshape(8, 8)


def _tensor_eye(a: np.ndarray) -> np.ndarray:
    """``np.kron(a, I2)`` as a broadcast product."""
    rows, cols = a.shape
    return (a[:, None, :, None] * _I2_AXES).reshape(2 * rows, 2 * cols)


def _psd_part(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The PSD part v diag(max(w, 0)) v^dag of v diag(w) v^dag, v with
    orthonormal columns: the PSD projection of the Hermitian matrix with
    eigenpairs (w, v), or, for v = Q u, the lift Q P Q^dag of the PSD
    projection P of the matrix with eigenpairs (w, u)."""
    out = (v * np.maximum(w, 0.0)) @ linalg.dagger(v)
    return (out + linalg.dagger(out)) / 2.0


def _residual(y: np.ndarray, target: np.ndarray) -> float:
    """Constraint residual of a PSD iterate: both marginals and swap symmetry.

    On the axes (x, y, y') of y, the marginal of swap(y) on X (x) Y' is
    tr_Y(y), and sqrt is monotone, so the largest of the three norms is one
    square root.
    """
    t = y.reshape(2, 2, 2, 2, 2, 2)
    marginal = target.reshape(2, 2, 2, 2)
    r1 = t.trace(axis1=2, axis2=5) - marginal
    r2 = t.trace(axis1=1, axis2=4) - marginal
    r3 = t - t.transpose(0, 2, 1, 3, 5, 4)
    return math.sqrt(max(np.vdot(r1, r1).real, np.vdot(r2, r2).real, np.vdot(r3, r3).real))


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
def _marginal_basis(r: int) -> np.ndarray:
    """The conjugate of the orthonormal basis of the Hermitian r x r
    matrices, (r * r, r * r), which takes a matrix's coordinates; read-only."""
    conj = _hermitian_basis((r,)).conj()
    conj.setflags(write=False)
    return conj


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
    marginals_h: np.ndarray  # (r * r, r * r) conjugate of an orthonormal basis of the Hermitian r x r matrices
    directions: np.ndarray  # the orthonormal free directions, then -I
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
    Hermitian matrix, which ``marginals_h`` takes: r^2 rows, one per real
    degree of freedom. Its least-norm solution is ``solve`` times the
    coordinates of R^dag target R.
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
    marginals_h = _marginal_basis(r)
    # gg[(i, j), (a, b)] = sum_c g[(i, c), a] conj(g[(j, c), b]), so that
    # tr_c(g Y g^dag) = gg @ vec(Y)
    gc = g.reshape(r, 2, k).transpose(1, 0, 2).reshape(2, r * k)
    gg = (gc.T @ gc.conj()).reshape(r, k, r, k).transpose(0, 2, 1, 3).reshape(r * r, k * k)
    a = (marginals_h @ gg @ units.T).real
    u, sv, vt = np.linalg.svd(a)
    values = sv.tolist()
    fixed = sum(x > _CUT * values[0] for x in values)
    solve = (vt[:fixed].T / sv[:fixed]) @ u[:, :fixed].T
    free = (vt[fixed:] @ units.view(np.float64)).view(np.complex128).reshape(-1, k, k)
    directions = np.concatenate([free, _minus_eye(k)])
    return _Face(top, a, solve, units, marginals_h, directions, e @ g)


@functools.cache
def _full_face() -> _Face:
    """``_face`` of R = C^4 with basis I: the full space, the same for every
    target, so built once, on first use. Its arrays are read-only, and its
    ``top`` is None, so that a target is taken as it is."""
    face = _face(np.eye(4, dtype=np.complex128))._replace(top=None)
    for array in face[1:]:
        array.setflags(write=False)
    return face


def _search(face: _Face, target: np.ndarray) -> np.ndarray | None:
    """The least-norm point of A restricted to ``face``, from which the
    barrier searches it, or None when A misses the face."""
    m = target if face.top is None else linalg.dagger(face.top) @ target @ face.top
    b = (face.marginals_h @ m.ravel()).real
    coef = face.solve @ b
    if linalg.frobenius(face.a @ coef - b) > _CUT:
        return None
    return (coef @ face.units).reshape(face.directions.shape[1:])


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


def _point(problem: ExtensionProblem, q: np.ndarray, y0: np.ndarray) -> OracleResult:
    """``barrier`` on a face of one point y0, which takes no step: y0 is a
    witness, or v v^dag, v the eigenvector of its lowest eigenvalue, is its
    certificate when <v v^dag, y0> passes the oracle's rule; otherwise the
    run ends INCONCLUSIVE at 0 steps."""
    target, tol = problem.target, problem.tol
    w, v = linalg._eigh(y0)
    if w[0] >= -2.0 * tol:
        y = _lift(q, y0) if w[0] > 0.0 else _psd_part(w, q @ v)
        residual = _residual(y, target)
        if residual <= tol:
            return OracleResult(OracleStatus.FEASIBLE, y, residual, 0)
    residual = _residual(_psd_part(w, q @ v), target)
    u = v[:, :1]
    cert = u * u.conj().T  # <v v^dag, y0> = w[0]
    if np.vdot(cert, y0).real < -CERT_RTOL * max(1.0, linalg.frobenius(cert)):
        return OracleResult(OracleStatus.INFEASIBLE, None, residual, 0, certificate=cert)
    return OracleResult(OracleStatus.INCONCLUSIVE, None, residual, 0)


def barrier(problem: ExtensionProblem, face: _Face, x0: np.ndarray, start: int = 0) -> OracleResult:
    """The barrier on A restricted to ``face``, from its least-norm point
    ``x0`` (see ``_search``), counting its Newton steps from ``start`` up
    to ``problem.max_iter``.

    The set is {x0 + sum_k z_k D_k}, the D_k the orthonormal free
    directions of ``face``, and Q = ``face.q`` maps its point Y to the 8x8
    extension Q Y Q^dag. The run ends in one ``OracleResult``: FEASIBLE
    with the witness Q Y Q^dag; INFEASIBLE with a certificate W in the
    face's coordinates, PSD, orthogonal to the D_k and negative at x0, for
    ``decide`` to lift to 8x8; or INCONCLUSIVE at the cap, with the
    residual of the last iterate's PSD projection, on a face as in the
    full space. A face of one point takes no step (``_point``).
    """
    directions, lift = face.directions, face.q
    if len(directions) == 1:
        return _point(problem, lift, x0)
    target, tol, cap = problem.target, problem.tol, problem.max_iter
    k, n = len(x0), len(directions)
    eye = -directions[-1]  # the directions end with -I
    flat = directions.view(np.float64).reshape(n, 2 * k * k)
    basis = flat[:-1]  # the free directions' real views, as rows
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
                return OracleResult(OracleStatus.FEASIBLE, y, residual, it)
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
                return OracleResult(OracleStatus.INFEASIBLE, None, residual, it, certificate=cert)
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
    residual = _residual(_psd_part(w + t, lift @ v), target)
    return OracleResult(OracleStatus.INCONCLUSIVE, None, residual, cap)


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
    b = top @ (eta @ face.marginals_h.conj()).reshape(r, r) @ top_h
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
    return w if value < -CERT_RTOL * max(1.0, linalg.frobenius(w)) else None


def decide(problem: ExtensionProblem, vectors: np.ndarray, rank: int) -> OracleResult:
    """One route per Choi rank. Ranks 2 and 3 go to the target's face, run
    to a witness or to a certificate of the face, which ``lift_certificate``
    lifts to 8x8. The full space, the face of rank 4, decides ranks 1 and 4
    and whatever the face leaves open: a face V = {0} or one that A misses,
    a face run that reaches the cap, and a lifted certificate that fails
    the oracle's rule, as near-boundary targets' do. Its steps count on
    from the face result's, and its certificate is lifted as Q W Q^dag."""
    steps = 0
    face = _face(vectors[:, 4 - rank:]) if rank in (2, 3) else None
    x0 = None if face is None else _search(face, problem.target)
    if x0 is not None:
        result = barrier(problem, face, x0)
        if result.status is OracleStatus.FEASIBLE:
            return result
        if result.status is OracleStatus.INFEASIBLE:
            cert = lift_certificate(face, problem.target, result.certificate, x0)
            if cert is not None:
                return OracleResult(OracleStatus.INFEASIBLE, None, result.residual, result.iterations, certificate=cert)
        steps = result.iterations
    face = _full_face()
    result = barrier(problem, face, _search(face, problem.target), start=steps)
    if result.status is OracleStatus.INFEASIBLE:
        result = OracleResult(OracleStatus.INFEASIBLE, None, result.residual, result.iterations,
                              certificate=_lift(face.q, result.certificate))
    return result
