"""Symmetric-extension oracle for two-qubit targets: two solvers, two proofs.

Given a two-qubit state on X (x) Y (here: a Choi matrix normalized to
trace one), the oracle searches for an 8x8 extension on X (x) Y (x) Y'
that is PSD, swap(Y, Y')-invariant and reproduces the target as its Y'
marginal. Two loss-free reductions shape the search:

- If any symmetric extension exists, averaging it with its swap image
  gives one in the swap-invariant slice, so the search is restricted to
  swap-invariant candidates. The affine set A = {swap-invariant} ∩
  {tr_Y' = target} is projected onto in closed form (the plain
  composition of the two affine projections is not itself a projection,
  which would void Dykstra's guarantees). Its linear part is
  L = {swap-invariant} ∩ {tr_Y' = 0}; L's orthogonal complement holds the
  swap-antisymmetric matrices and every sym(B (x) I), because
  <sym(B (x) I), X> = <B, tr_Y'(X)> = 0 on L.
- A kernel vector phi of the target forces rho (|phi> (x) |y'>) = 0 for
  any PSD extension (the marginal pins a zero diagonal block, and a PSD
  matrix with a zero diagonal entry has a zero row). Together with swap
  symmetry this confines extensions of rank-deficient targets to a known
  face of the PSD cone; projecting onto that face instead of the full
  cone removes the tangential geometry that otherwise makes the
  iteration sublinear.

``ExtensionProblem`` eigendecomposes the target once and keeps that face
as ``face`` (None at full rank). ``oracle_extendible`` routes by it: a
full-rank target goes to the barrier method, a rank-deficient one to the
face-restricted alternating projections. Both solvers take only the
problem and return an ``OracleResult``.

Barrier method (``barrier_feasibility``, full rank). L has dimension 24
and an orthonormal basis B_1..B_24 in closed form: L = Herm(X) (x) L_YY',
where L_YY' is spanned by sym(P_i (x) P_j) over the non-identity Pauli
matrices. The extensions are X(z) = x0 + sum_k z_k B_k with
x0 = P_A(target (x) I/2), and the method maximizes t subject to
S = X(z) - t I > 0 by Newton steps on -t/mu - log det S, dividing mu as
the iterates centre. Both answers carry a certificate:

- FEASIBLE: X(z) if positive definite, else its PSD projection if
  lambda_min(X) >= -2 tol (this decides targets whose optimal t is a
  rounding-level negative), once that witness's residual is below tol.
- INFEASIBLE: the stationarity conditions of the barrier say that
  Z = mu S^-1 is PSD, has trace one and is orthogonal to every B_k, so at
  a centred point <Z, X> = <Z, S + t I> = 8 mu + t on A. Off centre Z is
  only nearly orthogonal to L, so the certificate is
  W = P_{L⊥}(mu S^-1) + c I with c = max(0, -lambda_min(P_{L⊥}(mu S^-1)))
  (I lies in L⊥ because tr X = 0 on L). W is PSD and orthogonal to L. It
  faces the same check <W, x0> < -CERT_RTOL * max(1, ||W||_F) as the
  Dykstra certificate below; near the path it passes once t + 8 mu < 0.

Alternating projections (``dykstra_feasibility``, any target; the oracle
uses them for rank-deficient targets). The iteration is Dykstra's scheme
for one cone and one affine set, with the correction term attached to the
cone step (projections onto affine sets need no corrections). Both
answers carry a certificate:

- FEASIBLE: the PSD iterate y is returned as the witness once its
  explicit residuals (both marginals and swap symmetry) drop below tol.
- INFEASIBLE: a Hermitian W that is PSD, lies in L⊥ and has
  <W, x> < -CERT_RTOL * max(1, ||W||_F) at an affine point x. Since <W, X> is
  the same for every X in A (W is orthogonal to L) and is >= 0 for every
  PSD X, no PSD point of A exists. W is built from the gap
  g = y - P_A(y), which lies in L⊥ by construction; when the sets do not
  meet, Dykstra's iterates approach a closest pair, the gap tends to the
  minimal displacement d = y* - x*, and d is nonnegative on the face with
  <d, x*> = -||d||^2. Two terms lift g to a PSD matrix without leaving L⊥:
  the face penalty F = P_ker (x) I + swap(P_ker (x) I) (PSD, equal to
  2 sym(P_ker (x) I), with <F, X> = 2 tr(P_ker target) on A, zero for an
  exact kernel; its range is the span of the forbidden vectors, so t F
  dominates g off the face), and c I with c = max(0, -lambda_min(g + t F))
  (I = sym(I4 (x) I) and <I, X> = tr X = 1 on A). Hence W = g + t F + c I
  and <W, X> = <g, x> + c on A, up to the kernel cutoff's share
  2 t tr(P_ker target); the check evaluates <W, x> itself. The smallest
  weight t of a fixed ladder that verifies is used: at a huge t the bound
  CERT_RTOL * ||W||_F grows with t while c stops shrinking, so a larger t only
  rejects valid certificates. The certificate is tried at cycle 1 and
  every CERT_PERIOD cycles; rank-1 targets have an empty face and certify
  at cycle 1.
- INCONCLUSIVE: neither certificate within the iteration cap.

The analytic Choi-spectrum inequality is the authority; this oracle
cross-validates it with a verifiable certificate in both directions.

``SWAP_YYP`` is the swap as an explicit permutation matrix: the reference
that the tests check ``_swap`` and every witness against.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .channels import PAULI_BASIS, PAULIS, ChoiMatrix, I2
from .errors import InvalidDimension, NotPSD, NumericalFailure

#: Default residual tolerance for declaring feasibility.
ORACLE_TOL = 1e-7

#: Default iteration cap: Newton steps of the barrier method, projection
#: cycles of the alternating projections.
ORACLE_MAX_ITER = 20_000

#: Target eigenvalues below this (relative to trace) count as kernel
#: directions when computing the forced support face.
KERNEL_CUTOFF = 1e-12

#: The dual certificate is tried at cycle 1 and then every CERT_PERIOD
#: cycles. A try far from verifying stops on a necessary bound (one inner
#: product and at most one eigenvalue solve on the face); one that passes it
#: scans CERT_WEIGHTS at one 8x8 eigenvalue solve per weight.
CERT_PERIOD = 10

#: Face-penalty weights tried, smallest first, for W = g + t F + c I.
CERT_WEIGHTS = 10.0 ** np.arange(-2, 7)

#: A certificate must reach <W, x> < -CERT_RTOL * max(1, ||W||_F). The bound
#: only has to clear rounding (about 1e-15 * ||W||_F in W's PSD shift, in
#: its component along L and in x's distance from A). The residual
#: tolerance would be the wrong scale: the best reachable <W, x> is
#: -||d||^2 for the gap d, so a bound of 1e-7 would leave every target
#: with a gap below about 3e-4 undecided.
CERT_RTOL = 1e-10

#: Geometric-extrapolation restart schedule: every EXTRAP_PERIOD cycles the
#: linear convergence ratio is estimated from displacements over
#: EXTRAP_LAG cycles; if it is below EXTRAP_RHO_CAP the iterate is pushed
#: along its convergence direction by the geometric-series factor and the
#: correction term reset. Extrapolated iterates stay inside the affine
#: constraint set (affine combinations of affine-feasible points), so the
#: restart only relocates the search; verdicts still come exclusively from
#: certificates.
EXTRAP_PERIOD = 300
EXTRAP_LAG = 50
EXTRAP_RHO_CAP = 0.9999

#: Barrier path following: the start sets S = X - t I this far above singular,
#: a Newton decrement below BARRIER_CENTRED counts as centred (and takes a
#: full step), and each centred step divides mu by BARRIER_SHRINK.
BARRIER_START_GAP = 1.0 / 32.0
BARRIER_CENTRED = 1.0
BARRIER_SHRINK = 50.0

_SWAP4 = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=np.complex128
)
#: Swap of the Y and Y' factors of X (x) Y (x) Y'.
SWAP_YYP = np.kron(np.eye(2, dtype=np.complex128), _SWAP4)

_EYE8 = np.eye(8, dtype=np.complex128)
_I2_AXES = I2.reshape(1, 2, 1, 2)


class OracleStatus(str, enum.Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True, eq=False)
class ExtensionProblem:
    """Feasibility instance: find a symmetric extension of ``target``."""

    target: np.ndarray
    tol: float = ORACLE_TOL
    max_iter: int = ORACLE_MAX_ITER
    #: The support face every extension lives in, from the target's one
    #: eigendecomposition; None for a full-rank target. Derived, not settable.
    face: _Face | None = field(init=False, repr=False)

    def __post_init__(self):
        m = linalg.as_matrix(self.target)
        if m.shape != (4, 4):
            raise InvalidDimension(f"target must be 4x4, got {m.shape}")
        m = linalg.require_hermitian(m, "target")
        trace = float(np.trace(m).real)
        if abs(trace - 1.0) > 1e-10:
            raise InvalidDimension(f"target trace must be 1, got {trace!r}")
        w, v = _eigh(m)
        if w[0] < -self.tol:
            raise NotPSD("target is not PSD within tolerance")
        m.setflags(write=False)
        object.__setattr__(self, "target", m)
        kernel = v[:, w < KERNEL_CUTOFF * max(1.0, abs(trace))]
        object.__setattr__(self, "face", _support_face(kernel))


@dataclass(frozen=True, eq=False)
class OracleResult:
    status: OracleStatus
    witness: np.ndarray | None
    residual: float
    #: Newton steps of the barrier method or cycles of the alternating
    #: projections; INCONCLUSIVE only at ``max_iter``.
    iterations: int
    #: Per-cycle iterate displacements of the alternating projections;
    #: None for the barrier method.
    displacements: tuple | None = None
    #: For INFEASIBLE: the 8x8 PSD dual certificate W (see the module docstring).
    certificate: np.ndarray | None = None


def _swap(m: np.ndarray) -> np.ndarray:
    """``SWAP_YYP @ m @ SWAP_YYP`` as a permutation of tensor axes."""
    return m.reshape(2, 2, 2, 2, 2, 2).transpose(0, 2, 1, 3, 5, 4).reshape(8, 8)


def _tensor_eye(a: np.ndarray) -> np.ndarray:
    """``np.kron(a, I2)`` as a broadcast product."""
    rows, cols = a.shape
    return (a[:, None, :, None] * _I2_AXES).reshape(2 * rows, 2 * cols)


def _trace_last(m: np.ndarray) -> np.ndarray:
    """Partial trace over the last qubit factor (Y' of an 8x8, Y of a 4x4)."""
    n = m.shape[0] // 2
    t = m.reshape(n, 2, n, 2)
    return t[:, 0, :, 0] + t[:, 1, :, 1]


def _norm(m: np.ndarray) -> float:
    return float(np.sqrt(np.vdot(m, m).real))


def _eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh`` raising NumericalFailure; ``linalg._eigh``'s read-only
    ``HermitianEigen`` would cost microseconds per projection cycle."""
    try:
        return np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigendecomposition failed: {exc}") from exc


def _psd_part(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The PSD projection of the Hermitian matrix with eigenpairs (w, v)."""
    out = (v * np.maximum(w, 0.0)) @ linalg.dagger(v)
    return (out + linalg.dagger(out)) / 2.0


def project_psd(m: np.ndarray) -> np.ndarray:
    """Nearest PSD matrix in Frobenius norm: clamp negative eigenvalues."""
    return _psd_part(*_eigh((m + linalg.dagger(m)) / 2.0))


def project_marginal(m: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto {rho : tr_Y'(rho) = target}.

    The correction (target - tr_Y'(m)) (x) I/2 is tensored onto the Y'
    factor; the map is idempotent.
    """
    return m + _tensor_eye((target - _trace_last(m)) / 2.0)


def symmetrize_swap(m: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto the swap(Y, Y')-invariant subspace."""
    return (m + _swap(m)) / 2.0


def _project_affine(m: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Exact projection onto A = {swap-invariant} ∩ {tr_Y' = target}.

    For swap-invariant input the correction solving both constraints at
    once is sym((delta - tr_Y(delta) (x) I/4) (x) I); for general input
    the symmetrization is applied first.
    """
    x = symmetrize_swap(m)
    delta = target - _trace_last(x)
    w = delta - _tensor_eye(_trace_last(delta)) / 4.0
    return x + symmetrize_swap(_tensor_eye(w))


@dataclass(frozen=True, eq=False)
class _Face:
    """Support face of a rank-deficient target and its certificate penalty."""

    basis: np.ndarray  # 8 x k orthonormal columns; k = 0 for an empty face
    basis_h: np.ndarray  # basis^dag, computed once
    penalty: np.ndarray  # F = P_ker (x) I + swap(P_ker (x) I)


def _support_face(kernel: np.ndarray) -> _Face | None:
    """The face every extension must live in, from the target's kernel
    vectors (4 x k columns); None for a full-rank target (k = 0)."""
    if kernel.shape[1] == 0:
        return None
    lifted = _tensor_eye(kernel)  # columns phi (x) e_y'
    forbidden = np.stack([lifted, SWAP_YYP @ lifted], axis=-1).reshape(8, -1)
    q, sv, _ = np.linalg.svd(forbidden, full_matrices=True)
    basis = q[:, int(np.sum(sv > 1e-10)):]
    # sum of f f^dag over the forbidden vectors f: P_ker (x) I + swap(P_ker (x) I)
    penalty = forbidden @ linalg.dagger(forbidden)
    return _Face(basis, np.ascontiguousarray(linalg.dagger(basis)), penalty)


def _project_face_psd(m: np.ndarray, face: _Face | None) -> np.ndarray:
    """Projection onto the PSD cone, restricted to the support face."""
    if face is None:
        return project_psd(m)
    small = face.basis_h @ m @ face.basis
    small = (small + linalg.dagger(small)) / 2.0
    w, v = _eigh(small)
    w = np.maximum(w, 0.0)
    return face.basis @ ((v * w) @ linalg.dagger(v)) @ face.basis_h


def _residual(y: np.ndarray, target: np.ndarray) -> float:
    """Constraint residual of a PSD iterate: both marginals and swap symmetry."""
    sy = _swap(y)
    r1 = _norm(_trace_last(y) - target)
    r2 = _norm(_trace_last(sy) - target)
    r3 = _norm(y - sy)
    return max(r1, r2, r3)


def _lift(h: np.ndarray, x: np.ndarray) -> np.ndarray | None:
    """The PSD lift W = h + c I, c = max(0, -lambda_min(h)), when it verifies
    ``<W, x> < -CERT_RTOL * max(1, ||W||_F)``; else None."""
    w = h + max(0.0, -float(linalg._eigvalsh(h)[0])) * _EYE8
    if np.vdot(w, x).real < -CERT_RTOL * max(1.0, _norm(w)):
        return w
    return None


def _certificate(y: np.ndarray, x: np.ndarray, face: _Face | None) -> np.ndarray | None:
    """Dual certificate W = g + t F + c I from the gap g = y - x, or None.

    ``x`` is P_A(y). W is returned only when it is PSD (by construction of
    c) and ``<W, x> < -CERT_RTOL * max(1, ||W||_F)``; the smallest weight t
    of CERT_WEIGHTS that verifies is used (t = 0 at full rank, where F = 0).
    """
    g = y - x
    g = (g + linalg.dagger(g)) / 2.0
    # <W, x> = <g, x> + c up to the vanishing <F, x>, and F is zero on the
    # face, so no weight can push c below -lambda_min of g on the face
    bound = np.vdot(g, x).real
    if face is None:
        candidates = (g,)
    else:
        if face.basis.shape[1]:
            on_face = face.basis_h @ g @ face.basis
            bound += max(0.0, -float(linalg._eigvalsh(on_face)[0]))
        candidates = (g + t * face.penalty for t in CERT_WEIGHTS)
    if bound >= -CERT_RTOL:
        return None
    for h in candidates:
        w = _lift(h, x)
        if w is not None:
            return w
    return None


def dykstra_feasibility(problem: ExtensionProblem) -> OracleResult:
    """Run the alternating-projection search for a symmetric extension.

    Cycles the (face-restricted) PSD projection against the joint affine
    projection, starting from target (x) I/2, with periodic
    geometric-extrapolation restarts to defeat slow linear tails. Returns
    FEASIBLE with the PSD iterate as witness once all its residuals drop
    below ``problem.tol``. At cycle 1 and every CERT_PERIOD cycles it
    builds the dual certificate W = g + t F + c I from the gap
    g = y - P_A(y) (derivation in the module docstring) and returns
    INFEASIBLE, with W as ``certificate``, when W is PSD and
    <W, P_A(y)> < -CERT_RTOL * max(1, ||W||_F): W is orthogonal to the affine
    set's linear part, so <W, X> takes that negative value at every affine
    X, while it is nonnegative at every PSD X. Without either certificate
    the run ends INCONCLUSIVE at ``problem.max_iter``. Every result carries
    the per-cycle displacements ``||x_next - x||`` as ``displacements``.
    """
    target, face = problem.target, problem.face
    x = _tensor_eye(target / 2.0)
    correction = np.zeros((8, 8), dtype=np.complex128)
    displacements: list[float] = []
    residual = np.inf
    for it in range(1, problem.max_iter + 1):
        r = x - correction
        y = _project_face_psd(r, face)
        correction = y - r
        x_next = _project_affine(y, target)
        residual = _residual(y, target)
        if residual <= problem.tol:
            return OracleResult(OracleStatus.FEASIBLE, y, residual, it, tuple(displacements))
        w = _certificate(y, x_next, face) if it == 1 or it % CERT_PERIOD == 0 else None
        if w is not None:
            return OracleResult(OracleStatus.INFEASIBLE, None, residual, it, tuple(displacements), w)
        displacements.append(_norm(x_next - x))
        if it % EXTRAP_PERIOD == 0 and len(displacements) > EXTRAP_LAG:
            d_now = displacements[-1]
            d_then = displacements[-1 - EXTRAP_LAG]
            if 0.0 < d_now < d_then:
                rho = (d_now / d_then) ** (1.0 / EXTRAP_LAG)
                if rho <= EXTRAP_RHO_CAP:
                    x_next = x_next + (x_next - x) * (rho / (1.0 - rho))
                    correction = np.zeros((8, 8), dtype=np.complex128)
        x = x_next
    return OracleResult(
        OracleStatus.INCONCLUSIVE, None, residual, problem.max_iter, tuple(displacements)
    )


@functools.cache
def _extension_directions() -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis of L and the barrier's search directions, built once.

    L is Herm(X) (x) L_YY', where L_YY' is spanned by sym(P_i (x) P_j) for
    Pauli matrices P_i, P_j != I: swap invariance pairs the Pauli
    coefficients of Y and Y', and a zero Y' marginal removes every term
    with an identity factor (dimension 4 * 6 = 24). Returns ``(basis,
    directions)``: ``basis`` is a read-only (24, 128) real array whose rows
    are the real views of the orthonormal B_1..B_24 (orthonormal under
    Re tr(A^dag B)); ``directions`` is the (25, 8, 8) stack B_1..B_24, -I
    along which X(z) - t I moves.
    """
    pairs = [np.kron(p, q) + np.kron(q, p) for i, p in enumerate(PAULIS) for q in PAULIS[i:]]
    units = [np.kron(a, k) for a in PAULI_BASIS for k in pairs]
    stack = np.stack([u / _norm(u) for u in units])
    basis = stack.view(np.float64).reshape(len(units), 128)
    directions = np.concatenate([stack, -_EYE8[None]])
    basis.setflags(write=False)
    directions.setflags(write=False)
    return basis, directions


def barrier_feasibility(problem: ExtensionProblem) -> OracleResult:
    """Log-det barrier path-following search for a symmetric extension.

    Maximizes t subject to X(z) - t I being positive definite over the
    affine set A = {X(z) = x0 + sum_k z_k B_k}, with x0 = P_A(target (x) I/2)
    and B an orthonormal basis of L. Each iteration is one (possibly
    damped) Newton step on -t/mu - log det(X - t I), and ``iterations``
    counts these steps; mu is divided by BARRIER_SHRINK after every step
    taken from a centred point. The start point and every iterate are
    checked for both proofs, so a target whose x0 is already positive
    definite returns x0 after 0 steps:

    - FEASIBLE: X itself once it is positive definite, or its PSD
      projection once that projection's residual is at most ``tol``.
    - INFEASIBLE: W = P_{L^perp}(mu S^-1) + c I, with S = X - t I and c
      lifting W to PSD, once <W, x0> < -CERT_RTOL * max(1, ||W||_F).

    A run with neither proof ends INCONCLUSIVE at ``problem.max_iter``
    steps, with the residual of the last iterate's PSD projection.
    """
    target = problem.target
    x0 = _project_affine(_tensor_eye(target / 2.0), target)
    x0 = (x0 + linalg.dagger(x0)) / 2.0
    x = x0
    w, v = _eigh(x)
    # S = X - t I starts BARRIER_START_GAP above singular; mu zeroes the t-gradient
    t = float(w[0]) - BARRIER_START_GAP
    w = w - t
    mu = 1.0 / float(np.sum(1.0 / w))
    basis, directions = _extension_directions()
    for it in range(problem.max_iter + 1):
        lam_x = w + t  # the spectrum of X
        # the projection adds a PSD N to X with ||tr_Y'(N)|| >= tr(N) / 2
        # >= -lam_x[0] / 2, so a larger negative eigenvalue cannot pass
        if lam_x[0] >= -2.0 * problem.tol:
            y = x if lam_x[0] > 0.0 else _psd_part(lam_x, v)
            residual = _residual(y, target)
            if residual <= problem.tol:
                return OracleResult(OracleStatus.FEASIBLE, y, residual, it)
        s_inv = (v / w) @ linalg.dagger(v)
        coords = basis @ s_inv.view(np.float64).ravel()  # <B_k, S^-1>
        dual = mu * (s_inv - (coords @ basis).view(np.complex128).reshape(8, 8))
        dual = (dual + linalg.dagger(dual)) / 2.0
        if np.vdot(dual, x0).real < -CERT_RTOL:
            cert = _lift(dual, x0)
            if cert is not None:
                residual = _residual(_psd_part(lam_x, v), target)
                return OracleResult(OracleStatus.INFEASIBLE, None, residual, it, certificate=cert)
        if it == problem.max_iter:
            break
        # Newton step on f = -t / mu - log det S over (z, t), S moving along
        # A_k = B_1..B_24, -I: grad_k = -tr(S^-1 A_k) (-1/mu more for t) and
        # hess_kl = tr(F_k F_l) with F_k = A_k S^-1
        n = len(directions)
        f = (directions.reshape(n * 8, 8) @ s_inv).reshape(n, 8, 8)
        hess = (f.reshape(n, 64) @ f.transpose(0, 2, 1).reshape(n, 64).T).real
        grad = np.append(-coords, np.sum(1.0 / w) - 1.0 / mu)
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure(f"Newton system failed: {exc}") from exc
        decrement = float(np.sqrt(max(0.0, -grad @ step)))
        if not np.isfinite(decrement):
            raise NumericalFailure("Newton step is not finite")
        # a step inside the Dikin ellipsoid (decrement < 1) keeps S positive
        # definite; the halving only absorbs rounding
        alpha = 1.0 if decrement < BARRIER_CENTRED else 1.0 / (1.0 + decrement)
        dx = (step[:-1] @ basis).view(np.complex128).reshape(8, 8)
        dx = (dx + linalg.dagger(dx)) / 2.0
        for _ in range(64):
            w_new, v_new = _eigh(x + alpha * dx - (t + alpha * step[-1]) * _EYE8)
            if w_new[0] > 0.0:
                break
            alpha /= 2.0
        else:
            raise NumericalFailure("barrier step left the cone")
        x, t, w, v = x + alpha * dx, t + alpha * step[-1], w_new, v_new
        if decrement < BARRIER_CENTRED:
            mu /= BARRIER_SHRINK
    residual = _residual(_psd_part(w + t, v), target)
    return OracleResult(OracleStatus.INCONCLUSIVE, None, residual, problem.max_iter)


def oracle_extendible(
    c: ChoiMatrix, tol: float = ORACLE_TOL, max_iter: int = ORACLE_MAX_ITER
) -> OracleResult:
    """Decide symmetric extendibility of a Choi matrix (normalized to c/2).

    Full-rank targets go to ``barrier_feasibility``; rank-deficient ones to
    the face-restricted ``dykstra_feasibility``.
    """
    problem = ExtensionProblem(target=c.matrix / 2.0, tol=tol, max_iter=max_iter)
    if problem.face is None:
        return barrier_feasibility(problem)
    return dykstra_feasibility(problem)
