"""Alternating-projection oracle for two-qubit symmetric extendibility.

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

The iteration is Dykstra's scheme for one cone and one affine set, with
the correction term attached to the cone step (projections onto affine
sets need no corrections). Both answers carry a certificate:

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

The swap, the Y' partial trace and the ``A (x) I`` lifts are reshapes and
broadcasts (no ``kron`` and no permutation matmuls), and norms are
``sqrt(vdot)``; ``SWAP_YYP`` remains as the explicit permutation matrix.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import linalg
from .channels import ChoiMatrix, I2
from .errors import InvalidDimension, NotPSD, NumericalFailure

#: Default residual tolerance for declaring feasibility.
ORACLE_TOL = 1e-7

#: Default iteration cap.
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

    def __post_init__(self):
        m = linalg.as_matrix(self.target)
        if m.shape != (4, 4):
            raise InvalidDimension(f"target must be 4x4, got {m.shape}")
        m = linalg.require_hermitian(m, "target")
        if abs(np.trace(m).real - 1.0) > 1e-10:
            raise InvalidDimension(f"target trace must be 1, got {np.trace(m).real!r}")
        if np.linalg.eigvalsh(m)[0] < -self.tol:
            raise NotPSD("target is not PSD within tolerance")
        m.setflags(write=False)
        object.__setattr__(self, "target", m)


@dataclass(frozen=True, eq=False)
class OracleResult:
    status: OracleStatus
    witness: np.ndarray | None
    residual: float
    iterations: int
    #: Per-cycle iterate displacements, kept when record_displacements is set.
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


def project_psd(m: np.ndarray) -> np.ndarray:
    """Nearest PSD matrix in Frobenius norm: clamp negative eigenvalues."""
    m = (m + linalg.dagger(m)) / 2.0
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigendecomposition failed: {exc}") from exc
    w = np.maximum(w, 0.0)
    out = (v * w) @ linalg.dagger(v)
    return (out + linalg.dagger(out)) / 2.0


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


def _support_face(target: np.ndarray) -> _Face | None:
    """The face every extension must live in; None for a full-rank target."""
    w, v = np.linalg.eigh(target)
    scale = max(1.0, abs(float(np.trace(target).real)))
    kernel = v[:, w < KERNEL_CUTOFF * scale]
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
    try:
        w, v = np.linalg.eigh(small)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigendecomposition failed: {exc}") from exc
    w = np.maximum(w, 0.0)
    return face.basis @ ((v * w) @ linalg.dagger(v)) @ face.basis_h


def _residual(y: np.ndarray, target: np.ndarray) -> float:
    """Constraint residual of a PSD iterate: both marginals and swap symmetry."""
    sy = _swap(y)
    r1 = _norm(_trace_last(y) - target)
    r2 = _norm(_trace_last(sy) - target)
    r3 = _norm(y - sy)
    return max(r1, r2, r3)


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
        w = h + max(0.0, -float(linalg._eigvalsh(h)[0])) * _EYE8
        if np.vdot(w, x).real < -CERT_RTOL * max(1.0, _norm(w)):
            return w
    return None


def dykstra_feasibility(
    problem: ExtensionProblem, record_displacements: bool = False
) -> OracleResult:
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
    the run ends INCONCLUSIVE at ``problem.max_iter``.
    """
    target = problem.target
    face = _support_face(target)
    x = _tensor_eye(target / 2.0)
    correction = np.zeros((8, 8), dtype=np.complex128)
    displacements: list[float] = []
    residual = np.inf

    def result(status, iterations, witness=None, certificate=None):
        return OracleResult(
            status=status,
            witness=witness,
            residual=residual,
            iterations=iterations,
            displacements=tuple(displacements) if record_displacements else None,
            certificate=certificate,
        )

    for it in range(1, problem.max_iter + 1):
        r = x - correction
        y = _project_face_psd(r, face)
        correction = y - r
        x_next = _project_affine(y, target)
        residual = _residual(y, target)
        if residual <= problem.tol:
            return result(OracleStatus.FEASIBLE, it, witness=y)
        if it == 1 or it % CERT_PERIOD == 0:
            w = _certificate(y, x_next, face)
            if w is not None:
                return result(OracleStatus.INFEASIBLE, it, certificate=w)
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
    return result(OracleStatus.INCONCLUSIVE, problem.max_iter)


def oracle_extendible(
    c: ChoiMatrix, tol: float = ORACLE_TOL, max_iter: int = ORACLE_MAX_ITER
) -> OracleResult:
    """Decide symmetric extendibility of a Choi matrix (normalized to c/2)."""
    return dykstra_feasibility(
        ExtensionProblem(target=c.matrix / 2.0, tol=tol, max_iter=max_iter)
    )
