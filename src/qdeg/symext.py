"""Alternating-projection oracle for two-qubit symmetric extendibility.

Given a two-qubit state on X (x) Y (here: a Choi matrix normalized to
trace one), the oracle searches for an 8x8 extension on X (x) Y (x) Y'
that is PSD, swap(Y, Y')-invariant and reproduces the target as its Y'
marginal. Two loss-free reductions shape the search:

- If any symmetric extension exists, averaging it with its swap image
  gives one in the swap-invariant slice, so the search is restricted to
  swap-invariant candidates. The affine step projects onto the
  *intersection* of the swap-invariant subspace and the marginal
  constraint in closed form (the plain composition of the two affine
  projections is not itself a projection, which would void Dykstra's
  guarantees).
- A kernel vector phi of the target forces rho (|phi> (x) |y'>) = 0 for
  any PSD extension (the marginal pins a zero diagonal block, and a PSD
  matrix with a zero diagonal entry has a zero row). Together with swap
  symmetry this confines extensions of rank-deficient targets to a known
  face of the PSD cone; projecting onto that face instead of the full
  cone removes the tangential geometry that otherwise makes the
  iteration sublinear.

The iteration is Dykstra's scheme for one cone and one affine set, with
the correction term attached to the cone step (projections onto affine
sets need no corrections). Feasibility is certified by explicit
residuals on the returned witness. Infeasibility is heuristic: reported
when the per-cycle displacement or the residual stalls while the
residual stays an order of magnitude above tolerance. The analytic
Choi-spectrum inequality is the authority; this oracle cross-validates
it and offers one-sided confidence only.
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

#: Cycle lag and relative change threshold of the stall detector. The
#: thresholds are deliberately strict: a slowly converging feasible
#: instance shrinks its residual by well over STALL_RTOL per STALL_LAG
#: cycles, while a genuinely infeasible one locks onto its positive gap
#: to near machine flatness.
STALL_LAG = 200
STALL_RTOL = 1e-4

#: Target eigenvalues below this (relative to trace) count as kernel
#: directions when computing the forced support face.
KERNEL_CUTOFF = 1e-12

#: Geometric-extrapolation restart schedule: every EXTRAP_PERIOD cycles the
#: linear convergence ratio is estimated from displacements over
#: EXTRAP_LAG cycles; if it is below EXTRAP_RHO_CAP the iterate is pushed
#: along its convergence direction by the geometric-series factor and the
#: correction term reset. Extrapolated iterates stay inside the affine
#: constraint set (affine combinations of affine-feasible points), so the
#: restart only relocates the search; verdicts still come exclusively from
#: certified residuals and stall detection, which is suspended for
#: EXTRAP_GUARD cycles after each restart.
EXTRAP_PERIOD = 300
EXTRAP_LAG = 50
EXTRAP_RHO_CAP = 0.9999
EXTRAP_GUARD = 250

_SWAP4 = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=np.complex128
)
#: Swap of the Y and Y' factors of X (x) Y (x) Y'.
SWAP_YYP = np.kron(np.eye(2, dtype=np.complex128), _SWAP4)


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


def project_psd(m: np.ndarray) -> np.ndarray:
    """Nearest PSD matrix in Frobenius norm: clamp negative eigenvalues."""
    m = (m + linalg.dagger(m)) / 2.0
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigendecomposition failed: {exc}") from exc
    w = np.clip(w, 0.0, None)
    out = (v * w) @ linalg.dagger(v)
    return (out + linalg.dagger(out)) / 2.0


def project_marginal(m: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto {rho : tr_Y'(rho) = target}.

    The correction (target - tr_Y'(m)) (x) I/2 is tensored onto the Y'
    factor; the map is idempotent.
    """
    delta = target - linalg.partial_trace(m, 4, 2, traced=1)
    return m + np.kron(delta, I2 / 2.0)


def symmetrize_swap(m: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto the swap(Y, Y')-invariant subspace."""
    return (m + SWAP_YYP @ m @ SWAP_YYP) / 2.0


def _tr_yprime(m: np.ndarray) -> np.ndarray:
    return np.einsum("aibi->ab", m.reshape(4, 2, 4, 2))


def _project_affine(m: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Exact projection onto {swap-invariant} ∩ {tr_Y' = target}.

    For swap-invariant input the correction solving both constraints at
    once is sym((delta - tr_Y(delta) (x) I/4) (x) I); for general input
    the symmetrization is applied first.
    """
    x = symmetrize_swap(m)
    delta = target - _tr_yprime(x)
    w = delta - np.kron(np.einsum("aibi->ab", delta.reshape(2, 2, 2, 2)), I2) / 4.0
    return x + symmetrize_swap(np.kron(w, I2))


def _support_face(target: np.ndarray) -> np.ndarray | None:
    """Orthonormal basis of the face every extension must live in.

    Returns None when the target is full rank (no restriction).
    """
    w, v = np.linalg.eigh(target)
    forbidden = []
    scale = max(1.0, abs(float(np.trace(target).real)))
    for lam, phi in zip(w, v.T):
        if lam < KERNEL_CUTOFF * scale:
            for yp in range(2):
                e = np.zeros(2, dtype=np.complex128)
                e[yp] = 1.0
                f = np.kron(phi, e)
                forbidden.append(f)
                forbidden.append(SWAP_YYP @ f)
    if not forbidden:
        return None
    q, sv, _ = np.linalg.svd(np.array(forbidden).T, full_matrices=True)
    rank = int(np.sum(sv > 1e-10))
    return q[:, rank:]


def _project_face_psd(m: np.ndarray, face: np.ndarray | None) -> np.ndarray:
    """Projection onto the PSD cone, restricted to the support face."""
    if face is None:
        return project_psd(m)
    small = linalg.dagger(face) @ m @ face
    small = (small + linalg.dagger(small)) / 2.0
    try:
        w, v = np.linalg.eigh(small)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigendecomposition failed: {exc}") from exc
    w = np.clip(w, 0.0, None)
    return face @ ((v * w) @ linalg.dagger(v)) @ linalg.dagger(face)


def _residual(y: np.ndarray, target: np.ndarray) -> float:
    """Constraint residual of a PSD iterate: both marginals and swap symmetry."""
    sy = SWAP_YYP @ y @ SWAP_YYP
    r1 = linalg.frobenius(_tr_yprime(y) - target)
    r2 = linalg.frobenius(_tr_yprime(sy) - target)
    r3 = linalg.frobenius(y - sy)
    return max(r1, r2, r3)


def dykstra_feasibility(
    problem: ExtensionProblem, record_displacements: bool = False
) -> OracleResult:
    """Run the alternating-projection search for a symmetric extension.

    Cycles the (face-restricted) PSD projection against the joint affine
    projection, starting from target (x) I/2, with periodic
    geometric-extrapolation restarts to defeat slow linear tails. Returns
    Feasible with a verified witness once all residuals drop below
    ``problem.tol``; Infeasible when the per-cycle displacement or the
    residual has stabilized (relative change below STALL_RTOL over
    STALL_LAG cycles) while the residual stays at or above ``10 * tol``;
    Inconclusive at the iteration cap.
    """
    target = problem.target
    face = _support_face(target)
    x = np.kron(target, I2 / 2.0)
    correction = np.zeros((8, 8), dtype=np.complex128)
    displacements: list[float] = []
    residuals: list[float] = []
    residual = np.inf
    guard = 0
    for it in range(1, problem.max_iter + 1):
        r = x - correction
        y = _project_face_psd(r, face)
        correction = y - r
        x_next = _project_affine(y, target)
        residual = _residual(y, target)
        if residual <= problem.tol:
            return OracleResult(
                status=OracleStatus.FEASIBLE,
                witness=y,
                residual=residual,
                iterations=it,
                displacements=tuple(displacements) if record_displacements else None,
            )
        residuals.append(residual)
        displacements.append(linalg.frobenius(x_next - x))
        if guard > 0:
            guard -= 1
        elif it > STALL_LAG and residual >= 10.0 * problem.tol:
            d_now = displacements[-1]
            d_then = displacements[-1 - STALL_LAG]
            r_now = residuals[-1]
            r_then = residuals[-1 - STALL_LAG]
            d_stalled = abs(d_now - d_then) < STALL_RTOL * max(d_then, 1e-300)
            r_stalled = abs(r_now - r_then) < STALL_RTOL * max(r_then, 1e-300)
            if d_stalled or r_stalled:
                return OracleResult(
                    status=OracleStatus.INFEASIBLE,
                    witness=None,
                    residual=residual,
                    iterations=it,
                    displacements=tuple(displacements) if record_displacements else None,
                )
        if it % EXTRAP_PERIOD == 0 and len(displacements) > EXTRAP_LAG:
            d_now = displacements[-1]
            d_then = displacements[-1 - EXTRAP_LAG]
            if 0.0 < d_now < d_then:
                rho = (d_now / d_then) ** (1.0 / EXTRAP_LAG)
                if rho <= EXTRAP_RHO_CAP:
                    x_next = x_next + (x_next - x) * (rho / (1.0 - rho))
                    correction = np.zeros((8, 8), dtype=np.complex128)
                    guard = EXTRAP_GUARD
        x = x_next
    return OracleResult(
        status=OracleStatus.INCONCLUSIVE,
        witness=None,
        residual=residual,
        iterations=problem.max_iter,
        displacements=tuple(displacements) if record_displacements else None,
    )


def oracle_extendible(
    c: ChoiMatrix, tol: float = ORACLE_TOL, max_iter: int = ORACLE_MAX_ITER
) -> OracleResult:
    """Decide symmetric extendibility of a Choi matrix (normalized to c/2)."""
    return dykstra_feasibility(
        ExtensionProblem(target=c.matrix / 2.0, tol=tol, max_iter=max_iter)
    )
