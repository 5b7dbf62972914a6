"""Symmetric-extension oracle for two-qubit targets: one solver, two proofs.

Given a two-qubit state on X (x) Y (here: a Choi matrix normalized to
trace one), the oracle searches for an 8x8 extension on X (x) Y (x) Y'
that is PSD, swap(Y, Y')-invariant and reproduces the target as its Y'
marginal. If any symmetric extension exists, averaging it with its swap
image gives one in the swap-invariant slice, so the search is restricted
to the affine set A = {swap-invariant} ∩ {tr_Y' = target}. Its linear
part is L = {swap-invariant} ∩ {tr_Y' = 0}, of dimension 24; L's
orthogonal complement holds the swap-antisymmetric matrices and every
sym(B (x) I), because <sym(B (x) I), X> = <B, tr_Y'(X)> = 0 on L.

A target has one PSD gate: it is refused when its minimum eigenvalue is
below -tol (``_require_psd``), the ``tol`` of a problem being the
witness-residual tolerance (``qdeg oracle --oracle-tol``).
``ExtensionProblem`` reads that eigenvalue from the target's spectrum. A
Choi matrix C is gated once. ``oracle_extendible`` applies the CP gate at
``channels.DEFAULT_TOL``, and ``qdeg oracle`` at ``--tol``; both then
hand C to ``_gated_oracle`` with the Choi rank at
``channels.DEFAULT_TOL``, which builds the problem C/2 without checking
the matrix again (``_gated_problem``, whose -tol gate reads the CP gate's
cached spectrum) and hands the gate's eigenvectors to
``qdeg._barrier.decide``. ``barrier_feasibility`` takes any checked
``ExtensionProblem`` and eigendecomposes its target itself. All run one
log-det barrier method. On a search space with orthonormal free
directions B_1..B_m, the extensions are X(z) = x0 + sum_k z_k B_k, with
x0 the least-norm point of A, and the method maximizes t subject to
S = X(z) - t I > 0 by Newton steps on -t/mu - log det S, dividing mu as
the iterates centre. Both answers carry a certificate:

- FEASIBLE: X(z) if positive definite, else its PSD projection if
  lambda_min(X) >= -2 tol (this decides targets whose optimal t is zero
  or a rounding-level negative), once that witness's residual is below
  tol.
- INFEASIBLE: the stationarity conditions of the barrier say that
  Z = mu S^-1 is PSD, has trace one and is orthogonal to every B_k, so at
  a centred point <Z, X> = <Z, S + t I> = 8 mu + t on A. Off centre Z is
  only nearly orthogonal to L, so the certificate is
  W = P_{L⊥}(mu S^-1) + c I with c = max(0, -lambda_min(P_{L⊥}(mu S^-1)))
  (I lies in L⊥ because tr X = 0 on L). W is PSD and orthogonal to L, so
  <W, X> takes one value on A, and it is >= 0 at every PSD X; the check
  <W, x0> < -CERT_RTOL * max(1, ||W||_F) therefore proves that no PSD
  point of A exists. Near the path it passes once t + 8 mu < 0.
- INCONCLUSIVE: neither proof within the step cap.

The method decides targets of every rank, but rank-deficient ones slowly
in the full space. For every u in the kernel of the target,
W_u = sym(u u^dag (x) I) is PSD, lies in L⊥ and has
<W_u, X> = u^dag target u = 0 on A: it exposes a face. Every PSD point of
A is orthogonal to every W_u, so its range lies in
V = ker(sum_u W_u) = (R (x) C^2) ∩ swap(R (x) C^2), R the range of the
target. Below rank 4 no point of A is positive definite, so Slater's
condition fails: the best t is 0 when the target is extendible, reached
only from below (24-34 Newton steps at ranks 2 and 3) through the PSD
projection branch above. When it is not, the best t is strictly negative
(tr X = 1 on A keeps the points with lambda_min near 0 in a compact set,
whose limit would be a PSD point of A), and the certificate applies.

Facial reduction (J. M. Borwein and H. Wolkowicz, J. Austral. Math.
Soc. 30, 1981) removes that degeneracy at ranks 2 and 3. V is
swap-invariant, so it splits into a swap-symmetric and an antisymmetric
part, and every swap-invariant X supported on V is Q Y Q^dag, with Q an
orthonormal basis of V adapted to the split and Y block-diagonal. On the
face, A is the set of such Y with tr_Y'(Q Y Q^dag) = target, and the
barrier runs on Y; its witness is lifted to 8x8 as Q Y Q^dag (and in the
full space, where Q is unitary, its certificate as Q W Q^dag). One
builder, ``qdeg._barrier._face``, makes every search space, and the
barrier has one contract on all of them: it searches a face from the
face's least-norm point and answers with a witness, a certificate in the
face's own coordinates, or INCONCLUSIVE at the step cap. The
full space is the face of a full-rank target: R = C^4 with the basis I,
V = C^8, Q the unitary that splits C^8 into its 6 swap-symmetric and 2
antisymmetric directions, and 24 free directions spanning L. That
geometry is the same for every target, so it is built once, on first use,
and a target adds only its x0, which is P_A(target (x) I/2) since
target (x) I/2 lies in L⊥. For a generic target dim V = 2 rank - 2 below
rank 4: at rank 2 the face's A is one point, a witness when it is PSD,
after 0 Newton steps; at rank 3 the barrier runs on 4x4 matrices Y. A
face witness is accepted by the residual rule above.

A face that holds no extension is certified on the face, by a PSD W_Y
orthogonal to the face's linear part and negative at its start point y0:
at rank 2, where y0 is the only point, W_Y = v v^dag for the eigenvector
v of a negative eigenvalue of y0; at rank 3, the certificate above, built
on the face, after as many Newton steps as it takes. The lifting step of
facial reduction (D. Drusvyatskiy and H. Wolkowicz, "The many faces of
degeneracy in conic optimization", Found. Trends Optim. 3, 2017) turns
W_Y into an 8x8 certificate. W_Y lies in the row space of the face's
constraint map, W_Y = a^T eta, and eta, read as a Hermitian y on R, gives
B = R y R^dag with <sym(B (x) I), Q Y Q^dag> = <W_Y, Y>. With P the
projector onto the target's kernel,
W = sym(B (x) I) + eps I + tau sym(P (x) I) lies in L⊥, equals
W_Y + eps I on V and takes the value <W_Y, y0> + eps + tau u^dag target u
(summed over the kernel vectors u) on A. eps = -<W_Y, y0> / 2 makes that
value negative, and sym(P (x) I), positive definite on V⊥, makes W PSD
from the least tau that the Schur complement of V gives. W is accepted
only by the rule above, <W, x0> < -CERT_RTOL * max(1, ||W||_F). Near the
boundary it fails that rule: tau grows like 1 / eps, so |<W, x0>| / ||W||_F
falls with the square of the margin (about 2e-11 at margin -2e-5 for
``channels.rank2``). The full space then decides, as it
does at ranks 1 and 4, when V = {0}, when A misses the face and when the
face run reaches the step cap; its steps count after the face's.

R is spanned by the eigenvectors above the Choi-rank cutoff of
``channels.rank_and_cp``. So a target whose smallest eigenvalue lies in
[-tol, 0) is searched on the face of its PSD part, and answered FEASIBLE
when that face holds an extension whose residual against the given target
is at most tol, although sym(u u^dag (x) I) proves that the target itself
has none.

The analytic Choi-spectrum inequality is the authority; this oracle
cross-validates it with a verifiable certificate in both directions.
"""

from __future__ import annotations

import enum
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from . import linalg
from .channels import ChoiMatrix, choi_rank, rank_and_cp, to_choi
from .errors import InvalidDimension, InvalidParameter, NotPSD

#: Default residual tolerance for declaring feasibility.
ORACLE_TOL = 1e-7

#: Default iteration cap, in Newton steps.
ORACLE_MAX_ITER = 20_000

#: A certificate must reach <W, x0> < -CERT_RTOL * max(1, ||W||_F). The
#: bound only has to clear rounding (about 1e-15 * ||W||_F in W's PSD
#: shift, in its component along L and in x0's distance from A). The
#: residual tolerance would be the wrong scale: near the path <W, x0> is
#: about t + 8 mu, which shrinks with the target's distance from the
#: extendible set, so a bound of 1e-7 would leave near-boundary targets
#: undecided.
CERT_RTOL = 1e-10


class OracleStatus(str, enum.Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    INCONCLUSIVE = "inconclusive"


def _check_parameters(tol, max_iter) -> None:
    # the CLI's rules; a bool is Integral, but no step count. A NaN fails
    # both comparisons, and so does an integer past the float range.
    if not (isinstance(tol, numbers.Real) and 0 < tol <= sys.float_info.max):
        raise InvalidParameter(f"tol must be a finite number > 0, got {tol!r}")
    if isinstance(max_iter, bool) or not isinstance(max_iter, numbers.Integral) or max_iter < 1:
        raise InvalidParameter(f"max_iter must be an integer >= 1, got {max_iter!r}")


def _require_psd(m: np.ndarray, tol: float) -> None:
    """Raise :class:`NotPSD` when the minimum eigenvalue of ``m`` is below ``-tol``."""
    lam_min = float(linalg._eigvalsh(m)[0])
    if lam_min < -tol:
        raise NotPSD(f"target is not PSD: minimum eigenvalue {lam_min!r} is below -tol = {-tol!r}")


@dataclass(frozen=True, eq=False)
class ExtensionProblem:
    """Feasibility instance: find a symmetric extension of ``target``.
    ``tol`` must be finite and > 0 and ``max_iter`` an integer >= 1."""

    target: np.ndarray
    tol: float = ORACLE_TOL
    max_iter: int = ORACLE_MAX_ITER

    def __post_init__(self):
        _check_parameters(self.tol, self.max_iter)
        m = linalg.as_matrix(self.target)
        if m.shape != (4, 4):
            raise InvalidDimension(f"target must be 4x4, got {m.shape}")
        m = linalg.require_hermitian(m, "target")
        trace = float(np.trace(m).real)
        if abs(trace - 1.0) > 1e-10:
            raise InvalidDimension(f"target trace must be 1, got {trace!r}")
        # The oracle's own gate: `qdeg oracle --tol` can pass a channel the
        # default CP gate refuses. Below -tol no PSD extension has its
        # marginal within tol of the target, so no witness can pass; a target
        # with eigenvalues in [-tol, 0) is searched on the face of its PSD
        # part (see the module docstring). The gate does real work: when the
        # PSD part of a target below it is extendible, the face holds PSD
        # points but no witness within tol, so the face barrier runs to the
        # step cap. With the gate removed, 1400 targets (a Haar eigenbasis,
        # one eigenvalue from -1.01e-7 to -0.5, three Dirichlet(1, 1, 1)
        # weights) ended 987 INCONCLUSIVE at a 2000-step cap, 59 raised
        # NumericalFailure and 354 were certified infeasible.
        _require_psd(m, self.tol)
        m.setflags(write=False)
        object.__setattr__(self, "target", m)


def _gated_problem(c: ChoiMatrix, tol, max_iter) -> ExtensionProblem:
    """``ExtensionProblem(C/2, tol, max_iter)`` for a Choi matrix C that
    passed a CP gate, checked once: ``ChoiMatrix`` made C exactly
    Hermitian with its trace within sqrt(2) ``channels.TP_TOL`` of 2, so of
    the class's checks those of the parameters are left. The -tol gate
    accepts from the minimum eigenvalue of C's cached spectrum; a target
    below it is refused by the rule of ``ExtensionProblem``, which names
    the minimum eigenvalue of C/2 itself.
    """
    _check_parameters(tol, max_iter)
    target = c.matrix / 2.0
    if float(c.eigen.eigenvalues[0]) / 2.0 < -tol:
        _require_psd(target, tol)
    target.setflags(write=False)
    problem = object.__new__(ExtensionProblem)
    vars(problem).update(target=target, tol=tol, max_iter=max_iter)
    return problem


def _gated_oracle(c: ChoiMatrix, rank: int, tol, max_iter) -> OracleResult:
    """The barrier method on C/2 for a Choi matrix C that passed a CP gate,
    routed by its Choi rank ``rank`` at ``channels.DEFAULT_TOL`` and searched
    on the face that C's cached eigenvectors span: the target is neither
    checked nor eigendecomposed again (see ``_gated_problem``)."""
    from ._barrier import decide  # compiled on first use, not by `import qdeg`

    return decide(_gated_problem(c, tol, max_iter), c.eigen.eigenvectors, rank)


@dataclass(frozen=True, eq=False)
class OracleResult:
    status: OracleStatus
    witness: np.ndarray | None
    residual: float
    #: Newton steps of the barrier method, on the target's face and in the
    #: full space together, 0 when a start point decides; INCONCLUSIVE only
    #: at ``max_iter``.
    iterations: int
    #: For INFEASIBLE: the 8x8 PSD dual certificate W (see the module docstring).
    certificate: np.ndarray | None = None


def barrier_feasibility(problem: ExtensionProblem) -> OracleResult:
    """Search for a symmetric extension of ``problem.target`` with the
    log-det barrier method of the module docstring.

    The target is eigendecomposed once, and its Choi rank
    (``channels.rank_and_cp``) routes it: ranks 2 and 3 are searched on
    their face first. ``iterations`` counts the Newton steps of both
    spaces. The answer is FEASIBLE with an 8x8 witness whose residual is
    at most ``problem.tol``, INFEASIBLE with an 8x8 PSD certificate W with
    <W, x0> < -CERT_RTOL * max(1, ||W||_F), or INCONCLUSIVE at
    ``problem.max_iter`` steps, with the residual of the last iterate's PSD
    projection.
    """
    from ._barrier import decide  # compiled on first use, not by `import qdeg`

    w, v = linalg._eigh(problem.target)
    return decide(problem, v, int(rank_and_cp(w)[0]))


def oracle_extendible(channel, tol: float = ORACLE_TOL, max_iter: int = ORACLE_MAX_ITER) -> OracleResult:
    """Decide symmetric extendibility of a channel's Choi matrix c, in any
    representation (normalized to c/2), with the barrier method of
    ``barrier_feasibility``, at every Choi rank. The CP gate's spectrum
    gives the route, the face and the oracle's -tol gate, so the target
    is neither eigendecomposed nor checked again.

    Raises :class:`~qdeg.errors.NotAChannel` when ``c`` fails the CP gate
    (:func:`~qdeg.channels.choi_rank`), as every other entry point does.
    """
    c = to_choi(channel)
    return _gated_oracle(c, choi_rank(c), tol, max_iter)
