"""Single-qubit channel representations and conversions between them.

It holds the four representations, the named constructors, the
conversions through the Choi matrix with their unchecked ``(..., 4, 4)``
stack builders, the complement, and the CP gate.

Conventions used consistently across the package:

- ``vec`` is column-stacking, so the Choi matrix of a channel with Kraus
  operators ``{K_i}`` is ``C = sum_i vec(K_i) vec(K_i)^dag``.
- The Choi matrix lives on input (x) output; the *first* tensor factor is
  the channel input. Combined with column-stacking this gives
  ``tr_input(C) = Phi(I)`` and ``tr_output(C) = I`` for trace-preserving
  maps, and the channel acts as ``Phi(X) = tr_input(C (X^T (x) I))``.
  Both orderings circulate in the literature; everything here assumes
  this one.
- A complementary channel is only defined up to an isometry on the
  environment. The construction below fixes the environment basis by
  Kraus order, so complements are compared only through quantities that
  every environment basis agrees on.
- "Is C completely positive, and what is its rank?" has one answer,
  :func:`rank_and_cp` on the Choi spectrum; every entry point applies it
  and raises the one error of :func:`not_a_channel` when C fails it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .errors import InvalidDimension, InvalidParameter, NotAChannel, NotTracePreserving

I2 = np.eye(2, dtype=np.complex128)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)
#: (I, X, Y, Z) as one (4, 2, 2) array.
PAULI_BASIS = np.array((I2,) + PAULIS)

#: Pauli-basis conversions in one constant: the channel with transfer matrix
#: R = (1, 0; t, T), R[q, p] = tr(P_q Phi(P_p)) / 2, has the Choi matrix
#: C = 1/2 sum_{p,q} R[q, p] P_p^T (x) P_q; row 4q + p holds P_p^T (x) P_q,
#: and the rows are orthogonal with squared norm 4.
PAULI_CHOI = np.einsum("pij,qkl->qpjkil", PAULI_BASIS, PAULI_BASIS).reshape(16, 16)

#: Absolute tolerance on trace-preservation residuals.
TP_TOL = 1e-10

#: Default tolerance of the CP gate and rank rule (:func:`rank_and_cp`) and
#: of every verdict margin (the Boundary half-width).
DEFAULT_TOL = 1e-9

#: Largest off-diagonal |T_ij| of a transfer block that counts as diagonal
#: (:meth:`PauliTransfer.is_diagonal`, :func:`bloch_from_choi`).
_DIAGONAL_TOL = 1e-10

#: Every tol must lie in (0, TOL_LIMIT). The top eigenvalue of a Choi spectrum
#: is at least tr(C) / 4, so a rank cutoff tol * tr(C) below it keeps the rank >= 1.
TOL_LIMIT = 0.25


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=np.complex128)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class KrausSet:
    """Operator-sum representation: a tuple of (out_dim x 2) matrices.

    The completeness relation ``sum_i K_i^dag K_i = I_2`` must hold within
    :data:`TP_TOL`. Qubit channels have 2x2 operators; complements of a
    d-operator channel have d x 2 operators.
    """

    operators: tuple

    def __post_init__(self):
        ops = tuple(_freeze(linalg.as_matrix(k)) for k in self.operators)
        if not 1 <= len(ops) <= 4:
            raise InvalidDimension(f"expected 1..4 Kraus operators, got {len(ops)}")
        out_dim = ops[0].shape[0]
        for k in ops:
            if k.shape != (out_dim, 2):
                raise InvalidDimension(
                    f"inconsistent Kraus shapes: {k.shape} vs ({out_dim}, 2)"
                )
        gram = sum(linalg.dagger(k) @ k for k in ops)
        residual = np.linalg.norm(gram - I2)
        if residual > TP_TOL:
            raise NotTracePreserving(f"sum K^dag K deviates from identity by {residual:.3e}")
        object.__setattr__(self, "operators", ops)

    @property
    def env_dim(self) -> int:
        """Environment dimension of this representation (= operator count)."""
        return len(self.operators)

    @property
    def out_dim(self) -> int:
        return self.operators[0].shape[0]


@dataclass(frozen=True, eq=False)
class ChoiMatrix:
    """4x4 Choi matrix on input (x) output, trace 2.

    ``ChoiMatrix(m)`` checks a user's matrix by :func:`validate_choi` and
    keeps its Hermitian part. The conversions (:func:`to_choi`) build theirs
    from parameters already checked where they entered, with stack builders
    whose output is Hermitian and trace-preserving by construction, so they
    check only that its entries are finite before taking the same
    Hermitian part.

    The matrix is read-only, so its eigendecomposition is computed once,
    on first use, and shared by every verdict through :attr:`eigen`.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = validate_choi(self.matrix)
        if m.ndim != 2:
            raise InvalidDimension(f"Choi matrix must be 4x4, got {m.shape}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @cached_property
    def eigen(self) -> linalg.HermitianEigen:
        """Ascending eigenvalues and eigenvectors of :attr:`matrix`."""
        return linalg._eigh(self.matrix)


def _built_choi(m: np.ndarray) -> ChoiMatrix:
    """The :class:`ChoiMatrix` of a 4x4 matrix that a stack builder made from
    checked parameters. It is exactly Hermitian and trace-preserving by
    construction, so of :func:`validate_choi` two steps are left: rejecting
    entries that overflowed, and the Hermitian part. That part equals m in
    value but can flip the sign of a zero, which the eigensolver's
    reflections carry into the last bit of a margin.
    """
    m = linalg.as_matrix(m)
    m = (m + m.conj().T) / 2.0
    m.setflags(write=False)
    c = object.__new__(ChoiMatrix)
    object.__setattr__(c, "matrix", m)
    return c


def validate_choi(m) -> np.ndarray:
    """Hermitian part of a Choi matrix, or of each matrix of an
    ``(..., 4, 4)`` stack, after the shape, Hermiticity and
    trace-preservation checks (the output marginal must be I within
    :data:`TP_TOL`). Errors name the failing residual and stack row.

    This is the check for matrices from outside: ``ChoiMatrix(m)`` and the
    grid of ``qdeg sweep``. The stack builders (:func:`kraus_to_choi`,
    :func:`bloch_to_choi`, :func:`transfer_to_choi`) return matrices that
    are exactly Hermitian, and trace-preserving because their Kraus sets
    passed the completeness check or their transfer matrices have the first
    row (1, 0, 0, 0); this check changes no value of those.
    """
    m = linalg.as_matrix(m, stacked=True)
    if m.shape[-2:] != (4, 4):
        raise InvalidDimension(f"Choi matrix must be 4x4, got {m.shape}")
    m = linalg.require_hermitian(m, "Choi matrix")
    # the norm is taken of the marginal's deviation divided by its largest
    # |entry| and scaled back; a deviation past the float range reads inf
    with np.errstate(over="ignore", invalid="ignore"):
        s, scaled = linalg.entry_scale(linalg._partial_trace(m, 2, 2, traced=1) - I2)
        residual = np.where(s < np.inf, np.linalg.norm(scaled, axis=(-2, -1)) * s, np.inf)
    bad = linalg.first_violation(residual, TP_TOL)
    if bad is not None:
        raise NotTracePreserving(
            f"output marginal{linalg.row_suffix(bad)} deviates from identity by {residual[bad]:.3e}"
        )
    return m


@dataclass(frozen=True, eq=False)
class BlochParams:
    """Diagonal Pauli-basis form: translation t and axis contractions lam."""

    t: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        for name in ("t", "lam"):
            v = np.asarray(getattr(self, name), dtype=float).reshape(-1)
            if v.size != 3 or not np.all(np.isfinite(v)):
                raise InvalidParameter(f"{name} must be a finite real 3-vector")
            v.setflags(write=False)
            object.__setattr__(self, name, v)


@dataclass(frozen=True, eq=False)
class PauliTransfer:
    """General Pauli transfer block (1, 0; t, T) of a qubit channel."""

    t: np.ndarray
    T: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float).reshape(-1)
        T = np.asarray(self.T, dtype=float)
        if t.size != 3 or T.shape != (3, 3):
            raise InvalidParameter("transfer block needs a 3-vector t and 3x3 T")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(T))):
            raise InvalidParameter("transfer block entries must be finite")
        t.setflags(write=False)
        T.setflags(write=False)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "T", T)

    def is_diagonal(self) -> bool:
        return bool(np.max(np.abs(self.T - np.diag(np.diag(self.T)))) <= _DIAGONAL_TOL)

    def as_bloch(self) -> BlochParams:
        if not self.is_diagonal():
            raise InvalidParameter("transfer block is not diagonal")
        return BlochParams(t=self.t, lam=np.diag(self.T))


@dataclass(frozen=True)
class Rank2Params:
    """Angles of the canonical two-Kraus qubit channel."""

    alpha: float
    beta: float

    def __post_init__(self):
        # the closed forms take cos(2 alpha) and cos(2 beta); float() of an
        # integer past the float range raises OverflowError
        for name in ("alpha", "beta"):
            value = getattr(self, name)
            try:
                ok = isinstance(value, numbers.Real) and math.isfinite(2.0 * float(value))
            except OverflowError:
                ok = False
            if not ok:
                raise InvalidParameter(f"{name} must be a real number whose double is finite, got {value!r}")


def bell_mu(lam) -> np.ndarray:
    """The four even-sign combinations 1 +- l1 +- l2 +- l3.

    Halved, these are the Bell-basis eigenvalues of the unital Choi matrix.
    """
    l1, l2, l3 = np.asarray(lam, dtype=float).reshape(3)
    return np.array(
        [1 + l1 + l2 + l3, 1 + l1 - l2 - l3, 1 - l1 + l2 - l3, 1 - l1 - l2 + l3]
    )


def choi_from_kraus(k: KrausSet) -> ChoiMatrix:
    """Choi matrix ``sum_i vec(K_i) vec(K_i)^dag`` of a qubit channel."""
    if k.out_dim != 2:
        raise InvalidDimension("choi_from_kraus expects 2x2 Kraus operators")
    return _built_choi(kraus_to_choi(np.array(k.operators)))


def kraus_to_choi(ops: np.ndarray) -> np.ndarray:
    """``sum_i vec(K_i) vec(K_i)^dag`` for each ``(r, 2, 2)`` Kraus set of an
    ``(..., r, 2, 2)`` stack; returns the ``(..., 4, 4)`` Choi stack, unchecked.
    """
    # row-major flattening of K^T is the column-stacking vec of K
    v = ops.swapaxes(-1, -2).reshape(ops.shape[:-2] + (4,))
    # einsum, not matmul: matmul's BLAS path raises a sweep's peak memory
    return np.einsum("...ri,...rj->...ij", v, v.conj())


def kraus_from_choi(c: ChoiMatrix, tol: float = DEFAULT_TOL) -> KrausSet:
    """Minimal Kraus set: one operator per eigenpair counted by
    ``choi_rank(c, tol)``, the rank ``classify`` reports, in ascending order.

    The operators are renormalized, ``K_i <- K_i G^{-1/2}`` with
    ``G = sum_i K_i^dag K_i``, so trace preservation holds to rounding even
    when the dropped directions carried weight. Raises
    :class:`NotAChannel` when ``c`` fails the CP gate.
    """
    rank = choi_rank(c, tol)
    eig = c.eigen
    ops = [
        (np.sqrt(lam) * v).reshape((2, 2), order="F")
        for lam, v in zip(eig.eigenvalues[4 - rank:], eig.eigenvectors.T[4 - rank:])
    ]
    # closed-form 2x2 square root: sqrt(G) = (G + sqrt(det G) I) / sqrt(tr G + 2 sqrt(det G))
    gram = sum(linalg.dagger(k) @ k for k in ops)
    s = np.sqrt(np.linalg.det(gram).real)
    inv_root = np.linalg.inv((gram + s * I2) / np.sqrt(np.trace(gram).real + 2.0 * s))
    return KrausSet(tuple(k @ inv_root for k in ops))


def transfer_to_choi(r: np.ndarray) -> np.ndarray:
    """Choi matrices of an ``(..., 4, 4)`` stack of transfer matrices, unchecked."""
    return 0.5 * (r.reshape(r.shape[:-2] + (16,)) @ PAULI_CHOI).reshape(r.shape)


def choi_to_transfer(c: np.ndarray) -> np.ndarray:
    """Transfer matrices of an ``(..., 4, 4)`` stack of Hermitian Choi matrices."""
    return 0.5 * (c.conj().reshape(c.shape[:-2] + (16,)) @ PAULI_CHOI.T).real.reshape(c.shape)


def choi_from_transfer(t, T) -> ChoiMatrix:
    """Choi matrix of the channel with Pauli transfer block (1, 0; t, T)."""
    r = np.eye(4)
    r[1:, 0] = np.reshape(t, 3)
    r[1:, 1:] = np.reshape(T, (3, 3))
    return _built_choi(transfer_to_choi(r))


def choi_from_bloch(b: BlochParams) -> ChoiMatrix:
    """Choi matrix of the diagonal Pauli-basis channel (t, lam)."""
    return _built_choi(bloch_to_choi(b.t, b.lam))


def bloch_to_choi(t, lam) -> np.ndarray:
    """Choi matrices of the diagonal Pauli-basis channels (t, lam), for
    ``(..., 3)`` arrays t and lam; returns the ``(..., 4, 4)`` stack, unchecked.
    """
    t = np.asarray(t, dtype=float)
    lam = np.asarray(lam, dtype=float)
    r = np.zeros(np.broadcast_shapes(t.shape, lam.shape)[:-1] + (4, 4))
    r[..., 0, 0] = 1.0
    r[..., 1:, 0] = t
    r[..., (1, 2, 3), (1, 2, 3)] = lam
    return transfer_to_choi(r)


def to_choi(channel) -> ChoiMatrix:
    """The Choi matrix of a channel given in any supported representation.

    Each representation is validated once, where it enters: a
    :class:`ChoiMatrix`, :class:`KrausSet`, :class:`BlochParams` or
    :class:`PauliTransfer` when it is built. The conversion checks only
    that the matrix it builds is finite (see :func:`_built_choi`).
    """
    if isinstance(channel, ChoiMatrix):
        return channel
    if isinstance(channel, KrausSet):
        return choi_from_kraus(channel)
    if isinstance(channel, BlochParams):
        return choi_from_bloch(channel)
    if isinstance(channel, PauliTransfer):
        return choi_from_transfer(channel.t, channel.T)
    raise InvalidParameter(f"unsupported channel representation: {type(channel)!r}")


def transfer_from_choi(c: ChoiMatrix) -> PauliTransfer:
    """Recover the full Pauli transfer block from a Choi matrix."""
    r = choi_to_transfer(c.matrix)
    return PauliTransfer(t=r[1:, 0], T=r[1:, 1:])


def bloch_from_choi(c: ChoiMatrix):
    """Diagonal Bloch parameters when the transfer block is diagonal.

    Returns :class:`BlochParams` if the recovered T is diagonal within
    ``_DIAGONAL_TOL`` (1e-10), otherwise the full :class:`PauliTransfer`.
    """
    tr = transfer_from_choi(c)
    if tr.is_diagonal():
        return tr.as_bloch()
    return tr


def phi_of_identity(c: ChoiMatrix) -> np.ndarray:
    """Image of the identity, obtained as the input marginal of the Choi."""
    return linalg._partial_trace(c.matrix, 2, 2, traced=0)


def check_tol(tol: float) -> None:
    """Raise :class:`InvalidParameter` unless ``0 < tol < TOL_LIMIT``; a NaN
    fails. At tol <= 0 the CP gate, ``-tol * max(1, ||C||_F)``, would refuse
    the rounding error of a zero eigenvalue."""
    if not 0 < tol < TOL_LIMIT:
        if tol >= TOL_LIMIT:
            raise InvalidParameter(f"tol must be below {TOL_LIMIT}, got {tol!r}: a rank cutoff "
                                   f"tol * tr(C) >= tr(C) / 4 can exceed every Choi eigenvalue")
        raise InvalidParameter(f"tol must be a number > 0, got {tol!r}")


def rank_and_cp(eigenvalues, tol: float = DEFAULT_TOL):
    """The Choi rank and the CP gate of ascending Choi spectra (last axis).

    The rank counts the eigenvalues above ``tol * tr(C)``; C passes the CP
    gate when its minimum eigenvalue is at least ``-tol * max(1, ||C||_F)``.
    ``tr(C)`` and ``||C||_F`` are the sum and the 2-norm of the spectrum.
    A norm that overflows fails the gate: a trace-2 PSD spectrum has norm
    at most 2. Returns ``(rank, cp)``, 0-d arrays for one spectrum.
    ``tol`` must pass :func:`check_tol`.
    """
    check_tol(tol)
    eigs = np.asarray(eigenvalues, dtype=float)
    with np.errstate(over="ignore"):
        norm = np.sqrt(np.add.reduce(eigs * eigs, axis=-1))  # np.linalg.norm's arithmetic
    cp = (eigs[..., 0] >= -tol * np.maximum(norm, 1.0)) & (norm < np.inf)
    return (eigs > tol * eigs.sum(axis=-1, keepdims=True)).sum(axis=-1), cp


def not_a_channel(min_eig: float, choi: np.ndarray | None = None) -> NotAChannel:
    """The error for a map that fails the CP gate, naming its minimum Choi
    eigenvalue and the trace-preservation residual of ``choi`` (0 when the
    map is given without one, as a unital channel by its Bell weights is).
    """
    tp = 0.0 if choi is None else float(np.linalg.norm(linalg._partial_trace(choi, 2, 2, traced=1) - I2))
    return NotAChannel(
        f"Choi matrix has eigenvalue {min_eig:.3e}; channel is not CP "
        f"(min Choi eigenvalue {float(min_eig)}, TP residual {tp})",
        min_choi_eig=float(min_eig),
        tp_residual=tp,
    )


def choi_rank(c: ChoiMatrix, tol: float = DEFAULT_TOL) -> int:
    """Choi rank of ``c`` by :func:`rank_and_cp` on its cached spectrum.

    Raises :class:`NotAChannel` when ``c`` fails the CP gate.
    """
    rank, cp = rank_and_cp(c.eigen.eigenvalues, tol)
    if not cp:
        raise not_a_channel(c.eigen.eigenvalues[0], c.matrix)
    return int(rank)


def complement(k: KrausSet) -> KrausSet:
    """Complementary channel in the environment basis fixed by Kraus order.

    For operators ``{K_i}`` (i = 1..d) the complement has one Kraus
    operator per output row m, of shape d x 2, whose i-th row is row m of
    ``K_i``. Its output dimension equals d.
    """
    d = k.env_dim
    return KrausSet(
        tuple(
            np.array([k.operators[i][m, :] for i in range(d)])
            for m in range(k.out_dim)
        )
    )


# ---------------------------------------------------------------------------
# Named constructors
# ---------------------------------------------------------------------------


def identity() -> KrausSet:
    """The identity channel."""
    return KrausSet((I2,))


def completely_depolarizing() -> KrausSet:
    """The channel rho -> tr(rho) I/2, as a uniform Pauli mixture."""
    return KrausSet((I2 / 2, SIGMA_X / 2, SIGMA_Y / 2, SIGMA_Z / 2))


def depolarizing(p: float) -> KrausSet:
    """Mixture of the identity (weight 1-p) and the completely
    depolarizing channel (weight p), as a four-operator Pauli channel."""
    if not 0.0 <= p <= 1.0:
        raise InvalidParameter(f"depolarizing probability must be in [0, 1], got {p}")
    if p == 0.0:
        return identity()
    return KrausSet(tuple(depolarizing_kraus(p)))


def depolarizing_kraus(p) -> np.ndarray:
    """Pauli Kraus operators sqrt(1 - 3p/4) I, sqrt(p/4) X, Y, Z of the
    depolarizing channel, for p in [0, 1] of any shape: an ``(..., 4, 2, 2)`` array.
    """
    p = np.asarray(p, dtype=float)
    w = np.sqrt(p / 4.0)
    return np.stack((np.sqrt(1.0 - 3.0 * p / 4.0), w, w, w), axis=-1)[..., None, None] * PAULI_BASIS


def completely_dephasing() -> KrausSet:
    """The channel keeping only the standard-basis diagonal of rho."""
    return KrausSet((np.diag([1, 0]).astype(complex), np.diag([0, 1]).astype(complex)))


def rank2(alpha: float, beta: float) -> KrausSet:
    """Canonical two-Kraus channel with angles (alpha, beta).

    Trace preservation holds for every real pair of angles.
    """
    return KrausSet(tuple(rank2_kraus(alpha, beta)))


def rank2_kraus(alpha, beta) -> np.ndarray:
    """Kraus operators diag(cos a, cos b) and [[0, sin b], [sin a, 0]] of the
    canonical two-Kraus channel, for broadcastable angle arrays: an
    ``(..., 2, 2, 2)`` array.
    """
    alpha, beta = np.broadcast_arrays(np.asarray(alpha, dtype=float), np.asarray(beta, dtype=float))
    ops = np.zeros(alpha.shape + (2, 2, 2), dtype=np.complex128)
    ops[..., 0, 0, 0] = np.cos(alpha)
    ops[..., 0, 1, 1] = np.cos(beta)
    ops[..., 1, 0, 1] = np.sin(beta)
    ops[..., 1, 1, 0] = np.sin(alpha)
    return ops


def dephasing(alpha: float) -> KrausSet:
    """Dephasing channel: the canonical two-Kraus form at alpha = beta.

    Its Kraus operators are simultaneously diagonalizable (in the Hadamard
    basis), which is what makes it a dephasing channel.
    """
    return rank2(alpha, alpha)


def amplitude_damping(alpha: float) -> KrausSet:
    """Amplitude damping channel: the canonical two-Kraus form at beta = 0."""
    return rank2(alpha, 0.0)


def unital_spectrum(lam, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, int]:
    """Ascending Choi eigenvalues ``sort(bell_mu(lam)) / 2`` of the unital
    channel with contractions lam and its Choi rank, behind the CP gate
    (:func:`rank_and_cp`).
    """
    nu = np.sort(bell_mu(lam)) / 2.0
    rank, cp = rank_and_cp(nu, tol)
    if not cp:
        raise not_a_channel(nu[0])
    return nu, int(rank)


def unital(lam) -> BlochParams:
    """Unital channel (t = 0) with contractions lam inside the CP tetrahedron."""
    b = BlochParams(t=np.zeros(3), lam=lam)
    unital_spectrum(b.lam)
    return b
