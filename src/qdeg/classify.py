"""Degradability, antidegradability and entanglement-breaking verdicts.

The central criterion: a qubit channel with PSD Choi matrix C is
antidegradable if and only if

    tr(Phi(I)^2)  >=  tr(C^2) - 4 sqrt(det C).

Every three-valued verdict carries its raw margin (LHS - RHS of the
governing inequality) so callers can re-threshold; Boundary means the
margin is within ``tol`` of zero.

Every Choi-spectrum margin comes from one kernel, :func:`verdict_kernel`,
over a Choi matrix or an ``(..., 4, 4)`` stack of them; the scalar tests
and :func:`classify` are its N=1 case, fed the cached spectrum of their
:class:`ChoiMatrix`, and ``qdeg sweep`` calls it once for a whole grid.

Rank-specialized closed forms are provided as independent evaluation
routes through the channel parameters. They must agree in verdict state
with the general Choi-spectrum test; the test suite enforces this.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg
from .channels import (
    BlochParams,
    ChoiMatrix,
    Rank2Params,
    bell_mu,
    choi_from_bloch,
    choi_from_kraus,
    choi_to_transfer,
    depolarizing,
    phi_of_identity,
    to_choi,
    I2,
)
from .errors import (
    NotAChannel,
    NotApplicable,
    NotCompletelyPositive,
    NumericalFailure,
    WrongRank,
)

#: Default absolute tolerance on verdict margins (Boundary half-width).
DEFAULT_TOL = 1e-9


class VerdictState(str, enum.Enum):
    YES = "yes"
    NO = "no"
    BOUNDARY = "boundary"


def verdict_state(margin: float, tol: float) -> VerdictState:
    """Boundary within ``tol`` of zero, else the sign of the margin."""
    if abs(margin) <= tol:
        return VerdictState.BOUNDARY
    return VerdictState.YES if margin > 0 else VerdictState.NO


@dataclass(frozen=True)
class Verdict:
    """Three-valued answer with the raw margin that produced it."""

    state: VerdictState
    margin: float

    @classmethod
    def from_margin(cls, margin: float, tol: float) -> "Verdict":
        return cls(state=verdict_state(margin, tol), margin=float(margin))

    @property
    def holds(self) -> bool:
        """True for Yes or Boundary."""
        return self.state is not VerdictState.NO


@dataclass(frozen=True)
class ClassificationReport:
    antidegradable: Verdict
    degradable: Verdict
    entanglement_breaking: Verdict
    unital: bool
    self_complementary: bool | None
    choi_rank: int
    cp: bool

    def to_dict(self) -> dict:
        return {
            "antidegradable": {
                "state": self.antidegradable.state.value,
                "margin": self.antidegradable.margin,
            },
            "degradable": {
                "state": self.degradable.state.value,
                "margin": self.degradable.margin,
            },
            "entanglement_breaking": {
                "state": self.entanglement_breaking.state.value,
                "margin": self.entanglement_breaking.margin,
            },
            "unital": self.unital,
            "self_complementary": self.self_complementary,
            "choi_rank": self.choi_rank,
            "cp": self.cp,
        }


class Margins(NamedTuple):
    """Kernel output: one entry per Choi matrix (0-d arrays for one matrix)."""

    anti: np.ndarray  # antidegradability margin
    deg: np.ndarray  # degradability margin
    eb: np.ndarray  # PPT margin: minimum eigenvalue of the partial transpose
    rank: np.ndarray  # Choi rank: eigenvalues above tol * tr(C)
    cp: np.ndarray  # minimum eigenvalue >= -tol * max(1, ||C||_F)
    min_eig: np.ndarray  # minimum Choi eigenvalue


def _rank_and_cp(c: np.ndarray, eigs: np.ndarray, tol: float):
    """Choi rank (eigenvalues above ``tol * tr(C)``) and the CP mask (minimum
    eigenvalue ``>= -tol * max(1, ||C||_F)``) from the ascending spectrum."""
    cp = eigs[..., 0] >= -tol * np.maximum(np.linalg.norm(c, axis=(-2, -1)), 1.0)
    trace = np.trace(c, axis1=-2, axis2=-1).real
    return np.sum(eigs > tol * trace[..., None], axis=-1), cp


def verdict_kernel(c: np.ndarray, tol: float = DEFAULT_TOL, eigenvalues=None) -> Margins:
    """Every Choi-spectrum margin of a validated Choi matrix or ``(..., 4, 4)`` stack.

    ``c`` must have passed :func:`~qdeg.channels.validate_choi`.
    ``eigenvalues`` (ascending, last axis) are computed when not given.
    Rows outside the CP set get margins too; ``cp`` says which rows those are.
    """
    eigs = linalg._eigvalsh(c) if eigenvalues is None else eigenvalues
    rank, cp = _rank_and_cp(c, eigs, tol)
    phi_i = linalg._partial_trace(c, 2, 2, traced=0)
    tr_phi2 = np.einsum("...ij,...ji->...", phi_i, phi_i).real
    anti = tr_phi2 - np.sum(eigs * eigs, axis=-1) + 4.0 * np.sqrt(linalg.clamped_det(eigs, tol))
    # rank 1 is unitary (degradable), rank >= 3 is not degradable; at rank 2
    # the complement's margin follows from the spectrum (see degradable_test)
    deg_rank2 = eigs[..., 3] ** 2 + eigs[..., 2] ** 2 - tr_phi2
    deg = np.where(rank == 2, deg_rank2, np.where(rank == 1, 1.0, 2.0 - rank))
    pt = linalg._partial_transpose(c, 2, 2, transposed=1)
    eb = linalg._eigvalsh(pt)[..., 0]
    return Margins(anti, deg, eb, rank, cp, eigs[..., 0])


def cp_margins(c: ChoiMatrix, tol: float = DEFAULT_TOL) -> Margins:
    """The kernel on one Choi matrix and its cached spectrum, behind the CP gate.

    Raises :class:`NotCompletelyPositive` with the offending eigenvalue.
    """
    m = verdict_kernel(c.matrix, tol, c.eigen.eigenvalues)
    if not m.cp:
        raise NotCompletelyPositive(
            f"Choi matrix has eigenvalue {m.min_eig:.3e}; not a CP map"
        )
    return m


def antidegradable_test(c: ChoiMatrix, tol: float = DEFAULT_TOL) -> Verdict:
    """General antidegradability test on the Choi spectrum.

    margin = tr(Phi(I)^2) - [tr(C^2) - 4 sqrt(det C)], with eigenvalues
    within ``tol`` of zero treated as exact zeros inside the determinant.
    """
    return Verdict.from_margin(cp_margins(c, tol).anti, tol)


def degradable_test(channel, tol: float = DEFAULT_TOL) -> Verdict:
    """Degradability by environment-dimension dispatch.

    Accepts a channel in any representation. Choi rank 1 means a unitary
    channel (degradable); rank >= 3 excludes degradability outright; for
    those cases the margin is reported as ``2 - rank``.

    At rank 2 the complement is itself a qubit channel and the verdict is
    its antidegradability margin, which needs only the spectrum of ``C``:
    with the Stinespring isometry V: A -> B (x) E and the purification
    ``|psi> = (I (x) V)|Omega>`` on reference (x) B (x) E, the Choi matrix
    is ``C = tr_E |psi><psi|`` and the complement's is
    ``C^c = tr_B |psi><psi|``, while ``Phi(I) = tr_RE |psi><psi|`` and
    ``Phi^c(I) = tr_RB |psi><psi|``. Complementary marginals of a pure state
    share their nonzero spectrum (Schmidt decomposition), so ``Phi^c(I)``
    has the two nonzero eigenvalues of ``C``, and ``C^c`` has the
    eigenvalues of ``Phi(I)`` padded with two zeros, hence
    ``det C^c = 0``. The margin
    ``tr(Phi^c(I)^2) - tr((C^c)^2) + 4 sqrt(det C^c)`` is therefore
    ``lambda_3^2 + lambda_4^2 - tr(Phi(I)^2)`` over the two largest Choi
    eigenvalues. No complement is built, so any Kraus set of the channel,
    redundant or minimal, gives the same answer.
    """
    return Verdict.from_margin(cp_margins(to_choi(channel), tol).deg, tol)


def rank2_antidegradable(p: Rank2Params, tol: float = DEFAULT_TOL) -> Verdict:
    """Closed form for the canonical two-Kraus channel: margin -cos2a cos2b."""
    return Verdict.from_margin(-math.cos(2 * p.alpha) * math.cos(2 * p.beta), tol)


def rank2_degradable(p: Rank2Params, tol: float = DEFAULT_TOL) -> Verdict:
    """Closed form for the canonical two-Kraus channel: margin +cos2a cos2b."""
    return Verdict.from_margin(math.cos(2 * p.alpha) * math.cos(2 * p.beta), tol)


def rank3_antidegradable(b: BlochParams, tol: float = DEFAULT_TOL) -> Verdict:
    """Antidegradability at Choi rank 3: margin 1 + |t|^2 - |lam|^2.

    The determinant term of the general test vanishes whenever the Choi
    matrix is singular, so any rank up to 3 is accepted (an axis contraction
    like lam = (1, 0, 0) drops to rank 2 and still satisfies the formula);
    full-rank input is rejected.
    """
    rank = int(cp_margins(choi_from_bloch(b), tol).rank)
    if rank > 3:
        raise WrongRank(f"expected a singular Choi matrix, got rank {rank}")
    margin = 1.0 + float(b.t @ b.t) - float(b.lam @ b.lam)
    return Verdict.from_margin(margin, tol)


def _det16_poly(t: np.ndarray, lam: np.ndarray) -> float:
    """16 det(C) as an explicit polynomial in the Bloch parameters."""
    t2 = t * t
    l2 = lam * lam
    s = 1.0 + float(np.sum(l2 * l2 + t2 * t2 - 2.0 * l2 - 2.0 * t2))
    s += 8.0 * float(lam[0] * lam[1] * lam[2])
    s -= 2.0 * float(l2[0] * l2[1] + l2[0] * l2[2] + l2[1] * l2[2])
    s += 2.0 * float(t2[0] * t2[1] + t2[0] * t2[2] + t2[1] * t2[2])
    s += 2.0 * float(np.sum(l2 * (np.sum(t2) - 2.0 * t2)))
    return s


def rank4_antidegradable(b: BlochParams, tol: float = DEFAULT_TOL) -> Verdict:
    """Antidegradability from the Bloch parameters at full Choi rank.

    Evaluates the determinant polynomial S = 16 det(C) and the squared
    deficit D^2 = (|lam|^2 - |t|^2 - 1)^2 entirely in the (t, lam)
    parameters. The inequality S >= D^2 decides antidegradability only on
    the branch D >= 0 (squaring is one-directional); for D < 0 the channel
    is antidegradable outright. The margin is therefore reported in the
    unsquared form  -D + sqrt(S), which matches the general test's margin.
    """
    s = _det16_poly(b.t, b.lam)
    d = float(b.lam @ b.lam) - float(b.t @ b.t) - 1.0
    margin = -d + math.sqrt(max(s, 0.0))
    return Verdict.from_margin(margin, tol)


def unital_antidegradable(lam, tol: float = DEFAULT_TOL) -> Verdict:
    """Antidegradability of a unital channel from its Bell weights.

    With nu = mu/2 the Bell-basis Choi eigenvalues,
    margin = 2 - [sum(nu^2) - 4 sqrt(prod(nu))].
    """
    mu = bell_mu(lam)
    if mu.min() < -1e-10:
        raise NotCompletelyPositive(
            f"lam outside the CP tetrahedron (min Bell weight {mu.min():.3e})"
        )
    nu = mu / 2.0
    margin = 2.0 - float(np.sum(nu * nu)) + 4.0 * math.sqrt(linalg.clamped_det(nu, tol))
    return Verdict.from_margin(margin, tol)


def entanglement_breaking_test(c: ChoiMatrix, tol: float = DEFAULT_TOL) -> Verdict:
    """PPT criterion, exact for qubit Choi matrices.

    margin = minimum eigenvalue of the partial transpose of C.
    """
    return Verdict.from_margin(verdict_kernel(c.matrix, tol, c.eigen.eigenvalues).eb, tol)


def self_complementary_test(channel, tol: float = DEFAULT_TOL) -> bool:
    """Whether ``Phi^c = U Phi U^dag`` for a unitary U: the notion every
    representation agrees on, as the complement is fixed only up to an
    environment unitary. Decided at Choi rank 2; :class:`NotApplicable` otherwise.

    ``C^c = tr_output |psi><psi|`` with ``psi = sum_e sqrt(lambda_e) v_e (x) e``
    over the nonzero Choi eigenpairs. An output unitary rotates the Bloch
    rows ``[t | T]`` by some O in SO(3), so the test is the Kabsch problem
    ``min_O ||O [t | T] - [t^c | T^c]||_F <= tol``.
    """
    c = to_choi(channel)
    lam, v = c.eigen.eigenvalues, c.eigen.eigenvectors
    rank, cp = _rank_and_cp(c.matrix, lam, tol)
    if not cp:
        raise NotCompletelyPositive(f"Choi matrix has eigenvalue {lam[0]:.3e}; not a CP map")
    if rank != 2:
        raise NotApplicable(f"self-complementarity needs Choi rank 2, got {rank}")
    psi = (np.sqrt(lam[2:]) * v[:, 2:]).reshape(2, 2, 2)  # input, output, environment
    cc = np.einsum("ioe,jof->iejf", psi, psi.conj()).reshape(4, 4)
    bloch, bloch_c = choi_to_transfer(np.stack((c.matrix, cc)))[:, 1:]
    u, _, vt = np.linalg.svd(bloch_c @ bloch.T)
    u[:, 2] *= np.sign(np.linalg.det(u @ vt))  # the closest proper rotation
    return linalg.frobenius(u @ vt @ bloch - bloch_c) <= tol


def deg_and_antideg_rank2(p: Rank2Params, tol: float = DEFAULT_TOL) -> bool:
    """True when the canonical channel is both degradable and antidegradable,
    i.e. both rank-2 verdicts are Boundary: |cos2a cos2b| <= tol."""
    return abs(math.cos(2 * p.alpha) * math.cos(2 * p.beta)) <= tol


def _bisect(fn, lo: float, hi: float, width: float = 1e-10) -> float:
    f_lo = fn(lo)
    f_hi = fn(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo < 0.0) == (f_hi < 0.0):
        raise NumericalFailure("bisection bracket does not change sign")
    for _ in range(200):
        if hi - lo <= width:
            return 0.5 * (lo + hi)
        mid = 0.5 * (lo + hi)
        f_mid = fn(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    raise NumericalFailure("bisection did not reach the requested width")


def depolarizing_thresholds() -> tuple[float, float]:
    """Antidegradability and entanglement-breaking thresholds of the
    depolarizing family, located by bisection of the raw margins."""

    def anti_margin(p: float) -> float:
        return antidegradable_test(choi_from_kraus(depolarizing(p))).margin

    def eb_margin(p: float) -> float:
        return entanglement_breaking_test(choi_from_kraus(depolarizing(p))).margin

    return _bisect(anti_margin, 0.0, 1.0), _bisect(eb_margin, 0.0, 1.0)


def classify(channel, tol: float = DEFAULT_TOL) -> ClassificationReport:
    """Full classification of a channel given in any representation.

    Every margin, the rank and the CP gate come from one kernel call on the
    Choi matrix's cached eigendecomposition. Raises :class:`NotAChannel`
    (with the offending Choi eigenvalue and trace-preservation residual)
    when the input is not CPTP within ``tol``. ``self_complementary`` is
    decided at Choi rank 2 up to a unitary on the output (see
    :func:`self_complementary_test`), so every representation of one
    channel gets the same answer; it is ``None`` at every other rank.
    """
    c = to_choi(channel)
    m = verdict_kernel(c.matrix, tol, c.eigen.eigenvalues)
    if not m.cp:
        tp_residual = linalg.frobenius(linalg._partial_trace(c.matrix, 2, 2, traced=1) - I2)
        raise NotAChannel(
            f"Choi matrix has eigenvalue {m.min_eig:.3e}; channel is not CP",
            min_choi_eig=float(m.min_eig),
            tp_residual=tp_residual,
        )
    rank = int(m.rank)
    unital = linalg.frobenius(phi_of_identity(c) - I2) <= max(tol, 1e-10)
    return ClassificationReport(
        antidegradable=Verdict.from_margin(m.anti, tol),
        degradable=Verdict.from_margin(m.deg, tol),
        entanglement_breaking=Verdict.from_margin(m.eb, tol),
        unital=bool(unital),
        self_complementary=self_complementary_test(c, tol) if rank == 2 else None,
        choi_rank=rank,
        cp=True,
    )
