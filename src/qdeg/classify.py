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
Its rank and CP gate are :func:`~qdeg.channels.rank_and_cp`, the rule of
every entry point.

Rank-specialized closed forms are provided as independent evaluation
routes through the channel parameters. They must agree in verdict state
with the general Choi-spectrum test; the test suite enforces this.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import linalg
from .channels import (
    DEFAULT_TOL,
    BlochParams,
    ChoiMatrix,
    Rank2Params,
    choi_from_bloch,
    choi_rank,
    choi_to_transfer,
    depolarizing,
    not_a_channel,
    rank_and_cp,
    to_choi,
    unital_spectrum,
    I2,
)
from .errors import NotApplicable, NumericalFailure, WrongRank


# Each verdict: its Margins field and its report name, in output order. The
# CLI columns "<field>_margin" and "<field>_state" read that field.
VERDICTS = {"anti": "antidegradable", "deg": "degradable", "eb": "entanglement_breaking"}


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

    def to_dict(self) -> dict:
        return {"state": self.state.value, "margin": self.margin}


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
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        return {k: v.to_dict() if isinstance(v, Verdict) else v for k, v in doc.items()}


class Margins(NamedTuple):
    """Kernel output: one entry per Choi matrix (0-d arrays for one matrix)."""

    anti: np.ndarray  # antidegradability margin
    deg: np.ndarray  # degradability margin
    eb: np.ndarray  # PPT margin: minimum eigenvalue of the partial transpose
    rank: np.ndarray  # Choi rank, by rank_and_cp
    cp: np.ndarray  # the CP gate, by rank_and_cp
    min_eig: np.ndarray  # minimum Choi eigenvalue


def verdict_kernel(c: np.ndarray, tol: float = DEFAULT_TOL, eigenvalues=None) -> Margins:
    """Every Choi-spectrum margin of a validated Choi matrix or ``(..., 4, 4)`` stack.

    ``c`` must have passed :func:`~qdeg.channels.validate_choi`, or come
    from a conversion (:func:`~qdeg.channels.to_choi`).
    ``eigenvalues`` (ascending, last axis) are computed when not given.
    Rows outside the CP set get margins too; ``cp`` says which rows those are.
    """
    return _kernel(c, tol, linalg._eigvalsh(c) if eigenvalues is None else eigenvalues)[0]


def _kernel(c: np.ndarray, tol: float, eigs: np.ndarray) -> tuple[Margins, np.ndarray]:
    """:func:`verdict_kernel` and the input marginal Phi(I) it reads."""
    rank, cp = rank_and_cp(eigs, tol)
    phi_i = linalg._partial_trace(c, 2, 2, traced=0)
    # a row outside the CP set can overflow here; cp marks its margins
    with np.errstate(over="ignore", invalid="ignore"):
        tr_phi2 = np.einsum("...ij,...ji->...", phi_i, phi_i).real
        # det C is zero below rank 4; at rank 4 every eigenvalue is above tol * tr(C) > 0
        det = np.where(rank == 4, np.prod(eigs, axis=-1), 0.0)
        anti = tr_phi2 - np.sum(eigs * eigs, axis=-1) + 4.0 * np.sqrt(det)
        # rank 1 is unitary (degradable), rank >= 3 is not degradable; at rank 2
        # the complement's margin follows from the spectrum (see degradable_test)
        deg_rank2 = eigs[..., 3] ** 2 + eigs[..., 2] ** 2 - tr_phi2
    deg = np.where(rank == 2, deg_rank2, np.where(rank == 1, 1.0, 2.0 - rank))
    pt = linalg._partial_transpose(c, 2, 2, transposed=1)
    eb = linalg._eigvalsh(pt)[..., 0]
    return Margins(anti, deg, eb, rank, cp, eigs[..., 0]), phi_i


def cp_margins(channel, tol: float = DEFAULT_TOL) -> tuple[Margins, np.ndarray]:
    """The kernel on one channel, in any representation, and the cached
    spectrum of its Choi matrix, behind the CP gate: its margins and Phi(I).

    Raises :class:`~qdeg.errors.NotAChannel` with the offending eigenvalue.
    """
    c = to_choi(channel)
    m, phi_i = _kernel(c.matrix, tol, c.eigen.eigenvalues)
    if not m.cp:
        raise not_a_channel(m.min_eig, c.matrix)
    return m, phi_i


def antidegradable_test(channel, tol: float = DEFAULT_TOL) -> Verdict:
    """General antidegradability test on the Choi spectrum of a channel in
    any representation.

    margin = tr(Phi(I)^2) - [tr(C^2) - 4 sqrt(det C)], where ``det C`` is
    zero below Choi rank 4 (:func:`~qdeg.channels.rank_and_cp`, the rank
    that :func:`classify` reports) and the product of the spectrum at rank 4.
    """
    return Verdict.from_margin(cp_margins(channel, tol)[0].anti, tol)


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
    return Verdict.from_margin(cp_margins(channel, tol)[0].deg, tol)


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
    rank = choi_rank(choi_from_bloch(b), tol)
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

    Behind the CP gate; S counts only at Choi rank 4 (:func:`choi_rank`),
    as in :func:`verdict_kernel`, so a singular map gets the rank-3 form -D.
    """
    rank = choi_rank(choi_from_bloch(b), tol)
    d = float(b.lam @ b.lam) - float(b.t @ b.t) - 1.0
    margin = -d + (math.sqrt(max(_det16_poly(b.t, b.lam), 0.0)) if rank == 4 else 0.0)
    return Verdict.from_margin(margin, tol)


def unital_antidegradable(lam, tol: float = DEFAULT_TOL) -> Verdict:
    """Antidegradability of a unital channel from its Bell weights.

    With nu = mu/2 the Bell-basis Choi eigenvalues, behind the CP gate,
    margin = 2 - [sum(nu^2) - 4 sqrt(prod(nu))], where the product counts
    only at Choi rank 4, as in :func:`verdict_kernel`.
    """
    nu, rank = unital_spectrum(lam, tol)
    det = float(np.prod(nu)) if rank == 4 else 0.0
    margin = 2.0 - float(np.sum(nu * nu)) + 4.0 * math.sqrt(det)
    return Verdict.from_margin(margin, tol)


def entanglement_breaking_test(channel, tol: float = DEFAULT_TOL) -> Verdict:
    """PPT criterion, exact for qubit Choi matrices; any representation.

    margin = minimum eigenvalue of the partial transpose of C.
    """
    return Verdict.from_margin(cp_margins(channel, tol)[0].eb, tol)


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
    rank = choi_rank(c, tol)
    if rank != 2:
        raise NotApplicable(f"self-complementarity needs Choi rank 2, got {rank}")
    return _self_complementary(c, tol)


def _self_complementary(c: ChoiMatrix, tol: float) -> bool:
    """:func:`self_complementary_test` of a CP Choi matrix of rank 2."""
    lam, v = c.eigen
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
        return antidegradable_test(depolarizing(p)).margin

    def eb_margin(p: float) -> float:
        return entanglement_breaking_test(depolarizing(p)).margin

    return _bisect(anti_margin, 0.0, 1.0), _bisect(eb_margin, 0.0, 1.0)


def classify(channel, tol: float = DEFAULT_TOL) -> ClassificationReport:
    """Full classification of a channel given in any representation.

    Every margin, the rank and the CP gate come from one kernel call on the
    Choi matrix's cached eigendecomposition. Raises :class:`NotAChannel`
    (with the offending Choi eigenvalue and trace-preservation residual)
    when the input fails the CP gate. ``self_complementary`` is
    decided at Choi rank 2 up to a unitary on the output (see
    :func:`self_complementary_test`), so every representation of one
    channel gets the same answer; it is ``None`` at every other rank.
    """
    c = to_choi(channel)
    m, phi_i = cp_margins(c, tol)
    rank = int(m.rank)
    unital = linalg.frobenius(phi_i - I2) <= max(tol, 1e-10)
    return ClassificationReport(
        **{name: Verdict.from_margin(getattr(m, f), tol) for f, name in VERDICTS.items()},
        unital=bool(unital),
        self_complementary=_self_complementary(c, tol) if rank == 2 else None,
        choi_rank=rank,
        cp=True,
    )
