"""Seeded input streams for the qdeg benchmark.

Every generator here is a pure function of its seed: the same seed gives
the same channels, documents and sweep grids, bit for bit. Channels are
built with numpy alone, so the inputs do not depend on the code under
test; each item carries its reference Choi matrix for the output checker.

Conventions match ``qdeg.channels``: column-stacking ``vec``, and the
Choi matrix lives on input (x) output, so ``C = sum_i vec(K_i) vec(K_i)^dag``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from checks import I2, anti_margin, choi_of_kraus

REPS = ("kraus", "choi", "bloch", "transfer")
RANKS = (1, 2, 3, 4)

PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=np.complex128),
    np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    np.array([[1, 0], [0, -1]], dtype=np.complex128),
)

#: classify-mixed block: every class (representation x Choi rank) this many
#: times, in a seeded order.
PER_CLASS_IN_BLOCK = 25
#: Inputs of each known-defect kind in the defect probe (``defect_inputs``).
DEFECT_PROBE_EACH = 4

#: Oracle inputs need |analytic margin| above this, as in the acceptance suite.
ORACLE_MARGIN_GAP = 1e-3


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """Independent generator per (seed, stream name); any integer seed is accepted."""
    key = [int(seed) % 2**63] + [ord(ch) for ch in stream]
    return np.random.default_rng(np.random.SeedSequence(key))


# ---------------------------------------------------------------------------
# numpy channel constructions
# ---------------------------------------------------------------------------


def haar_isometry(rng, rows: int, cols: int) -> np.ndarray:
    g = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def haar_kraus(rng, env_dim: int) -> list:
    """Kraus operators of a Haar-random channel with ``env_dim`` operators."""
    v = haar_isometry(rng, 2 * env_dim, 2)
    return [v[i::env_dim, :] for i in range(env_dim)]


def apply_choi(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Phi(X) = tr_input(C (X^T (x) I))."""
    m = (c @ np.kron(x.T, I2)).reshape(2, 2, 2, 2)
    return np.einsum("ijik->jk", m)


def transfer_of_choi(c: np.ndarray):
    """Pauli transfer block (t, T) with t_i = tr(s_i Phi(I))/2, T_ij = tr(s_i Phi(s_j))/2."""
    t = np.array([0.5 * np.trace(s @ apply_choi(c, I2)).real for s in PAULIS])
    T = np.array(
        [[0.5 * np.trace(si @ apply_choi(c, sj)).real for sj in PAULIS] for si in PAULIS]
    )
    return t, T


def choi_of_bloch(t, lam) -> np.ndarray:
    t1, t2, t3 = t
    l1, l2, l3 = lam
    return 0.5 * np.array(
        [
            [1 + t3 + l3, t1 - 1j * t2, 0, l1 + l2],
            [t1 + 1j * t2, 1 - t3 - l3, l1 - l2, 0],
            [0, l1 - l2, 1 + t3 - l3, t1 - 1j * t2],
            [l1 + l2, 0, t1 + 1j * t2, 1 - t3 + l3],
        ],
        dtype=np.complex128,
    )


def rank2_kraus(alpha: float, beta: float) -> list:
    """The canonical two-Kraus channel of ``qdeg.channels.rank2``."""
    k1 = np.diag([math.cos(alpha), math.cos(beta)]).astype(np.complex128)
    k2 = np.array([[0, math.sin(beta)], [math.sin(alpha), 0]], dtype=np.complex128)
    return [k1, k2]


def depolarizing_kraus(p: float) -> list:
    w = math.sqrt(p / 4.0)
    return [math.sqrt(1.0 - 3.0 * p / 4.0) * I2] + [w * s for s in PAULIS]


def pauli_lambda(probs) -> np.ndarray:
    """Axis contractions of the Pauli channel with weights (pI, pX, pY, pZ)."""
    p0, p1, p2, p3 = probs
    return np.array([p0 + p1 - p2 - p3, p0 - p1 + p2 - p3, p0 - p1 - p2 + p3])


def bell_mu(lam) -> np.ndarray:
    l1, l2, l3 = lam
    return np.array(
        [1 + l1 + l2 + l3, 1 + l1 - l2 - l3, 1 - l1 + l2 - l3, 1 - l1 - l2 + l3]
    )


def unital_cp_limit(direction) -> float:
    """Largest s with s * direction inside the CP tetrahedron."""
    d1, d2, d3 = direction
    slopes = np.array([d1 + d2 + d3, d1 - d2 - d3, -d1 + d2 - d3, -d1 - d2 + d3])
    return float(np.min(1.0 / -slopes[slopes < 0]))


# ---------------------------------------------------------------------------
# classify-mixed
# ---------------------------------------------------------------------------


@dataclass
class ChannelInput:
    """One channel in a given representation, with its reference Choi."""

    rep: str
    rank: int
    choi: np.ndarray
    payload: dict = field(default_factory=dict)
    defect: str | None = None

    @property
    def label(self) -> str:
        return self.defect or f"{self.rep}:{self.rank}"


def _pauli_probs(rng, rank: int) -> np.ndarray:
    probs = np.zeros(4)
    support = rng.choice(4, size=rank, replace=False)
    probs[support] = rng.dirichlet(np.ones(rank)) if rank > 1 else 1.0
    return probs


def _bloch_channel(rng, rank: int) -> ChannelInput:
    """Diagonal (t, lam) channel of Choi rank ``rank``.

    Rank 2 alternates between the non-unital canonical two-Kraus channel
    and a two-Pauli mixture; other ranks are Pauli channels.
    """
    if rank == 2 and rng.random() < 0.5:
        c = choi_of_kraus(rank2_kraus(*rng.uniform(0.05, math.pi / 2 - 0.05, size=2)))
        t, T = transfer_of_choi(c)
        lam = np.diag(T).copy()
        t = np.where(np.abs(t) < 1e-15, 0.0, t)
    else:
        t = np.zeros(3)
        lam = pauli_lambda(_pauli_probs(rng, rank))
    return ChannelInput("bloch", rank, choi_of_bloch(t, lam), {"t": t, "lam": lam})


def random_channel(rng, rep: str, rank: int) -> ChannelInput:
    if rep == "bloch":
        return _bloch_channel(rng, rank)
    ops = haar_kraus(rng, rank)
    c = choi_of_kraus(ops)
    if rep == "kraus":
        return ChannelInput(rep, rank, c, {"operators": ops})
    if rep == "choi":
        return ChannelInput(rep, rank, c, {"matrix": c})
    t, T = transfer_of_choi(c)
    return ChannelInput(rep, rank, c, {"t": t, "T": T})


def redundant_kraus(rng) -> ChannelInput:
    """A rank-2 channel written with 3 or 4 Kraus operators.

    Known defect: ``degradable_test`` takes the complement of the
    redundant set, whose output dimension is 3 or 4, and
    ``choi_from_kraus`` rejects it with ``InvalidDimension``.
    """
    k1, k2 = haar_kraus(rng, 2)
    split = int(rng.integers(0, 3))
    if split == 0:
        ops = [k1, k2 / math.sqrt(2), k2 / math.sqrt(2)]
    elif split == 1:
        ops = [k1 / math.sqrt(2), k1 / math.sqrt(2), k2]
    else:
        ops = [k1] + [k2 / math.sqrt(3)] * 3
    c = choi_of_kraus(ops)
    return ChannelInput("kraus", 2, c, {"operators": ops}, defect="redundant_kraus")


def near_boundary_choi(rng) -> ChannelInput:
    """Choi matrix of depolarizing(p), p in [1.2e-10, 3e-10], output-rotated.

    Known defect: ``kraus_from_choi`` drops the three eigenvalues p/4
    below its rank cutoff and the kept operator fails the 1e-10
    trace-preservation check with ``NotTracePreserving``.
    """
    p = float(rng.uniform(1.2e-10, 3.0e-10))
    u = haar_isometry(rng, 2, 2)
    ops = [u @ k for k in depolarizing_kraus(p)]
    c = choi_of_kraus(ops)
    return ChannelInput("choi", 1, c, {"matrix": c}, defect="near_boundary_choi")


def classify_stream(seed: int, stream: str = "classify"):
    """Endless classify-mixed stream, in blocks of fixed composition."""
    rng = rng_for(seed, stream)
    slots = [(rep, rank) for rep in REPS for rank in RANKS] * PER_CLASS_IN_BLOCK
    while True:
        for i in rng.permutation(len(slots)):
            yield random_channel(rng, *slots[i])


# ---------------------------------------------------------------------------
# oracle-mixed
# ---------------------------------------------------------------------------


@dataclass
class OracleInput:
    rank: int
    choi: np.ndarray
    margin: float

    @property
    def label(self) -> str:
        return f"{'feasible' if self.margin > 0 else 'infeasible'}:{self.rank}"


def oracle_stream(seed: int, stream: str = "oracle"):
    """Haar-random channels with |margin| > ORACLE_MARGIN_GAP.

    The Choi rank cycles 1, 2, 3, 4 so every block of four holds one
    target of each rank (ranks 1-3 are rank-deficient and take the
    face-restricted path); feasibility follows the Haar measure.
    """
    rng = rng_for(seed, stream)
    while True:
        for rank in RANKS:
            while True:
                c = choi_of_kraus(haar_kraus(rng, rank))
                m = anti_margin(c)
                if abs(m) > ORACLE_MARGIN_GAP:
                    yield OracleInput(rank, c, m)
                    break


# ---------------------------------------------------------------------------
# cli-sweep
# ---------------------------------------------------------------------------

#: Rows of the rank2 alpha x beta grid in each round (an RANK2_STEPS^2 CSV table).
RANK2_STEPS = 50
#: Rows of the depolarizing grid and of each unital ray.
LINE_STEPS = 300
#: One-shot `qdeg classify` documents per round; they cycle through
#: ONESHOT_KINDS in both formats. A round runs its jobs in a seeded order.
ONESHOT_KINDS = ("kraus", "choi", "bloch", "transfer", "named")
ONESHOTS_PER_ROUND = 18
#: Rows of each CP-crossing unital ray in the defect probe.
CROSSING_STEPS = 60


@dataclass
class CliJob:
    """One `qdeg` invocation: arguments, stdin document and what to expect."""

    kind: str  # sweep-rank2 / sweep-depolarizing / sweep-unital / oneshot; defect probe: sweep-unital-crossing / oneshot-bad
    args: list
    doc: dict
    fmt: str
    ref: dict = field(default_factory=dict)
    defect: str | None = None


def _cmat(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _named_doc(rng):
    which = int(rng.integers(0, 4))
    if which == 0:
        p = float(rng.uniform(0.02, 0.98))
        return {"kind": "named", "name": "depolarizing", "p": p}, choi_of_kraus(depolarizing_kraus(p))
    a, b = (float(x) for x in rng.uniform(0.05, math.pi / 2 - 0.05, size=2))
    if which == 1:
        return {"kind": "named", "name": "rank2", "alpha": a, "beta": b}, choi_of_kraus(rank2_kraus(a, b))
    if which == 2:
        return {"kind": "named", "name": "amplitude_damping", "alpha": a}, choi_of_kraus(rank2_kraus(a, 0.0))
    lam = pauli_lambda(_pauli_probs(rng, 4))
    return {"kind": "named", "name": "unital", "lambda": [float(x) for x in lam]}, choi_of_bloch(np.zeros(3), lam)


def oneshot_doc(rng, kind: str):
    """A valid channel document of the given kind and its reference Choi."""
    if kind == "named":
        return _named_doc(rng)
    rank = int(rng.integers(1, 5))
    if kind == "bloch":
        ch = _bloch_channel(rng, rank)
        doc = {"kind": "bloch", "t": [float(x) for x in ch.payload["t"]],
               "lambda": [float(x) for x in ch.payload["lam"]]}
        return doc, ch.choi
    ops = haar_kraus(rng, rank)
    c = choi_of_kraus(ops)
    if kind == "kraus":
        return {"kind": "kraus", "operators": [_cmat(k) for k in ops]}, c
    if kind == "choi":
        return {"kind": "choi", "matrix": _cmat(c)}, c
    t, T = transfer_of_choi(c)
    return {"kind": "bloch", "t": [float(x) for x in t], "T": [[float(x) for x in row] for row in T]}, c


def bad_oneshot_doc(rng) -> dict:
    """A named-channel document with a string-typed or null parameter.

    Known defect: the CLI lets the TypeError escape as a traceback; the
    documented outcome is exit 1 with an ``error:`` line.
    """
    if rng.random() < 0.5:
        return {"kind": "named", "name": "depolarizing", "p": str(round(float(rng.uniform(0.1, 0.9)), 3))}
    return {"kind": "named", "name": "rank2", "alpha": None, "beta": round(float(rng.uniform(0.1, 1.4)), 3)}


def unital_ray_job(rng, crossing: bool, steps: int = LINE_STEPS) -> CliJob:
    """A unital sweep along a random ray, inside the CP set or across its boundary.

    Known defect of the crossing ray (0.5 to 1.3 times the CP limit): the
    sweep loses the whole table with exit 2 instead of reporting the CP rows.
    """
    g = rng.normal(size=3)
    direction = g / np.linalg.norm(g)
    limit = unital_cp_limit(direction)
    lo, hi = (0.5 * limit, 1.3 * limit) if crossing else (0.05 * limit, 0.95 * limit)
    doc = {"family": "unital", "direction": [float(x) for x in direction],
           "scale": {"min": float(lo), "max": float(hi), "steps": steps}}
    if crossing:
        return CliJob("sweep-unital-crossing", ["sweep", "-", "--format", "json"], doc, "json",
                      defect="unital_ray_crossing_cp")
    return CliJob("sweep-unital", ["sweep", "-", "--format", "json"], doc, "json")


def cli_rounds(seed: int, stream: str = "cli"):
    """Endless cli-sweep rounds; each round is a list of CliJob in run order."""
    rng = rng_for(seed, stream)
    while True:
        jobs = []
        a0, b0 = rng.uniform(0.0, 0.4, size=2)
        a1, b1 = a0 + rng.uniform(1.0, 1.4), b0 + rng.uniform(1.0, 1.4)
        doc = {"family": "rank2",
               "alpha": {"min": float(a0), "max": float(a1), "steps": RANK2_STEPS},
               "beta": {"min": float(b0), "max": float(b1), "steps": RANK2_STEPS}}
        jobs.append(CliJob("sweep-rank2", ["sweep", "-", "--format", "csv"], doc, "csv"))
        p0 = float(rng.uniform(0.01, 0.2))
        p1 = float(rng.uniform(0.8, 0.99))
        doc = {"family": "depolarizing", "p": {"min": p0, "max": p1, "steps": LINE_STEPS}}
        jobs.append(CliJob("sweep-depolarizing", ["sweep", "-", "--format", "json"], doc, "json"))
        jobs.append(unital_ray_job(rng, crossing=False))
        for i in range(ONESHOTS_PER_ROUND):
            kind = ONESHOT_KINDS[i % len(ONESHOT_KINDS)]
            fmt = ("json", "csv")[(i // len(ONESHOT_KINDS)) % 2]
            doc, c = oneshot_doc(rng, kind)
            jobs.append(CliJob("oneshot", ["classify", "-", "--format", fmt], doc, fmt, ref={"choi": c}))
        order = rng.permutation(len(jobs))
        yield [jobs[i] for i in order]


# ---------------------------------------------------------------------------
# Known-defect probe
# ---------------------------------------------------------------------------


def defect_inputs(seed: int):
    """DEFECT_PROBE_EACH inputs of each known-defect kind: (classify inputs, CLI jobs).

    They run outside the timed workloads, after them, so a defect shows in
    its own count and not in the workload's operations.
    """
    rng = rng_for(seed, "defects")
    items = [redundant_kraus(rng) for _ in range(DEFECT_PROBE_EACH)]
    items += [near_boundary_choi(rng) for _ in range(DEFECT_PROBE_EACH)]
    jobs = [unital_ray_job(rng, crossing=True, steps=CROSSING_STEPS) for _ in range(DEFECT_PROBE_EACH)]
    for _ in range(DEFECT_PROBE_EACH):
        fmt = "json" if rng.random() < 0.5 else "csv"
        jobs.append(CliJob("oneshot-bad", ["classify", "-", "--format", fmt], bad_oneshot_doc(rng), fmt,
                           defect="mistyped_parameter"))
    return items, jobs
