"""Shared random generators for the test suite (all seeded by callers)."""

from __future__ import annotations

import numpy as np

from qdeg.channels import BlochParams, KrausSet
from qdeg.classify import classify


def random_unitary(rng, n: int = 2) -> np.ndarray:
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def haar_isometry(rng, rows: int, cols: int) -> np.ndarray:
    g = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_density(rng, n: int = 2) -> np.ndarray:
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_hermitian(rng, n: int) -> np.ndarray:
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (g + g.conj().T) / 2.0


def random_channel(rng, env_dim: int | None = None) -> KrausSet:
    """Haar-random channel: a random isometry sliced into Kraus operators."""
    d = int(env_dim) if env_dim is not None else int(rng.integers(1, 5))
    v = haar_isometry(rng, 2 * d, 2)
    return KrausSet(tuple(v[i::d, :] for i in range(d)))


def remix(k: KrausSet, count: int, rng) -> KrausSet:
    """Another Kraus set of the same channel: L_j = sum_i W_ji K_i with W^dag W = I."""
    w = haar_isometry(rng, count, k.env_dim)
    return KrausSet(tuple(sum(w[j, i] * op for i, op in enumerate(k.operators)) for j in range(count)))


def random_dephasing(rng) -> KrausSet:
    """Random standard-basis dephasing channel: diagonal Kraus operators.

    Built from the isometry e_i -> e_i (x) u_i with random unit vectors
    u_0, u_1; the Kraus operators are diag(u_0[m], u_1[m]).
    """
    us = []
    for _ in range(2):
        g = rng.normal(size=2) + 1j * rng.normal(size=2)
        us.append(g / np.linalg.norm(g))
    return KrausSet(tuple(np.diag([us[0][m], us[1][m]]) for m in range(2)))


def measure_prepare_channel(rng) -> KrausSet:
    """Random entanglement-breaking channel from rank-1 Kraus operators."""
    w = haar_isometry(rng, 4, 2)
    ops = []
    for i in range(4):
        g = rng.normal(size=2) + 1j * rng.normal(size=2)
        u = g / np.linalg.norm(g)
        ops.append(np.outer(u, w[i, :]))
    return KrausSet(tuple(ops))


def _bloch_matrix(t: np.ndarray, lam: np.ndarray) -> np.ndarray:
    t1, t2, t3 = t
    l1, l2, l3 = lam
    return 0.5 * np.array(
        [
            [1 + t3 + l3, t1 - 1j * t2, 0, l1 + l2],
            [t1 + 1j * t2, 1 - t3 - l3, l1 - l2, 0],
            [0, l1 - l2, 1 + t3 - l3, t1 - 1j * t2],
            [l1 + l2, 0, t1 + 1j * t2, 1 - t3 + l3],
        ]
    )


def bloch_boundary_scale(t: np.ndarray, lam: np.ndarray) -> float:
    """Largest s for which the Choi of (s*t, s*lam) stays PSD (by bisection)."""

    def min_eig(s: float) -> float:
        return float(np.linalg.eigvalsh(_bloch_matrix(s * t, s * lam))[0])

    lo, hi = 0.0, 1.0
    while min_eig(hi) > 0:
        hi *= 2.0
        if hi > 64:
            return hi
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        if min_eig(mid) > 0:
            lo = mid
        else:
            hi = mid
    return lo


def random_bloch_direction(rng) -> tuple[np.ndarray, np.ndarray]:
    d = rng.normal(size=6)
    d /= np.linalg.norm(d)
    return d[:3], d[3:]


def random_rank4_bloch(rng) -> BlochParams:
    """Random CP channel parameters strictly inside the PSD body."""
    t, lam = random_bloch_direction(rng)
    s = bloch_boundary_scale(t, lam) * rng.uniform(0.0, 0.995)
    return BlochParams(t=s * t, lam=s * lam)


def random_rank3_bloch(rng) -> BlochParams:
    """Random CP channel parameters on the PSD boundary (Choi rank 3)."""
    t, lam = random_bloch_direction(rng)
    s = bloch_boundary_scale(t, lam)
    return BlochParams(t=s * t, lam=s * lam)


def random_tetra_lambda(rng) -> np.ndarray:
    """Uniform Dirichlet mixture of the CP tetrahedron vertices."""
    verts = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float)
    w = rng.dirichlet(np.ones(4))
    return w @ verts


def assert_same_report(rep, ref, margin_tol, fields=("unital", "self_complementary", "choi_rank", "cp")):
    """Equal verdict states and ``fields``; margins within ``margin_tol``."""
    for name in ("antidegradable", "degradable", "entanglement_breaking"):
        got, want = getattr(rep, name), getattr(ref, name)
        assert got.state is want.state, (name, got, want)
        assert abs(got.margin - want.margin) <= margin_tol, (name, got, want)
    for name in fields:
        assert getattr(rep, name) == getattr(ref, name), name


def assert_sweep_row_matches_classify(row: dict, channel, margin_tol: float = 1e-12) -> None:
    """A `qdeg sweep` row has the states of classify(channel) and its margins within margin_tol."""
    rep = classify(channel)
    for key, name in (("anti", "antidegradable"), ("deg", "degradable"), ("eb", "entanglement_breaking")):
        verdict = getattr(rep, name)
        assert row[f"{key}_state"] == verdict.state.value, (row, name)
        assert abs(row[f"{key}_margin"] - verdict.margin) <= margin_tol, (row, name)
