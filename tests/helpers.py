"""Shared random generators (all seeded by callers), reference
implementations and proof checkers for the test suite.

The references and checkers are written apart from the package: they use
numpy directly and no qdeg routine, so a test that compares against them
does not compare qdeg with itself.
"""

from __future__ import annotations

import numpy as np
import pytest

from qdeg.channels import BlochParams, ChoiMatrix, KrausSet
from qdeg.classify import classify
from qdeg.symext import CERT_RTOL

I2 = np.eye(2, dtype=np.complex128)

#: Change of basis whose rows are the Bell vectors; diagonalizes unital Chois.
BELL_F = np.array(
    [[1, 0, 0, 1], [0, 1, 1, 0], [0, 1, -1, 0], [1, 0, 0, -1]],
    dtype=np.complex128,
) / np.sqrt(2.0)

#: The swap of Y and Y' on X (x) Y (x) Y', basis index 4x + 2y + y'.
SWAP_YYP = np.eye(8, dtype=np.complex128)[[0, 2, 1, 3, 4, 6, 5, 7]]


def symmetrize_swap(m: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto the swap(Y, Y')-invariant matrices."""
    return (m + SWAP_YYP @ m @ SWAP_YYP) / 2.0


def vec(a) -> np.ndarray:
    """Column-stacking vectorization: ``vec(A)[j * rows + i] == A[i, j]``."""
    return np.asarray(a, dtype=np.complex128).reshape(-1, order="F")


def trace_last_qubit(m: np.ndarray) -> np.ndarray:
    """Partial trace over the last qubit of a (2n x 2n) matrix."""
    n = m.shape[0] // 2
    return np.einsum("aibi->ab", m.reshape(n, 2, n, 2))


def apply(k: KrausSet, rho) -> np.ndarray:
    """Operator-sum action ``sum_i K_i rho K_i^dag``."""
    rho = np.asarray(rho, dtype=np.complex128)
    out = np.zeros((k.out_dim, k.out_dim), dtype=np.complex128)
    for op in k.operators:
        out += op @ rho @ op.conj().T
    return out


def apply_choi(c: ChoiMatrix, rho) -> np.ndarray:
    """Channel action recovered from the Choi matrix, ``tr_input(C (X^T (x) I))``."""
    m = c.matrix @ np.kron(np.asarray(rho, dtype=np.complex128).T, I2)
    return np.einsum("ijik->jk", m.reshape(2, 2, 2, 2))


def to_bell_basis(c: ChoiMatrix) -> np.ndarray:
    """Conjugate the Choi matrix into the Bell basis, F c F^dag."""
    return BELL_F @ c.matrix @ BELL_F.conj().T


def stinespring(k: KrausSet) -> np.ndarray:
    """Stinespring isometry V = sum_i K_i (x) e_i on output (x) environment, rows y*d + i."""
    d = k.env_dim
    v = np.zeros((2 * d, 2), dtype=np.complex128)
    for i, op in enumerate(k.operators):
        for y in range(2):
            v[y * d + i, :] = op[y, :]
    return v


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


def _bloch_stack(t: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """:func:`_bloch_matrix` of each row of ``(N, 3)`` arrays, entry for entry."""
    (t1, t2, t3), (l1, l2, l3) = t.T, lam.T
    z = np.zeros_like(t1)
    rows = [
        [1 + t3 + l3, t1 - 1j * t2, z, l1 + l2],
        [t1 + 1j * t2, 1 - t3 - l3, l1 - l2, z],
        [z, l1 - l2, 1 + t3 - l3, t1 - 1j * t2],
        [l1 + l2, z, t1 + 1j * t2, 1 - t3 + l3],
    ]
    return 0.5 * np.array(rows, dtype=complex).transpose(2, 0, 1)


def bloch_boundary_scales(t: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """:func:`bloch_boundary_scale` of each row of ``(N, 3)`` arrays t and lam.

    The same steps in lockstep: masked doubling, then 48 bisection steps on
    one ``(N, 4, 4)`` stack, so every row gets the scalar helper's result
    bit for bit.
    """

    def min_eig(s, rows=slice(None)):
        return np.linalg.eigvalsh(_bloch_stack(s[:, None] * t[rows], s[:, None] * lam[rows]))[:, 0]

    lo, hi = np.zeros(len(t)), np.ones(len(t))
    growing = np.arange(len(t))
    while growing.size:
        growing = growing[min_eig(hi[growing], growing) > 0]
        hi[growing] *= 2.0
        growing = growing[hi[growing] <= 64]
    escaped = hi > 64
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        inside = min_eig(mid) > 0
        lo, hi = np.where(inside, mid, lo), np.where(inside, hi, mid)
    return np.where(escaped, 128.0, lo)


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


def verify_witness(y, target, tol=1e-7):
    """y is a symmetric extension of target: PSD, swap invariant, both marginals target."""
    assert np.linalg.eigvalsh(y)[0] >= -tol
    assert np.linalg.norm(trace_last_qubit(y) - target) <= tol
    sy = SWAP_YYP @ y @ SWAP_YYP
    assert np.linalg.norm(trace_last_qubit(sy) - target) <= tol
    assert np.linalg.norm(y - sy) <= tol


def _hermitian_basis(n):
    """Orthonormal basis of the n x n Hermitian matrices under Re tr(A^dag B)."""
    basis = []
    for j in range(n):
        for k in range(j, n):
            e = np.zeros((n, n), dtype=complex)
            if j == k:
                e[j, j] = 1.0
                basis.append(e)
                continue
            e[j, k] = e[k, j] = 1 / np.sqrt(2)
            basis.append(e)
            f = np.zeros((n, n), dtype=complex)
            f[j, k], f[k, j] = 1j / np.sqrt(2), -1j / np.sqrt(2)
            basis.append(f)
    return basis


H8, H4 = _hermitian_basis(8), _hermitian_basis(4)


def coords(m, basis):
    """Coordinates of m in an orthonormal Hermitian basis."""
    return np.array([np.vdot(b, m).real for b in basis])


def _constraints(x):
    """Real coordinates of (swap(x) - x, tr_Y'(x)): A is {constraints = (0, target)}."""
    sx = SWAP_YYP @ x @ SWAP_YYP
    return np.concatenate([coords(sx - x, H8), coords(trace_last_qubit(x), H4)])


# the linear map X -> _constraints(X) in the Hermitian basis, and its null space L
CONSTRAINT_MATRIX = np.array([_constraints(b) for b in H8]).T
_, _sv, _vt = np.linalg.svd(CONSTRAINT_MATRIX)
L_BASIS = _vt[int(np.sum(_sv > 1e-10)):].T


def verify_certificate(w, target):
    """Independent check that w proves the affine set A holds no PSD point.

    w must be Hermitian, PSD, orthogonal to L (the linear part of A), and
    negative on A, checked at two distinct points of A. A rounding-level
    negative eigenvalue -e of w is absorbed as w + e I, which adds e to
    <w, X> on A (every X in A has trace one). It must also pass the
    oracle's own acceptance rule, <w, x0> < -CERT_RTOL * max(1, ||w||_F).
    """
    assert w.shape == (8, 8)
    scale = np.linalg.norm(w)
    assert np.linalg.norm(w - w.conj().T) <= 1e-12 * scale
    shift = max(0.0, -np.linalg.eigvalsh(w)[0])
    assert shift <= 1e-12 * scale
    assert np.linalg.norm(L_BASIS.T @ coords(w, H8)) <= 1e-12 * scale
    rhs = np.concatenate([np.zeros(len(H8)), coords(target, H4)])
    x0 = sum(c * b for c, b in zip(np.linalg.lstsq(CONSTRAINT_MATRIX, rhs, rcond=None)[0], H8))
    step = L_BASIS @ np.random.default_rng(0).normal(size=L_BASIS.shape[1])
    x1 = x0 + sum(c * b for c, b in zip(step, H8))
    for x in (x0, x1):
        assert np.linalg.norm(_constraints(x) - rhs) <= 1e-12
        assert np.trace(x).real == pytest.approx(1.0, abs=1e-12)
        assert np.vdot(w, x).real + shift < 0
    assert np.vdot(w, x0).real < -CERT_RTOL * max(1.0, scale)
    assert np.linalg.norm(x1 - x0) > 0.5
