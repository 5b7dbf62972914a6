import numpy as np
import pytest

from helpers import (
    _bloch_matrix,
    apply,
    apply_choi,
    random_channel,
    random_density,
    random_dephasing,
    random_unitary,
    stinespring,
    to_bell_basis,
    trace_last_qubit,
    vec,
)
from qdeg.channels import (
    PAULIS,
    BlochParams,
    ChoiMatrix,
    KrausSet,
    PauliTransfer,
    amplitude_damping,
    bell_mu,
    bloch_from_choi,
    bloch_to_choi,
    choi_from_bloch,
    choi_from_kraus,
    choi_from_transfer,
    choi_rank,
    complement,
    completely_dephasing,
    completely_depolarizing,
    dephasing,
    depolarizing,
    identity,
    kraus_from_choi,
    phi_of_identity,
    rank2,
    to_choi,
    transfer_from_choi,
    unital,
    validate_choi,
)
from qdeg.classify import classify
from qdeg.errors import (
    InvalidDimension,
    InvalidParameter,
    NotCompletelyPositive,
    NotHermitian,
    NotTracePreserving,
)

I2 = np.eye(2, dtype=complex)


def dep_choi(p: float) -> np.ndarray:
    """The depolarizing Choi matrix as the convex mixture of the identity
    and completely depolarizing Choi matrices."""
    ident = np.outer(vec(I2), vec(I2).conj())
    return (1 - p) * ident + p * np.eye(4) / 2


class TestTypes:
    def test_kraus_completeness_enforced(self):
        with pytest.raises(NotTracePreserving):
            KrausSet((0.5 * I2,))

    def test_kraus_operator_count(self):
        with pytest.raises(InvalidDimension):
            KrausSet(tuple(np.eye(2) / np.sqrt(5) for _ in range(5)))

    def test_kraus_shape_consistency(self):
        with pytest.raises(InvalidDimension):
            KrausSet((np.eye(2), np.zeros((3, 2))))

    def test_choi_must_be_hermitian(self):
        m = np.eye(4, dtype=complex)
        m[0, 1] = 1.0
        with pytest.raises(NotHermitian):
            ChoiMatrix(m)

    def test_choi_hermiticity_error_names_residual(self):
        m = np.eye(4, dtype=complex) / 2
        m[0, 1] = 1e-3
        with pytest.raises(NotHermitian, match=r"Choi matrix is not Hermitian.*1\.414e-03"):
            ChoiMatrix(m)

    def test_choi_spectrum_cached_and_read_only(self):
        c = choi_from_kraus(depolarizing(0.3))
        assert c.eigen is c.eigen
        assert not c.matrix.flags.writeable
        assert not c.eigen.eigenvalues.flags.writeable
        assert not c.eigen.eigenvectors.flags.writeable

    def test_to_choi_any_representation(self):
        k = depolarizing(0.3)
        c = choi_from_kraus(k)
        assert to_choi(c) is c
        for rep in (k, bloch_from_choi(c), transfer_from_choi(c)):
            assert np.linalg.norm(to_choi(rep).matrix - c.matrix) <= 1e-12
        with pytest.raises(InvalidParameter):
            to_choi(np.eye(4))

    def test_choi_output_marginal(self):
        with pytest.raises(NotTracePreserving):
            ChoiMatrix(np.diag([1.5, 0, 0, 0.5]).astype(complex))

    def test_transfer_diagonal_detection(self):
        tr = PauliTransfer(t=np.zeros(3), T=np.diag([0.5, 0.4, 0.3]))
        assert tr.is_diagonal()
        assert np.allclose(tr.as_bloch().lam, [0.5, 0.4, 0.3])


class TestChoiFromKraus:
    def test_identity(self):
        c = choi_from_kraus(identity())
        assert np.allclose(c.matrix, np.outer(vec(I2), vec(I2).conj()))
        assert np.isclose(np.trace(c.matrix).real, 2.0)

    def test_depolarizing_matches_mixture(self):
        for p in (0.0, 0.25, 1 / 3, 0.5, 1.0):
            c = choi_from_kraus(depolarizing(p))
            assert np.allclose(c.matrix, dep_choi(p), atol=1e-14)

    def test_rank2_closed_form(self):
        a, b = 0.7, 0.3
        c = choi_from_kraus(rank2(a, b))
        ca, cb, sa, sb = np.cos(a), np.cos(b), np.sin(a), np.sin(b)
        expected = np.array(
            [
                [ca**2, 0, 0, ca * cb],
                [0, sa**2, sa * sb, 0],
                [0, sa * sb, sb**2, 0],
                [ca * cb, 0, 0, cb**2],
            ]
        )
        assert np.allclose(c.matrix, expected, atol=1e-14)

    def test_output_marginal_is_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            c = choi_from_kraus(random_channel(rng))
            assert np.linalg.norm(trace_last_qubit(c.matrix) - I2) <= 1e-10


class TestKrausFromChoi:
    def test_identity_single_operator(self):
        k = kraus_from_choi(choi_from_kraus(identity()))
        assert len(k.operators) == 1
        op = k.operators[0]
        phase = op[0, 0] / abs(op[0, 0])
        assert np.allclose(op / phase, I2, atol=1e-12)

    def test_maximally_mixed_choi(self):
        k = kraus_from_choi(ChoiMatrix(np.eye(4, dtype=complex) / 2))
        assert len(k.operators) == 4
        rebuilt = choi_from_kraus(k)
        assert np.linalg.norm(rebuilt.matrix - np.eye(4) / 2) <= 1e-10

    def test_roundtrip_random(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            c = choi_from_kraus(random_channel(rng))
            c2 = choi_from_kraus(kraus_from_choi(c))
            assert np.linalg.norm(c.matrix - c2.matrix) <= 1e-9

    def test_rejects_non_psd(self):
        c = choi_from_bloch(BlochParams(t=[0, 0, 0], lam=[1, 1, -1]))
        with pytest.raises(NotCompletelyPositive):
            kraus_from_choi(c)

    def test_rejects_tol_above_every_eigenvalue(self):
        # rank 0: no eigenvalue of the completely depolarizing Choi (all 1/2) exceeds 0.3 * 2
        with pytest.raises(InvalidParameter):
            kraus_from_choi(choi_from_kraus(completely_depolarizing()), 0.3)

    def test_near_boundary_trace_preserving(self):
        # the three eigenvalues p/4 fall below the rank cutoff; the kept
        # operator alone misses trace preservation by about 3e-10
        c = choi_from_kraus(depolarizing(3e-10))
        k = kraus_from_choi(c)
        assert len(k.operators) == 1
        gram = sum(op.conj().T @ op for op in k.operators)
        assert np.linalg.norm(gram - I2) <= 1e-14
        assert np.linalg.norm(choi_from_kraus(k).matrix - c.matrix) <= 1e-9


class TestBloch:
    def test_conversion_is_the_validated_matrix_bit_for_bit(self):
        # half of a subnormal lambda rounds to a signed zero that makes the
        # builder's output Hermitian in value but not in bits; the conversion
        # takes the Hermitian part as validate_choi does, so no bit differs
        t, lam = np.zeros(3), np.array([0.0, 5e-324, 0.0])
        m = bloch_to_choi(t, lam)
        assert validate_choi(m).tobytes() != m.tobytes()
        assert choi_from_bloch(BlochParams(t=t, lam=lam)).matrix.tobytes() == validate_choi(m).tobytes()

    def test_identity_params(self):
        c = choi_from_bloch(BlochParams(t=[0, 0, 0], lam=[1, 1, 1]))
        assert np.allclose(c.matrix, np.outer(vec(I2), vec(I2).conj()), atol=1e-14)

    def test_depolarizing_params(self):
        for p in (0.2, 0.6):
            c = choi_from_bloch(BlochParams(t=[0, 0, 0], lam=[1 - p] * 3))
            assert np.allclose(c.matrix, dep_choi(p), atol=1e-14)

    def test_constant_channel(self):
        # t = (0,0,1), lam = 0 sends every state to |0><0|; substituting into
        # the parametrized Choi matrix gives diag(1, 0, 1, 0)
        c = choi_from_bloch(BlochParams(t=[0, 0, 1], lam=[0, 0, 0]))
        assert np.allclose(c.matrix, np.diag([1, 0, 1, 0.0]), atol=1e-14)

    def test_recover_identity(self):
        b = bloch_from_choi(choi_from_kraus(identity()))
        assert isinstance(b, BlochParams)
        assert np.allclose(b.t, 0) and np.allclose(b.lam, 1)

    def test_recover_depolarizing(self):
        p = 0.37
        b = bloch_from_choi(choi_from_kraus(depolarizing(p)))
        assert isinstance(b, BlochParams)
        assert np.allclose(b.t, 0, atol=1e-12)
        assert np.allclose(b.lam, 1 - p, atol=1e-12)

    def test_roundtrip_random_diagonal(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            t = rng.uniform(-0.4, 0.4, 3)
            lam = rng.uniform(-0.6, 0.6, 3)
            b2 = bloch_from_choi(choi_from_bloch(BlochParams(t=t, lam=lam)))
            assert isinstance(b2, BlochParams)
            assert np.linalg.norm(b2.t - t) <= 1e-11
            assert np.linalg.norm(b2.lam - lam) <= 1e-11

    def test_general_transfer_roundtrip(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            k = random_channel(rng)
            c = choi_from_kraus(k)
            tr = transfer_from_choi(c)
            c2 = choi_from_transfer(tr.t, tr.T)
            assert np.linalg.norm(c.matrix - c2.matrix) <= 1e-11

    def test_pauli_map_matches_entrywise_forms(self):
        # the one constant Pauli-Choi map against the written-out Bloch Choi
        # matrix and against tr(P_i Phi(P_j)) / 2 through the Choi action
        rng = np.random.default_rng(4)
        t, lam = rng.uniform(-0.5, 0.5, (2, 50, 3))
        stack = bloch_to_choi(t, lam)
        for i in range(50):
            assert np.abs(stack[i] - _bloch_matrix(t[i], lam[i])).max() <= 1e-14
            c = choi_from_transfer(t[i], np.diag(lam[i]))
            assert np.abs(c.matrix - _bloch_matrix(t[i], lam[i])).max() <= 1e-14
        paulis = (I2, *PAULIS)
        for _ in range(50):
            c = choi_from_kraus(random_channel(rng))
            r = [[0.5 * np.trace(p @ apply_choi(c, q)).real for q in paulis] for p in paulis]
            tr = transfer_from_choi(c)
            assert np.abs(tr.t - np.array(r)[1:, 0]).max() <= 1e-14
            assert np.abs(tr.T - np.array(r)[1:, 1:]).max() <= 1e-14

    def test_nondiagonal_returns_transfer(self):
        u = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        r = bloch_from_choi(choi_from_kraus(KrausSet((u,))))
        assert isinstance(r, PauliTransfer)

    def test_diagonal_cutoff(self):
        # an off-diagonal T entry of at most 1e-10 counts as diagonal
        for off, diagonal in ((0.5e-10, True), (2e-10, False)):
            T = np.diag([0.5, 0.4, 0.3])
            T[0, 1] = off
            tr = PauliTransfer(t=np.zeros(3), T=T)
            assert tr.is_diagonal() is diagonal
            assert isinstance(bloch_from_choi(choi_from_transfer(tr.t, tr.T)), BlochParams) is diagonal
            if not diagonal:
                with pytest.raises(InvalidParameter):
                    tr.as_bloch()


class TestBellBasis:
    def test_identity_channel(self):
        bell = to_bell_basis(choi_from_bloch(BlochParams(t=[0, 0, 0], lam=[1, 1, 1])))
        assert np.allclose(bell, np.diag([2, 0, 0, 0.0]), atol=1e-14)

    def test_completely_depolarizing(self):
        bell = to_bell_basis(choi_from_bloch(BlochParams(t=[0, 0, 0], lam=[0, 0, 0])))
        assert np.allclose(bell, np.eye(4) / 2, atol=1e-14)

    def test_general_pattern(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            t1, t2, t3 = rng.uniform(-0.4, 0.4, 3)
            lam = rng.uniform(-0.6, 0.6, 3)
            bell = to_bell_basis(choi_from_bloch(BlochParams(t=[t1, t2, t3], lam=lam)))
            m0, m1, m2, m3 = bell_mu(lam)
            expected = 0.5 * np.array(
                [
                    [m0, t1, -1j * t2, t3],
                    [t1, m1, -t3, 1j * t2],
                    [1j * t2, -t3, m2, t1],
                    [t3, -1j * t2, t1, m3],
                ]
            )
            assert np.linalg.norm(bell - expected) <= 1e-12


class TestComplement:
    def test_unitary_gives_trace_map(self):
        rng = np.random.default_rng(5)
        u = random_unitary(rng)
        comp = complement(KrausSet((u,)))
        assert comp.out_dim == 1
        assert all(op.shape == (1, 2) for op in comp.operators)
        for _ in range(20):
            rho = random_density(rng)
            out = apply(comp, rho)
            assert out.shape == (1, 1)
            assert abs(out[0, 0] - np.trace(rho)) <= 1e-12

    def test_completely_dephasing_fixed(self):
        # the complement of a dephasing channel ignores off-diagonal input
        rng = np.random.default_rng(6)
        delta = completely_dephasing()
        comp = complement(delta)
        for _ in range(20):
            rho = random_density(rng)
            assert np.allclose(apply(comp, apply(delta, rho)), apply(comp, rho), atol=1e-12)

    def test_double_complement_spectrum(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            k = random_channel(rng)
            s1 = np.linalg.eigvalsh(choi_from_kraus(k).matrix)
            s2 = np.linalg.eigvalsh(choi_from_kraus(complement(complement(k))).matrix)
            assert np.linalg.norm(s1 - s2) <= 1e-10

    def test_complement_matches_stinespring(self):
        rng = np.random.default_rng(8)
        for d in (1, 2, 3, 4):
            k = random_channel(rng, env_dim=d)
            v = stinespring(k)
            rho = random_density(rng)
            big = (v @ rho @ v.conj().T).reshape(2, d, 2, d)
            tr_y = np.einsum("iaib->ab", big)
            tr_z = np.einsum("aibi->ab", big)
            assert np.allclose(tr_z, apply(k, rho), atol=1e-12)
            assert np.allclose(tr_y, apply(complement(k), rho), atol=1e-12)


class TestApply:
    def test_identity(self):
        rng = np.random.default_rng(9)
        rho = random_density(rng)
        assert np.allclose(apply(identity(), rho), rho)

    def test_completely_depolarizing(self):
        rng = np.random.default_rng(10)
        rho = random_density(rng)
        assert np.allclose(apply(completely_depolarizing(), rho), np.trace(rho) * I2 / 2, atol=1e-13)

    def test_amplitude_damping_populations(self):
        # by direct evaluation of the two canonical Kraus operators at beta=0:
        # |0><0| -> diag(cos^2 a, sin^2 a) while |1><1| is fixed
        a = 0.8
        k = amplitude_damping(a)
        assert np.allclose(
            apply(k, np.diag([1, 0.0])), np.diag([np.cos(a) ** 2, np.sin(a) ** 2]), atol=1e-13
        )
        assert np.allclose(apply(k, np.diag([0, 1.0])), np.diag([0, 1.0]), atol=1e-13)

    def test_matches_choi_action(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            k = random_channel(rng, env_dim=int(rng.integers(1, 5)))
            c = choi_from_kraus(k)
            rho = random_density(rng)
            assert np.linalg.norm(apply(k, rho) - apply_choi(c, rho)) <= 1e-11


class TestPhiOfIdentity:
    def test_unital(self):
        assert np.allclose(phi_of_identity(choi_from_kraus(depolarizing(0.3))), I2, atol=1e-13)

    def test_rank2(self):
        a, b = 1.1, 0.4
        m = phi_of_identity(choi_from_kraus(rank2(a, b)))
        expected = np.diag(
            [np.cos(a) ** 2 + np.sin(b) ** 2, np.sin(a) ** 2 + np.cos(b) ** 2]
        )
        assert np.allclose(m, expected, atol=1e-13)

    def test_bloch(self):
        t = np.array([0.1, -0.2, 0.3])
        m = phi_of_identity(choi_from_bloch(BlochParams(t=t, lam=[0.2, 0.1, 0.4])))
        expected = np.array(
            [[1 + t[2], t[0] - 1j * t[1]], [t[0] + 1j * t[1], 1 - t[2]]]
        )
        assert np.allclose(m, expected, atol=1e-13)


class TestChoiRank:
    def test_identity(self):
        assert choi_rank(choi_from_kraus(identity())) == 1

    def test_rank2_generic(self):
        assert choi_rank(choi_from_kraus(rank2(0.7, 0.3))) == 2

    def test_depolarizing_full(self):
        for p in (0.1, 0.5, 1.0):
            assert choi_rank(choi_from_kraus(depolarizing(p))) == 4

    def test_rejects_non_psd(self):
        c = choi_from_bloch(BlochParams(t=[0, 0, 0], lam=[1, 1, -1]))
        with pytest.raises(NotCompletelyPositive):
            choi_rank(c)

    @pytest.mark.parametrize("p", [6e-10, 2e-9])
    def test_kraus_count_is_rank(self, p):
        # the eigenvalues p/2 lie below the rank cutoff tol * tr(C) = 2e-9
        c = choi_from_kraus(depolarizing(p))
        assert len(kraus_from_choi(c).operators) == choi_rank(c) == classify(c).choi_rank == 1

    def test_unital_edge_of_cp_set(self):
        # Bell weights mu = (4 + 3e-9, -1e-9, -1e-9, -1e-9): Choi eigenvalue -5e-10, inside the gate
        lam = [1 + 1e-9] * 3
        c = choi_from_bloch(unital(lam))
        assert choi_rank(c) == len(kraus_from_choi(c).operators) == classify(c).choi_rank == 1


class TestUnitaryCovariance:
    def test_choi_conjugation(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            k = random_channel(rng)
            u = random_unitary(rng)
            v = random_unitary(rng)
            rotated = KrausSet(tuple(u @ op @ v for op in k.operators))
            w = np.kron(v.T, u)
            lhs = choi_from_kraus(rotated).matrix
            rhs = w @ choi_from_kraus(k).matrix @ w.conj().T
            assert np.linalg.norm(lhs - rhs) <= 1e-11
            s1 = np.linalg.eigvalsh(lhs)
            s2 = np.linalg.eigvalsh(choi_from_kraus(k).matrix)
            assert np.linalg.norm(s1 - s2) <= 1e-11


class TestDephasingAlgebra:
    def test_diagonal_dephasers_commute_with_delta(self):
        rng = np.random.default_rng(13)
        delta = completely_dephasing()
        for _ in range(50):
            psi = random_dephasing(rng)
            comp = complement(psi)
            rho = random_density(rng)
            d_rho = apply(delta, rho)
            assert np.linalg.norm(apply(psi, d_rho) - d_rho) <= 1e-12
            assert np.linalg.norm(apply(delta, apply(psi, rho)) - d_rho) <= 1e-12
            assert np.linalg.norm(apply(comp, d_rho) - apply(comp, rho)) <= 1e-12
            assert np.linalg.norm(apply(comp, apply(psi, rho)) - apply(comp, rho)) <= 1e-12

    def test_rank2_dephasing_degraded_by_complement(self):
        # complement(Psi) . Psi = complement(Psi) holds for the canonical
        # dephasing family directly (it is basis covariant)
        rng = np.random.default_rng(14)
        for _ in range(50):
            psi = dephasing(rng.uniform(0, np.pi))
            comp = complement(psi)
            rho = random_density(rng)
            assert np.linalg.norm(apply(comp, apply(psi, rho)) - apply(comp, rho)) <= 1e-12


class TestNamedConstructors:
    def test_depolarizing_zero_is_identity(self):
        c1 = choi_from_kraus(depolarizing(0.0))
        c2 = choi_from_kraus(identity())
        assert np.linalg.norm(c1.matrix - c2.matrix) <= 1e-12

    def test_depolarizing_one_is_maximally_mixed(self):
        assert np.allclose(choi_from_kraus(depolarizing(1.0)).matrix, np.eye(4) / 2, atol=1e-14)

    def test_depolarizing_range(self):
        for bad in (-0.1, 1.0001):
            with pytest.raises(InvalidParameter):
                depolarizing(bad)

    def test_dephasing_amplitude_damping_are_rank2(self):
        a = 0.9
        assert np.allclose(
            choi_from_kraus(dephasing(a)).matrix, choi_from_kraus(rank2(a, a)).matrix
        )
        assert np.allclose(
            choi_from_kraus(amplitude_damping(a)).matrix,
            choi_from_kraus(rank2(a, 0.0)).matrix,
        )

    def test_unital_inside_tetrahedron(self):
        b = unital([0.5, -0.25, 0.25])
        assert np.allclose(b.t, 0)

    def test_unital_rejects_outside(self):
        with pytest.raises(NotCompletelyPositive):
            unital([1, 1, -1])

    def test_rank2_always_trace_preserving(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            rank2(rng.uniform(-10, 10), rng.uniform(-10, 10))


class TestStinespring:
    def test_isometry_property(self):
        rng = np.random.default_rng(16)
        for d in (1, 2, 3, 4):
            v = stinespring(random_channel(rng, env_dim=d))
            assert v.shape == (2 * d, 2)
            assert np.linalg.norm(v.conj().T @ v - I2) <= 1e-10
