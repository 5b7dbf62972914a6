import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from helpers import (
    CONSTRAINT_MATRIX,
    H4,
    H8,
    L_BASIS,
    SWAP_YYP,
    coords,
    random_channel,
    random_density,
    random_hermitian,
    random_unitary,
    symmetrize_swap,
    trace_last_qubit,
    verify_certificate,
    verify_witness,
)
from qdeg.channels import (
    BlochParams,
    ChoiMatrix,
    amplitude_damping,
    choi_from_bloch,
    choi_from_kraus,
    completely_depolarizing,
    depolarizing,
    identity,
    rank2,
)
from qdeg.classify import antidegradable_test
from qdeg.errors import InvalidDimension, InvalidParameter, NotAChannel, NotPSD
from qdeg._barrier import _face, _full_face, _psd_part, _search, _swap, _tensor_eye, barrier, lift_certificate
from qdeg.linalg import _partial_trace
from qdeg.symext import (
    ORACLE_MAX_ITER,
    ORACLE_TOL,
    ExtensionProblem,
    OracleStatus,
    barrier_feasibility,
    oracle_extendible,
    _gated_problem,
)

I2 = np.eye(2, dtype=complex)


class TestKernels:
    """The reshape/broadcast kernels against their explicit kron forms."""

    def _random(self, rng, n):
        return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))

    def test_swap(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            m = self._random(rng, 8)
            assert np.max(np.abs(_swap(m) - SWAP_YYP @ m @ SWAP_YYP)) <= 1e-15
            assert np.max(np.abs(symmetrize_swap(m) - (m + SWAP_YYP @ m @ SWAP_YYP) / 2)) <= 1e-15

    def test_tensor_identity(self):
        rng = np.random.default_rng(11)
        for n in (2, 4):
            for _ in range(20):
                a = self._random(rng, n)
                assert np.max(np.abs(_tensor_eye(a) - np.kron(a, I2))) <= 1e-15

    def test_partial_trace(self):
        rng = np.random.default_rng(12)
        for n in (4, 8):
            eye = np.eye(n // 2)
            for _ in range(20):
                m = self._random(rng, n)
                kron_form = sum(np.kron(eye, e[None, :]) @ m @ np.kron(eye, e[:, None]) for e in I2)
                assert np.max(np.abs(_partial_trace(m, n // 2, 2, 1) - kron_form)) <= 1e-15


def project_psd(m):
    return _psd_part(*np.linalg.eigh(m))


class TestProjectPsd:
    """``_psd_part``, which turns the barrier's last iterate into a witness."""

    def test_fixed_point(self):
        rng = np.random.default_rng(0)
        g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        m = g @ g.conj().T
        assert np.linalg.norm(project_psd(m) - m) <= 1e-12 * np.linalg.norm(m)

    def test_clamps_negative(self):
        m = np.diag([1.0, -1.0, 0, 0, 0, 0, 0, 0]).astype(complex)
        assert np.allclose(project_psd(m), np.diag([1.0, 0, 0, 0, 0, 0, 0, 0]))

    def test_distance_formula(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            m = random_hermitian(rng, 8)
            w = np.linalg.eigvalsh(m)
            expected = np.sqrt(np.sum(np.minimum(w, 0.0) ** 2))
            assert abs(np.linalg.norm(m - project_psd(m)) - expected) <= 1e-10


def full_face(target):
    """The full space, the face of R = C^4: its start point lifted to 8x8,
    the real views of its free directions as rows, its directions and Q."""
    face = _full_face()
    d, q = face.directions, face.q
    return q @ _search(face, target) @ q.conj().T, d[:-1].reshape(len(d) - 1, -1).view(np.float64), d, q


def face_of(target, vectors, rank):
    """The face of a target of Choi rank ``rank``, R spanned by the last
    ``rank`` columns of ``vectors``, and its start point."""
    face = _full_face() if rank == 4 else _face(vectors[:, 4 - rank:])
    return face, _search(face, target)


class TestProjectMarginal:
    """The full space's start point x0, the least-norm point of the affine
    set A (the marginal constraint and swap invariance), from which the
    barrier searches every target."""

    def _target(self, rng):
        return random_density(rng, 4)

    def _rhs(self, t):
        return np.concatenate([np.zeros(len(H8)), coords(t, H4)])

    def test_meets_constraints(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            t = self._target(rng)
            p = full_face(t)[0]
            assert np.linalg.norm(CONSTRAINT_MATRIX @ coords(p, H8) - self._rhs(t)) <= 1e-13
            assert np.linalg.norm(p - p.conj().T) <= 1e-15
            least = np.linalg.lstsq(CONSTRAINT_MATRIX, self._rhs(t), rcond=None)[0]
            assert np.linalg.norm(coords(p, H8) - least) <= 1e-13

    def test_residual_orthogonal_to_constraint_set(self):
        # x0 is the projection of 0 onto A: its move from 0 is orthogonal to L
        rng = np.random.default_rng(5)
        for _ in range(20):
            moved = coords(full_face(self._target(rng))[0], H8)
            assert np.linalg.norm(L_BASIS.T @ moved) <= 1e-13


class TestSymmetrizeSwap:
    def test_invariant_unchanged(self):
        rng = np.random.default_rng(6)
        m = random_hermitian(rng, 8)
        s = symmetrize_swap(m)
        assert np.linalg.norm(symmetrize_swap(s) - s) <= 1e-13

    def test_swap_is_involution(self):
        assert np.array_equal(SWAP_YYP @ SWAP_YYP, np.eye(8))

    def test_average_has_equal_marginals(self):
        rng = np.random.default_rng(7)
        rho_xy = random_density(rng, 4)
        sigma = random_density(rng, 2)
        avg = symmetrize_swap(np.kron(rho_xy, sigma))
        m_yp = trace_last_qubit(avg)
        m_y = trace_last_qubit(SWAP_YYP @ avg @ SWAP_YYP)
        assert np.linalg.norm(m_y - m_yp) <= 1e-12


class TestExtensionProblem:
    def test_trace_validation(self):
        with pytest.raises(InvalidDimension):
            ExtensionProblem(target=np.eye(4, dtype=complex))

    def test_psd_validation(self):
        m = np.diag([1.5, -0.5, 0, 0]).astype(complex)
        with pytest.raises(NotPSD):
            ExtensionProblem(target=m)

    def test_psd_error_names_its_numbers(self):
        m = np.diag([0.5 + 2e-3, 0.5, 0.0, -2e-3]).astype(complex)
        with pytest.raises(NotPSD, match=r"minimum eigenvalue -0\.002 is below -tol = -0\.001$"):
            ExtensionProblem(target=m, tol=1e-3)

    # before the checks, max_iter -1 answered INCONCLUSIVE at -1 steps for a
    # target whose start point is a witness, tol -1 raised NotPSD and tol
    # nan NumericalFailure
    @pytest.mark.parametrize("name, value", [
        ("max_iter", -1), ("max_iter", 0), ("max_iter", 2.5), ("max_iter", True),
        ("tol", -1.0), ("tol", float("nan")), ("tol", 0.0),
        pytest.param("tol", 10**400, id="tol-10**400"),  # past the float range: it raised TypeError
    ], ids=lambda v: repr(v) if not isinstance(v, str) else v)
    def test_parameters_checked(self, name, value):
        with pytest.raises(InvalidParameter, match=rf"^{name} must be .*, got {re.escape(repr(value))}$"):
            ExtensionProblem(target=np.eye(4, dtype=complex) / 4, **{name: value})

    def test_numpy_integer_max_iter(self):
        r = barrier_feasibility(ExtensionProblem(target=np.eye(4, dtype=complex) / 4, max_iter=np.int64(1)))
        assert r.status is OracleStatus.FEASIBLE and r.iterations == 0

    @pytest.mark.parametrize("scale", [0.5, 0.8, 0.9, 1.1, 1.25, 2.0])
    def test_spectrum_gate_agrees_with_cholesky_gate(self, scale):
        # oracle_extendible reads lambda_min(C) / 2 from the CP gate's
        # spectrum, ExtensionProblem from the target's own. The unital
        # channel lambda = (1 + d)(1, 1, 1) has Choi eigenvalues -d / 2
        # (three times) and 2 + 3 d / 2; a unitary on the output keeps them
        tol = 1e-12
        lam = 1.0 + 4.0 * tol * scale  # lambda_min(C) / 2 = -scale * tol
        u = random_unitary(np.random.default_rng(int(scale * 100)), 2)
        ui = np.kron(np.eye(2), u)
        c = ChoiMatrix(ui @ choi_from_bloch(BlochParams(t=np.zeros(3), lam=[lam] * 3)).matrix @ ui.conj().T)
        assert c.eigen.eigenvalues[0] / 2 == pytest.approx(-scale * tol, rel=1e-3)
        outcomes = []
        for gate in (lambda: ExtensionProblem(target=c.matrix / 2, tol=tol, max_iter=1),
                     lambda: oracle_extendible(c, tol=tol, max_iter=1)):
            try:
                gate()
                outcomes.append("accepted")
            except NotPSD as exc:
                outcomes.append(float(re.search(r"eigenvalue (\S+) is below", str(exc)).group(1)))
        if scale < 1:
            assert outcomes == ["accepted", "accepted"]
        else:
            assert "accepted" not in outcomes and outcomes[0] == pytest.approx(outcomes[1], rel=1e-9)

    def test_spectrum_gate_on_the_readme_example(self):
        # `qdeg oracle --tol 1e-3` on lambda = 1.000002 (1, 1, 1): both gates
        # refuse the target at the default oracle tol, with one number
        c = choi_from_bloch(BlochParams(t=np.zeros(3), lam=[1.000002] * 3))
        pattern = r"^target is not PSD: minimum eigenvalue \S+ is below -tol = -1e-07$"
        messages = []
        for gate in (lambda: ExtensionProblem(target=c.matrix / 2),
                     lambda: _gated_problem(c, ORACLE_TOL, ORACLE_MAX_ITER)):
            with pytest.raises(NotPSD, match=pattern) as info:
                gate()
            messages.append(float(re.search(r"eigenvalue (\S+) is below", str(info.value)).group(1)))
        assert messages[0] == pytest.approx(-5.000000000823648e-07, rel=1e-15)
        assert messages[1] == pytest.approx(messages[0], rel=1e-12)

    def test_oracle_zero_tol_rejected(self):
        # it ran 20 000 steps to INCONCLUSIVE
        with pytest.raises(InvalidParameter, match=r"got 0\.0$"):
            oracle_extendible(depolarizing(0.4), tol=0.0)


class TestOracle:
    def test_product_target_feasible(self):
        r = oracle_extendible(choi_from_kraus(completely_depolarizing()))
        assert r.status is OracleStatus.FEASIBLE
        verify_witness(r.witness, np.eye(4) / 4)
        assert np.linalg.norm(r.witness - np.eye(8) / 8) <= 1e-6

    def test_maximally_entangled_infeasible(self):
        r = oracle_extendible(choi_from_kraus(identity()))
        assert r.status is OracleStatus.INFEASIBLE
        assert r.residual > 1e-2

    def test_rejects_a_map_outside_the_cp_gate(self):
        # Choi eigenvalue -1e-8: inside the target's -tol, outside the CP gate
        c = choi_from_bloch(BlochParams(t=np.zeros(3), lam=[1 + 2e-8] * 3))
        ExtensionProblem(target=c.matrix / 2)
        with pytest.raises(NotAChannel):
            oracle_extendible(c)

    def test_depolarizing_half_feasible(self):
        c = choi_from_kraus(depolarizing(0.5))
        r = oracle_extendible(c)
        assert r.status is OracleStatus.FEASIBLE
        verify_witness(r.witness, c.matrix / 2)

    def test_agreement_sample(self):
        rng = np.random.default_rng(8)
        done = 0
        while done < 40:
            k = random_channel(rng)
            c = choi_from_kraus(k)
            margin = antidegradable_test(c).margin
            if abs(margin) <= 1e-3:
                continue
            r = oracle_extendible(c, max_iter=200_000)
            expected = OracleStatus.FEASIBLE if margin > 0 else OracleStatus.INFEASIBLE
            assert r.status is expected, (margin, r.status, r.iterations)
            if r.status is OracleStatus.FEASIBLE:
                verify_witness(r.witness, c.matrix / 2)
            done += 1

    def test_depolarizing_upset(self):
        # the feasible p's form an up-set at grid resolution 0.02
        statuses = []
        for p in np.linspace(0.0, 1.0, 51):
            r = oracle_extendible(choi_from_kraus(depolarizing(float(p))))
            statuses.append(r.status)
        seen_feasible = False
        for s in statuses:
            if s is OracleStatus.FEASIBLE:
                seen_feasible = True
            elif seen_feasible:
                pytest.fail("feasible region is not an up-set")
        assert seen_feasible

    @pytest.mark.parametrize("beta", [0.0, 0.5])
    @pytest.mark.parametrize("margin", [-2e-5, -2e-6])
    def test_near_boundary_rank2_infeasible(self, margin, beta):
        # the canonical rank2 margin is -2 cos(2 alpha) cos(2 beta); at beta 0
        # and -2e-5 this is the alpha 0.7853931633974482 of the CLI test
        alpha = float(np.arccos(-margin / (2 * np.cos(2 * beta)))) / 2
        c = choi_from_kraus(rank2(alpha, beta))
        assert antidegradable_test(c).margin == pytest.approx(margin, rel=1e-6)
        r = oracle_extendible(c)
        assert r.status is OracleStatus.INFEASIBLE and r.iterations <= 56, (r.status, r.iterations)
        verify_certificate(r.certificate, c.matrix / 2)

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_agreement_by_rank(self, rank):
        rng = np.random.default_rng(20 + rank)
        done = 0
        while done < 40:
            c = choi_from_kraus(random_channel(rng, env_dim=rank))
            margin = antidegradable_test(c).margin
            if abs(margin) <= 1e-3:
                continue
            r = oracle_extendible(c)
            expected = OracleStatus.FEASIBLE if margin > 0 else OracleStatus.INFEASIBLE
            assert r.status is expected and r.iterations <= 56, (margin, r.status, r.iterations)
            _decided_with_proof(r, c.matrix / 2)
            done += 1


class TestCertificate:
    def test_identity_certified_at_first_cycle(self):
        c = choi_from_kraus(identity())
        r = oracle_extendible(c)
        assert r.status is OracleStatus.INFEASIBLE and r.iterations == 0
        verify_certificate(r.certificate, c.matrix / 2)

    def test_rank2_target(self):
        c = choi_from_kraus(amplitude_damping(0.3))
        assert antidegradable_test(c).margin < -1e-3
        r = oracle_extendible(c)
        assert r.status is OracleStatus.INFEASIBLE
        verify_certificate(r.certificate, c.matrix / 2)

    def test_agreement_sample_certificates(self):
        # the channels of TestOracle.test_agreement_sample
        rng = np.random.default_rng(8)
        done = infeasible = 0
        while done < 40:
            c = choi_from_kraus(random_channel(rng))
            if abs(antidegradable_test(c).margin) <= 1e-3:
                continue
            r = oracle_extendible(c, max_iter=200_000)
            if r.status is OracleStatus.INFEASIBLE:
                assert r.certificate is not None
                verify_certificate(r.certificate, c.matrix / 2)
                infeasible += 1
            else:
                assert r.certificate is None
            done += 1
        assert infeasible > 0

    def test_depolarizing_grid_infeasible_results_carry_certificates(self):
        for p in np.linspace(0.0, 1.0, 51):
            c = choi_from_kraus(depolarizing(float(p)))
            r = oracle_extendible(c)
            assert (r.status is OracleStatus.INFEASIBLE) == (r.certificate is not None)
            if r.certificate is not None:
                verify_certificate(r.certificate, c.matrix / 2)


def _decided_with_proof(r, target):
    """Assert a FEASIBLE or INFEASIBLE answer and check its proof."""
    if r.status is OracleStatus.FEASIBLE:
        verify_witness(r.witness, target)
    else:
        assert r.status is OracleStatus.INFEASIBLE, (r.status, r.iterations, r.residual)
        verify_certificate(r.certificate, target)


class TestBarrier:
    def test_basis_is_orthonormal_basis_of_l(self):
        # the full space is the face of R = C^4: its 24 free directions,
        # lifted by the unitary Q, are an orthonormal basis of L
        _, basis, directions, q = full_face(np.eye(4, dtype=complex) / 4)
        assert basis.shape == (24, 128) and directions.shape == (25, 8, 8)
        assert np.linalg.norm(basis @ basis.T - np.eye(24)) <= 1e-13
        cols = np.array([coords(q @ d @ q.conj().T, H8) for d in directions[:24]]).T
        assert L_BASIS.shape[1] == 24
        assert np.linalg.norm(cols.T @ cols - np.eye(24)) <= 1e-13
        assert np.linalg.norm(L_BASIS @ (L_BASIS.T @ cols) - cols) <= 1e-13
        assert np.array_equal(directions[24], -np.eye(8))

    def test_routes_by_support_face(self):
        # every Choi rank goes to the one solver
        rng = np.random.default_rng(19)
        for rank in (1, 2, 3, 4):
            c = choi_from_kraus(random_channel(rng, env_dim=rank))
            assert np.sum(np.linalg.eigvalsh(c.matrix) > 1e-9) == rank
            r = oracle_extendible(c)
            ref = barrier_feasibility(ExtensionProblem(target=c.matrix / 2))
            assert (r.status, r.iterations) == (ref.status, ref.iterations)

    def test_rank2_face_costs_no_step(self):
        # a rank-2 target is decided on its one-point face y0 at 0 steps: by
        # y0 when it is a witness, and otherwise by the face certificate
        # v v^dag, v the eigenvector of y0's negative eigenvalue, lifted to
        # 8x8; no full-space step is taken
        rng = np.random.default_rng(23)
        on_face = lifted = 0
        for _ in range(40):
            c = choi_from_kraus(random_channel(rng, env_dim=2))
            problem = ExtensionProblem(target=c.matrix / 2)
            face, x0 = face_of(problem.target, c.eigen.eigenvectors, 2)
            assert len(face.directions) == 1  # one point: its only direction is -I
            result = barrier(problem, face, x0)
            steps = result.iterations
            r = oracle_extendible(c)
            assert steps == 0 and r.iterations == 0 and r.status is result.status
            if r.status is OracleStatus.FEASIBLE:
                verify_witness(r.witness, problem.target)
                on_face += 1
            else:
                assert r.status is OracleStatus.INFEASIBLE
                w, v = np.linalg.eigh(x0)
                assert w[0] < 0
                assert np.linalg.norm(result.certificate - np.outer(v[:, 0], v[:, 0].conj())) <= 1e-12
                verify_certificate(r.certificate, problem.target)
                lifted += 1
        assert on_face > 0 and lifted > 0

    @pytest.mark.parametrize("rank", [2, 3])
    def test_lifted_certificates_verify(self, rank):
        # the face's own certificate, lifted by lift_certificate, is the
        # oracle's answer, after the face's steps alone
        rng = np.random.default_rng(40 + rank)
        lifted = 0
        while lifted < 25:
            c = choi_from_kraus(random_channel(rng, env_dim=rank))
            if antidegradable_test(c).margin >= -1e-3:
                continue
            target = c.matrix / 2
            face, x0 = face_of(target, c.eigen.eigenvectors, rank)
            result = barrier(ExtensionProblem(target=target), face, x0)
            steps = result.iterations
            assert result.status is OracleStatus.INFEASIBLE
            w = lift_certificate(face, target, result.certificate, x0)
            verify_certificate(w, target)
            r = oracle_extendible(c)
            assert r.status is OracleStatus.INFEASIBLE and r.iterations == steps
            assert np.array_equal(r.certificate, w)
            lifted += 1

    @pytest.mark.parametrize("margin, beta, status, steps", [
        (-2e-5, 0.0, OracleStatus.INFEASIBLE, 33),
        (-2e-5, 0.5, OracleStatus.INFEASIBLE, 33),
        (-2e-6, 0.0, OracleStatus.INFEASIBLE, 42),
        (-2e-6, 0.5, OracleStatus.INFEASIBLE, 42),
        (-2e-7, 0.5, OracleStatus.FEASIBLE, 36),
    ])
    def test_near_boundary_rank2_falls_back_to_the_full_space(self, margin, beta, status, steps):
        # the lifted face certificate has |<W, x0>| / ||W||_F of order
        # margin^2 and fails the rule <W, x0> < -CERT_RTOL max(1, ||W||_F),
        # so the full space decides alone, after the face's 0 steps
        alpha = float(np.arccos(-margin / (2 * np.cos(2 * beta)))) / 2
        c = choi_from_kraus(rank2(alpha, beta))
        target = c.matrix / 2
        face, x0 = face_of(target, c.eigen.eigenvectors, 2)
        result = barrier(ExtensionProblem(target=target), face, x0)
        face_steps = result.iterations
        assert face_steps == 0 and result.status is OracleStatus.INFEASIBLE
        assert lift_certificate(face, target, result.certificate, x0) is None
        r = oracle_extendible(c)
        assert (r.status, r.iterations) == (status, steps)
        _decided_with_proof(r, target)

    @pytest.mark.parametrize("channel, status, steps, counts", [
        ((61, 1, 0), "infeasible", 0, {("eigh", (4, 4)): 1, ("eigh", (8, 8)): 1, ("eigvalsh", (8, 8)): 1}),
        ((62, 2, 1), "feasible", 0, {("eigh", (4, 4)): 1, ("eigh", (2, 2)): 1, ("svd", (2, 4)): 1, ("svd", (4, 4)): 1}),
        (amplitude_damping(0.3), "infeasible", 0, {("eigh", (4, 4)): 1, ("eigh", (2, 2)): 1, ("eigh", (8, 8)): 1,
                                                   ("svd", (2, 4)): 1, ("svd", (4, 4)): 1, ("solve", (2, 2)): 1,
                                                   ("eigvalsh", (6, 6)): 1}),
        ((63, 3, 4), "feasible", 1, {("eigh", (4, 4)): 3, ("svd", (2, 6)): 1, ("svd", (9, 16)): 1, ("solve", (8, 8)): 1}),
        ((63, 3, 7), "infeasible", 0, {("eigh", (4, 4)): 2, ("eigh", (8, 8)): 1, ("svd", (2, 6)): 1, ("svd", (9, 16)): 1,
                                       ("eigvalsh", (4, 4)): 2, ("solve", (4, 4)): 1}),
        (depolarizing(0.4), "feasible", 2, {("eigh", (4, 4)): 1, ("eigh", (8, 8)): 3, ("eigvalsh", (8, 8)): 1,
                                            ("solve", (25, 25)): 2}),
        (depolarizing(0.3), "infeasible", 0, {("eigh", (4, 4)): 1, ("eigh", (8, 8)): 1, ("eigvalsh", (8, 8)): 1}),
    ], ids=["rank1", "rank2-feasible", "rank2", "rank3-feasible", "rank3-infeasible", "rank4", "rank4-infeasible"])
    def test_one_target_eigendecomposition_per_call(self, monkeypatch, channel, status, steps, counts):
        # one seeded target per (rank, status) class; a (seed, rank, index)
        # triple names item `index` of random_channel(default_rng(seed), rank).
        # The CP gate's spectrum also decides the oracle's PSD gate, so the
        # target is decomposed once (the 4x4 eigh; at rank 3 the face's
        # matrices are 4x4 too) and no Cholesky factor is taken. No
        # decomposition may be added: each count is at most the given one,
        # by function and shape. The full space is built first, once per
        # process, so that its two SVDs are not counted.
        if isinstance(channel, tuple):
            seed, rank, index = channel
            rng = np.random.default_rng(seed)
            channel = [random_channel(rng, env_dim=rank) for _ in range(index + 1)][-1]
        oracle_extendible(depolarizing(0.4))
        calls = []
        for name in ("eigh", "eigvalsh", "svd", "solve", "cholesky"):
            fn = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda a, *args, fn=fn, name=name, **kw:
                                calls.append((name, np.shape(a))) or fn(a, *args, **kw))
        r = oracle_extendible(channel)
        assert (r.status.value, r.iterations) == (status, steps)
        seen = {call: calls.count(call) for call in calls}
        assert all(seen[call] <= counts.get(call, 0) for call in seen), seen

    def test_positive_definite_start_returns_at_once(self):
        r = barrier_feasibility(ExtensionProblem(target=np.eye(4, dtype=complex) / 4))
        assert r.status is OracleStatus.FEASIBLE and r.iterations == 0
        assert np.linalg.norm(r.witness - np.eye(8) / 8) <= 1e-15

    def test_inconclusive_only_at_the_cap(self):
        rng = np.random.default_rng(16)
        channels = (choi_from_kraus(random_channel(rng, env_dim=4)) for _ in range(100))
        c = next(c for c in channels if oracle_extendible(c).iterations > 1)
        r = oracle_extendible(c, max_iter=1)
        assert r.status is OracleStatus.INCONCLUSIVE and r.iterations == 1
        assert np.isfinite(r.residual) and r.witness is None and r.certificate is None

    def test_face_run_at_the_cap_is_left_to_the_full_space(self):
        # a rank-3 face run that reaches the cap is INCONCLUSIVE; the full
        # space counts on from the face's steps, so it checks its start
        # point once, at the cap
        rng = np.random.default_rng(16)
        channels = (choi_from_kraus(random_channel(rng, env_dim=3)) for _ in range(200))
        c = next(c for c in channels if oracle_extendible(c).iterations > 1)
        r = oracle_extendible(c, max_iter=1)
        assert r.status is OracleStatus.INCONCLUSIVE and r.iterations == 1
        assert np.isfinite(r.residual) and r.witness is None and r.certificate is None

    def test_face_run_at_the_cap_is_inconclusive(self):
        # the barrier answers on a face as in the full space: a run that
        # reaches the cap is INCONCLUSIVE at the cap, with the residual of
        # its last iterate and no proof (a face run once returned None here)
        rng = np.random.default_rng(16)
        for _ in range(200):
            c = choi_from_kraus(random_channel(rng, env_dim=3))
            target = c.matrix / 2
            face, x0 = face_of(target, c.eigen.eigenvectors, 3)
            if barrier(ExtensionProblem(target=target), face, x0).iterations >= 2:
                break
        else:
            pytest.fail("no rank-3 face run took 2 steps")
        r = barrier(ExtensionProblem(target=target, max_iter=1), face, x0)
        assert r.status is OracleStatus.INCONCLUSIVE and r.iterations == 1
        assert np.isfinite(r.residual) and r.witness is None and r.certificate is None

    @pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-9, 1e-11])
    def test_near_singular_full_rank_targets(self, eps):
        # (1 - eps) C3 + eps C4: full rank, with a smallest eigenvalue near eps
        rng = np.random.default_rng(14)
        c4 = choi_from_kraus(random_channel(rng, env_dim=4)).matrix
        signs = {1: 0, -1: 0}
        while min(signs.values()) < 2:
            c3 = choi_from_kraus(random_channel(rng, env_dim=3)).matrix
            c = ChoiMatrix((1 - eps) * c3 + eps * c4)
            margin = antidegradable_test(c).margin
            sign = 1 if margin > 0 else -1
            if abs(margin) <= 1e-3 or signs[sign] == 2:
                continue
            target = c.matrix / 2
            assert np.linalg.eigvalsh(target)[0] >= 1e-12  # full rank
            r = oracle_extendible(c)
            expected = OracleStatus.FEASIBLE if margin > 0 else OracleStatus.INFEASIBLE
            assert r.status is expected and r.iterations <= 56, (margin, r.status, r.iterations)
            _decided_with_proof(r, target)
            signs[sign] += 1

    def test_full_rank_sample_decided(self):
        rng = np.random.default_rng(15)
        infeasible = 0
        for _ in range(200):
            c = choi_from_kraus(random_channel(rng, env_dim=4))
            margin = antidegradable_test(c).margin
            r = oracle_extendible(c)
            _decided_with_proof(r, c.matrix / 2)
            if abs(margin) > 1e-3:
                assert (r.status is OracleStatus.FEASIBLE) == (margin > 0), margin
            infeasible += r.status is OracleStatus.INFEASIBLE
        assert infeasible > 0

    def test_targets_just_inside_tol_decided(self):
        # rank 2 plus an eigenvalue -9e-8 inside -tol: at a 300-step cap the
        # full-space barrier left 15 of these 200 INCONCLUSIVE, its PSD
        # projection's residual stuck at 1.05e-7
        rng = np.random.default_rng(5)
        for _ in range(200):
            u = random_unitary(rng, 4)
            lam = np.concatenate([[-9e-8, 0.0], rng.dirichlet([0.2, 0.2]) * (1 + 9e-8)])
            target = (u * lam) @ u.conj().T
            r = barrier_feasibility(ExtensionProblem(target=target, max_iter=300))
            _decided_with_proof(r, target)

    def test_cold_import_builds_no_basis(self):
        # the import must not build the full space's geometry (oracle-mixed
        # setup time pays for it), the first call builds it once, and the
        # package must not pull in scipy
        code = (
            "import sys, qdeg\n"
            "from qdeg import _barrier\n"
            "assert _barrier._full_face.cache_info().currsize == 0\n"
            "r = qdeg.oracle_extendible(qdeg.choi_from_kraus(qdeg.rank2(1.0, 0.2)))\n"
            "assert r.status.value != 'inconclusive', r\n"
            "qdeg.oracle_extendible(qdeg.choi_from_kraus(qdeg.depolarizing(0.4)))\n"
            "info = _barrier._full_face.cache_info()\n"
            "assert (info.currsize, info.misses) == (1, 1), info\n"
            "assert 'scipy' not in sys.modules\n"
        )
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr


class TestFace:
    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_face_of_a_channel(self, rank):
        # V = (R (x) C^2) ∩ swap(R (x) C^2) has dimension 2 rank - 2 below
        # rank 4, is annihilated by every exposing sym(u u^dag (x) I), and A
        # restricted to it is one point at rank 2 and has 7 free directions
        # at rank 3; at rank 4 V is C^8, whose swap-antisymmetric part
        # |x> (x) singlet comes last, and A has 24 free directions
        rng = np.random.default_rng(30 + rank)
        swap_signs = {2: [1] * 2, 3: [1] * 4, 4: [1] * 6 + [-1] * 2}[rank]
        for _ in range(20):
            target = choi_from_kraus(random_channel(rng, env_dim=rank)).matrix / 2
            _, v = np.linalg.eigh(target)
            face, x0 = face_of(target, v, rank)
            directions, q = face.directions, face.q
            dim = len(swap_signs)
            assert q.shape == (8, dim)
            assert np.linalg.norm(q.conj().T @ q - np.eye(dim)) <= 1e-12
            assert np.linalg.norm(SWAP_YYP @ q - q * swap_signs) <= 1e-12
            for u in v[:, : 4 - rank].T:
                w_u = symmetrize_swap(np.kron(np.outer(u, u.conj()), I2))
                assert np.linalg.norm(w_u @ q) <= 1e-12
            x = q @ x0 @ q.conj().T
            assert np.linalg.norm(trace_last_qubit(x) - target) <= 1e-12
            assert len(directions) - 1 == {2: 0, 3: 7, 4: 24}[rank]
            for d in directions[:-1]:
                assert np.linalg.norm(trace_last_qubit(q @ d @ q.conj().T)) <= 1e-12
                assert abs(np.vdot(d, x0)) <= 1e-12

    def test_face_with_an_antisymmetric_part(self):
        # the classical-quantum channel |0><0| (x) rho + |1><1| (x) |psi><psi|
        # has |0> (x) C^2 in its range R, so V also holds |0> (x) singlet
        rho = np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)
        psi = np.array([0.6, 0.8j])
        c = np.kron(np.diag([1.0, 0.0]), rho) + np.kron(np.diag([0.0, 1.0]), np.outer(psi, psi.conj()))
        target = c / 2
        _, v = np.linalg.eigh(target)
        face, x0 = face_of(target, v, 3)
        q = face.q
        assert q.shape == (8, 5)
        assert np.linalg.norm(SWAP_YYP @ q - q * [1, 1, 1, 1, -1]) <= 1e-12
        assert np.linalg.norm(trace_last_qubit(q @ x0 @ q.conj().T) - target) <= 1e-12
        r = oracle_extendible(ChoiMatrix(c))
        assert r.status is OracleStatus.FEASIBLE  # entanglement breaking
        verify_witness(r.witness, target)

    def test_import_compiles_no_solver_code(self):
        # one-shot CLI processes that never run the oracle do not compile it
        code = (
            "import sys, qdeg, qdeg.cli\n"
            "assert 'qdeg._barrier' not in sys.modules\n"
            "r = qdeg.oracle_extendible(qdeg.choi_from_kraus(qdeg.rank2(1.0, 0.2)))\n"
            "assert r.status.value == 'feasible' and r.iterations == 0, r\n"
            "assert 'qdeg._barrier' in sys.modules\n"
        )
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
