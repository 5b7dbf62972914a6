"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line (visible with ``pytest -s``). The
randomized batches use fixed seeds so the suite is reproducible.
"""

import contextlib
import math
import time

import numpy as np

from helpers import (
    apply,
    bloch_boundary_scale,
    bloch_boundary_scales,
    measure_prepare_channel,
    random_bloch_direction,
    random_channel,
    random_dephasing,
    random_density,
    random_rank4_bloch,
    random_tetra_lambda,
    random_unitary,
    verify_certificate,
    verify_witness,
)
from qdeg.channels import (
    BlochParams,
    ChoiMatrix,
    KrausSet,
    Rank2Params,
    choi_from_bloch,
    choi_from_kraus,
    bloch_from_choi,
    complement,
    completely_dephasing,
    dephasing,
    depolarizing,
    kraus_from_choi,
    rank2,
)
from qdeg.classify import (
    VerdictState,
    antidegradable_test,
    classify,
    degradable_test,
    depolarizing_thresholds,
    entanglement_breaking_test,
    rank2_antidegradable,
    rank3_antidegradable,
    rank4_antidegradable,
    self_complementary_test,
    unital_antidegradable,
)
from qdeg.errors import WrongRank
from qdeg.symext import OracleStatus, oracle_extendible

YES, NO, BOUNDARY = VerdictState.YES, VerdictState.NO, VerdictState.BOUNDARY


@contextlib.contextmanager
def criterion(num: int, description: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {num:2d}] FAIL  {description}")
        raise
    print(f"[criterion {num:2d}] PASS  {description}  ({time.perf_counter() - start:.1f}s)")


def test_criterion_01_antidegradability_threshold():
    with criterion(1, "depolarizing antidegradability threshold 1/3 by bisection"):
        start = time.perf_counter()
        anti, _ = depolarizing_thresholds()
        elapsed = time.perf_counter() - start
        assert abs(anti - 1 / 3) <= 1e-9
        assert elapsed < 1.0


def test_criterion_02_eb_threshold_and_gap():
    with criterion(2, "EB threshold 2/3; gap interval antidegradable but not EB"):
        _, eb = depolarizing_thresholds()
        assert abs(eb - 2 / 3) <= 1e-9
        delta = 1e-3
        for p in (1 / 3 + delta, 0.5, 2 / 3 - delta):
            rep = classify(depolarizing(p))
            assert rep.antidegradable.state is YES, p
            assert rep.entanglement_breaking.state is NO, p


def test_criterion_03_exact_boundary_arithmetic():
    with criterion(3, "p=1/3 boundary: tr C^2 = 7/3, 4 sqrt(det) = 1/3, margin 0"):
        c = choi_from_kraus(depolarizing(1 / 3))
        eigs = np.linalg.eigvalsh(c.matrix)
        tr_c2 = float(np.sum(eigs * eigs))
        root_term = 4.0 * math.sqrt(np.prod(eigs))
        assert abs(tr_c2 - 7 / 3) <= 1e-12
        assert abs(root_term - 1 / 3) <= 1e-12
        assert abs(antidegradable_test(c).margin) <= 1e-12


def test_criterion_04_rank2_checkerboard():
    with criterion(4, "200x200 checkerboard sign pattern and trig identity"):
        grid = np.linspace(0.0, np.pi, 200)
        for a in grid:
            cos2a = math.cos(2 * a)
            for b in grid:
                prod = cos2a * math.cos(2 * b)
                ident = math.cos(b - a) ** 2 - math.sin(a + b) ** 2
                assert abs(prod - ident) <= 1e-12
                if abs(prod) > 1e-6:
                    margin = antidegradable_test(choi_from_kraus(rank2(a, b))).margin
                    assert np.sign(margin) == np.sign(-prod), (a, b, margin)


def test_criterion_05_rank_dichotomy():
    with criterion(5, "rank-2 dichotomy on 10,000 draws; rank >= 3 never degradable"):
        rng = np.random.default_rng(20_001)
        for _ in range(10_000):
            k = random_channel(rng, env_dim=2)
            anti = antidegradable_test(choi_from_kraus(k))
            deg = degradable_test(k)
            assert anti.holds or deg.holds
        for i in range(10_000):
            k = random_channel(rng, env_dim=3 + (i % 2))
            assert degradable_test(k).state is NO


def criterion_06_directions(rng, n: int = 10_000):
    """Criterion 6's Bloch samples, drawn in the order of ``random_rank3_bloch``
    (6 normals each) and then ``random_rank4_bloch`` (6 normals, 1 uniform each):
    the rank-3 directions and the rank-4 directions with their uniform factors.
    """
    rank3 = np.array([random_bloch_direction(rng) for _ in range(n)])
    rank4 = [(random_bloch_direction(rng), rng.uniform(0.0, 0.995)) for _ in range(n)]
    return rank3, np.array([d for d, _ in rank4]), np.array([u for _, u in rank4])


def test_criterion_06_specialized_vs_general():
    with criterion(6, "rank-3 / rank-4 / unital closed forms agree with the general test"):
        rng = np.random.default_rng(20_002)
        band = 1e-7
        rank3, rank4, shrink = criterion_06_directions(rng)

        for (t, lam), s in zip(rank3, bloch_boundary_scales(rank3[:, 0], rank3[:, 1])):
            b = BlochParams(t=s * t, lam=s * lam)
            try:
                closed = rank3_antidegradable(b)
            except WrongRank:
                # boundary sample rounded to full rank; skip, it has no
                # closed form to compare
                continue
            general = antidegradable_test(choi_from_bloch(b))
            assert closed.state == general.state or abs(general.margin) <= band

        for (t, lam), s in zip(rank4, bloch_boundary_scales(rank4[:, 0], rank4[:, 1]) * shrink):
            b = BlochParams(t=s * t, lam=s * lam)
            closed = rank4_antidegradable(b)
            general = antidegradable_test(choi_from_bloch(b))
            assert closed.state == general.state or abs(general.margin) <= band

        for _ in range(10_000):
            lam = random_tetra_lambda(rng)
            closed = unital_antidegradable(lam)
            general = antidegradable_test(choi_from_bloch(BlochParams(t=np.zeros(3), lam=lam)))
            assert closed.state == general.state or abs(general.margin) <= band


def test_criterion_06_batched_scales_are_scalar_scales():
    rank3, rank4, _ = criterion_06_directions(np.random.default_rng(20_002))
    for d in (rank3[:500], rank4[:500]):
        batched = bloch_boundary_scales(d[:, 0], d[:, 1])
        scalar = np.array([bloch_boundary_scale(t, lam) for t, lam in d])
        assert np.array_equal(batched.view(np.int64), scalar.view(np.int64))


def test_criterion_07_eb_implies_antidegradable():
    with criterion(7, "10,000 measure-and-prepare channels are antidegradable"):
        rng = np.random.default_rng(20_003)
        for _ in range(10_000):
            c = choi_from_kraus(measure_prepare_channel(rng))
            assert antidegradable_test(c).state in (YES, BOUNDARY)


def test_criterion_08_dephasing_algebra():
    with criterion(8, "dephasing algebra identities to 1e-12"):
        rng = np.random.default_rng(20_004)
        delta = completely_dephasing()
        states = [random_density(rng) for _ in range(100)]
        dephased = [apply(delta, rho) for rho in states]
        for _ in range(100):
            psi = random_dephasing(rng)
            comp = complement(psi)
            for rho, d_rho in zip(states, dephased):
                assert np.linalg.norm(apply(psi, d_rho) - d_rho) <= 1e-12
                assert np.linalg.norm(apply(delta, apply(psi, rho)) - d_rho) <= 1e-12
                assert np.linalg.norm(apply(comp, d_rho) - apply(comp, rho)) <= 1e-12
                assert (
                    np.linalg.norm(apply(comp, apply(psi, rho)) - apply(comp, rho)) <= 1e-12
                )
        # canonical two-Kraus dephasers are degraded by their own complement
        for _ in range(100):
            psi = dephasing(rng.uniform(0, np.pi))
            comp = complement(psi)
            rho = random_density(rng)
            assert np.linalg.norm(apply(comp, apply(psi, rho)) - apply(comp, rho)) <= 1e-12


def test_criterion_09_unitary_covariance():
    with criterion(9, "margin invariant under 1,000 Choi conjugations"):
        rng = np.random.default_rng(20_005)
        for _ in range(10):
            c = choi_from_kraus(random_channel(rng))
            base = antidegradable_test(c).margin
            for _ in range(100):
                u = random_unitary(rng)
                v = random_unitary(rng)
                w = np.kron(v.T, u)
                rotated = ChoiMatrix(w @ c.matrix @ w.conj().T)
                assert abs(antidegradable_test(rotated).margin - base) <= 1e-10


def test_criterion_10_oracle_cross_validation():
    with criterion(10, "symmetric-extension oracle agrees with the analytic verdict on 500 channels"):
        start = time.perf_counter()
        rng = np.random.default_rng(20_006)
        done = 0
        while done < 500:
            k = random_channel(rng)
            c = choi_from_kraus(k)
            margin = antidegradable_test(c).margin
            if abs(margin) <= 1e-3:
                continue
            result = oracle_extendible(c, max_iter=200_000)
            expected = OracleStatus.FEASIBLE if margin > 0 else OracleStatus.INFEASIBLE
            assert result.status is expected, (margin, result.status, result.iterations)
            if result.status is OracleStatus.FEASIBLE:
                verify_witness(result.witness, c.matrix / 2)
            done += 1
        assert time.perf_counter() - start < 300.0


def test_criterion_10_oracle_proofs_by_rank():
    with criterion(10, "oracle proofs verify at Choi ranks 1-4; the face decides rank-2 and rank-3 feasible targets"):
        start = time.perf_counter()
        rng = np.random.default_rng(20_016)
        seen = set()
        for rank in (1, 2, 3, 4):
            done = 0
            while done < 100:
                c = choi_from_kraus(random_channel(rng, env_dim=rank))
                margin = antidegradable_test(c).margin
                if abs(margin) <= 1e-3:
                    continue
                result = oracle_extendible(c)
                expected = OracleStatus.FEASIBLE if margin > 0 else OracleStatus.INFEASIBLE
                assert result.status is expected, (rank, margin, result.status, result.iterations)
                target = c.matrix / 2
                if result.status is OracleStatus.FEASIBLE:
                    verify_witness(result.witness, target)
                    if rank == 2:
                        assert result.iterations == 0
                    elif rank == 3:
                        assert result.iterations <= 8, result.iterations
                else:
                    verify_certificate(result.certificate, target)
                seen.add((rank, result.status))
                done += 1
        assert {(r, s) for r in (2, 3) for s in (OracleStatus.FEASIBLE, OracleStatus.INFEASIBLE)} <= seen
        assert time.perf_counter() - start < 5.0


def test_criterion_11_self_complementarity():
    with criterion(11, "rank2(a, pi/4) self-complementary; generic beta is not"):
        rng = np.random.default_rng(20_007)
        for _ in range(100):
            a = rng.uniform(0, np.pi)
            assert self_complementary_test(rank2(a, math.pi / 4), 1e-10) is True
        found = 0
        while found < 100:
            a = rng.uniform(0, np.pi)
            b = rng.uniform(0, np.pi)
            if abs(abs(math.cos(b)) - abs(math.sin(b))) <= 1e-3:
                continue
            assert self_complementary_test(rank2(a, b), 1e-10) is False
            found += 1


def test_criterion_12_roundtrip_fidelity():
    with criterion(12, "kraus/choi and bloch/choi round trips within 1e-9"):
        rng = np.random.default_rng(20_008)
        for _ in range(1000):
            c = choi_from_kraus(random_channel(rng))
            k2 = kraus_from_choi(c)
            c2 = choi_from_kraus(k2)
            assert np.linalg.norm(c.matrix - c2.matrix) <= 1e-9
        for _ in range(1000):
            b = random_rank4_bloch(rng)
            recovered = bloch_from_choi(choi_from_bloch(b))
            assert isinstance(recovered, BlochParams)
            assert np.linalg.norm(recovered.t - b.t) <= 1e-9
            assert np.linalg.norm(recovered.lam - b.lam) <= 1e-9
