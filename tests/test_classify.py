import math

import numpy as np
import pytest

from helpers import (
    assert_same_report,
    measure_prepare_channel,
    random_channel,
    random_rank3_bloch,
    random_rank4_bloch,
    random_tetra_lambda,
    random_unitary,
    remix,
)
from qdeg.channels import (
    BlochParams,
    ChoiMatrix,
    KrausSet,
    Rank2Params,
    amplitude_damping,
    bloch_from_choi,
    choi_from_bloch,
    choi_from_kraus,
    choi_rank,
    completely_depolarizing,
    dephasing,
    depolarizing,
    identity,
    rank2,
    to_choi,
    transfer_from_choi,
)
from qdeg.classify import (
    Verdict,
    VerdictState,
    antidegradable_test,
    classify,
    deg_and_antideg_rank2,
    degradable_test,
    depolarizing_thresholds,
    entanglement_breaking_test,
    rank2_antidegradable,
    rank2_degradable,
    rank3_antidegradable,
    rank4_antidegradable,
    self_complementary_test,
    unital_antidegradable,
    verdict_kernel,
)
from qdeg.errors import InvalidParameter, NotAChannel, NotApplicable, NotCompletelyPositive, WrongRank
from qdeg.symext import oracle_extendible

YES, NO, BOUNDARY = VerdictState.YES, VerdictState.NO, VerdictState.BOUNDARY


class TestVerdict:
    def test_from_margin_thresholds(self):
        assert Verdict.from_margin(1e-3, 1e-9).state is YES
        assert Verdict.from_margin(-1e-3, 1e-9).state is NO
        assert Verdict.from_margin(5e-10, 1e-9).state is BOUNDARY
        assert Verdict.from_margin(-5e-10, 1e-9).state is BOUNDARY

    def test_holds(self):
        assert Verdict.from_margin(1.0, 1e-9).holds
        assert Verdict.from_margin(0.0, 1e-9).holds
        assert not Verdict.from_margin(-1.0, 1e-9).holds


class TestAntidegradable:
    def test_identity_channel(self):
        v = antidegradable_test(choi_from_kraus(identity()))
        assert v.state is NO and abs(v.margin + 2.0) <= 1e-12

    def test_completely_depolarizing(self):
        v = antidegradable_test(choi_from_kraus(completely_depolarizing()))
        assert v.state is YES and abs(v.margin - 2.0) <= 1e-12

    def test_depolarizing_boundary(self):
        v = antidegradable_test(choi_from_kraus(depolarizing(1 / 3)))
        assert v.state is BOUNDARY and abs(v.margin) <= 1e-12

    def test_rejects_non_cp(self):
        c = choi_from_bloch(BlochParams(t=[0, 0, 0], lam=[1, 1, -1]))
        with pytest.raises(NotCompletelyPositive):
            antidegradable_test(c)


class TestDegradable:
    def test_identity(self):
        assert degradable_test(identity()).state is YES

    def test_amplitude_damping_regions(self):
        assert degradable_test(amplitude_damping(0.5)).state is YES  # cos 1 > 0
        assert degradable_test(amplitude_damping(math.pi / 3)).state is NO

    def test_depolarizing_rank4(self):
        v = degradable_test(depolarizing(0.5))
        assert v.state is NO and v.margin == -2.0

    def test_rank_one_margin(self):
        assert degradable_test(identity()).margin == 1.0


class TestRank2ClosedForms:
    def test_boundary_cross(self):
        v = rank2_antidegradable(Rank2Params(math.pi / 4, math.pi / 4))
        assert v.state is BOUNDARY

    def test_swap_embed(self):
        v = rank2_antidegradable(Rank2Params(math.pi / 2, 0.0))
        assert v.state is YES and abs(v.margin - 1.0) <= 1e-15

    def test_identity_not_antidegradable(self):
        v = rank2_antidegradable(Rank2Params(0.0, 0.0))
        assert v.state is NO and abs(v.margin + 1.0) <= 1e-15

    def test_dephasing_never_undegradable(self):
        for a in np.linspace(0, np.pi, 40):
            assert rank2_degradable(Rank2Params(a, a)).state in (YES, BOUNDARY)

    def test_quarter_pi_boundary(self):
        for b in (0.0, 0.3, 2.0):
            assert rank2_degradable(Rank2Params(math.pi / 4, b)).state is BOUNDARY

    @pytest.mark.parametrize("alpha, beta", [(math.nan, 0.3), (0.3, math.inf), (-math.inf, 0.3)])
    def test_non_finite_angles_rejected(self, alpha, beta):
        # NaN once gave margin nan, and inf a bare ValueError from math.cos
        with pytest.raises(InvalidParameter, match="finite"):
            Rank2Params(alpha, beta)

    @pytest.mark.parametrize("alpha, beta", [
        pytest.param(10**400, 0.0, id="past-the-float-range"),
        pytest.param(None, 0.0, id="none"),
        pytest.param(0.0, "0.3", id="string"),
        pytest.param(1e308, 0.0, id="double-overflows"),
        pytest.param(0.0, -1e308, id="negative-double-overflows"),
    ])
    def test_angles_whose_double_is_not_finite_rejected(self, alpha, beta):
        # 10**400 and None raised numpy's TypeError, and at 1e308 each
        # closed form raised "ValueError: math domain error", as 2 * alpha
        # overflowed inside math.cos
        with pytest.raises(InvalidParameter, match=r"^(alpha|beta) must be a real number whose double is finite"):
            Rank2Params(alpha, beta)

    def test_small_angles_degradable(self):
        v = rank2_degradable(Rank2Params(0.3, 0.2))
        assert v.state is YES and abs(v.margin - math.cos(0.6) * math.cos(0.4)) <= 1e-15

    def test_agreement_with_general(self):
        for a in np.linspace(0, np.pi, 40):
            for b in np.linspace(0, np.pi, 40):
                prod = math.cos(2 * a) * math.cos(2 * b)
                if abs(prod) <= 1e-6:
                    continue
                closed = rank2_antidegradable(Rank2Params(a, b))
                general = antidegradable_test(choi_from_kraus(rank2(a, b)))
                assert closed.state == general.state, (a, b)

    def test_trig_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            a, b = rng.uniform(-np.pi, np.pi, 2)
            lhs = math.cos(2 * a) * math.cos(2 * b)
            rhs = math.cos(b - a) ** 2 - math.sin(a + b) ** 2
            assert abs(lhs - rhs) <= 1e-12


class TestRank3:
    def test_unital_rank3_norm_rule(self):
        # one Bell weight zero, the rest positive: rank 3 and |lam| <= 1
        lam = np.array([0.5, 0.3, -0.2])
        lam[2] = lam[0] + lam[1] - 1.0  # forces mu3 = 0
        v = rank3_antidegradable(BlochParams(t=[0, 0, 0], lam=lam))
        assert v.state in (YES, BOUNDARY)

    def test_axis_boundary(self):
        v = rank3_antidegradable(BlochParams(t=[0, 0, 0], lam=[1, 0, 0]))
        assert v.state is BOUNDARY
        g = antidegradable_test(choi_from_bloch(BlochParams(t=[0, 0, 0], lam=[1, 0, 0])))
        assert g.state is BOUNDARY

    def test_equal_norms_margin_one(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            b = random_rank3_bloch(rng)
            if abs(np.linalg.norm(b.t) - np.linalg.norm(b.lam)) > 1e-12:
                continue
            assert abs(rank3_antidegradable(b).margin - 1.0) <= 1e-12

    def test_wrong_rank_rejected(self):
        with pytest.raises(WrongRank):
            rank3_antidegradable(BlochParams(t=[0, 0, 0], lam=[0.5, 0.5, 0.5]))

    def test_agreement_with_general(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            b = random_rank3_bloch(rng)
            try:
                closed = rank3_antidegradable(b)
            except WrongRank:
                continue
            general = antidegradable_test(choi_from_bloch(b))
            assert closed.state == general.state or abs(general.margin) <= 1e-7


class TestRank4:
    def test_depolarizing_half(self):
        v = rank4_antidegradable(BlochParams(t=[0, 0, 0], lam=[0.5, 0.5, 0.5]))
        assert v.state is YES

    def test_completely_depolarizing(self):
        v = rank4_antidegradable(BlochParams(t=[0, 0, 0], lam=[0, 0, 0]))
        assert v.state is YES and abs(v.margin - 2.0) <= 1e-12

    def test_weak_noise_not_antidegradable(self):
        v = rank4_antidegradable(BlochParams(t=[0, 0, 0], lam=[0.9, 0.9, 0.9]))
        assert v.state is NO

    def test_rejects_a_map_outside_the_cp_gate(self):
        # minimum Choi eigenvalue -0.25: once read "boundary" with margin 0
        b = BlochParams(t=[0, 0, 0], lam=[1.5, 0, 0])
        with pytest.raises(NotAChannel) as want:
            classify(b)
        with pytest.raises(NotAChannel) as got:
            rank4_antidegradable(b)
        assert str(got.value) == str(want.value)

    def test_agreement_with_general(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            b = random_rank4_bloch(rng)
            closed = rank4_antidegradable(b)
            general = antidegradable_test(choi_from_bloch(b))
            assert abs(closed.margin - general.margin) <= 1e-9
            assert closed.state == general.state or abs(general.margin) <= 1e-7


class TestUnitalForm:
    def test_completely_depolarizing(self):
        v = unital_antidegradable([0, 0, 0])
        assert v.state is YES and abs(v.margin - 2.0) <= 1e-14

    def test_identity(self):
        v = unital_antidegradable([1, 1, 1])
        assert v.state is NO and abs(v.margin + 2.0) <= 1e-14

    def test_depolarizing_threshold(self):
        v = unital_antidegradable([2 / 3, 2 / 3, 2 / 3])
        assert v.state is BOUNDARY

    def test_rejects_outside_tetrahedron(self):
        with pytest.raises(NotCompletelyPositive):
            unital_antidegradable([1, 1, -1])

    @pytest.mark.parametrize("eps, rank", [(1e-9, 3), (3e-9, 3), (3e-8, 4)])
    def test_agrees_with_classify_at_the_rank_cutoff(self, eps, rank):
        # smallest Bell weight eps: Choi eigenvalue eps/2 against tol = 1e-9
        # and the rank cutoff tol * tr(C) = 2e-9; the unital and the Bloch
        # closed forms count the determinant term only at the reported rank 4
        b = BlochParams(t=np.zeros(3), lam=[0.5, 0.3, -0.2 + eps])
        rep = classify(b)
        assert rep.choi_rank == rank
        assert abs(unital_antidegradable(b.lam).margin - rep.antidegradable.margin) <= 1e-12
        assert abs(rank4_antidegradable(b).margin - rep.antidegradable.margin) <= 1e-12
        if rank == 3:
            assert abs(rep.antidegradable.margin - rank3_antidegradable(b).margin) <= 1e-12

    def test_agreement_with_general(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            lam = random_tetra_lambda(rng)
            closed = unital_antidegradable(lam)
            general = antidegradable_test(choi_from_bloch(BlochParams(t=np.zeros(3), lam=lam)))
            assert closed.state == general.state or abs(general.margin) <= 1e-7


class TestEntanglementBreaking:
    def test_completely_depolarizing(self):
        assert entanglement_breaking_test(choi_from_kraus(completely_depolarizing())).state is YES

    def test_identity(self):
        v = entanglement_breaking_test(choi_from_kraus(identity()))
        assert v.state is NO and abs(v.margin + 1.0) <= 1e-12

    def test_depolarizing_two_thirds(self):
        v = entanglement_breaking_test(choi_from_kraus(depolarizing(2 / 3)))
        assert v.state is BOUNDARY

    def test_eb_implies_antidegradable(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            c = choi_from_kraus(measure_prepare_channel(rng))
            assert entanglement_breaking_test(c).state in (YES, BOUNDARY)
            assert antidegradable_test(c).state in (YES, BOUNDARY)


class TestSelfComplementary:
    def test_quarter_pi_family(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            a = rng.uniform(0, np.pi)
            assert self_complementary_test(rank2(a, math.pi / 4), 1e-10) is True

    def test_generic_rank2_fails(self):
        assert self_complementary_test(rank2(0.3, 0.2), 1e-10) is False

    def test_identity_not_applicable(self):
        with pytest.raises(NotApplicable):
            self_complementary_test(identity())


class TestDegAndAntideg:
    def test_quarter_pi_alpha(self):
        for b in (0.0, 0.7, 2.1):
            assert deg_and_antideg_rank2(Rank2Params(math.pi / 4, b)) is True

    def test_quarter_pi_both(self):
        assert deg_and_antideg_rank2(Rank2Params(math.pi / 4, math.pi / 4)) is True
        assert self_complementary_test(rank2(0.9, math.pi / 4), 1e-10) is True

    def test_identity_is_not(self):
        assert deg_and_antideg_rank2(Rank2Params(0.0, 0.0)) is False

    def test_matches_boundary_verdicts(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p = Rank2Params(rng.uniform(0, np.pi), rng.uniform(0, np.pi))
            both = (
                rank2_antidegradable(p).state is BOUNDARY
                and rank2_degradable(p).state is BOUNDARY
            )
            assert deg_and_antideg_rank2(p) is both


class TestThresholds:
    def test_depolarizing_thresholds(self):
        anti, eb = depolarizing_thresholds()
        assert abs(anti - 1 / 3) <= 1e-9
        assert abs(eb - 2 / 3) <= 1e-9


class TestClassify:
    def test_depolarizing_half(self):
        rep = classify(depolarizing(0.5))
        assert rep.antidegradable.state is YES
        assert rep.degradable.state is NO
        assert rep.entanglement_breaking.state is NO
        assert rep.unital is True
        assert rep.choi_rank == 4
        assert rep.cp is True

    def test_amplitude_damping_past_quarter(self):
        rep = classify(amplitude_damping(math.pi / 3))
        assert rep.antidegradable.state is YES
        assert rep.degradable.state is NO
        assert rep.choi_rank == 2

    def test_identity(self):
        rep = classify(identity())
        assert rep.antidegradable.state is NO
        assert rep.degradable.state is YES
        assert rep.entanglement_breaking.state is NO
        assert rep.choi_rank == 1
        assert rep.self_complementary is None

    def test_not_a_channel_diagnostics(self):
        with pytest.raises(NotAChannel) as exc:
            classify(BlochParams(t=[0, 0, 0], lam=[1, 1, -1]))
        assert exc.value.min_choi_eig < -0.9
        assert exc.value.tp_residual <= 1e-10

    def test_not_a_channel_is_not_completely_positive(self):
        with pytest.raises(NotCompletelyPositive) as exc:
            classify(BlochParams(t=[0, 0, 0], lam=[1, 1, -1]))
        assert isinstance(exc.value, NotAChannel)

    def test_every_verdict_raises_one_error(self):
        # Choi spectrum (-0.1, -0.1, -0.1, 2.3)
        c = choi_from_bloch(BlochParams(t=[0, 0, 0], lam=[1.2, 1.2, 1.2]))
        with pytest.raises(NotAChannel) as want:
            classify(c)
        for verdict in (antidegradable_test, degradable_test, entanglement_breaking_test, self_complementary_test):
            with pytest.raises(NotAChannel) as got:
                verdict(c)
            assert str(got.value) == str(want.value), verdict
        with pytest.raises(NotAChannel):
            unital_antidegradable([1.2, 1.2, 1.2])

    @pytest.mark.parametrize("t, lam", [((0, 0, 0), (1e200, 0, 0)), ((0, 0, 0), (1e160, 0, 0)),
                                        ((1e200, 0, 0), (0, 0, 0))])
    def test_overflowing_spectrum_is_not_a_channel(self, t, lam):
        # the 2-norm of the Choi spectrum overflowed to inf, and the CP gate
        # -tol * inf let any minimum eigenvalue through
        with pytest.raises(NotAChannel) as exc:
            classify(BlochParams(t=t, lam=lam))
        assert exc.value.min_choi_eig < -1e159
        if not any(t):  # the unital closed form takes the same map by its lambda
            with pytest.raises(NotAChannel):
                unital_antidegradable(lam)

    def test_tol_of_a_quarter_is_rejected(self):
        # the completely depolarizing Choi spectrum is (1/2, 1/2, 1/2, 1/2): a
        # rank cutoff tol * 2 >= 1/2 leaves no eigenvalue, and rank 0 read
        # "degradable" with margin 2
        c = choi_from_kraus(completely_depolarizing())
        for tol in (0.25, 0.3, float("nan")):
            for verdict in (classify, antidegradable_test, degradable_test, entanglement_breaking_test):
                with pytest.raises(InvalidParameter):
                    verdict(c, tol)
        rep = classify(c, 0.2499)
        assert rep.choi_rank == 4
        assert rep.degradable.state is NO and rep.degradable.margin == -2.0

    @pytest.mark.parametrize("tol", [-1.0, 0.0])
    def test_tol_at_or_below_zero_is_rejected(self, tol):
        # at tol -1 the CP gate refused a CP matrix: classify raised
        # NotAChannel and verdict_kernel answered cp=False; at tol 0 the gate
        # refuses the rounding error of a zero eigenvalue
        channel = depolarizing(0.4)
        c = choi_from_kraus(channel)
        for verdict in (lambda: classify(channel, tol=tol), lambda: verdict_kernel(c.matrix, tol=tol),
                        lambda: choi_rank(c, tol)):
            with pytest.raises(InvalidParameter, match=rf"^tol must be a number > 0, got {tol!r}$"):
                verdict()

    def test_unital_edge_of_cp_set(self):
        # Bell weights (4 + 3e-9, -1e-9, -1e-9, -1e-9): Choi eigenvalue -5e-10, inside the gate
        lam = [1 + 1e-9] * 3
        rep = classify(BlochParams(t=[0, 0, 0], lam=lam))
        assert rep.cp is True and rep.choi_rank == 1
        closed = unital_antidegradable(lam)
        assert closed.state is rep.antidegradable.state
        assert abs(closed.margin - rep.antidegradable.margin) <= 1e-12

    def test_accepts_choi_input(self):
        rep = classify(choi_from_kraus(dephasing(0.4)))
        assert rep.degradable.state in (YES, BOUNDARY)
        assert rep.self_complementary is not None

    def test_report_invariants_random(self):
        rng = np.random.default_rng(8)
        for _ in range(150):
            rep = classify(random_channel(rng))
            if rep.entanglement_breaking.state is YES:
                assert rep.antidegradable.state in (YES, BOUNDARY)
            if rep.choi_rank >= 3:
                assert rep.degradable.state is NO
            if rep.choi_rank == 1:
                assert rep.degradable.state is YES

    def test_redundant_kraus_set(self):
        k1, k2 = rank2(0.3, 0.5).operators
        redundant = KrausSet((k1, k2 / math.sqrt(2), k2 / math.sqrt(2)))
        assert_same_report(classify(redundant), classify(rank2(0.3, 0.5)), 1e-12)

    def test_near_boundary_choi(self):
        rep = classify(choi_from_kraus(depolarizing(3e-10)))
        assert rep.choi_rank == 1
        assert rep.degradable.state is YES
        assert rep.antidegradable.state is NO

    def test_eigenvalue_inside_cp_tolerance(self):
        # min eigenvalue -5e-10 passes the CP gate (-tol * ||C||_F); the
        # Kraus operators must not apply a stricter check of their own
        omega = np.array([1, 0, 0, 1.0])
        c = ChoiMatrix((1 + 1e-9) * np.outer(omega, omega) - 0.5e-9 * np.eye(4))
        assert c.eigen.eigenvalues[0] < -4e-10
        rep = classify(c)
        assert rep.cp is True and rep.choi_rank == 1
        assert rep.degradable.state is YES and rep.antidegradable.state is NO

    def test_to_dict_round(self):
        d = classify(depolarizing(0.5)).to_dict()
        assert d["antidegradable"]["state"] == "yes"
        assert d["choi_rank"] == 4


class TestStructuralInvariants:
    def test_unitary_invariance_of_margin(self):
        rng = np.random.default_rng(9)
        k = random_channel(rng, env_dim=4)
        c = choi_from_kraus(k)
        base = antidegradable_test(c).margin
        for _ in range(100):
            u = random_unitary(rng)
            v = random_unitary(rng)
            w = np.kron(v.T, u)
            rotated = ChoiMatrix(w @ c.matrix @ w.conj().T)
            assert abs(antidegradable_test(rotated).margin - base) <= 1e-10

    def test_rank2_dichotomy(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            k = random_channel(rng, env_dim=2)
            anti = antidegradable_test(choi_from_kraus(k))
            deg = degradable_test(k)
            assert anti.holds or deg.holds

    def test_convexity_spot_check(self):
        rng = np.random.default_rng(11)
        yes_chois = []
        while len(yes_chois) < 30:
            c = choi_from_kraus(random_channel(rng))
            if antidegradable_test(c).state is YES:
                yes_chois.append(c.matrix)
        for _ in range(100):
            i, j = rng.integers(0, len(yes_chois), 2)
            w = rng.uniform()
            mix = ChoiMatrix(w * yes_chois[i] + (1 - w) * yes_chois[j])
            assert antidegradable_test(mix).state is not NO


class TestRepresentationInvariance:
    """Kraus (minimal and remixed), Choi and Bloch/transfer inputs of one
    channel give one report."""

    def test_all_representations_agree(self):
        rng = np.random.default_rng(12)
        channels = [identity(), amplitude_damping(0.6), depolarizing(0.5)]
        channels += [rank2(a, math.pi / 4) for a in (0.3, 1.1, 2.5)]
        channels += [random_channel(rng, env_dim=r) for r in (1, 2, 3, 4) for _ in range(4)]
        for k in channels:
            c = choi_from_kraus(k)
            ref = classify(k)
            reps = [c, bloch_from_choi(c)]
            reps += [remix(k, n, rng) for n in (3, 4) if n >= k.env_dim]
            for rep in reps:
                assert_same_report(classify(rep), ref, 1e-10)

    def test_conversions_match_the_validated_choi(self):
        # to_choi builds the Choi matrix of a Kraus set, Bloch parameters or a
        # transfer block without validate_choi; ChoiMatrix of the same matrix
        # runs it, and the two reports must be identical
        rng = np.random.default_rng(14)
        inputs = [bloch_from_choi(choi_from_kraus(rank2(a, b))) for a, b in ((0.3, 0.5), (1.2, 0.0))]
        inputs += [random_rank3_bloch(rng) for _ in range(4)] + [random_rank4_bloch(rng) for _ in range(4)]
        for rank in (1, 2, 3, 4):
            for _ in range(4):
                k = random_channel(rng, env_dim=rank)
                p = np.zeros(4)  # Pauli weights on (I, X, Y, Z): a unital channel of Choi rank `rank`
                p[rng.choice(4, size=rank, replace=False)] = rng.dirichlet(np.ones(rank))
                lam = p[0] - p[1:].sum() + 2.0 * p[1:]
                inputs += [k, transfer_from_choi(choi_from_kraus(k)), BlochParams(t=np.zeros(3), lam=lam)]
        ranks = set()
        for x in inputs:
            rep = classify(x).to_dict()
            assert rep == classify(ChoiMatrix(to_choi(x).matrix)).to_dict(), x
            ranks.add((type(x).__name__, rep["choi_rank"]))
        assert {(name, r) for name in ("KrausSet", "PauliTransfer", "BlochParams") for r in (1, 2, 3, 4)} <= ranks

    @pytest.mark.parametrize("alpha, beta, expected", [
        (0.3, math.pi / 4, True),
        (math.pi / 4, 0.3, True),
        (0.3, 0.5, False),
    ])
    def test_self_complementarity_is_one_answer(self, alpha, beta, expected):
        # the complement is fixed only up to an environment unitary, so a
        # remixed Kraus set, the Choi matrix and the transfer block must all
        # give the canonical Kraus set's answer
        rng = np.random.default_rng(13)
        k = rank2(alpha, beta)
        c = choi_from_kraus(k)
        ref, status = classify(c), oracle_extendible(c).status
        for rep in (k, remix(k, 2, rng), remix(k, 3, rng), c, bloch_from_choi(c), transfer_from_choi(c)):
            assert classify(rep).self_complementary is expected, rep
            assert self_complementary_test(rep, 1e-10) is expected, rep
            # every verdict takes any representation of the channel
            for verdict, want in ((antidegradable_test, ref.antidegradable), (degradable_test, ref.degradable),
                                  (entanglement_breaking_test, ref.entanglement_breaking)):
                got = verdict(rep)
                assert got.state is want.state and abs(got.margin - want.margin) <= 1e-10, (verdict, rep)
            assert oracle_extendible(rep).status is status, rep
