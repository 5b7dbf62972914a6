"""The batched verdict kernel against an independent reference.

The reference recomputes every margin with plain numpy. Its rank-2
degradability margin takes the route the kernel replaced: Kraus operators
from the top two Choi eigenpairs, their complement, and the
antidegradability margin of the complement's Choi matrix.
"""

import json
import math

import numpy as np
import pytest

from helpers import random_channel
from qdeg import linalg
from qdeg.channels import (
    ChoiMatrix,
    KrausSet,
    bloch_to_choi,
    choi_from_kraus,
    complement,
    depolarizing,
    kraus_from_choi,
    rank2,
    validate_choi,
)
from qdeg.classify import (
    DEFAULT_TOL,
    classify,
    degradable_test,
    verdict_kernel,
    verdict_state,
)
from qdeg.errors import InvalidDimension, NotHermitian, NotTracePreserving

TOL = DEFAULT_TOL
MARGIN_TOL = 1e-12


def choi_of(ops) -> np.ndarray:
    c = np.zeros((4, 4), dtype=complex)
    for k in ops:
        v = np.asarray(k).reshape(-1, order="F")
        c += np.outer(v, v.conj())
    return c


def anti_ref(c: np.ndarray) -> float:
    e = np.linalg.eigvalsh(c)
    phi = np.einsum("ijik->jk", c.reshape(2, 2, 2, 2))
    det = np.prod(np.where(np.abs(e) <= TOL, 0.0, np.clip(e, 0.0, None)))
    return float(np.trace(phi @ phi).real - np.sum(e * e) + 4.0 * math.sqrt(det))


def reference(c: np.ndarray) -> dict:
    e = np.linalg.eigvalsh(c)
    rank = int(np.sum(e > TOL * np.trace(c).real))
    if rank == 1:
        deg = 1.0
    elif rank >= 3:
        deg = float(2 - rank)
    else:
        pair = kraus_from_choi(ChoiMatrix(c), TOL)
        deg = anti_ref(choi_of(complement(pair).operators))
    pt = c.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    return {"anti": anti_ref(c), "deg": deg, "eb": float(np.linalg.eigvalsh(pt)[0]), "rank": rank}


def sample_chois(seed: int, n: int) -> list:
    """Random channels of Choi rank 1-4, a near-boundary one and redundant Kraus sets."""
    rng = np.random.default_rng(seed)
    chois = [choi_from_kraus(random_channel(rng, 1 + i % 4)).matrix for i in range(n)]
    chois.append(choi_from_kraus(depolarizing(3e-10)).matrix)
    for a, b in ((0.3, 0.5), (1.1, 0.2)):
        k1, k2 = rank2(a, b).operators
        chois.append(choi_from_kraus(KrausSet((k1, k2 / np.sqrt(2), k2 / np.sqrt(2)))).matrix)
        chois.append(choi_from_kraus(KrausSet((k1 / np.sqrt(2), k1 / np.sqrt(2), k2))).matrix)
    return chois


def assert_matches(got: dict, ref: dict):
    assert got["rank"] == ref["rank"]
    for key in ("anti", "deg", "eb"):
        assert abs(got[key] - ref[key]) <= MARGIN_TOL, (key, got[key], ref[key])
        assert verdict_state(got[key], TOL) is verdict_state(ref[key], TOL), key


class TestKernelAgainstReference:
    def test_stack_matches_reference(self):
        chois = sample_chois(41, 400)
        m = verdict_kernel(validate_choi(np.array(chois)))
        assert m.anti.shape == m.deg.shape == m.eb.shape == m.rank.shape == (len(chois),)
        assert m.cp.all()
        for i, c in enumerate(chois):
            got = {"anti": m.anti[i], "deg": m.deg[i], "eb": m.eb[i], "rank": int(m.rank[i])}
            assert_matches(got, reference(c))

    def test_scalar_verdicts_match_reference(self):
        for c in sample_chois(42, 200):
            rep = classify(ChoiMatrix(c))
            got = {
                "anti": rep.antidegradable.margin,
                "deg": rep.degradable.margin,
                "eb": rep.entanglement_breaking.margin,
                "rank": rep.choi_rank,
            }
            assert_matches(got, reference(c))
            assert degradable_test(ChoiMatrix(c)) == rep.degradable

    def test_rank2_identity_needs_no_complement(self):
        # sum of the top two squared Choi eigenvalues minus tr(Phi(I)^2)
        rng = np.random.default_rng(43)
        for _ in range(300):
            c = choi_from_kraus(random_channel(rng, 2))
            e = c.eigen.eigenvalues
            phi = np.einsum("ijik->jk", c.matrix.reshape(2, 2, 2, 2))
            identity = e[3] ** 2 + e[2] ** 2 - np.trace(phi @ phi).real
            assert abs(degradable_test(c).margin - identity) <= MARGIN_TOL
            assert abs(degradable_test(c).margin - reference(c.matrix)["deg"]) <= MARGIN_TOL

    def test_one_matrix_is_the_stack_row(self):
        chois = np.array(sample_chois(44, 12))
        stack = verdict_kernel(chois)
        for i, c in enumerate(chois):
            one = verdict_kernel(c)
            assert np.ndim(one.anti) == 0 and np.ndim(one.rank) == 0
            for field in ("anti", "deg", "eb"):
                assert abs(getattr(one, field) - getattr(stack, field)[i]) <= MARGIN_TOL
            assert one.rank == stack.rank[i] and one.cp == stack.cp[i]

    def test_determinant_term_follows_the_rank(self):
        # smallest Choi eigenvalues 1.5e-9 (below the rank cutoff tol * tr(C)
        # = 2e-9, above tol) and 1.5e-8: the det C term is zero at rank 3 only
        lam = np.array([[0.5, 0.3, -0.2 + 3e-9], [0.5, 0.3, -0.2 + 3e-8]])
        c = validate_choi(bloch_to_choi(np.zeros_like(lam), lam))
        m = verdict_kernel(c)
        assert m.rank.tolist() == [3, 4]
        e = np.linalg.eigvalsh(c)
        phi = np.einsum("nijik->njk", c.reshape(2, 2, 2, 2, 2))
        without_det = np.einsum("nij,nji->n", phi, phi).real - np.sum(e * e, axis=-1)
        assert abs(m.anti[0] - without_det[0]) <= MARGIN_TOL
        assert abs(m.anti[1] - without_det[1] - 4.0 * math.sqrt(np.prod(e[1]))) <= MARGIN_TOL
        assert 4.0 * math.sqrt(np.prod(e[1])) > 1e-4

    def test_cp_mask_marks_rows_outside_the_cp_set(self):
        lam = np.array([[0.5, 0.5, 0.5], [1.0, 1.0, -1.0], [0.2, -0.3, 0.1]])
        m = verdict_kernel(validate_choi(bloch_to_choi(np.zeros_like(lam), lam)))
        assert m.cp.tolist() == [True, False, True]
        assert m.min_eig[1] < -0.5


class TestStackValidation:
    def test_hermiticity_names_the_row(self):
        stack = np.array([np.eye(4) / 2] * 3, dtype=complex)
        stack[2, 0, 1] = 1e-3
        with pytest.raises(NotHermitian, match=r"Choi matrix \(row 2\) is not Hermitian.*1\.414e-03"):
            validate_choi(stack)

    def test_trace_preservation_names_the_row(self):
        stack = np.array([np.eye(4) / 2] * 3, dtype=complex)
        stack[1] *= 1.1
        with pytest.raises(NotTracePreserving, match=r"output marginal \(row 1\) deviates"):
            validate_choi(stack)

    def test_one_matrix_message_unchanged(self):
        with pytest.raises(NotTracePreserving, match=r"^output marginal deviates from identity by 1\.414e-01$"):
            ChoiMatrix(np.eye(4) / 2 * 1.1)

    def test_choi_matrix_is_one_matrix(self):
        with pytest.raises(InvalidDimension):
            ChoiMatrix(np.array([np.eye(4) / 2] * 2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1j * np.inf, complex(0, np.nan)])
    def test_public_entries_reject_non_finite(self, bad):
        m = np.eye(4, dtype=complex) / 2
        m[3, 3] = bad
        with pytest.raises(InvalidDimension, match="finite"):
            ChoiMatrix(m)
        with pytest.raises(InvalidDimension, match="finite"):
            validate_choi(np.array([m, m]))
        with pytest.raises(InvalidDimension, match="finite"):
            linalg.as_matrix(m)
        with pytest.raises(InvalidDimension, match="finite"):
            KrausSet((m[2:, 2:],))


class TestSpectralPasses:
    def test_classify_runs_two_eigendecompositions(self, monkeypatch):
        calls = []
        for name in ("eigh", "eigvalsh"):
            fn = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda a, fn=fn, name=name: calls.append(name) or fn(a))
        for rank, channel in ((1, rank2(0.0, 0.0)), (2, rank2(0.3, 0.5)), (4, depolarizing(0.4))):
            calls.clear()
            assert classify(channel).choi_rank == rank
            # the Choi spectrum (shared by every verdict) and the PPT spectrum
            assert sorted(calls) == ["eigh", "eigvalsh"], rank


class TestReportTypes:
    def test_report_fields_are_python_scalars(self):
        for channel in (rank2(0.3, 0.5), depolarizing(0.4), rank2(0.0, 0.0), ChoiMatrix(np.eye(4) / 2)):
            d = classify(channel).to_dict()
            for name in ("antidegradable", "degradable", "entanglement_breaking"):
                assert type(d[name]["margin"]) is float
                assert type(d[name]["state"]) is str
            assert d["unital"] is True or d["unital"] is False
            assert d["cp"] is True
            assert type(d["choi_rank"]) is int
            assert d["self_complementary"] is None or type(d["self_complementary"]) is bool
            json.dumps(d)
