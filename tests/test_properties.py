"""Property tests: every sweep row is the classify() verdict of its channel,
and classify() gives one report for every form of one channel."""

import json
import math
import os
import tempfile

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from helpers import (  # noqa: E402
    assert_same_report,
    assert_sweep_row_matches_classify,
    random_channel,
    random_unitary,
    remix,
)
from qdeg.channels import BlochParams, ChoiMatrix, bell_mu, choi_from_kraus, depolarizing, rank2  # noqa: E402
from qdeg.classify import classify  # noqa: E402
from qdeg.cli import main  # noqa: E402


def axis(lo, hi):
    """A sweep axis with min in [lo, hi), a positive width and 2-6 steps."""
    return st.builds(
        lambda a, w, n: {"min": a, "max": a + w, "steps": n},
        st.floats(lo, hi), st.floats(0.01, 2.0), st.integers(2, 6),
    )


direction = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).filter(
    lambda v: np.linalg.norm(v) > 0.1
)
sweep_docs = st.one_of(
    st.fixed_dictionaries({"family": st.just("rank2"), "alpha": axis(-3.0, 3.0), "beta": axis(-3.0, 3.0)}),
    st.fixed_dictionaries({"family": st.just("depolarizing"), "p": axis(-0.5, 1.2)}),
    st.fixed_dictionaries({"family": st.just("unital"), "direction": direction, "scale": axis(-1.5, 1.5)}),
)


def grid_channels(doc):
    """(row parameters, channel, CP status) in row order.

    The status is "in" or "out" of the CP set, or "edge" within 1e-9 of its
    boundary, where the sweep's tolerance may keep or drop the point.
    """
    def grid(name):
        return np.linspace(doc[name]["min"], doc[name]["max"], doc[name]["steps"])

    if doc["family"] == "rank2":
        return [({"alpha": a, "beta": b}, rank2(a, b), "in") for a in grid("alpha") for b in grid("beta")]
    if doc["family"] == "depolarizing":
        return [({"p": p}, depolarizing(min(max(p, 0.0), 1.0)), "in") for p in grid("p")]
    rows = []
    for s in grid("scale"):
        lam = s * np.array(doc["direction"])
        mu = bell_mu(lam).min()
        status = "in" if mu > 1e-9 else "out" if mu < -1e-9 else "edge"
        rows.append(({"scale": s}, BlochParams(t=np.zeros(3), lam=lam), status))
    return rows


@settings(max_examples=60, deadline=None)
@given(sweep_docs)
def test_sweep_rows_match_classify(doc):
    expected = grid_channels(doc)
    with tempfile.TemporaryDirectory() as tmp:
        spec, out = os.path.join(tmp, "sweep.json"), os.path.join(tmp, "out.json")
        with open(spec, "w") as fh:
            json.dump(doc, fh)
        code = main(["sweep", spec, "--format", "json", "--out", out])
        if code == 2:
            assert all(status != "in" for _, _, status in expected)
            return
        assert code == 0
        with open(out) as fh:
            rows = json.load(fh)
    # rows come in grid order; points outside the CP set are left out
    rows = iter(rows)
    row = next(rows, None)
    for params, channel, status in expected:
        present = row is not None and all(row[k] == float(v) for k, v in params.items())
        assert present or status != "in", params
        assert not present or status != "out", params
        if present:
            assert_sweep_row_matches_classify(row, channel)
            row = next(rows, None)
    assert row is None


seeds = st.integers(0, 2**32 - 1)
# Haar-random channels of Choi rank 1-4, and rank-2 channels on the
# self-complementary lines alpha or beta = pi/4 (mod pi/2)
channels = st.one_of(
    st.builds(lambda seed, rank: random_channel(np.random.default_rng(seed), rank), seeds, st.integers(1, 4)),
    st.builds(
        lambda a, q, swap: rank2(q, a) if swap else rank2(a, q),
        st.floats(0.0, math.pi), st.sampled_from((math.pi / 4, 3 * math.pi / 4)), st.booleans(),
    ),
)


@settings(max_examples=60, deadline=None)
@given(channels, seeds)
def test_classify_invariant_under_unitary_conjugation(k, seed):
    # Phi -> U Phi(V . V^dag) U^dag conjugates the Choi matrix by kron(V^T, U)
    rng = np.random.default_rng(seed)
    w = np.kron(random_unitary(rng).T, random_unitary(rng))
    c = choi_from_kraus(k).matrix
    assert_same_report(classify(ChoiMatrix(w @ c @ w.conj().T)), classify(k), 1e-10)


@settings(max_examples=60, deadline=None)
@given(channels, seeds, st.integers(2, 4))
def test_classify_invariant_under_kraus_remix(k, seed, count):
    remixed = remix(k, max(count, k.env_dim), np.random.default_rng(seed))
    assert_same_report(classify(remixed), classify(k), 1e-10)
