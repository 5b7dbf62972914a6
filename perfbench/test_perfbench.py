"""Self-tests of the benchmark: python -m pytest perfbench/test_perfbench.py"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from itertools import islice

import numpy as np
import pytest

import checks
import inputs
import spans as spanlib
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import qdeg  # noqa: E402


def _snapshot_classify(seed, n=60):
    return [(item.label, item.choi.tobytes()) for item in islice(inputs.classify_stream(seed), n)]


def test_generators_are_deterministic_per_seed():
    assert _snapshot_classify(5) == _snapshot_classify(5)
    assert _snapshot_classify(5) != _snapshot_classify(6)
    a = [(o.label, o.choi.tobytes()) for o in islice(inputs.oracle_stream(5), 8)]
    b = [(o.label, o.choi.tobytes()) for o in islice(inputs.oracle_stream(5), 8)]
    assert a == b
    ra = [(j.kind, j.args, json.dumps(j.doc)) for j in next(inputs.cli_rounds(5))]
    rb = [(j.kind, j.args, json.dumps(j.doc)) for j in next(inputs.cli_rounds(5))]
    assert ra == rb


def test_classify_block_has_fixed_composition():
    per_block = 16 * inputs.PER_CLASS_IN_BLOCK
    labels = [item.label for item in islice(inputs.classify_stream(3), per_block)]
    for rep in inputs.REPS:
        for rank in inputs.RANKS:
            assert labels.count(f"{rep}:{rank}") == inputs.PER_CLASS_IN_BLOCK


def test_known_defects_stay_out_of_the_workload_streams():
    assert all(item.defect is None for item in islice(inputs.classify_stream(3), 800))
    assert all(job.defect is None for job in next(inputs.cli_rounds(3)))
    items, jobs = inputs.defect_inputs(3)
    kinds = [item.defect for item in items] + [job.defect for job in jobs]
    assert all(kinds.count(kind) == inputs.DEFECT_PROBE_EACH for kind in workloads.KNOWN_SIGNATURES)


def test_generated_channels_have_their_labelled_rank():
    for item in islice(inputs.classify_stream(4), 200):
        rank, _ = checks.rank_info(item.choi)
        assert rank == item.rank or item.defect == "near_boundary_choi"
    for item in islice(inputs.oracle_stream(4), 12):
        assert checks.rank_info(item.choi)[0] == item.rank
        assert abs(item.margin) > inputs.ORACLE_MARGIN_GAP


def _good_report(c):
    d = qdeg.classify(qdeg.ChoiMatrix(c)).to_dict()
    assert checks.check_report(d, c) is None
    return d


def test_checker_flags_flipped_state_and_perturbed_margin():
    c = checks.choi_of_kraus(inputs.rank2_kraus(0.4, 1.1))
    d = _good_report(c)
    flipped = json.loads(json.dumps(d))
    state = flipped["antidegradable"]["state"]
    flipped["antidegradable"]["state"] = "no" if state == "yes" else "yes"
    assert checks.check_report(flipped, c) is not None
    nudged = json.loads(json.dumps(d))
    nudged["entanglement_breaking"]["margin"] += 1e-5
    assert checks.check_report(nudged, c) is not None
    wrong_rank = json.loads(json.dumps(d))
    wrong_rank["choi_rank"] = 3
    assert checks.check_report(wrong_rank, c) is not None


def test_checker_flags_a_definite_state_on_a_boundary_channel():
    c = checks.choi_of_kraus(inputs.rank2_kraus(np.pi / 4, 0.3))  # both rank-2 margins are 0
    d = _good_report(c)
    assert d["antidegradable"]["state"] == "boundary"
    for state in ("yes", "no"):
        wrong = json.loads(json.dumps(d))
        wrong["antidegradable"]["state"] = state
        assert checks.check_report(wrong, c) is not None


def test_checker_flags_wrong_rank2_sweep_row():
    a, b = 0.3, 1.0
    c = checks.choi_of_kraus(inputs.rank2_kraus(a, b))
    ref = checks.reference_report(c)
    row = {f"{k}_margin": ref[k] for k in ("anti", "deg", "eb")}
    row.update({f"{k}_state": "yes" if ref[k] > 0 else "no" for k in ("anti", "deg", "eb")})
    assert checks.check_rank2_row(row, a, b, ref) is None
    row["deg_state"] = "yes" if row["deg_state"] == "no" else "no"
    assert checks.check_rank2_row(row, a, b, ref) is not None


def test_checker_flags_wrong_oracle_status_and_witness():
    c = checks.choi_of_kraus(inputs.rank2_kraus(1.0, 0.2))
    margin = checks.anti_margin(c)
    res = qdeg.oracle_extendible(qdeg.ChoiMatrix(c))
    assert checks.check_oracle(res.status.value, res.witness, c / 2, margin) is None
    assert checks.check_oracle("infeasible", None, c / 2, margin) is not None
    bad = res.witness + 1e-4 * np.eye(8)
    assert checks.check_oracle("feasible", bad, c / 2, margin) is not None


def test_known_failure_needs_matching_signature():
    op = workloads.Op("classify", "redundant_kraus", 1)
    op.resolve("boom", "redundant_kraus", "InvalidDimension")
    assert not op.ok and op.known
    op.resolve("boom", "redundant_kraus", "ValueError")
    assert not op.ok and not op.known
    op.resolve(None, "redundant_kraus")
    assert op.ok and not op.known


def test_oracle_undecided_only_at_the_cap_is_not_a_failure():
    c = checks.choi_of_kraus(inputs.rank2_kraus(1.0, 0.2))
    item = inputs.OracleInput(2, c, checks.anti_margin(c))

    def undecided_after(iterations):
        class Stub:
            ChoiMatrix = qdeg.ChoiMatrix

            @staticmethod
            def oracle_extendible(target, max_iter):
                return qdeg.OracleResult(status=qdeg.OracleStatus.INCONCLUSIVE, witness=None, residual=1.0,
                                         iterations=iterations)
        op, = workloads.oracle_pass(Stub, iter([item]), 60.0, limit=1)
        return op

    at_cap = undecided_after(workloads.ORACLE_CAP)
    assert at_cap.ok and at_cap.units == 0
    assert not undecided_after(10).ok


def test_eigen_calls_count_the_outermost_solver_only():
    spans = [
        ["op.classify", 0, 100, -1, "kraus:2"],
        ["classify.classify", 1, 99, 0, None],
        ["linalg.hermitian_eigen", 2, 20, 1, 4],
        ["numpy.eigh", 3, 10, 2, 4],
        ["numpy.eigvalsh", 30, 40, 1, 4],
    ]
    assert spanlib.eigen_counts(spans, "classify.classify") == [["kraus:2", 2, 28, 98]]


def _run(workload, trace, cwd=ROOT, seconds="0.5"):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", seconds, "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=180,
    )


@pytest.mark.parametrize("workload", ["classify-mixed", "cli-sweep", "oracle-mixed"])
def test_smoke_run_prints_a_correct_result(workload):
    proc = _run(workload, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    detail = json.loads(proc.stdout.strip().splitlines()[-2])
    assert set(detail["known_defects"]) == set(workloads.KNOWN_SIGNATURES)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}


def test_smoke_traced_run_reports_every_layer_metric():
    proc = _run("classify-mixed", 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    for name in ("kraus", "choi", "bloch", "transfer", "rank1", "rank2", "rank3", "rank4"):
        assert result["metrics"][f"linalg.eig_calls_per_classify.{name}"]["value"] > 0


def test_refuses_to_run_without_the_package():
    bare = os.path.join(ROOT, "perfbench", "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), os.path.join(bare, "BENCHMARK.json"))
        proc = _run("classify-mixed", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
