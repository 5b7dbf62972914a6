"""The three workloads, each a closed loop with one caller.

Each pass returns a list of ``Op`` records: what ran, how long it took
and whether its output checked out. Inputs are built before an operation
starts and outputs are checked after the timed loop, so neither is timed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

import checks
import inputs

#: Failure signatures of the documented known defects. A defect-probe input
#: that fails in this way is a known failure; any other failure or mismatch
#: is unexpected and makes the run incorrect.
KNOWN_SIGNATURES = {
    "redundant_kraus": "InvalidDimension",
    "near_boundary_choi": "NotTracePreserving",
    "unital_ray_crossing_cp": "exit 2",
    "mistyped_parameter": "traceback",
}

CLASSIFY_CHUNK = 256
CHILD_TIMEOUT_S = 60
#: Oracle iteration cap, the CLI default. An ``inconclusive`` answer at the
#: cap is a completed operation that decides nothing: it is not a failure,
#: earns no throughput and counts in ``symext.cap_hits``.
ORACLE_CAP = 20_000


@dataclass
class Op:
    kind: str  # classify / oracle / cli
    label: str
    ns: int
    ok: bool = False
    known: bool = False  # failure matches a documented known defect
    reason: str | None = None
    units: int = 0  # verified work: 1 per verdict or oracle decision, rows per sweep
    extra: dict = field(default_factory=dict)

    def resolve(self, reason, defect=None, signature=None):
        """Record the check outcome: reason None means verified."""
        self.ok = reason is None
        self.reason = reason
        self.units = int(self.ok)
        self.known = not self.ok and defect is not None and KNOWN_SIGNATURES.get(defect) == signature


# ---------------------------------------------------------------------------
# classify-mixed
# ---------------------------------------------------------------------------


def build_channel(qdeg, item: inputs.ChannelInput):
    p = item.payload
    if item.rep == "kraus":
        return qdeg.KrausSet(tuple(p["operators"]))
    if item.rep == "choi":
        return qdeg.ChoiMatrix(p["matrix"])
    if item.rep == "bloch":
        return qdeg.BlochParams(t=p["t"], lam=p["lam"])
    return qdeg.PauliTransfer(t=p["t"], T=p["T"])


def classify_pass(qdeg, stream, seconds: float, tracer=None, limit=None) -> list:
    """classify() on the stream until ``seconds`` pass (or ``limit`` ops).

    Inputs are built and outputs checked a chunk at a time, between timed
    calls, so the process holds one chunk of inputs and reports at a time.
    """
    ops = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline and (limit is None or len(ops) < limit):
        if tracer is not None and tracer.full:
            break
        chunk = list(islice(stream, CLASSIFY_CHUNK if limit is None else min(CLASSIFY_CHUNK, limit - len(ops))))
        built = [build_channel(qdeg, item) for item in chunk]
        done = []
        for item, obj in zip(chunk, built):
            ctx = tracer.span("op.classify", item.label) if tracer else contextlib.nullcontext()
            t0 = time.perf_counter_ns()
            try:
                with ctx:
                    out, err = qdeg.classify(obj), None
            except Exception as exc:  # recorded as a failed operation
                out, err = None, exc
            ns = time.perf_counter_ns() - t0
            done.append((Op("classify", item.label, ns, extra={"rep": item.rep, "rank": item.rank}), item, out, err))
            if time.perf_counter() >= deadline:
                break
        for op, item, out, err in done:
            if err is not None:
                op.resolve(f"{type(err).__name__}: {err}", item.defect, type(err).__name__)
            else:
                op.resolve(checks.check_report(out.to_dict(), item.choi), item.defect)
            ops.append(op)
    return ops


# ---------------------------------------------------------------------------
# oracle-mixed
# ---------------------------------------------------------------------------


def oracle_pass(qdeg, stream, seconds: float, tracer=None, limit=None) -> list:
    ops = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline and (limit is None or len(ops) < limit):
        if tracer is not None and tracer.full:
            break
        item = next(stream)
        c = qdeg.ChoiMatrix(item.choi)
        ctx = tracer.span("op.oracle", item.label) if tracer else contextlib.nullcontext()
        t0 = time.perf_counter_ns()
        try:
            with ctx:
                res, err = qdeg.oracle_extendible(c, max_iter=ORACLE_CAP), None
        except Exception as exc:  # recorded as a failed operation
            res, err = None, exc
        op = Op("oracle", item.label, time.perf_counter_ns() - t0,
                extra={"rank": item.rank, "feasible": item.margin > 0})
        if err is not None:
            op.resolve(f"{type(err).__name__}: {err}")
        else:
            op.extra["iterations"] = res.iterations
            op.extra["status"] = res.status.value
            if res.status.value == "inconclusive":
                op.resolve(None if res.iterations >= ORACLE_CAP else f"inconclusive after {res.iterations}")
                op.units = 0
            else:
                op.resolve(checks.check_oracle(res.status.value, res.witness, item.choi / 2.0, item.margin))
        ops.append(op)
    return ops


# ---------------------------------------------------------------------------
# cli-sweep
# ---------------------------------------------------------------------------


def run_child(root, env, job: inputs.CliJob):
    """One `python -m qdeg.cli` process; returns (ns, exit code, stdout, stderr)."""
    t0 = time.perf_counter_ns()
    proc = subprocess.run([sys.executable, "-m", "qdeg.cli", *job.args], input=json.dumps(job.doc),
                          capture_output=True, text=True, cwd=root, env=env, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter_ns() - t0, proc.returncode, proc.stdout, proc.stderr


def run_inprocess(cli, job: inputs.CliJob):
    """The same invocation through ``cli.main`` in this process."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(json.dumps(job.doc))
    t0 = time.perf_counter_ns()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(job.args)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # an escaping exception is what a traceback would show
                traceback.print_exc()
                code = 1
    finally:
        sys.stdin = saved
    return time.perf_counter_ns() - t0, code, out.getvalue(), err.getvalue()


def _sweep_rows(job, out):
    """Parse sweep output into a list of row dicts (raises ValueError on bad output)."""
    if job.fmt == "json":
        rows = json.loads(out)
        if not isinstance(rows, list):
            raise ValueError("sweep JSON is not a list")
        return rows
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        row = {}
        for k, v in zip(header, cells):
            row[k] = v if k.endswith("_state") else float(v)
        rows.append(row)
    return rows


def _grid(axis) -> np.ndarray:
    return np.linspace(float(axis["min"]), float(axis["max"]), int(axis["steps"]))


def _expected_rows(job):
    """(params, reference Choi or None when the point is not CP) for each grid point."""
    d = job.doc
    if d["family"] == "rank2":
        for a in _grid(d["alpha"]):
            for b in _grid(d["beta"]):
                yield {"alpha": float(a), "beta": float(b)}, checks.choi_of_kraus(inputs.rank2_kraus(a, b))
    elif d["family"] == "depolarizing":
        for p in _grid(d["p"]):
            yield {"p": float(p)}, checks.choi_of_kraus(inputs.depolarizing_kraus(min(max(p, 0.0), 1.0)))
    else:
        direction = np.array(d["direction"], dtype=float)
        for s in _grid(d["scale"]):
            lam = s * direction
            cp = inputs.bell_mu(lam).min() >= 0.0
            yield ({"scale": float(s)}, inputs.choi_of_bloch(np.zeros(3), lam) if cp else None)


def check_sweep(job, code, out, err):
    """(verified rows, reason or None, failure signature)."""
    if code != 0:
        sig = "exit 2" if code == 2 and "error: not a channel" in err else f"exit {code}"
        return 0, f"exit code {code}: {err.strip()[-200:]}", sig
    try:
        rows = _sweep_rows(job, out)
    except (ValueError, IndexError, KeyError) as exc:
        return 0, f"unparseable sweep output: {exc}", "output"
    by_param = {}
    key = {"rank2": "alpha", "depolarizing": "p", "unital": "scale"}[job.doc["family"]]
    for row in rows:
        by_param[(row.get(key), row.get("beta"))] = row
    verified = 0
    for params, choi in _expected_rows(job):
        row = by_param.get((params[key], params.get("beta")))
        if choi is None:
            # a point outside the CP set: it may be skipped, or marked without numeric margins
            if row is not None and isinstance(row.get("anti_margin"), float):
                return verified, f"non-CP point {params} reported with numeric margins", "output"
            continue
        if row is None:
            return verified, f"row {params} missing", "output"
        ref = checks.reference_report(choi)
        if job.doc["family"] == "rank2":
            why = checks.check_rank2_row(row, params["alpha"], params["beta"], ref)
        else:
            why = checks.check_verdicts(row, ref)
        if why:
            return verified, f"row {params}: {why}", "output"
        verified += 1
    return verified, None, None


def check_oneshot(job, code, out, err):
    if job.kind == "oneshot-bad":
        if "Traceback" in err:
            return f"traceback instead of an error line (exit {code})", "traceback"
        if code != 1 or not any(line.startswith("error:") for line in err.splitlines()):
            return f"exit {code} without an error: line", f"exit {code}"
        return None, None
    if code != 0:
        return f"exit code {code}: {err.strip()[-200:]}", f"exit {code}"
    try:
        doc = json.loads(out) if job.fmt == "json" else checks.parse_classify_csv(out)
    except (ValueError, KeyError) as exc:
        return f"unparseable classify output: {exc}", "output"
    return checks.check_report(doc, job.ref["choi"]), "output"


def check_cli(op: Op, job, code, out, err):
    if job.kind.startswith("sweep"):
        rows, reason, sig = check_sweep(job, code, out, err)
        op.resolve(reason, job.defect, sig)
        op.units = rows
    else:
        reason, sig = check_oneshot(job, code, out, err)
        op.resolve(reason, job.defect, sig)


def cli_pass(runner, rounds, seconds: float, tracer=None) -> list:
    """Run rounds of `qdeg` invocations until ``seconds`` pass.

    ``runner(job)`` returns (ns, code, stdout, stderr); each Op carries its
    round number so throughput can be taken per round.
    """
    ops, pending = [], []
    deadline = time.perf_counter() + seconds
    for rnd, jobs in enumerate(rounds):
        if time.perf_counter() >= deadline:
            break
        for job in jobs:
            if time.perf_counter() >= deadline or (tracer is not None and tracer.full):
                break
            ctx = tracer.span("op.cli", job.kind) if tracer else contextlib.nullcontext()
            with ctx:
                ns, code, out, err = runner(job)
            op = Op("cli", job.defect or job.kind, ns, extra={"round": rnd})
            ops.append(op)
            pending.append((op, job, code, out, err))
    for op, job, code, out, err in pending:
        check_cli(op, job, code, out, err)
    return ops


# ---------------------------------------------------------------------------
# Per-layer probe: a fixed little of every layer, so each per-layer metric
# reads on every workload (the workloads themselves keep their layers apart).
# ---------------------------------------------------------------------------

PROBE_PER_CLASS = 3
#: Oracle probe targets: full-rank feasible and infeasible, rank-2 feasible, rank-1.
PROBE_ORACLE = (
    inputs.depolarizing_kraus(0.8),
    inputs.depolarizing_kraus(0.3),
    inputs.rank2_kraus(1.0, 0.2),
    [checks.I2],
)


def probe_inputs(seed: int):
    stream = inputs.classify_stream(seed, "probe")
    want = {(rep, rank): PROBE_PER_CLASS for rep in inputs.REPS for rank in inputs.RANKS}
    items = []
    while any(want.values()):
        item = next(stream)
        key = (item.rep, item.rank)
        if want[key]:
            want[key] -= 1
            items.append(item)
    jobs = next(inputs.cli_rounds(seed, "probe"))
    by_kind = {job.kind: job for job in jobs}
    by_kind["sweep-rank2"].doc["alpha"]["steps"] = by_kind["sweep-rank2"].doc["beta"]["steps"] = 12
    by_kind["sweep-unital"].doc["scale"]["steps"] = 24
    oneshots = [job for job in jobs if job.kind == "oneshot"][:4]
    return items, [by_kind["sweep-rank2"], by_kind["sweep-unital"]] + oneshots


def probe_pass(qdeg, cli, seed: int, tracer=None) -> list:
    items, jobs = probe_inputs(seed)
    ops = classify_pass(qdeg, iter(items), math.inf, tracer, limit=len(items))
    for item in items[:8]:
        ctx = tracer.span("op.convert", item.label) if tracer else contextlib.nullcontext()
        c = qdeg.ChoiMatrix(item.choi)
        t0 = time.perf_counter_ns()
        try:
            with ctx:
                r = qdeg.bloch_from_choi(c)
        except Exception as exc:  # recorded as a failed operation
            r, reason = None, f"{type(exc).__name__}: {exc}"
        op = Op("convert", item.label, time.perf_counter_ns() - t0)
        if r is not None:
            t_ref, T_ref = inputs.transfer_of_choi(item.choi)
            T = np.diag(r.lam) if isinstance(r, qdeg.BlochParams) else r.T
            ok = np.allclose(r.t, t_ref, atol=1e-9) and np.allclose(T, T_ref, atol=1e-9)
            reason = None if ok else "transfer block mismatch"
        op.resolve(reason)
        ops.append(op)
    oracle_items = []
    for ops_k in PROBE_ORACLE:
        c = checks.choi_of_kraus(ops_k)
        oracle_items.append(inputs.OracleInput(len(ops_k), c, checks.anti_margin(c)))
    ops += oracle_pass(qdeg, iter(oracle_items), math.inf, tracer, limit=len(oracle_items))
    ops += cli_pass(lambda job: run_inprocess(cli, job), iter([jobs]), math.inf, tracer)
    return ops


# ---------------------------------------------------------------------------
# Known-defect probe: a fixed set of inputs that fail today, run after the
# timed workload and reported apart from its operations.
# ---------------------------------------------------------------------------


def defect_pass(qdeg, cli, seed: int) -> list:
    items, jobs = inputs.defect_inputs(seed)
    ops = classify_pass(qdeg, iter(items), math.inf, limit=len(items))
    return ops + cli_pass(lambda job: run_inprocess(cli, job), iter([jobs]), math.inf)


def defect_counts(defect_ops) -> dict:
    """{kind: {"inputs": n, "failing": k}} over the defect probe; a traced
    run reports each ``failing`` as ``defects.<kind>_failing``."""
    return {kind: {"inputs": sum(op.label == kind for op in defect_ops),
                   "failing": sum(op.label == kind and not op.ok for op in defect_ops)} for kind in KNOWN_SIGNATURES}
