"""Reduce operation records and spans to the benchmark's metrics.

Latency percentiles count a failed operation as infinitely slow, so a
failure can only make a latency worse. Throughput counts verified work
per second of operation time: classify verdicts (median over consecutive
batches, so a rare slow call moves one batch, not the whole figure),
sweep rows (median over rounds, process start included) and oracle
decisions (at the interquartile mean call time: the oracle's per-call
cost is so heavy-tailed that any figure which counts its slowest calls
swings with the seed). An oracle call that stops undecided at the
iteration cap is not a failure, but it decides nothing.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

import spans as spanlib

#: Batch size for the classify throughput median.
CLASSIFY_BATCH = 64
#: Oracle count metrics cover this many workload operations (plus the probe),
#: so they repeat exactly for a seed.
ORACLE_COUNT_PREFIX = 64
#: Reported in place of a percentile that lands on failed operations.
FAILED_LATENCY = 1e9


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile; inf when it reaches failed (inf) entries, NaN when empty."""
    a = np.sort(np.asarray(values, dtype=float))
    if not len(a):
        return math.nan
    pos = q / 100.0 * (len(a) - 1)
    lo, hi = math.floor(pos), math.ceil(pos)
    if not math.isfinite(a[hi]):
        return a[lo] if pos == lo else math.inf
    return float(a[lo] + (a[hi] - a[lo]) * (pos - lo))


def latencies(ops) -> list:
    return [op.ns if op.ok else math.inf for op in ops]


def batch_rate(ops, size: int) -> float:
    """Median over full batches of verified work units per second of op time."""
    rates = []
    for i in range(0, len(ops) - size + 1, size):
        batch = ops[i : i + size]
        rates.append(sum(op.units for op in batch) / (sum(op.ns for op in batch) / 1e9))
    if not rates and ops:  # shorter than one batch (smoke runs)
        rates.append(sum(op.units for op in ops) / (sum(op.ns for op in ops) / 1e9))
    return statistics.median(rates) if rates else 0.0


def iqm_rate(ops) -> float:
    """Verified work units per second at the mean op time between the quartiles."""
    ns = np.sort([op.ns for op in ops])
    middle = ns[len(ns) // 4 : len(ns) - len(ns) // 4]
    return sum(op.units for op in ops) / len(ops) / (middle.mean() / 1e9) if len(middle) else 0.0


def round_rate(ops) -> float:
    """Median over complete rounds of verified sweep rows per second of sweep wall time.

    0 when no sweep ran (a run shorter than one sweep).
    """
    by_round: dict = {}
    for op in ops:
        if op.label.startswith("sweep"):
            by_round.setdefault(op.extra["round"], []).append(op)
    kinds = max((len(v) for v in by_round.values()), default=0)
    full = [v for v in by_round.values() if len(v) == kinds]
    return statistics.median(sum(op.units for op in v) / (sum(op.ns for op in v) / 1e9) for v in full) if full else 0.0


def latency_ops(workload: str, ops) -> list:
    if workload == "cli-sweep":
        return [op for op in ops if op.label == "oneshot"]
    return ops


def end_to_end(workload: str, ops, setup_s: float, peak_rss_mb: float) -> dict:
    lat = latencies(latency_ops(workload, ops))
    if workload == "classify-mixed":
        rate = batch_rate(ops, CLASSIFY_BATCH)
    elif workload == "cli-sweep":
        rate = round_rate(ops)
    else:
        rate = iqm_rate(ops)
    p50, p90 = (percentile(lat, q) / 1e6 for q in (50, 90))
    return {
        "setup_s": (setup_s, "s"),
        "throughput_per_s": (rate, "1/s"),
        "p50_ms": (FAILED_LATENCY if math.isinf(p50) else p50, "ms"),
        "p90_ms": (FAILED_LATENCY if math.isinf(p90) else p90, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def named_metrics(workload: str, ops) -> dict:
    """The same run under the metric names of the benchmark's design notes."""
    lat = latencies(latency_ops(workload, ops))
    out = {"fail_frac": sum(not op.ok for op in ops) / len(ops)}
    if workload == "classify-mixed":
        out["classify_per_s"] = batch_rate(ops, CLASSIFY_BATCH)
        out["classify_p50_us"] = percentile(lat, 50) / 1e3
        out["classify_p99_us"] = percentile(lat, 99) / 1e3
    elif workload == "cli-sweep":
        out["sweep_rows_per_s"] = round_rate(ops)
        out["cli_classify_p50_ms"] = percentile(lat, 50) / 1e6
    else:
        out["oracle_per_s"] = iqm_rate(ops)
        out["oracle_undecided_frac"] = sum(op.extra.get("status") == "inconclusive" for op in ops) / len(ops)
        for feasible in (True, False):
            sel = [op for op in ops if op.extra["feasible"] is feasible]
            name = "oracle_feasible_p50_ms" if feasible else "oracle_infeasible_p50_ms"
            out[name] = percentile(latencies(sel), 50) / 1e6
    return {k: (v if v is not None and math.isfinite(v) else None) for k, v in out.items()}


# ---------------------------------------------------------------------------
# Per-layer metrics of a traced run
# ---------------------------------------------------------------------------

CLASSIFY_FUNCS = {
    "antidegradable_us": "classify.antidegradable_test",
    "degradable_us": "classify.degradable_test",
    "entanglement_breaking_us": "classify.entanglement_breaking_test",
    "self_complementary_us": "classify.self_complementary_test",
}
CHANNEL_FUNCS = ("choi_from_kraus", "kraus_from_choi", "choi_from_bloch", "choi_from_transfer",
                 "transfer_from_choi", "complement")
LAYERS = ("linalg", "channels", "classify", "symext", "cli", "numpy")


def _mean(values) -> float:
    values = list(values)
    return statistics.mean(values) if values else math.nan


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else math.nan


def _ratio(num, den) -> float:
    return num / den if den else math.nan


def _median_us(durations, name, dim=None) -> float:
    return _median(d for d, tag in durations.get(name, ()) if dim is None or tag == dim) / 1e3


def _p50_us(ops) -> float:
    return _median(op.ns for op in ops if op.ok) / 1e3


def per_layer(untraced, probe_untraced, traced, probe_traced, spans, imports) -> dict:
    """Per-layer metrics: unit costs from spans, counts from the untraced records.

    A metric with nothing to measure (a function that no longer exists or
    was never called) comes back as NaN; the caller reports it as 0 and
    names it.
    """
    a = spanlib.analyse(spans)
    d = a["durations"]
    plain_ops = untraced + probe_untraced
    m = {}

    m["linalg.eigenvalues4_us"] = (_median_us(d, "linalg.hermitian_eigenvalues", 4), "us")
    m["linalg.eigen4_us"] = (_median_us(d, "linalg.hermitian_eigen", 4), "us")
    rows = [r for r in spanlib.eigen_counts(spans, "classify.classify") if r[0] and ":" in r[0]]
    m["linalg.eig_calls_per_classify"] = (_mean(r[1] for r in rows), "count")
    for rep in ("kraus", "choi", "bloch", "transfer"):
        sel = (r[1] for r in rows if r[0].split(":")[0] == rep)
        m[f"linalg.eig_calls_per_classify.{rep}"] = (_mean(sel), "count")
    for rank in (1, 2, 3, 4):
        sel = (r[1] for r in rows if r[0].split(":")[1] == str(rank))
        m[f"linalg.eig_calls_per_classify.rank{rank}"] = (_mean(sel), "count")
    m["linalg.eig_share_of_classify"] = (_ratio(sum(r[2] for r in rows), sum(r[3] for r in rows)), "ratio")

    for fn in CHANNEL_FUNCS:
        m[f"channels.{fn}_us"] = (_median_us(d, f"channels.{fn}"), "us")

    for key, name in CLASSIFY_FUNCS.items():
        m[f"classify.{key}"] = (_median_us(d, name), "us")
    classify_ops = [op for op in plain_ops if op.kind == "classify"]
    for rep in ("kraus", "choi", "bloch", "transfer"):
        m[f"classify.{rep}_p50_us"] = (_p50_us(op for op in classify_ops if op.extra["rep"] == rep), "us")
    for rank in (1, 2, 3, 4):
        m[f"classify.rank{rank}_p50_us"] = (_p50_us(op for op in classify_ops if op.extra["rank"] == rank), "us")

    oracle_ops = [op for op in plain_ops if op.kind == "oracle"]
    timed = [op for op in oracle_ops if "iterations" in op.extra]
    counted = [op for op in untraced if op.kind == "oracle"][:ORACLE_COUNT_PREFIX]
    counted += [op for op in probe_untraced if op.kind == "oracle"]
    m["symext.cycle_us"] = (_ratio(sum(op.ns for op in timed), sum(op.extra["iterations"] for op in timed)) / 1e3, "us")
    m["symext.project_psd_us"] = (_median_us(d, "symext.project_psd"), "us")
    for f, name in ((True, "feasible"), (False, "infeasible")):
        sel = [op for op in oracle_ops if op.extra["feasible"] is f]
        m[f"symext.{name}_p50_ms"] = (percentile(latencies(sel), 50) / 1e6 if sel else math.nan, "ms")
        m[f"symext.iters_{name}_p50"] = (_median(op.extra.get("iterations", 0) for op in counted
                                                 if op.extra["feasible"] is f), "count")
    m["symext.iters_max"] = (max((op.extra.get("iterations", 0) for op in counted), default=math.nan), "count")
    m["symext.cap_hits"] = (sum(op.extra.get("status") == "inconclusive" for op in counted), "count")
    decided = sum(op.extra.get("status") in ("feasible", "infeasible") for op in counted)
    m["symext.decided_frac"] = (_ratio(decided, len(counted)), "ratio")
    m["symext.rank_deficient_share"] = (_ratio(sum(op.extra["rank"] < 4 for op in counted), len(counted)), "ratio")

    m["cli.numpy_import_ms"] = (_median(x[0] for x in imports), "ms")
    m["cli.import_ms"] = (_median(x[1] for x in imports), "ms")
    sweeps = [op for op in plain_ops if op.kind == "cli" and op.label.startswith("sweep") and op.ok]
    m["cli.sweep_row_us"] = (_ratio(sum(op.ns for op in sweeps), sum(op.units for op in sweeps)) / 1e3, "us")
    m["cli.sweep_verdict_share"] = (_ratio(*spanlib.layer_time_under(spans, "sweep", "classify")), "ratio")

    for layer in LAYERS:
        m[f"{layer}.self_share"] = (_ratio(a["self_ns"].get(layer, 0), a["root_ns"]), "ratio")

    # the same inputs ran untraced and then traced; compare them pairwise
    plain = [op for op in untraced if op.kind == "classify"]
    traced_classify = [op for op in traced if op.kind == "classify"]
    if not traced_classify:
        plain = [op for op in probe_untraced if op.kind == "classify"]
        traced_classify = [op for op in probe_traced if op.kind == "classify"]
    n = min(len(plain), len(traced_classify))
    m["trace.overhead_us"] = (_p50_us(traced_classify[:n]) - _p50_us(plain[:n]), "us")
    return m
