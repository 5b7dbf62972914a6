"""qdeg benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload classify-mixed --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports ``qdeg`` from ``./src`` and
runs the CLI as ``python -m qdeg.cli`` with the same path. With
``--trace 0`` it measures the workload untraced and prints the end-to-end
metrics; with ``--trace 1`` it runs the workload untraced and then traced
on the same inputs, writes the spans under ``perfbench/out/`` and prints
the per-layer metrics. The last line of standard output is the result
object; the line before it carries provenance and the metrics under their
design names. Exit status is 0 on a completed run and non-zero when the
package or the workload cannot be run.
"""

from __future__ import annotations

import os

#: BLAS/OpenMP thread pinning, applied before numpy loads and passed to children.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import report  # noqa: E402
import spans as spanlib  # noqa: E402
import workloads as wl  # noqa: E402

WORKLOADS = ("classify-mixed", "cli-sweep", "oracle-mixed")
#: Fresh interpreters per set-up and import measurement; the median is reported.
COLD_REPS = 5
#: Warm-up before timing: a fixed number of in-process calls, or seconds of CLI jobs.
WARMUP_OPS = {"classify-mixed": 512, "oracle-mixed": 32}
WARMUP_S = 0.5
#: Share of --seconds given to each of the untraced and traced passes of a traced run.
TRACE_PASS_SHARE = 0.4

#: The cold first call of each workload, run in a fresh interpreter for setup_s.
SETUP_CHILD = {
    "classify-mixed": (["-c", "import qdeg; qdeg.classify(qdeg.rank2(0.3, 0.5))"], None),
    "oracle-mixed": (["-c", "import qdeg; qdeg.oracle_extendible(qdeg.choi_from_kraus(qdeg.rank2(1.0, 0.2)))"], None),
    "cli-sweep": (["-m", "qdeg.cli", "classify", "-"], '{"kind": "named", "name": "rank2", "alpha": 0.3, "beta": 0.5}'),
}
IMPORT_CHILD = ("import json, time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
                "import qdeg.cli; t2 = time.perf_counter(); print(json.dumps([(t1 - t0) * 1e3, (t2 - t0) * 1e3]))")


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def load_package(root: str):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "qdeg", "__init__.py")):
        raise BenchError(f"no qdeg package under {src}; run from the repository root")
    sys.path.insert(0, src)
    import qdeg
    import qdeg.cli

    if not os.path.abspath(qdeg.__file__).startswith(os.path.abspath(src)):
        raise BenchError(f"imported qdeg from {qdeg.__file__}, not from {src}")
    return qdeg, qdeg.cli


def run_child(args, stdin, root, env) -> tuple[float, str]:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], input=stdin, capture_output=True, text=True,
                          cwd=root, env=env, timeout=wl.CHILD_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"child {args} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return elapsed, proc.stdout


def measure_setup(workload, root, env) -> float:
    """Median wall time of a fresh interpreter importing qdeg and making the first call."""
    args, stdin = SETUP_CHILD[workload]
    return statistics.median(run_child(args, stdin, root, env)[0] for _ in range(COLD_REPS))


def measure_imports(root, env) -> list:
    return [json.loads(run_child(["-c", IMPORT_CHILD], None, root, env)[1]) for _ in range(COLD_REPS)]


def provenance(root: str, seed: int) -> dict:
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30)
            commit = out.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {
        "seed": seed,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def workload_pass(workload, qdeg, cli, seed, seconds, root, env, tracer=None, in_process=False, stream="main",
                  limit=None):
    if workload == "classify-mixed":
        return wl.classify_pass(qdeg, inputs.classify_stream(seed, stream), seconds, tracer, limit)
    if workload == "oracle-mixed":
        return wl.oracle_pass(qdeg, inputs.oracle_stream(seed, stream), seconds, tracer, limit)
    if in_process:
        runner = lambda job: wl.run_inprocess(cli, job)  # noqa: E731
    else:
        runner = lambda job: wl.run_child(root, env, job)  # noqa: E731
    return wl.cli_pass(runner, inputs.cli_rounds(seed, stream), seconds, tracer)


def warm_up(workload, qdeg, cli, seed, root, env, in_process=False):
    limit = WARMUP_OPS.get(workload)
    seconds = WARMUP_S if limit is None else math.inf
    workload_pass(workload, qdeg, cli, seed, seconds, root, env, in_process=in_process, stream="warmup", limit=limit)


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli-sweep" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_plain(workload, qdeg, cli, seed, seconds, root, env):
    setup_s = measure_setup(workload, root, env)
    warm_up(workload, qdeg, cli, seed, root, env)
    # This process keeps one record per timed call, so its own peak is read
    # before the timed pass; the peak of the CLI children is read after it.
    rss_mb = peak_rss_mb(workload)
    ops = workload_pass(workload, qdeg, cli, seed, seconds, root, env)
    if workload == "cli-sweep":
        rss_mb = peak_rss_mb(workload)
    metrics = report.end_to_end(workload, ops, setup_s, rss_mb)
    return ops, metrics, report.named_metrics(workload, ops)


def run_traced(workload, qdeg, cli, seed, seconds, root, env):
    imports = measure_imports(root, env)
    warm_up(workload, qdeg, cli, seed, root, env, in_process=True)
    span_s = max(seconds * TRACE_PASS_SHARE, 0.1)
    untraced = workload_pass(workload, qdeg, cli, seed, span_s, root, env, in_process=True)
    probe_untraced = wl.probe_pass(qdeg, cli, seed)
    tracer = spanlib.Tracer()
    tracer.install(qdeg)
    try:
        traced = workload_pass(workload, qdeg, cli, seed, span_s, root, env, tracer=tracer, in_process=True)
        tracer.limit = math.inf  # the probe always runs whole
        probe_traced = wl.probe_pass(qdeg, cli, seed, tracer)
    finally:
        tracer.uninstall()
    metrics = report.per_layer(untraced, probe_untraced, traced, probe_traced, tracer.spans, imports)
    ops = untraced + probe_untraced + traced + probe_traced
    return ops, metrics, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    try:
        qdeg, cli = load_package(root)
        env = child_env(root)
        if args.trace:
            ops, metrics, tracer = run_traced(args.workload, qdeg, cli, args.seed, args.seconds, root, env)
            named = {}
        else:
            ops, metrics, named = run_plain(args.workload, qdeg, cli, args.seed, args.seconds, root, env)
        defect_ops = wl.defect_pass(qdeg, cli, args.seed)
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    # Every workload operation must verify. The defect probe is not a workload
    # operation: its inputs may fail, but only in their documented way.
    unexpected = [op for op in ops if not op.ok] + [op for op in defect_ops if not op.ok and not op.known]
    known = wl.defect_counts(defect_ops)
    if args.trace:
        metrics.update({f"defects.{kind}_failing": (n["failing"], "count") for kind, n in known.items()})
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": provenance(root, args.seed),
        "named_metrics": named,
        "known_defects": known,
        "unexpected_failures": [f"{op.label}: {op.reason}" for op in unexpected[:20]],
        "unexpected_count": len(unexpected),
    }
    bad = [name for name, (value, unit) in metrics.items() if not math.isfinite(value)]
    if bad and not args.trace:
        print(f"perfbench: metrics not measured: {bad}", file=sys.stderr)
        return 3
    if args.trace:
        # a per-layer metric with nothing to measure reads 0 and is named here
        detail["unmeasured"] = bad
        metrics = {name: (0.0 if name in bad else value, unit) for name, (value, unit) in metrics.items()}
        out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.json.gz")
        tracer.write(path, detail)
        detail["spans_file"] = os.path.relpath(path, root)
        detail["span_count"] = len(tracer.spans)
    result = {
        "correct": not unexpected,
        "attempted": len(ops),
        "failed": sum(not op.ok for op in ops),
        "metrics": {name: {"value": float(value), "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(detail, allow_nan=False))
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
