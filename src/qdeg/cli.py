"""Command-line front end.

Commands:
    classify    full classification of a channel description
    convert     translate between kraus / choi / bloch representations
    complement  print the complementary channel's Kraus operators
    sweep       tabulate margins over a parameter grid (CSV)
    oracle      run the symmetric-extension feasibility oracle

Channel and sweep descriptions are JSON (see README.md). Complex numbers
are serialized as two-element [re, im] arrays and matrices as row-major
nested arrays. Output is deterministic: no timestamps, shortest
round-trip float formatting.

``sweep`` builds the Choi matrices of its whole grid as one stack and
evaluates them in one call of the verdict kernel. Grid points outside the
CP set (a unital ray with scale past the tetrahedron) are left out of the
table, which keeps the grid's row order; the sweep exits 2 only when no
grid point is CP.

``oracle --out PATH`` writes the oracle's proof of its answer as JSON: the
8x8 extension under ``"witness"`` when feasible, the 8x8 PSD dual
certificate under ``"certificate"`` when infeasible; an inconclusive run
writes no file.

Exit codes: 0 success, 1 unreadable or unparseable input, 2 input parsed
but is not a valid channel, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import channels as ch
from . import symext as se
from .classify import antidegradable_test, classify, verdict_kernel, verdict_state
from .errors import (
    InvalidDimension,
    InvalidParameter,
    NotAChannel,
    NotCompletelyPositive,
    NotHermitian,
    NotPSD,
    NotTracePreserving,
    NumericalFailure,
    QdegError,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOT_A_CHANNEL = 2
EXIT_NUMERICAL = 3

_NOT_A_CHANNEL_ERRORS = (
    NotAChannel,
    NotCompletelyPositive,
    NotTracePreserving,
    NotHermitian,
    NotPSD,
    InvalidParameter,
    InvalidDimension,
)


class SpecError(Exception):
    """Structurally invalid input document."""


# ---------------------------------------------------------------------------
# JSON (de)serialization
# ---------------------------------------------------------------------------


def _parse_complex(v, name: str) -> complex:
    if isinstance(v, list):
        if len(v) != 2:
            raise SpecError(f"{name} must be a number or an [re, im] pair, got {json.dumps(v)}")
        return complex(_number(v[0], name), _number(v[1], name))
    return complex(_number(v, name))


def _parse_matrix(rows, name: str) -> np.ndarray:
    if not (isinstance(rows, list) and rows and isinstance(rows[0], list) and rows[0]
            and all(isinstance(r, list) and len(r) == len(rows[0]) for r in rows)):
        raise SpecError(f"{name} must be a non-empty rectangular nested list")
    return np.array([[_parse_complex(v, f"{name} entry") for v in row] for row in rows])


def _complex_out(z: complex) -> list:
    return [float(np.real(z)), float(np.imag(z))]


def _matrix_out(m: np.ndarray) -> list:
    return [[_complex_out(v) for v in row] for row in np.asarray(m)]


def _number(v, name: str) -> float:
    # bool is an int subclass, but a JSON true/false is no number
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SpecError(f"{name} must be a number, got {json.dumps(v)}")
    # the JSON literals NaN and Infinity, and integers beyond the float range
    try:
        x = float(v)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise SpecError(f"{name} must be a finite number, got {json.dumps(v)}")
    return x


def _real_vector(v, name: str, n: int = 3) -> np.ndarray:
    if not isinstance(v, list) or len(v) != n:
        raise SpecError(f"{name} must be a list of {n} numbers")
    return np.array([_number(x, name) for x in v])


_NAMED_BUILDERS = {
    "identity": (ch.identity, ()),
    "completely_depolarizing": (ch.completely_depolarizing, ()),
    "completely_dephasing": (ch.completely_dephasing, ()),
    "depolarizing": (ch.depolarizing, ("p",)),
    "dephasing": (ch.dephasing, ("alpha",)),
    "amplitude_damping": (ch.amplitude_damping, ("alpha",)),
    "rank2": (ch.rank2, ("alpha", "beta")),
    "unital": (ch.unital, ("lambda",)),
}


def parse_channel_spec(doc: dict):
    """Build a channel object from a parsed ChannelSpec document."""
    if not isinstance(doc, dict):
        raise SpecError("channel spec must be a JSON object")
    kind = doc.get("kind")
    if kind == "kraus":
        ops = doc.get("operators")
        if not isinstance(ops, list) or not ops:
            raise SpecError("kraus spec needs a non-empty 'operators' list")
        return ch.KrausSet(tuple(_parse_matrix(op, f"operator {i}") for i, op in enumerate(ops)))
    if kind == "choi":
        return ch.ChoiMatrix(_parse_matrix(doc.get("matrix"), "matrix"))
    if kind == "bloch":
        t = _real_vector(doc.get("t"), "t")
        if "T" in doc:
            if not isinstance(doc["T"], list) or len(doc["T"]) != 3:
                raise SpecError("T must be a 3x3 nested list")
            T = np.array([_real_vector(row, "T row") for row in doc["T"]])
            return ch.PauliTransfer(t=t, T=T)
        lam = _real_vector(doc.get("lambda"), "lambda")
        return ch.BlochParams(t=t, lam=lam)
    if kind == "named":
        name = doc.get("name")
        if name not in _NAMED_BUILDERS:
            raise SpecError(f"unknown named channel {name!r}")
        fn, params = _NAMED_BUILDERS[name]
        args = []
        for p in params:
            if p not in doc:
                raise SpecError(f"named channel {name!r} needs parameter {p!r}")
            if p == "lambda":
                args.append(_real_vector(doc[p], "lambda"))
            else:
                args.append(_number(doc[p], f"parameter {p!r}"))
        return fn(*args)
    raise SpecError(f"unknown channel kind {kind!r}")


def _load_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SpecError(f"cannot read input: {exc}") from exc


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _to_kraus(channel) -> ch.KrausSet:
    if isinstance(channel, ch.KrausSet):
        return channel
    return ch.kraus_from_choi(ch.to_choi(channel))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_classify(args) -> int:
    channel = parse_channel_spec(_load_json(args.input))
    report = classify(channel, tol=args.tol)
    d = report.to_dict()
    if args.format == "csv":
        header = (
            "anti_state,anti_margin,deg_state,deg_margin,eb_state,eb_margin,"
            "unital,self_complementary,choi_rank,cp\n"
        )
        row = ",".join(
            [
                d["antidegradable"]["state"],
                repr(d["antidegradable"]["margin"]),
                d["degradable"]["state"],
                repr(d["degradable"]["margin"]),
                d["entanglement_breaking"]["state"],
                repr(d["entanglement_breaking"]["margin"]),
                str(d["unital"]).lower(),
                "na" if d["self_complementary"] is None else str(d["self_complementary"]).lower(),
                str(d["choi_rank"]),
                str(d["cp"]).lower(),
            ]
        )
        _emit(header + row + "\n", args.out)
    else:
        _emit(json.dumps(d, indent=2) + "\n", args.out)
    return EXIT_OK


def cmd_convert(args) -> int:
    channel = parse_channel_spec(_load_json(args.input))
    if args.to == "choi":
        doc = {"kind": "choi", "matrix": _matrix_out(ch.to_choi(channel).matrix)}
    elif args.to == "kraus":
        kraus = _to_kraus(channel)
        doc = {"kind": "kraus", "operators": [_matrix_out(op) for op in kraus.operators]}
    elif args.to == "bloch":
        r = ch.bloch_from_choi(ch.to_choi(channel))
        if isinstance(r, ch.BlochParams):
            doc = {"kind": "bloch", "t": list(r.t), "lambda": list(r.lam)}
        else:
            doc = {"kind": "bloch", "t": list(r.t), "T": [list(row) for row in r.T]}
    else:
        raise SpecError(f"unknown target representation {args.to!r}")
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return EXIT_OK


def cmd_complement(args) -> int:
    channel = parse_channel_spec(_load_json(args.input))
    comp = ch.complement(_to_kraus(channel))
    doc = {
        "kind": "kraus",
        "output_dim": comp.out_dim,
        "operators": [_matrix_out(op) for op in comp.operators],
    }
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return EXIT_OK


def cmd_oracle(args) -> int:
    channel = parse_channel_spec(_load_json(args.input))
    c = ch.to_choi(channel)
    analytic = antidegradable_test(c, tol=args.tol)
    result = se.oracle_extendible(c, tol=args.oracle_tol, max_iter=args.max_iter)
    doc = {
        "oracle": {
            "status": result.status.value,
            "residual": result.residual,
            "iterations": result.iterations,
        },
        "analytic": {"state": analytic.state.value, "margin": analytic.margin},
    }
    proof = {"witness": result.witness, "certificate": result.certificate}
    proof = {k: _matrix_out(m) for k, m in proof.items() if m is not None}
    if args.out and proof:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            json.dump(proof, fh, indent=2)
            fh.write("\n")
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    return EXIT_OK


# --- sweep ------------------------------------------------------------------

_SWEEP_COLUMNS = (
    "anti_margin",
    "deg_margin",
    "eb_margin",
    "anti_state",
    "deg_state",
    "eb_state",
)


def _axis(doc, name: str) -> np.ndarray:
    spec = doc.get(name)
    if not isinstance(spec, dict):
        raise SpecError(f"sweep axis {name!r} missing or not an object")
    if not {"min", "max", "steps"} <= spec.keys():
        raise SpecError(f"axis {name!r} needs numeric min/max/steps")
    lo = _number(spec["min"], f"axis {name!r} min")
    hi = _number(spec["max"], f"axis {name!r} max")
    steps = spec["steps"]
    if isinstance(steps, bool) or not isinstance(steps, int):
        raise SpecError(f"axis {name!r} steps must be an integer, got {json.dumps(steps)}")
    if steps < 2:
        raise SpecError(f"axis {name!r} needs steps >= 2")
    if not lo < hi:
        raise SpecError(f"axis {name!r} needs min < max")
    return np.linspace(lo, hi, steps)


def _sweep_grid(doc):
    """Parameter columns and the unchecked Choi stack of a sweep grid, in row order."""
    family = doc.get("family")
    if family == "rank2":
        alphas, betas = np.meshgrid(_axis(doc, "alpha"), _axis(doc, "beta"), indexing="ij")
        alphas, betas = alphas.ravel(), betas.ravel()
        return {"alpha": alphas, "beta": betas}, ch.kraus_to_choi(ch.rank2_kraus(alphas, betas))
    if family == "depolarizing":
        ps = _axis(doc, "p")
        return {"p": ps}, ch.kraus_to_choi(ch.depolarizing_kraus(np.clip(ps, 0.0, 1.0)))
    if family == "unital":
        direction = _real_vector(doc.get("direction"), "direction")
        scales = _axis(doc, "scale")
        lam = scales[:, None] * direction
        params = {"scale": scales, "lambda1": lam[:, 0], "lambda2": lam[:, 1], "lambda3": lam[:, 2]}
        return params, ch.bloch_to_choi(np.zeros_like(lam), lam)
    raise SpecError(f"unknown sweep family {family!r}")


def cmd_sweep(args) -> int:
    doc = _load_json(args.input)
    if not isinstance(doc, dict):
        raise SpecError("sweep spec must be a JSON object")
    outputs = doc.get("outputs", list(_SWEEP_COLUMNS))
    if not isinstance(outputs, list) or any(c not in _SWEEP_COLUMNS for c in outputs):
        raise SpecError(f"outputs must be a subset of {_SWEEP_COLUMNS}")
    columns, stack = _sweep_grid(doc)
    m = verdict_kernel(ch.validate_choi(stack), tol=args.tol)
    del stack  # free it before the rows are built: it sets the peak memory
    if not m.cp.any():
        raise NotCompletelyPositive(
            f"no grid point is completely positive "
            f"(largest minimum Choi eigenvalue {m.min_eig.max():.3e})"
        )
    # grid points outside the CP set are left out
    param_names = list(columns)
    keep = m.cp
    params_by_row = zip(*(columns[k][keep].tolist() for k in param_names))
    margins_by_row = zip(m.anti[keep].tolist(), m.deg[keep].tolist(), m.eb[keep].tolist())
    rows = []
    for params, (anti, deg, eb) in zip(params_by_row, margins_by_row):
        values = {
            "anti_margin": anti,
            "deg_margin": deg,
            "eb_margin": eb,
            "anti_state": verdict_state(anti, args.tol).value,
            "deg_state": verdict_state(deg, args.tol).value,
            "eb_state": verdict_state(eb, args.tol).value,
        }
        rows.append((dict(zip(param_names, params)), values))
    if args.format == "json":
        payload = [
            {**{k: v for k, v in params.items()}, **{k: values[k] for k in outputs}}
            for params, values in rows
        ]
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
        return EXIT_OK
    lines = [",".join(list(param_names) + list(outputs))]
    for params, values in rows:
        cells = [repr(float(params[k])) for k in param_names]
        for k in outputs:
            v = values[k]
            cells.append(repr(float(v)) if isinstance(v, float) else str(v))
        lines.append(",".join(cells))
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdeg", description="Qubit channel degradability toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("input", help="path to a JSON channel spec, or - for stdin")
        p.add_argument("--tol", type=float, default=1e-9, help="margin tolerance")
        p.add_argument("--out", default=None, help="write output to this path")

    p = sub.add_parser("classify", help="classify a channel")
    common(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("convert", help="convert between representations")
    common(p)
    p.add_argument("--to", choices=("kraus", "choi", "bloch"), required=True)
    p.set_defaults(fn=cmd_convert)

    p = sub.add_parser("complement", help="complementary channel")
    common(p)
    p.set_defaults(fn=cmd_complement)

    p = sub.add_parser("oracle", help="symmetric-extension feasibility oracle")
    common(p)
    p.add_argument("--oracle-tol", type=float, default=se.ORACLE_TOL)
    p.add_argument("--max-iter", type=int, default=se.ORACLE_MAX_ITER)
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("sweep", help="parameter sweep to CSV")
    common(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NotAChannel as exc:
        print(
            f"error: not a channel: {exc} "
            f"(min Choi eigenvalue {exc.min_choi_eig}, TP residual {exc.tp_residual})",
            file=sys.stderr,
        )
        return EXIT_NOT_A_CHANNEL
    except _NOT_A_CHANNEL_ERRORS as exc:
        print(f"error: not a channel: {exc}", file=sys.stderr)
        return EXIT_NOT_A_CHANNEL
    except NumericalFailure as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except QdegError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_A_CHANNEL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
