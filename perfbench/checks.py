"""Output checker: reference verdicts from LAPACK and comparisons.

References are recomputed from the reference Choi matrix of each input
with ``numpy.linalg.eigvalsh`` / ``eigh``; nothing from ``qdeg`` is used.
A margin must agree within MARGIN_TOL. A verdict state must follow from
the reported margin by qdeg's own thresholding, and must agree with the
reference unless the reference margin lies within MARGIN_TOL of a
threshold. The Choi rank must agree unless an eigenvalue lies within a
factor RANK_SLACK of the rank cutoff.
"""

from __future__ import annotations

import math

import numpy as np

#: Verdict tolerance used by qdeg's defaults (Boundary half-width, rank cutoff).
VERDICT_TOL = 1e-9
#: Agreement required between qdeg margins and the LAPACK references.
MARGIN_TOL = 1e-7
RANK_SLACK = 100.0
#: Oracle witness residuals, as the acceptance suite re-checks them.
WITNESS_TOL = 1e-7

I2 = np.eye(2, dtype=np.complex128)
_SWAP4 = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=np.complex128)
SWAP_YYP = np.kron(np.eye(2, dtype=np.complex128), _SWAP4)


def choi_of_kraus(ops) -> np.ndarray:
    """C = sum_i vec(K_i) vec(K_i)^dag with column-stacking vec."""
    c = np.zeros((4, 4), dtype=np.complex128)
    for k in ops:
        v = k.reshape(-1, order="F")
        c += np.outer(v, v.conj())
    return c


def partial_transpose_out(c: np.ndarray) -> np.ndarray:
    return c.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)


def phi_of_identity(c: np.ndarray) -> np.ndarray:
    return np.einsum("ijik->jk", c.reshape(2, 2, 2, 2))


def anti_margin(c: np.ndarray, tol: float = VERDICT_TOL) -> float:
    e = np.linalg.eigvalsh(c)
    phi = phi_of_identity(c)
    det = float(np.prod(np.where(np.abs(e) <= tol, 0.0, np.clip(e, 0.0, None))))
    return float(np.trace(phi @ phi).real - np.sum(e * e) + 4.0 * math.sqrt(det))


def eb_margin(c: np.ndarray) -> float:
    """PPT minimum: smallest eigenvalue of the output partial transpose."""
    return float(np.linalg.eigvalsh(partial_transpose_out(c))[0])


def rank_info(c: np.ndarray, tol: float = VERDICT_TOL):
    """(rank, ambiguous) with the cutoff tol * tr(C)."""
    e = np.linalg.eigvalsh(c)
    cut = tol * float(np.trace(c).real)
    rank = int(np.sum(e > cut))
    ambiguous = bool(np.any((e > cut / RANK_SLACK) & (e < cut * RANK_SLACK)))
    return rank, ambiguous


def complement_choi(c: np.ndarray) -> np.ndarray:
    """Choi matrix of the complement of a rank-2 channel, from a minimal Kraus set.

    The complement is fixed up to an output unitary, which leaves its
    antidegradability margin unchanged.
    """
    w, v = np.linalg.eigh(c)
    ops = [math.sqrt(max(w[i], 0.0)) * v[:, i].reshape(2, 2, order="F") for i in (3, 2)]
    comp = [np.array([ops[i][m, :] for i in range(2)]) for m in range(2)]
    return choi_of_kraus(comp)


def deg_margin(c: np.ndarray, rank: int) -> float:
    if rank == 1:
        return 1.0
    if rank >= 3:
        return float(2 - rank)
    return anti_margin(complement_choi(c))


def reference_report(c: np.ndarray) -> dict:
    rank, ambiguous = rank_info(c)
    return {
        "anti": anti_margin(c),
        "deg": deg_margin(c, rank),
        "eb": eb_margin(c),
        "rank": rank,
        "rank_ambiguous": ambiguous,
        "unital": bool(np.linalg.norm(phi_of_identity(c) - I2) <= VERDICT_TOL),
    }


def margin_state(margin: float) -> str:
    """qdeg's thresholding of a margin: boundary within VERDICT_TOL of 0, else its sign."""
    if abs(margin) <= VERDICT_TOL:
        return "boundary"
    return "yes" if margin > 0 else "no"


def _state_ok(state: str, margin: float, ref_margin: float) -> bool:
    """The state must follow from the reported margin and, away from the
    thresholds, also from the reference margin."""
    if state != margin_state(margin):
        return False
    if abs(ref_margin) > VERDICT_TOL + MARGIN_TOL:
        return state == margin_state(ref_margin)
    return True


def _margin_ok(value, ref: float) -> bool:
    return isinstance(value, float) and math.isfinite(value) and abs(value - ref) <= MARGIN_TOL


def check_verdicts(values: dict, ref: dict, rank=None) -> str | None:
    """Compare {anti,deg,eb}_{margin,state} against a reference report.

    Returns None when they agree, else a short reason. The degradability
    margin is checked only when the Choi rank is unambiguous, since it
    depends on the rank route.
    """
    for key in ("anti", "eb", "deg"):
        if key == "deg" and ref["rank_ambiguous"]:
            continue
        margin, state = values.get(f"{key}_margin"), values.get(f"{key}_state")
        if not _margin_ok(margin, ref[key]):
            return f"{key} margin {margin!r} != reference {ref[key]!r}"
        if not _state_ok(state, margin, ref[key]):
            return f"{key} state {state!r} vs reference margin {ref[key]!r}"
    if rank is not None and not ref["rank_ambiguous"] and rank != ref["rank"]:
        return f"choi rank {rank!r} != reference {ref['rank']}"
    return None


def report_values(d: dict) -> dict:
    """Flatten a ClassificationReport.to_dict() / CLI JSON document."""
    return {
        "anti_margin": d["antidegradable"]["margin"],
        "anti_state": d["antidegradable"]["state"],
        "deg_margin": d["degradable"]["margin"],
        "deg_state": d["degradable"]["state"],
        "eb_margin": d["entanglement_breaking"]["margin"],
        "eb_state": d["entanglement_breaking"]["state"],
        "choi_rank": d["choi_rank"],
        "unital": d["unital"],
        "cp": d["cp"],
    }


def check_report(d: dict, c: np.ndarray) -> str | None:
    """Check a classification document against the reference for Choi ``c``."""
    try:
        v = report_values(d)
    except (KeyError, TypeError) as exc:
        return f"malformed report: {exc!r}"
    ref = reference_report(c)
    why = check_verdicts(v, ref, rank=v["choi_rank"])
    if why:
        return why
    if v["cp"] is not True:
        return "cp flag not true"
    if v["unital"] is not ref["unital"]:
        return f"unital flag {v['unital']!r} != reference {ref['unital']}"
    return None


def parse_classify_csv(text: str) -> dict:
    """Turn `qdeg classify --format csv` output back into a report document."""
    lines = text.strip().splitlines()
    if len(lines) != 2:
        raise ValueError(f"expected header and one row, got {len(lines)} lines")
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    flag = {"true": True, "false": False}

    def verdict(prefix):
        return {"state": row[f"{prefix}_state"], "margin": float(row[f"{prefix}_margin"])}

    return {
        "antidegradable": verdict("anti"),
        "degradable": verdict("deg"),
        "entanglement_breaking": verdict("eb"),
        "unital": flag[row["unital"]],
        "choi_rank": int(row["choi_rank"]),
        "cp": flag[row["cp"]],
    }


def rank2_closed_form(alpha: float, beta: float) -> tuple[float, float]:
    """(antidegradability, degradability) closed-form margins -/+ cos2a cos2b of rank2(alpha, beta)."""
    prod = math.cos(2 * alpha) * math.cos(2 * beta)
    return -prod, prod


def check_rank2_row(values: dict, alpha: float, beta: float, ref: dict) -> str | None:
    """Rank-2 rows must also match the closed forms -/+ cos2a cos2b.

    The Choi-spectrum margins of the canonical channel are exactly twice
    the closed forms, so the sweep's margins are compared with 2x the
    closed form and its states with the closed form's sign.
    """
    why = check_verdicts(values, ref)
    if why or ref["rank"] != 2 or ref["rank_ambiguous"]:
        return why
    for key, closed in zip(("anti", "deg"), rank2_closed_form(alpha, beta)):
        margin = values[f"{key}_margin"]
        if not (_margin_ok(margin, 2.0 * closed) and _state_ok(values[f"{key}_state"], margin, 2.0 * closed)):
            return f"rank-2 closed form mismatch for {key} at alpha={alpha!r}, beta={beta!r}"
    return None


def check_oracle(status: str, witness, target: np.ndarray, margin: float) -> str | None:
    """Oracle status against the sign of the analytic margin; witness re-checked.

    ``target`` is the normalized Choi matrix C / 2.
    """
    expected = "feasible" if margin > 0 else "infeasible"
    if status != expected:
        return f"oracle said {status} for analytic margin {margin:.3e}"
    if status != "feasible":
        return None
    if witness is None or witness.shape != (8, 8):
        return "feasible without an 8x8 witness"
    y = np.asarray(witness)
    sy = SWAP_YYP @ y @ SWAP_YYP
    marg = np.einsum("aibi->ab", y.reshape(4, 2, 4, 2))
    marg_s = np.einsum("aibi->ab", sy.reshape(4, 2, 4, 2))
    if np.linalg.eigvalsh((y + y.conj().T) / 2)[0] < -WITNESS_TOL:
        return "witness is not PSD"
    if np.linalg.norm(marg - target) > WITNESS_TOL or np.linalg.norm(marg_s - target) > WITNESS_TOL:
        return "witness marginal residual above tolerance"
    if np.linalg.norm(y - sy) > WITNESS_TOL:
        return "witness swap residual above tolerance"
    return None
