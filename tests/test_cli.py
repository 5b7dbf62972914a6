import json
import math
import pathlib
import re
import warnings

import numpy as np
import pytest

from helpers import assert_sweep_row_matches_classify, verify_certificate, verify_witness
from qdeg.channels import BlochParams, bell_mu, choi_from_kraus, depolarizing, identity, rank2, validate_choi
from qdeg.classify import unital_antidegradable
from qdeg.cli import main
from qdeg.errors import NotTracePreserving

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def write_spec(tmp_path, doc, name="chan.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# `qdeg classify` documents and their CSV rows
CLASSIFY_ROWS = pytest.mark.parametrize("doc, row", [
    ({"kind": "named", "name": "rank2", "alpha": math.pi / 4, "beta": 0.0},
     "boundary,0.0,boundary,0.0,no,-0.5000000000000001,false,true,2,true"),
    ({"kind": "named", "name": "rank2", "alpha": 0.3, "beta": 0.5},
     "no,-0.8918614717015974,yes,0.8918614717015974,no,-0.682818960388909,false,false,2,true"),
    ({"kind": "named", "name": "depolarizing", "p": 0.4},
     "yes,0.3433202097703334,no,-2.0,no,-0.40000000000000013,true,na,4,true"),
], ids=["self-complementary", "not-self-complementary", "self-complementary-na"])


def to_complex(pair):
    return complex(pair[0], pair[1])


def matrix_from_json(rows):
    return np.array([[to_complex(v) for v in row] for row in rows])


class TestClassifyCommand:
    def test_depolarizing_half(self, tmp_path, capsys):
        path = write_spec(tmp_path, {"kind": "named", "name": "depolarizing", "p": 0.5})
        code, out, _ = run(capsys, ["classify", path])
        assert code == 0
        doc = json.loads(out)
        assert doc["antidegradable"]["state"] == "yes"
        assert doc["entanglement_breaking"]["state"] == "no"
        assert doc["unital"] is True

    def test_identity(self, tmp_path, capsys):
        path = write_spec(tmp_path, {"kind": "named", "name": "identity"})
        code, out, _ = run(capsys, ["classify", path])
        assert code == 0
        doc = json.loads(out)
        assert doc["degradable"]["state"] == "yes"
        assert doc["antidegradable"]["state"] == "no"

    def test_non_cp_bloch_exits_2(self, tmp_path, capsys):
        path = write_spec(tmp_path, {"kind": "bloch", "t": [0, 0, 0], "lambda": [1, 1, -1]})
        code, _, err = run(capsys, ["classify", path])
        assert code == 2
        assert "not a channel" in err

    def test_parse_failure_exits_1(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        code, _, err = run(capsys, ["classify", str(p)])
        assert code == 1 and "error" in err

    def test_unknown_kind_exits_1(self, tmp_path, capsys):
        path = write_spec(tmp_path, {"kind": "mystery"})
        code, _, _ = run(capsys, ["classify", path])
        assert code == 1

    def test_missing_parameter_exits_1(self, tmp_path, capsys):
        path = write_spec(tmp_path, {"kind": "named", "name": "depolarizing"})
        code, _, _ = run(capsys, ["classify", path])
        assert code == 1

    @pytest.mark.parametrize("name, param, value", [
        ("depolarizing", "p", "0.5"),
        ("amplitude_damping", "alpha", None),
        ("depolarizing", "p", True),
    ], ids=["string", "null", "boolean"])
    def test_mistyped_parameter_exits_1(self, tmp_path, capsys, name, param, value):
        path = write_spec(tmp_path, {"kind": "named", "name": name, param: value})
        code, _, err = run(capsys, ["classify", path])
        assert code == 1
        assert err.startswith("error:") and f"parameter '{param}'" in err
        assert "Traceback" not in err

    def test_non_finite_parameter_exits_1(self, tmp_path, capsys):
        path = write_spec(tmp_path, {"kind": "named", "name": "rank2", "alpha": math.inf, "beta": 0.5})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["classify", path])
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "parameter 'alpha'" in err and "finite" in err

    def test_redundant_kraus_set(self, tmp_path, capsys):
        k1, k2 = rank2(0.3, 0.5).operators
        ops = [k1, k2 / np.sqrt(2), k2 / np.sqrt(2)]
        doc = {"kind": "kraus", "operators": [[[[v.real, v.imag] for v in row] for row in k] for k in ops]}
        code, out, _ = run(capsys, ["classify", write_spec(tmp_path, doc)])
        assert code == 0
        assert json.loads(out)["choi_rank"] == 2

    def test_out_of_range_parameter_exits_2(self, tmp_path, capsys):
        path = write_spec(tmp_path, {"kind": "named", "name": "depolarizing", "p": 1.7})
        code, _, _ = run(capsys, ["classify", path])
        assert code == 2

    def test_kraus_input(self, tmp_path, capsys):
        ident = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
        path = write_spec(tmp_path, {"kind": "kraus", "operators": [ident]})
        code, out, _ = run(capsys, ["classify", path])
        assert code == 0
        assert json.loads(out)["choi_rank"] == 1

    @pytest.mark.parametrize("bad", [10**400, math.nan, math.inf], ids=["huge-integer", "nan", "infinity"])
    @pytest.mark.parametrize("kind, field", [("kraus", "operator 0 entry"), ("choi", "matrix entry")])
    def test_non_finite_matrix_entry_exits_1(self, tmp_path, capsys, bad, kind, field):
        if kind == "kraus":
            doc = {"kind": "kraus", "operators": [[[bad, 0], [0, 1]]]}
        else:
            doc = {"kind": "choi", "matrix": [[1, 0, 0, [bad, 0]], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]]}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["classify", write_spec(tmp_path, doc)])
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert field in err and "finite" in err

    @pytest.mark.parametrize("matrix", [[1, 2], [[1, 0], [0]], [[]], [[1, 0], [[1, 2, 3], 0]]],
                             ids=["flat", "ragged", "empty-row", "triple"])
    def test_malformed_matrix_exits_1(self, tmp_path, capsys, matrix):
        code, out, err = run(capsys, ["classify", write_spec(tmp_path, {"kind": "choi", "matrix": matrix})])
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and "matrix" in err

    def test_csv_format(self, tmp_path, capsys):
        path = write_spec(tmp_path, {"kind": "named", "name": "depolarizing", "p": 0.5})
        code, out, _ = run(capsys, ["classify", path, "--format", "csv"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("anti_state,anti_margin")
        assert lines[1].startswith("yes,")

    @CLASSIFY_ROWS
    def test_csv_bytes(self, tmp_path, capsys, doc, row):
        code, out, err = run(capsys, ["classify", write_spec(tmp_path, doc), "--format", "csv"])
        assert code == 0 and err == ""
        assert out == (
            "anti_state,anti_margin,deg_state,deg_margin,eb_state,eb_margin,"
            "unital,self_complementary,choi_rank,cp\n" + row + "\n"
        )

    @CLASSIFY_ROWS
    def test_json_bytes(self, tmp_path, capsys, doc, row):
        a_state, a_margin, d_state, d_margin, e_state, e_margin, unital, sc, rank, cp = row.split(",")
        code, out, err = run(capsys, ["classify", write_spec(tmp_path, doc)])
        assert code == 0 and err == ""
        assert out == (
            "{\n"
            '  "antidegradable": {\n'
            f'    "state": "{a_state}",\n'
            f'    "margin": {a_margin}\n'
            "  },\n"
            '  "degradable": {\n'
            f'    "state": "{d_state}",\n'
            f'    "margin": {d_margin}\n'
            "  },\n"
            '  "entanglement_breaking": {\n'
            f'    "state": "{e_state}",\n'
            f'    "margin": {e_margin}\n'
            "  },\n"
            f'  "unital": {unital},\n'
            f'  "self_complementary": {"null" if sc == "na" else sc},\n'
            f'  "choi_rank": {rank},\n'
            f'  "cp": {cp}\n'
            "}\n"
        )

    def test_bloch_with_lambda_and_transfer_exits_1(self, tmp_path, capsys):
        # the T channel was classified and lambda dropped without a word
        doc = {"kind": "bloch", "t": [0, 0, 0], "lambda": [0.5, 0.5, 0.5],
               "T": [[0.1, 0, 0], [0, 0.1, 0], [0, 0, 0.1]]}
        code, out, err = run(capsys, ["classify", write_spec(tmp_path, doc)])
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "'lambda'" in err and "'T'" in err

    def test_deterministic_output(self, tmp_path, capsys):
        path = write_spec(tmp_path, {"kind": "named", "name": "rank2", "alpha": 0.4, "beta": 1.1})
        _, out1, _ = run(capsys, ["classify", path])
        _, out2, _ = run(capsys, ["classify", path])
        assert out1 == out2


class TestConvertCommand:
    def test_depolarizing_one_to_choi(self, tmp_path, capsys):
        path = write_spec(tmp_path, {"kind": "named", "name": "depolarizing", "p": 1.0})
        code, out, _ = run(capsys, ["convert", path, "--to", "choi"])
        assert code == 0
        m = matrix_from_json(json.loads(out)["matrix"])
        assert np.allclose(m, np.eye(4) / 2, atol=1e-12)

    def test_identity_kraus_to_bloch(self, tmp_path, capsys):
        ident = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
        path = write_spec(tmp_path, {"kind": "kraus", "operators": [ident]})
        code, out, _ = run(capsys, ["convert", path, "--to", "bloch"])
        assert code == 0
        doc = json.loads(out)
        assert np.allclose(doc["t"], 0) and np.allclose(doc["lambda"], 1)

    def test_choi_to_bloch_depolarizing(self, tmp_path, capsys):
        p = 0.4
        c = choi_from_kraus(depolarizing(p)).matrix
        mat = [[[v.real, v.imag] for v in row] for row in c]
        path = write_spec(tmp_path, {"kind": "choi", "matrix": mat})
        code, out, _ = run(capsys, ["convert", path, "--to", "bloch"])
        assert code == 0
        doc = json.loads(out)
        assert np.allclose(doc["lambda"], [0.6, 0.6, 0.6], atol=1e-12)

    def test_near_boundary_choi_to_kraus(self, tmp_path, capsys):
        c = choi_from_kraus(depolarizing(3e-10)).matrix
        path = write_spec(tmp_path, {"kind": "choi", "matrix": [[[v.real, v.imag] for v in row] for row in c]})
        code, out, _ = run(capsys, ["convert", path, "--to", "kraus"])
        assert code == 0
        assert len(json.loads(out)["operators"]) == 1

    def test_roundtrip_kraus_choi(self, tmp_path, capsys):
        path = write_spec(tmp_path, {"kind": "named", "name": "rank2", "alpha": 0.9, "beta": 0.2})
        _, out, _ = run(capsys, ["convert", path, "--to", "choi"])
        choi_doc = json.loads(out)
        path2 = write_spec(tmp_path, choi_doc, "choi.json")
        _, out2, _ = run(capsys, ["convert", path2, "--to", "kraus"])
        kraus_doc = json.loads(out2)
        path3 = write_spec(tmp_path, kraus_doc, "kraus.json")
        _, out3, _ = run(capsys, ["convert", path3, "--to", "choi"])
        m1 = matrix_from_json(choi_doc["matrix"])
        m3 = matrix_from_json(json.loads(out3)["matrix"])
        assert np.linalg.norm(m1 - m3) <= 1e-9


class TestComplementCommand:
    def test_unitary(self, tmp_path, capsys):
        ident = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
        path = write_spec(tmp_path, {"kind": "kraus", "operators": [ident]})
        code, out, _ = run(capsys, ["complement", path])
        assert code == 0
        doc = json.loads(out)
        assert doc["output_dim"] == 1
        ops = [matrix_from_json(op) for op in doc["operators"]]
        assert all(op.shape == (1, 2) for op in ops)
        gram = sum(op.conj().T @ op for op in ops)
        assert np.linalg.norm(gram - np.eye(2)) <= 1e-10

    def test_self_complementary_channel(self, tmp_path, capsys):
        path = write_spec(
            tmp_path, {"kind": "named", "name": "rank2", "alpha": 0.7854, "beta": 0.7853981633974483}
        )
        code, out, _ = run(capsys, ["complement", path])
        assert code == 0
        doc = json.loads(out)
        ops = [matrix_from_json(op) for op in doc["operators"]]
        comp_choi = sum(
            np.outer(op.reshape(-1, order="F"), op.reshape(-1, order="F").conj()) for op in ops
        )
        orig = choi_from_kraus(rank2(0.7854, 0.7853981633974483)).matrix
        assert np.linalg.norm(comp_choi - orig) <= 1e-10

    def test_generic_completeness(self, tmp_path, capsys):
        path = write_spec(tmp_path, {"kind": "named", "name": "rank2", "alpha": 1.2, "beta": 0.4})
        code, out, _ = run(capsys, ["complement", path])
        assert code == 0
        ops = [matrix_from_json(op) for op in json.loads(out)["operators"]]
        gram = sum(op.conj().T @ op for op in ops)
        assert np.linalg.norm(gram - np.eye(2)) <= 1e-10


class TestOracleCommand:
    def test_depolarizing_half(self, tmp_path, capsys):
        path = write_spec(tmp_path, {"kind": "named", "name": "depolarizing", "p": 0.5})
        code, out, _ = run(capsys, ["oracle", path])
        assert code == 0
        doc = json.loads(out)
        assert doc["oracle"]["status"] == "feasible"
        assert doc["analytic"]["state"] == "yes"
        assert list(doc["analytic"]) == ["state", "margin"]

    def test_identity(self, tmp_path, capsys):
        path = write_spec(tmp_path, {"kind": "named", "name": "identity"})
        code, out, _ = run(capsys, ["oracle", path])
        assert code == 0
        doc = json.loads(out)
        assert doc["oracle"]["status"] == "infeasible"
        assert doc["analytic"]["state"] == "no"

    def test_near_boundary_rank2_infeasible(self, tmp_path, capsys):
        # a rank-2 target at analytic margin -2e-5
        spec = {"kind": "named", "name": "rank2", "alpha": 0.7853931633974482, "beta": 0.0}
        code, out, _ = run(capsys, ["oracle", write_spec(tmp_path, spec)])
        assert code == 0
        doc = json.loads(out)
        assert doc["oracle"]["status"] == "infeasible"
        assert doc["analytic"]["state"] == "no"

    def test_witness_file(self, tmp_path, capsys):
        path = write_spec(tmp_path, {"kind": "named", "name": "depolarizing", "p": 0.8})
        wit_path = tmp_path / "witness.json"
        code, out, _ = run(capsys, ["oracle", path, "--out", str(wit_path)])
        assert code == 0
        doc = json.loads(wit_path.read_text())
        w = matrix_from_json(doc["witness"])
        assert w.shape == (8, 8)
        assert np.linalg.eigvalsh(w)[0] >= -1e-7
        verify_witness(w, choi_from_kraus(depolarizing(0.8)).matrix / 2)


    def test_certificate_file(self, tmp_path, capsys):
        path = write_spec(tmp_path, {"kind": "named", "name": "identity"})
        cert_path = tmp_path / "certificate.json"
        code, out, _ = run(capsys, ["oracle", path, "--out", str(cert_path)])
        assert code == 0 and json.loads(out)["oracle"]["status"] == "infeasible"
        doc = json.loads(cert_path.read_text())
        assert list(doc) == ["certificate"]
        w = matrix_from_json(doc["certificate"])
        assert w.shape == (8, 8)
        assert np.linalg.norm(w - w.conj().T) <= 1e-12
        assert np.linalg.eigvalsh(w)[0] >= -1e-12 * np.linalg.norm(w)
        verify_certificate(w, choi_from_kraus(identity()).matrix / 2)

    def test_inconclusive_run_writes_no_file(self, tmp_path, capsys):
        # a rank-4 target that takes 6 steps, stopped after one
        path = write_spec(tmp_path, {"kind": "named", "name": "unital", "lambda": [0.75, 0.5, 0.3]})
        proof = tmp_path / "proof.json"
        code, out, _ = run(capsys, ["oracle", path, "--max-iter", "1", "--out", str(proof)])
        assert code == 0
        doc = json.loads(out)["oracle"]
        assert (doc["status"], doc["iterations"]) == ("inconclusive", 1)
        assert doc["residual"] == pytest.approx(0.05376306431655862, rel=1e-9)
        assert not proof.exists()

    @pytest.mark.parametrize("alpha, beta", [(3.032364, 2.224702), (2.075022, 2.926280)])
    def test_target_just_inside_oracle_tol_decided(self, tmp_path, capsys, alpha, beta):
        # (1 - s) C + s F, with F the swap (the Choi matrix of the transpose
        # map: TP, not CP) and s putting the smallest Choi eigenvalue at
        # -1.8e-7: --tol 2e-7 admits the channel, and the target's -9e-8 lies
        # inside -(--oracle-tol). The full-space barrier stalled on the first
        # at a residual of 1.05e-7 and hit a singular Newton system on the second.
        c = choi_from_kraus(rank2(alpha, beta)).matrix
        swap = np.eye(4)[[0, 2, 1, 3]]
        lo, hi = 0.0, 1e-3
        for _ in range(60):
            s = (lo + hi) / 2
            lo, hi = (lo, s) if np.linalg.eigvalsh((1 - s) * c + s * swap)[0] < -1.8e-7 else (s, hi)
        m = (1 - lo) * c + lo * swap
        path = write_spec(tmp_path, {"kind": "choi", "matrix": [[[v.real, v.imag] for v in row] for row in m]})
        code, out, _ = run(capsys, ["oracle", path, "--tol", "2e-7", "--max-iter", "100"])
        assert code == 0
        doc = json.loads(out)
        assert doc["oracle"]["status"] == "feasible" and doc["oracle"]["iterations"] <= 100, doc
        assert doc["analytic"]["state"] == "yes"

    def test_target_below_oracle_tol_exits_2(self, tmp_path, capsys):
        # --tol 1e-3 lets classify accept the channel (Choi eigenvalue -1e-6);
        # the normalized target's -5e-7 is still below -(--oracle-tol)
        doc = {"kind": "bloch", "t": [0, 0, 0], "lambda": [1.000002, 1.000002, 1.000002]}
        path = write_spec(tmp_path, doc)
        assert run(capsys, ["classify", path, "--tol", "1e-3"])[0] == 0
        code, out, err = run(capsys, ["oracle", path, "--tol", "1e-3"])
        assert code == 2 and out == ""
        assert err == ("error: not a channel: target is not PSD: minimum eigenvalue "
                       "-5.000000000823648e-07 is below -tol = -1e-07\n")

    def test_oracle_decomposes_the_choi_matrix_once(self, monkeypatch, tmp_path, capsys):
        # `qdeg oracle` gates once: the CP gate's eigh serves the route and
        # the --oracle-tol gate, so C/2 is neither factored nor decomposed
        # again (it took eigh, eigvalsh, cholesky, eigh); the eigvalsh is the
        # partial transpose's, for the analytic verdict
        path = tmp_path / "chan.json"
        path.write_text('{"kind": "named", "name": "amplitude_damping", "alpha": 0.3}')
        calls = []
        for name in ("eigh", "eigvalsh", "cholesky"):
            fn = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda a, *args, fn=fn, name=name, **kw:
                                calls.append((name, np.shape(a))) or fn(a, *args, **kw))
        assert main(["oracle", str(path)]) == 0
        assert '"status": "infeasible"' in capsys.readouterr().out
        assert [call for call in calls if call[1] == (4, 4)] == [("eigh", (4, 4)), ("eigvalsh", (4, 4))]
        assert not [call for call in calls if call[0] == "cholesky"]


class TestSweepCommand:
    def test_rank2_sign_pattern(self, tmp_path, capsys):
        spec = {
            "family": "rank2",
            "alpha": {"min": 0.0, "max": 3.141592653589793, "steps": 24},
            "beta": {"min": 0.0, "max": 3.141592653589793, "steps": 24},
        }
        path = write_spec(tmp_path, spec)
        code, out, _ = run(capsys, ["sweep", path])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "alpha,beta,anti_margin,deg_margin,eb_margin,anti_state,deg_state,eb_state"
        assert len(lines) == 1 + 24 * 24
        for line in lines[1:]:
            cells = line.split(",")
            a, b, margin = float(cells[0]), float(cells[1]), float(cells[2])
            ref = -np.cos(2 * a) * np.cos(2 * b)
            if abs(ref) > 1e-6:
                assert np.sign(margin) == np.sign(ref)

    def test_depolarizing_threshold_flips(self, tmp_path, capsys):
        spec = {"family": "depolarizing", "p": {"min": 0.0, "max": 1.0, "steps": 1001}}
        path = write_spec(tmp_path, spec)
        code, out, _ = run(capsys, ["sweep", path])
        assert code == 0
        lines = out.strip().split("\n")[1:]
        assert len(lines) == 1001
        anti_flip = eb_flip = None
        prev_anti = prev_eb = None
        for line in lines:
            cells = line.split(",")
            p = float(cells[0])
            anti, eb = cells[4], cells[6]
            if prev_anti in ("no",) and anti in ("yes", "boundary"):
                anti_flip = p
            if prev_eb in ("no",) and eb in ("yes", "boundary"):
                eb_flip = p
            prev_anti, prev_eb = anti, eb
        assert anti_flip is not None and abs(anti_flip - 1 / 3) <= 1e-3 + 1e-12
        assert eb_flip is not None and abs(eb_flip - 2 / 3) <= 1e-3 + 1e-12

    def test_degenerate_two_point_grid(self, tmp_path, capsys):
        spec = {"family": "depolarizing", "p": {"min": 0.0, "max": 1.0, "steps": 2}}
        path = write_spec(tmp_path, spec)
        code, out, _ = run(capsys, ["sweep", path])
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 3

    def test_unital_ray(self, tmp_path, capsys):
        spec = {
            "family": "unital",
            "direction": [1.0, 1.0, 1.0],
            "scale": {"min": 0.0, "max": 1.0, "steps": 11},
        }
        path = write_spec(tmp_path, spec)
        code, out, _ = run(capsys, ["sweep", path])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("scale,lambda1,lambda2,lambda3")
        assert len(lines) == 12

    def test_output_selection(self, tmp_path, capsys):
        spec = {
            "family": "depolarizing",
            "p": {"min": 0.0, "max": 1.0, "steps": 3},
            "outputs": ["anti_margin", "anti_state"],
        }
        path = write_spec(tmp_path, spec)
        code, out, _ = run(capsys, ["sweep", path])
        assert code == 0
        assert out.strip().split("\n")[0] == "p,anti_margin,anti_state"

    def test_repeated_output_bytes(self, tmp_path, capsys):
        # a repeated name repeats the CSV column; a JSON object holds the key once
        spec = {"family": "depolarizing", "p": {"min": 0.0, "max": 1.0, "steps": 3},
                "outputs": ["eb_state", "anti_margin", "anti_margin"]}
        path = write_spec(tmp_path, spec)
        code, out, err = run(capsys, ["sweep", path])
        assert code == 0 and err == ""
        assert out == (
            "p,eb_state,anti_margin,anti_margin\n"
            "0.0,no,-2.0,-2.0\n"
            "0.5,no,0.8090169943749479,0.8090169943749479\n"
            "1.0,yes,2.0,2.0\n"
        )
        code, out, err = run(capsys, ["sweep", path, "--format", "json"])
        assert code == 0 and err == ""
        rows = [("0.0", "no", "-2.0"), ("0.5", "no", "0.8090169943749479"), ("1.0", "yes", "2.0")]
        assert out == "[\n" + ",\n".join(
            f'  {{\n    "p": {p},\n    "eb_state": "{eb}",\n    "anti_margin": {anti}\n  }}'
            for p, eb, anti in rows
        ) + "\n]\n"

    def test_empty_outputs_bytes(self, tmp_path, capsys):
        spec = {"family": "depolarizing", "p": {"min": 0.0, "max": 1.0, "steps": 3}, "outputs": []}
        path = write_spec(tmp_path, spec)
        code, out, err = run(capsys, ["sweep", path])
        assert code == 0 and err == ""
        assert out == "p\n0.0\n0.5\n1.0\n"
        code, out, err = run(capsys, ["sweep", path, "--format", "json"])
        assert code == 0 and err == ""
        assert out == '[\n  {\n    "p": 0.0\n  },\n  {\n    "p": 0.5\n  },\n  {\n    "p": 1.0\n  }\n]\n'

    def test_invalid_grid_exits_1(self, tmp_path, capsys):
        spec = {"family": "depolarizing", "p": {"min": 0.0, "max": 1.0, "steps": 1}}
        path = write_spec(tmp_path, spec)
        code, _, _ = run(capsys, ["sweep", path])
        assert code == 1

    def test_csv_to_file_and_determinism(self, tmp_path, capsys):
        spec = {"family": "depolarizing", "p": {"min": 0.0, "max": 1.0, "steps": 21}}
        path = write_spec(tmp_path, spec)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["sweep", path, "--out", str(out1)]) == 0
        assert main(["sweep", path, "--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_states_match_classify(self, tmp_path, capsys):
        # each family's rows against classify() of the same channel
        specs = [
            {"family": "depolarizing", "p": {"min": -0.1, "max": 1.1, "steps": 13}},
            {"family": "rank2", "alpha": {"min": 0.0, "max": 3.0, "steps": 7},
             "beta": {"min": -0.5, "max": 1.6, "steps": 6}},
            {"family": "unital", "direction": [0.9, -0.2, 0.4], "scale": {"min": 0.0, "max": 0.6, "steps": 9}},
        ]
        for spec in specs:
            code, out, _ = run(capsys, ["sweep", write_spec(tmp_path, spec)])
            assert code == 0
            rows = sweep_rows(out)
            assert len(rows) == int(np.prod([spec[k]["steps"] for k in spec if k in AXES]))
            for row in rows:
                assert_sweep_row_matches_classify(row, channel_of_row(spec, row))

    @pytest.mark.parametrize("axis", [
        {"min": "0.1", "max": True, "steps": "3"},
        {"min": "0.1", "max": 1.0, "steps": 3},
        {"min": 0.1, "max": True, "steps": 3},
        {"min": 0.1, "max": 1.0, "steps": "3"},
        {"min": 0.1, "max": 1.0, "steps": 3.0},
        {"min": 0.1, "max": 1.0, "steps": True},
        {"min": None, "max": 1.0, "steps": 3},
        {"max": 1.0, "steps": 3},
        # beyond the 128 TiB user address space: numpy refuses without allocating
        {"min": 0, "max": 1, "steps": 10**15},
        {"min": 0, "max": 1, "steps": 10**30},
        {"min": 0, "max": 1, "steps": 2**63},
    ], ids=["all-three", "string-min", "bool-max", "string-steps", "float-steps", "bool-steps", "null-min", "missing-min",
            "steps-1e15", "steps-1e30", "steps-2pow63"])
    def test_mistyped_axis_exits_1(self, tmp_path, capsys, axis):
        code, out, err = run(capsys, ["sweep", write_spec(tmp_path, {"family": "depolarizing", "p": axis})])
        assert code == 1 and out == ""
        assert err.startswith("error:") and "axis 'p'" in err and "Traceback" not in err

    def test_grid_too_large_to_build_exits_1(self, tmp_path, capsys):
        # each axis is 80 MB; the 10**14-point grid (728 TiB) exceeds any address space
        axis = {"min": 0, "max": 1, "steps": 10**7}
        code, out, err = run(capsys, ["sweep", write_spec(tmp_path, {"family": "rank2", "alpha": axis, "beta": axis})])
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err

    def test_non_finite_axis_exits_1(self, tmp_path, capsys):
        spec = {"family": "rank2", "alpha": {"min": 0, "max": math.inf, "steps": 3},
                "beta": {"min": 0, "max": 1, "steps": 3}}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["sweep", write_spec(tmp_path, spec)])
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "axis 'alpha' max" in err and "finite" in err

    def test_document_must_be_an_object(self, tmp_path, capsys):
        code, _, err = run(capsys, ["sweep", write_spec(tmp_path, [1, 2])])
        assert code == 1 and err.startswith("error:")

    def test_unital_ray_crossing_cp_set_keeps_cp_rows(self, tmp_path, capsys):
        direction = np.array([0.3, -0.5, 0.8])
        spec = {"family": "unital", "direction": direction.tolist(),
                "scale": {"min": 0.05, "max": 1.6, "steps": 40}}
        scales = np.linspace(0.05, 1.6, 40)
        inside = [s for s in scales if bell_mu(s * direction).min() >= 0.0]
        assert 0 < len(inside) < len(scales)
        for fmt in ("json", "csv"):
            code, out, err = run(capsys, ["sweep", write_spec(tmp_path, spec), "--format", fmt])
            assert code == 0 and err == ""
            rows = json.loads(out) if fmt == "json" else sweep_rows(out)
            assert [row["scale"] for row in rows] == [float(s) for s in inside]
            for row in rows:
                assert_sweep_row_matches_classify(row, channel_of_row(spec, row))
        # the same rows as a sweep over the in-set part of the grid alone
        code, out, _ = run(capsys, ["sweep", write_spec(tmp_path, spec), "--format", "json"])
        crossing = json.loads(out)
        spec_in = dict(spec, scale={"min": float(inside[0]), "max": float(inside[-1]), "steps": len(inside)})
        code_in, out_in, _ = run(capsys, ["sweep", write_spec(tmp_path, spec_in), "--format", "json"])
        assert code_in == 0
        for a, b in zip(crossing, json.loads(out_in)):
            assert abs(a["scale"] - b["scale"]) <= 1e-12
            for k in ("anti", "deg", "eb"):
                assert a[f"{k}_state"] == b[f"{k}_state"]
                assert abs(a[f"{k}_margin"] - b[f"{k}_margin"]) <= 1e-12

    def test_sweep_with_no_cp_point_exits_2(self, tmp_path, capsys):
        spec = {"family": "unital", "direction": [1.0, 1.0, -1.0], "scale": {"min": 1.5, "max": 2.0, "steps": 5}}
        code, out, err = run(capsys, ["sweep", write_spec(tmp_path, spec)])
        assert code == 2 and out == ""
        assert err.startswith("error: not a channel:") and "completely positive" in err


class TestCommandLine:
    @pytest.mark.parametrize("argv", [
        ["classify", "{path}", "--bogus"],
        ["classify"],
        [],
        ["frobnicate", "{path}"],
        ["classify", "{path}", "--format", "xml"],
        ["classify", "{path}", "--tol", "abc"],
        ["classify", "{path}", "--tol", "nan"],
        ["classify", "{path}", "--tol", "-1"],
        ["classify", "{path}", "--tol", "0"],
        ["classify", "{path}", "--tol", "inf"],
        ["classify", "{path}", "--tol", "0.25"],
        ["classify", "{path}", "--tol", "0.3"],
        ["sweep", "{path}", "--tol", "0.3"],
        ["oracle", "{path}", "--oracle-tol", "0"],
        ["oracle", "{path}", "--oracle-tol", "nan"],
        ["oracle", "{path}", "--max-iter", "0"],
        ["oracle", "{path}", "--max-iter", "-5"],
        ["oracle", "{path}", "--max-iter", "2.5"],
    ], ids=["unknown-option", "missing-input", "missing-command", "unknown-command", "bad-choice",
            "tol-abc", "tol-nan", "tol-negative", "tol-zero", "tol-inf", "tol-quarter", "tol-above-quarter",
            "sweep-tol-above-quarter", "oracle-tol-zero",
            "oracle-tol-nan", "max-iter-zero", "max-iter-negative", "max-iter-float"])
    def test_bad_option_exits_1(self, tmp_path, capsys, argv):
        path = write_spec(tmp_path, {"kind": "named", "name": "rank2", "alpha": 0.3, "beta": 0.5})
        code, out, err = run(capsys, [a.format(path=path) for a in argv])
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "usage" not in err

    @pytest.mark.parametrize("argv", [["-h"], ["classify", "-h"], ["oracle", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage" in capsys.readouterr().out

    def test_tol_below_a_quarter_keeps_the_rank(self, tmp_path, capsys):
        # at --tol 0.3 this printed choi_rank 0 and "degradable, margin 2.0"
        path = write_spec(tmp_path, {"kind": "named", "name": "depolarizing", "p": 1.0})
        code, out, _ = run(capsys, ["classify", path, "--tol", "0.2499"])
        assert code == 0
        doc = json.loads(out)
        assert doc["choi_rank"] == 4
        assert doc["degradable"] == {"state": "no", "margin": -2.0}

    def test_valid_options_accepted(self, tmp_path, capsys):
        path = write_spec(tmp_path, {"kind": "named", "name": "identity"})
        code, out, _ = run(capsys, ["oracle", path, "--tol", "1e-6", "--oracle-tol", "1e-8", "--max-iter", "1"])
        assert code == 0
        doc = json.loads(out)  # strict JSON: no Infinity
        # the barrier certifies the identity at its start point
        assert doc["oracle"]["iterations"] == 0 and math.isfinite(doc["oracle"]["residual"])


LAM_EDGE = [1 + 1e-9] * 3  # Choi spectrum (2 + 1.5e-9, -5e-10, -5e-10, -5e-10)
NON_CP = {"kind": "bloch", "t": [0, 0, 0], "lambda": [1, 1, -1]}


class TestCpGate:
    """One CP gate and one rank for every command and representation."""

    def test_edge_of_cp_set_gets_one_answer(self, tmp_path, capsys):
        docs = [{"kind": "bloch", "t": [0, 0, 0], "lambda": LAM_EDGE},
                {"kind": "named", "name": "unital", "lambda": LAM_EDGE}]
        reports = []
        for doc in docs:
            path = write_spec(tmp_path, doc)
            code, out, err = run(capsys, ["classify", path])
            assert code == 0, err
            reports.append(json.loads(out))
            code, out, err = run(capsys, ["convert", path, "--to", "kraus"])
            assert code == 0, err
            assert len(json.loads(out)["operators"]) == reports[-1]["choi_rank"] == 1
            code, out, err = run(capsys, ["complement", path])
            assert code == 0, err
            assert json.loads(out)["output_dim"] == 1
        assert reports[0] == reports[1]
        assert reports[0]["cp"] is True
        anti = unital_antidegradable(LAM_EDGE)
        assert anti.state.value == reports[0]["antidegradable"]["state"]
        spec = {"family": "unital", "direction": [1, 1, 1], "scale": {"min": 1 + 1e-9, "max": 1.5, "steps": 2}}
        code, out, _ = run(capsys, ["sweep", write_spec(tmp_path, spec)])
        assert code == 0
        rows = sweep_rows(out)
        assert [row["scale"] for row in rows] == [1 + 1e-9]
        assert_sweep_row_matches_classify(rows[0], BlochParams(t=np.zeros(3), lam=LAM_EDGE))

    @pytest.mark.parametrize("doc", [NON_CP, {"kind": "named", "name": "unital", "lambda": [1, 1, -1]}],
                             ids=["bloch", "named-unital"])
    def test_every_command_prints_classify_error(self, tmp_path, capsys, doc):
        path = write_spec(tmp_path, doc)
        code, out, err = run(capsys, ["classify", path])
        assert code == 2 and out == ""
        assert re.fullmatch(r"error: not a channel: Choi matrix has eigenvalue \S+; channel is not CP "
                            r"\(min Choi eigenvalue \S+, TP residual \S+\)\n", err)
        for argv in (["convert", path, "--to", "kraus"], ["convert", path, "--to", "choi"],
                     ["complement", path], ["oracle", path]):
            assert run(capsys, argv) == (2, "", err), argv

    def test_convert_to_kraus_count_is_choi_rank(self, tmp_path, capsys):
        k1, k2 = rank2(0.3, 0.5).operators
        docs = [{"kind": "kraus", "operators": [[[[v.real, v.imag] for v in row] for row in k]
                                                for k in (k1, k2 / np.sqrt(2), k2 / np.sqrt(2))]}]
        for p in (6e-10, 2e-9, 0.3):
            c = choi_from_kraus(depolarizing(p)).matrix
            docs.append({"kind": "choi", "matrix": [[[v.real, v.imag] for v in row] for row in c]})
        for doc in docs:
            path = write_spec(tmp_path, doc)
            _, out, _ = run(capsys, ["classify", path])
            rank = json.loads(out)["choi_rank"]
            code, out, _ = run(capsys, ["convert", path, "--to", "kraus"])
            assert code == 0 and len(json.loads(out)["operators"]) == rank


# Bloch parameters whose Choi spectrum has a 2-norm beyond the float range:
# at 1e200 along lambda the rank-2 gate passed and classify never returned
OVERFLOWING = [{"kind": "bloch", "t": [0, 0, 0], "lambda": [1e200, 0, 0]},
               {"kind": "bloch", "t": [0, 0, 0], "lambda": [1e160, 0, 0]},
               {"kind": "bloch", "t": [1e200, 0, 0], "lambda": [0, 0, 0]}]


class TestOverflow:
    """Huge finite parameters exit 2 with one error line and no numpy warning."""

    @pytest.mark.parametrize("doc", OVERFLOWING, ids=["lambda-1e200", "lambda-1e160", "t-1e200"])
    def test_overflowing_norm_fails_the_cp_gate(self, tmp_path, capsys, doc):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["classify", write_spec(tmp_path, doc)])
        assert code == 2 and out == ""
        assert re.fullmatch(r"error: not a channel: Choi matrix has eigenvalue -5\.000e\+1[59]9; channel is not CP "
                            r"\(min Choi eigenvalue \S+, TP residual 0\.0\)\n", err)

    def test_overflowing_choi_document_exits_2(self, tmp_path, capsys):
        # both Hermiticity norms overflowed, so this non-Hermitian matrix was
        # classified as its Hermitian part, the identity channel, with exit 0
        doc = {"kind": "choi", "matrix": [[1, 1e160, 0, 1], [-1e160, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]]}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["classify", write_spec(tmp_path, doc)])
        assert (code, out) == (2, "")
        assert err == ("error: not a channel: Choi matrix is not Hermitian: ||m - m^dag||_F = 2.828e+160 "
                       "exceeds 1.414e+150\n")

    def test_largest_finite_choi_entries_fail_trace_preservation(self, tmp_path, capsys):
        # the Hermitian part overflowed: it printed "eigenvalue nan ... TP
        # residual nan", and a library caller under -W error stopped on a
        # warning; then the residual's squares overflowed, and it printed inf
        doc = {"kind": "choi", "matrix": [[1e308, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]]}
        for command in ("classify", "oracle"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run(capsys, [command, write_spec(tmp_path, doc)])
            assert (code, out) == (2, "")
            assert err == "error: not a channel: output marginal deviates from identity by 1.000e+308\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotTracePreserving, match=r"^output marginal deviates from identity by 1\.000e\+308$"):
                validate_choi(np.diag([1e308, 0.0, 0.0, 1.0]))

    def test_overflowing_marginal_reads_inf(self):
        # 1.7e308 + 1.7e308 overflows in the marginal itself
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotTracePreserving, match=r"^output marginal \(row 1\) deviates from identity by inf$"):
                validate_choi(np.stack([np.eye(4) / 2, np.diag([1.7e308, 1.7e308, 0.0, 0.0])]))

    def test_overflowing_choi_entries_are_not_finite(self, tmp_path, capsys):
        doc = {"kind": "bloch", "t": [0, 0, 0], "lambda": [1e308, 1e308, 1e308]}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["classify", write_spec(tmp_path, doc)])
        assert (code, out, err) == (2, "", "error: not a channel: matrix entries must be finite\n")

    def test_sweep_of_overflowing_scales_exits_2(self, tmp_path, capsys):
        # printed rows of -inf and inf margins with exit 0
        spec = {"family": "unital", "direction": [1, 0, 0], "scale": {"min": 1e200, "max": 2e200, "steps": 3}}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["sweep", write_spec(tmp_path, spec)])
        assert code == 2 and out == ""
        assert err.startswith("error: not a channel: no grid point is completely positive") and err.count("\n") == 1


def readme_json_blocks() -> list:
    return [json.loads(b) for b in re.findall(r"```json\n(.*?)```", README.read_text(), re.S)]


def test_readme_examples_run(tmp_path, capsys):
    blocks = readme_json_blocks()
    assert len(blocks) >= 2
    for doc in blocks:
        command = "sweep" if "family" in doc else "classify"
        code, out, err = run(capsys, [command, write_spec(tmp_path, doc)])
        assert code == 0 and err == "", (doc, err)


AXES = ("alpha", "beta", "p", "scale")


def sweep_rows(csv_text: str) -> list:
    lines = csv_text.strip().split("\n")
    header = lines[0].split(",")
    return [
        {k: (v if k.endswith("_state") else float(v)) for k, v in zip(header, line.split(","))}
        for line in lines[1:]
    ]


def channel_of_row(spec: dict, row: dict):
    if spec["family"] == "rank2":
        return rank2(row["alpha"], row["beta"])
    if spec["family"] == "depolarizing":
        return depolarizing(min(max(row["p"], 0.0), 1.0))
    return BlochParams(t=np.zeros(3), lam=row["scale"] * np.array(spec["direction"]))
