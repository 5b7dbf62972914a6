import json
import math
import warnings

import numpy as np
import pytest

from helpers import assert_sweep_row_matches_classify
from qdeg.channels import BlochParams, bell_mu, choi_from_kraus, depolarizing, rank2
from qdeg.cli import main


def write_spec(tmp_path, doc, name="chan.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


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

    def test_identity(self, tmp_path, capsys):
        path = write_spec(tmp_path, {"kind": "named", "name": "identity"})
        code, out, _ = run(capsys, ["oracle", path])
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
    ], ids=["all-three", "string-min", "bool-max", "string-steps", "float-steps", "bool-steps", "null-min", "missing-min"])
    def test_mistyped_axis_exits_1(self, tmp_path, capsys, axis):
        code, out, err = run(capsys, ["sweep", write_spec(tmp_path, {"family": "depolarizing", "p": axis})])
        assert code == 1 and out == ""
        assert err.startswith("error:") and "axis 'p'" in err and "Traceback" not in err

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
