import json
import math

import numpy as np
import numpy.testing as npt
import pytest

import spl
from spl import cli, matio


def write_e1(tmp_path, name="e1.json"):
    inst = spl.assemble_instance([0.0], [-1.0, 1.0], (-1.0, 1.0), [[0.5, 0.0]])
    path = tmp_path / name
    path.write_text(matio.dumps(matio.instance_to_dict(inst)))
    return path


def test_analyze_instance_file(tmp_path, capsys):
    path = write_e1(tmp_path)
    assert cli.main(["analyze", "--in", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    npt.assert_allclose(doc["angular"]["mu"], math.sqrt(2.0) - 1.0, atol=1e-8)
    npt.assert_allclose(doc["graph"]["measured"], math.sin(math.pi / 8.0), atol=1e-8)


def test_analyze_writes_output_file(tmp_path):
    path = write_e1(tmp_path)
    out = tmp_path / "report.json"
    assert cli.main(["analyze", "--in", str(path), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    npt.assert_allclose(doc["record"]["bound13"], 0.4472135954999579, atol=1e-8)


def test_analyze_matrix_with_gap(tmp_path, capsys):
    path = tmp_path / "mat.json"
    path.write_text(matio.dumps(matio.matrix_to_dict(np.diag([0.2, -1.0, 1.0]))))
    code = cli.main(["analyze", "--in", str(path), "--gap-left", "-1", "--gap-right", "1"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["instance"]["trivial"] is True
    assert doc["graph"]["measured"] == 0.0


def test_analyze_matrix_requires_gap(tmp_path, capsys):
    path = tmp_path / "mat.json"
    path.write_text(matio.dumps(matio.matrix_to_dict(np.diag([0.2, -1.0, 1.0]))))
    assert cli.main(["analyze", "--in", str(path)]) == cli.EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"


def test_analyze_disposition_violation(tmp_path, capsys):
    doc = {
        "sigma0": [0.0],
        "sigma1": [-1.0, 0.5, 1.0],
        "gap": [-1.0, 1.0],
        "B": {"n": 1, "real": [[0.1, 0.0, 0.0]]},
    }
    path = tmp_path / "bad.json"
    path.write_text(matio.dumps(doc))
    assert cli.main(["analyze", "--in", str(path)]) == cli.EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NotAGap"
    assert "0.5" in err["detail"]


def test_analyze_structural_error_exit_code(tmp_path, capsys):
    doc = {
        "sigma0": [0.0],
        "sigma1": [-1.0, 1.0],
        "gap": [-1.0, 1.0],
        "B": {"n": 1, "real": [[5.0, 0.0]]},
    }
    path = tmp_path / "closed.json"
    path.write_text(matio.dumps(doc))
    assert cli.main(["analyze", "--in", str(path)]) == cli.EXIT_STRUCTURAL
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "RankMismatch"


def test_analyze_parse_error(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    assert cli.main(["analyze", "--in", str(path)]) == cli.EXIT_CONFIG
    assert json.loads(capsys.readouterr().err)["error"] == "ParseError"


def test_bounds_point(capsys):
    assert cli.main(["bounds", "--D", "2", "--d", "1", "--v", "0.5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    npt.assert_allclose(doc["kappa"], 4.0 / 3.0, atol=1e-12)
    npt.assert_allclose(doc["bound32"], 0.4472135954999579, atol=1e-12)
    npt.assert_allclose(doc["r_V"], 0.20710678118654754, atol=1e-12)
    assert doc["regime31"] is True


def test_bounds_out_of_regime(capsys):
    # v beyond sqrt(d(D-d)): detailed-bound fields stay null
    assert cli.main(["bounds", "--D", "2", "--d", "1", "--v", "1.2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["regime31"] is False
    assert doc["kappa"] is None and doc["bound32"] is None
    assert doc["bound13"] is not None  # 1.2 < sqrt(2)


def test_bounds_unchecked(capsys):
    assert cli.main(["bounds", "--D", "2", "--d", "1", "--v", "1.2", "--unchecked"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["regime31"] is False
    assert doc["kappa"] is None  # denominator not positive: value undefined
    assert doc["r_V"] is not None


def test_bounds_domain_error(capsys):
    assert cli.main(["bounds", "--D", "2", "--d", "1.5", "--v", "0.1"]) == cli.EXIT_CONFIG
    assert json.loads(capsys.readouterr().err)["error"] == "DomainViolation"


def test_verify_roundtrip(tmp_path, capsys):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    args = ["verify", "--trials", "25", "--seed", "42", "--n0", "1:4", "--n1", "2:4",
            "--gap-left", "-1", "--gap-right", "1", "--d", "0.2:0.8",
            "--regime", "mixed", "--v-frac", "0.8"]
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--parallel", "2", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["aggregates"]["violations"]["total"] == 0
    assert len(doc["records"]) == 25


def test_verify_fixed_scalars(tmp_path):
    out = tmp_path / "r.json"
    code = cli.main(["verify", "--trials", "5", "--seed", "1", "--n0", "1", "--n1", "2",
                     "--d", "0.5", "--regime", "A", "--v-frac", "0.5", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert all(rec["n0"] == 1 and rec["n1"] == 2 for rec in doc["records"])


def test_verify_bad_config(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = cli.main(["verify", "--trials", "5", "--seed", "1", "--v-frac", "1.5",
                     "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


def test_sweep_csv_output(tmp_path):
    out = tmp_path / "sweep.csv"
    code = cli.main(["sweep", "--D-range", "2:4:3", "--d", "1", "--v-range", "0:0.5:2",
                     "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("D,d,v,regime12")
    assert len(lines) == 1 + 3 * 2


def test_sweep_bad_range(capsys):
    assert cli.main(["sweep", "--D-range", "2:4", "--d", "1", "--v-range", "0:1:2",
                     "--out", "x.csv"]) == cli.EXIT_CONFIG


def test_sharpness_cli(tmp_path):
    out = tmp_path / "sharp.json"
    code = cli.main(["sharpness", "--D", "2", "--d", "1", "--v", "0.5",
                     "--n0", "1", "--n1", "2", "--restarts", "2", "--iters", "10",
                     "--seed", "9", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["ok"] is True
    assert 0.0 < doc["best_ratio"] <= 1.0 + 1e-9
    # the E1 geometry pins the inner eigenvalue: ratio at least the E1 value
    assert doc["best_ratio"] >= 0.8557 - 1e-4


def test_sharpness_infeasible(capsys):
    code = cli.main(["sharpness", "--D", "2", "--d", "1", "--v", "1.5",
                     "--n0", "1", "--n1", "2"])
    assert code == cli.EXIT_CONFIG
    assert json.loads(capsys.readouterr().err)["error"] == "InfeasibleParams"


E1_DOC = {"sigma0": [0.0], "sigma1": [-1.0, 1.0], "gap": [-1.0, 1.0],
          "B": {"n": 1, "real": [[0.5, 0.0]]}}
MATRIX_DOC = {"n": 3, "real": [[0.2, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]]}


@pytest.mark.parametrize(
    "doc,code,error",
    [
        ({**MATRIX_DOC, "real": [[0.2, 0.5, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]]},
         cli.EXIT_CONFIG, "NonHermitianInput"),
        ({"n": 2, "real": [[0.2, 0.0, 0.0], [0.0, -1.0, 0.0]]}, cli.EXIT_CONFIG,
         "DimensionMismatch"),
        ({**MATRIX_DOC, "real": [[math.nan, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]]},
         cli.EXIT_CONFIG, "ParseError"),
        ({**E1_DOC, "B": {"n": 1, "real": [[0.5, 0.0, 0.0]]}}, cli.EXIT_CONFIG,
         "DimensionMismatch"),
        ({**E1_DOC, "B": {"n": 1, "real": [[math.nan, 0.0]]}}, cli.EXIT_CONFIG, "ParseError"),
        ({**E1_DOC, "sigma0": [math.nan]}, cli.EXIT_CONFIG, "ParseError"),
        ({**E1_DOC, "sigma1": [-1.0, math.inf]}, cli.EXIT_CONFIG, "ParseError"),
        ({**E1_DOC, "gap": [-math.inf, 1.0]}, cli.EXIT_CONFIG, "ParseError"),
    ],
    ids=["non-hermitian", "non-square", "nan-matrix", "b-shape", "nan-b", "nan-sigma0",
         "inf-sigma1", "inf-gap"],
)
def test_analyze_bad_input_exit_codes(tmp_path, capsys, doc, code, error):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))  # json.dumps writes NaN and Infinity literals
    args = ["analyze", "--in", str(path)]
    if "real" in doc:
        args += ["--gap-left", "-1", "--gap-right", "1"]
    assert cli.main(args) == code
    assert json.loads(capsys.readouterr().err)["error"] == error


def test_analyze_convergence_failure_exit_code(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    path = tmp_path / "mat.json"
    path.write_text(json.dumps(MATRIX_DOC))
    monkeypatch.setattr(np.linalg, "eigh", broken)
    args = ["analyze", "--in", str(path), "--gap-left", "-1", "--gap-right", "1"]
    assert cli.main(args) == cli.EXIT_STRUCTURAL
    assert json.loads(capsys.readouterr().err)["error"] == "ConvergenceFailure"
