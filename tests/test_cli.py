import dataclasses
import errno
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import spl
from spl import cli, matio
from spl.errors import SplError


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


def test_analyze_matrix_with_nan_residuals_is_structural(tmp_path, capsys):
    # the 2x2 block has the eigenvalues 0 and 2e308, which overflows to inf
    m = np.array([[1e308, 1e308, 0.0], [1e308, 1e308, 0.0], [0.0, 0.0, 0.2]])
    path = tmp_path / "mat.json"
    path.write_text(matio.dumps(matio.matrix_to_dict(m)))
    with np.errstate(all="ignore"):
        code = cli.main(["analyze", "--in", str(path), "--gap-left", "-1", "--gap-right", "1"])
    assert code == cli.EXIT_STRUCTURAL
    assert json.loads(capsys.readouterr().err)["error"] == "ConvergenceFailure"


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


def test_bounds_unchecked_saturates(capsys):
    # v/d = 1e160: sin(arctan(v/d)) squared its argument to inf and gave 0
    argv = ["bounds", "--D", "1", "--d", "1e-60", "--v", "1e100", "--unchecked"]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["bound13"] == 1.0


def test_bounds_domain_error(capsys):
    assert cli.main(["bounds", "--D", "2", "--d", "1.5", "--v", "0.1"]) == cli.EXIT_CONFIG
    assert json.loads(capsys.readouterr().err)["error"] == "DomainViolation"


@pytest.mark.parametrize("v", ["nan", "inf"])
def test_bounds_non_finite_v_is_a_domain_error(capsys, v):
    assert cli.main(["bounds", "--D", "2", "--d", "1", "--v", v]) == cli.EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DomainViolation" and "v=" in err["detail"]


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


@pytest.mark.parametrize(
    "option",
    ["--d nan", "--d inf", "--v-range 0:nan:3", "--D-range 1:inf:2"],
)
def test_sweep_refuses_non_finite_input_before_any_row(tmp_path, capsys, monkeypatch, option):
    # these computed the whole grid and then failed in the serialiser
    def no_row(*args):
        raise AssertionError("a row was computed")

    monkeypatch.setattr(spl.harness, "bound_row", no_row)
    argv = {"--D-range": "2:4:3", "--d": "1", "--v-range": "0:0.5:2"}
    argv.update([option.split()])
    out = tmp_path / "sweep.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's linspace warned on an infinite end
        code = cli.main(["sweep", *(x for pair in argv.items() for x in pair), "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
    assert not out.exists()


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


@pytest.mark.parametrize("v", ["1e-16", "1e-300"])
def test_sharpness_rounding_noise_at_tiny_v_is_no_violation(tmp_path, v):
    # at a tiny v the measured rotation is rounding noise, many times bound32
    # but within BOUND_SLACK of it: no violation, as in a campaign record
    out = tmp_path / "sharp.json"
    code = cli.main(["sharpness", "--D", "2", "--d", "0.5", "--v", v, "--n0", "2", "--n1", "3",
                     "--restarts", "2", "--iters", "20", "--out", str(out)])
    doc = json.loads(out.read_text())
    assert doc["best_ratio"] > 1.0
    assert code == 0 and doc["ok"] is True


def test_sharpness_scales_its_outer_spectrum_with_D(tmp_path):
    # the outer offsets lie within OUTER_RADIUS half-widths of the gap: an
    # absolute radius of 2.0 put the edge tolerance above d at D = 1e-90
    out = tmp_path / "sharp.json"
    code = cli.main(["sharpness", "--D", "1e-90", "--d", "5e-91", "--v", "1e-91",
                     "--n0", "2", "--n1", "3", "--out", str(out)])
    doc = json.loads(out.read_text())
    assert code == 0 and doc["ok"] is True
    assert max(map(abs, doc["instance"]["sigma1"])) <= 1.5e-90


def test_sharpness_infeasible(capsys):
    code = cli.main(["sharpness", "--D", "2", "--d", "1", "--v", "1.5",
                     "--n0", "1", "--n1", "2"])
    assert code == cli.EXIT_CONFIG
    assert json.loads(capsys.readouterr().err)["error"] == "InfeasibleParams"


@pytest.mark.parametrize(
    "argv, error",
    [
        # an inner value 1e-12 from a gap end sits inside the edge tolerance
        (["sharpness", "--D", "2", "--d", "1e-12", "--v", "1e-11", "--n0", "1", "--n1", "2",
          "--restarts", "1", "--iters", "5"], "DispositionViolation"),
        (["sharpness", "--D", "2", "--d", "1e-12", "--v", "0", "--n0", "1", "--n1", "2"],
         "DispositionViolation"),
        (["verify", "--trials", "5", "--seed", "1", "--d", "1e-12", "--n0", "1:2",
          "--n1", "2:3"], "DispositionViolation"),
        (["sharpness", "--D", "inf", "--d", "0.5", "--v", "0.3", "--n0", "1", "--n1", "2"],
         "DomainViolation"),
        (["sharpness", "--D", "inf", "--d", "0.5", "--v", "0", "--n0", "1", "--n1", "2"],
         "DomainViolation"),
        # scale-invariant bounds, but d*D, d*(D-d) and v*v under- or overflow
        (["bounds", "--D", "1e-200", "--d", "4e-201", "--v", "1e-201"], "DomainViolation"),
        (["verify", "--trials", "3", "--seed", "1", "--gap-left", "-1e200",
          "--gap-right", "1e200", "--d", "1e199"], "ConfigError"),
        (["sharpness", "--D", "1e-300", "--d", "4e-301", "--v", "1e-301", "--n0", "1",
          "--n1", "2"], "DomainViolation"),
    ],
    ids=["sharpness-tiny-d", "sharpness-tiny-d-v0", "verify-tiny-d",
         "sharpness-infinite-D", "sharpness-infinite-D-v0",
         "bounds-underflow", "verify-overflow", "sharpness-underflow"],
)
def test_degenerate_geometry_exits_with_config_error(
    tmp_path, capsys, argv, error
):
    if argv[0] == "verify":
        argv = argv + ["--out", str(tmp_path / "r.json")]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert json.loads(capsys.readouterr().err)["error"] == error


@pytest.mark.parametrize(
    "option",
    ["--gap-left=-inf", "--gap-right=inf", "--outer-radius=inf", "--outer-radius=nan",
     "--gap-left -inf", "--gap-left -nan"],
)
def test_verify_refuses_non_finite_geometry(tmp_path, capsys, option):
    # these reached numpy's uniform sampler and died with an OverflowError
    code = cli.main(["verify", "--trials", "3", "--seed", "1", "--n0", "1:2", "--n1", "2:4",
                     *option.split(), "--out", str(tmp_path / "r.json")])
    assert code == cli.EXIT_CONFIG
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


@pytest.mark.parametrize(
    "argv, code",
    [
        (["verify", "--trials", "3", "--seed", "1"], cli.EXIT_CONFIG),
        (["nope"], cli.EXIT_CONFIG),
        ([], cli.EXIT_CONFIG),
        (["bounds", "--D", "2", "--d", "x", "--v", "1"], cli.EXIT_CONFIG),
        (["--help"], cli.EXIT_OK),
        (["verify", "--help"], cli.EXIT_OK),
    ],
    ids=["missing-out", "unknown-command", "no-command", "bad-float", "help", "verify-help"],
)
def test_usage_exit_codes(capsys, argv, code):
    # argparse's own usage-error code 2 is EXIT_BOUND_VIOLATION
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == code


def error_classes(cls=SplError):
    """``cls`` and all of its subclasses, recursively."""
    return [cls, *(sub for child in cls.__subclasses__() for sub in error_classes(child))]


#: The errors that exit 3; every other SplError, and a ValueError, exits 4.
STRUCTURAL = {"StructuralFailure", "ConvergenceFailure", "EigenFailure", "NotAGraph", "RankMismatch"}


@pytest.mark.parametrize("error", [*error_classes(), ValueError], ids=lambda cls: cls.__name__)
def test_every_error_class_has_its_exit_code(monkeypatch, capsys, error):
    # a new error class can never escape main as a traceback
    def fail(*args):
        raise error("injected")

    monkeypatch.setattr(spl.harness, "bound_row", fail)
    code = cli.main(["bounds", "--D", "2", "--d", "0.5", "--v", "0.1"])
    assert code == (cli.EXIT_STRUCTURAL if error.__name__ in STRUCTURAL else cli.EXIT_CONFIG)
    assert json.loads(capsys.readouterr().err) == {"error": error.__name__, "detail": "injected"}


WORK_COMMANDS = pytest.mark.parametrize(
    "argv",
    [["verify", "--trials", "3", "--seed", "1"],
     ["sharpness", "--D", "2", "--d", "1", "--v", "0.5", "--n0", "1", "--n1", "2"]],
    ids=["verify", "sharpness"],
)


def refused_before_work(capsys, monkeypatch, argv) -> dict:
    """The structured error of a command that must exit 4 before its work."""
    def no_work(cfg):
        raise AssertionError("work started")

    monkeypatch.setattr(spl.harness, "run_campaign", no_work)
    monkeypatch.setattr(spl.harness, "sharpness_search", no_work)
    assert cli.main(argv) == cli.EXIT_CONFIG
    return json.loads(capsys.readouterr().err)


@WORK_COMMANDS
def test_out_in_a_missing_directory_is_refused_before_work(tmp_path, capsys, monkeypatch, argv):
    out = str(tmp_path / "missing" / "r.json")
    err = refused_before_work(capsys, monkeypatch, argv + ["--out", out])
    assert err["error"] == "ConfigError" and "missing" in err["detail"]


@WORK_COMMANDS
def test_out_that_is_a_directory_is_refused_before_work(tmp_path, capsys, monkeypatch, argv):
    err = refused_before_work(capsys, monkeypatch, argv + ["--out", str(tmp_path)])
    assert err["error"] == "ConfigError" and "is a directory" in err["detail"]


def test_unwritable_out_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # the --out passes the check before the work, so only the write after it fails
    def full_disk(path, *args, **kwargs):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)

    monkeypatch.setattr(cli, "open", full_disk, raising=False)
    out = str(tmp_path / "sweep.csv")
    code = cli.main(["sweep", "--D-range", "2:4:3", "--d", "1", "--v-range", "0:0.5:2",
                     "--out", out])
    assert code == cli.EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and out in err["detail"]


def test_failed_stdout_write_is_a_usage_error(capsys, monkeypatch):
    class FullStdout(io.StringIO):
        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(sys, "stdout", FullStdout())
    assert cli.main(["bounds", "--D", "2", "--d", "0.5", "--v", "0.3"]) == cli.EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and "stdout" in err["detail"]


@pytest.mark.parametrize(
    "argv, error",
    [(["verify", "--trials", "4", "--seed", "-1", "--parallel", "2"], "ConfigError"),
     (["sharpness", "--D", "2", "--d", "1", "--v", "0.5", "--n0", "1", "--n1", "2",
       "--seed", "-1"], "InfeasibleParams")],
    ids=["verify-parallel", "sharpness"],
)
def test_negative_seed_is_refused_before_work(tmp_path, capsys, monkeypatch, argv, error):
    # SeedSequence refused it only at the first draw, in a forked worker
    def no_fork():
        raise AssertionError("a campaign child was forked")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(spl.harness, "_usable_cpus", lambda: 2)
    assert cli.main(argv + ["--out", str(tmp_path / "r.json")]) == cli.EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == error and "seed" in err["detail"]


#: Run in a fresh interpreter: ``import spl`` loads neither the command line
#: nor argparse, serial ``verify`` and ``sharpness`` fork no child, and no
#: route loads a process pool; a ``--parallel 2`` campaign forks one child
#: and writes the serial bytes.
STARTUP_SCRIPT = """
import os, sys
import spl
print(sorted(m for m in ("spl.cli", "argparse") if m in sys.modules))
from spl import cli, harness
POOL = ("multiprocessing", "concurrent.futures.process")
forks = []
fork = os.fork
def counted():
    forks.append(1)
    return fork()
os.fork = counted
out = sys.argv[1]
verify = ["verify", "--trials", "6", "--seed", "3", "--n0", "1:3", "--n1", "2:3"]
assert cli.main(verify + ["--out", out + "/serial.json"]) == 0
assert cli.main(["sharpness", "--D", "2", "--d", "1", "--v", "0.5", "--n0", "1", "--n1", "2",
                 "--iters", "5", "--out", out + "/sharp.json"]) == 0
print(sorted(m for m in POOL if m in sys.modules), len(forks))
harness._usable_cpus = lambda: 2
assert cli.main(verify + ["--parallel", "2", "--out", out + "/parallel.json"]) == 0
print(sorted(m for m in POOL if m in sys.modules), len(forks))
"""


def test_serial_runs_never_load_the_process_pool(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(spl.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", STARTUP_SCRIPT, str(tmp_path)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["[]", "[] 0", "[] 1"]
    assert (tmp_path / "parallel.json").read_bytes() == (tmp_path / "serial.json").read_bytes()


def test_negative_option_values_parse():
    args = cli.build_parser().parse_args(
        ["verify", "--trials", "3", "--seed", "1", "--gap-left", "-1e-3", "--out", "r.json"]
    )
    assert args.gap_left == -0.001


E1_DOC = {"sigma0": [0.0], "sigma1": [-1.0, 1.0], "gap": [-1.0, 1.0],
          "B": {"n": 1, "real": [[0.5, 0.0]]}}
MATRIX_DOC = {"n": 3, "real": [[0.2, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]]}
#: Row counts that are not JSON integers, by the rows they stand for: int()
#: would take the string, true (for one row) and the float.
NON_INTEGER_N = {
    "list": lambda rows: [rows],
    "null": lambda rows: None,
    "string": str,
    "bool": lambda rows: True,
    "float": lambda rows: rows + 0.5,
}


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
        # the bounds refuse a gap below SCALE_RANGE before the solve would
        # find the gap closed (RankMismatch, exit 3)
        ({"sigma0": [0], "sigma1": [-1e-101, 1e-101], "gap": [-1e-101, 1e-101],
          "B": {"n": 1, "real": [[1e-99, 0]]}}, cli.EXIT_CONFIG, "DomainViolation"),
    ]
    + [({**MATRIX_DOC, "n": n(3)}, cli.EXIT_CONFIG, "ParseError") for n in NON_INTEGER_N.values()]
    + [({**E1_DOC, "B": {**E1_DOC["B"], "n": n(1)}}, cli.EXIT_CONFIG, "ParseError")
       for n in NON_INTEGER_N.values()],
    ids=["non-hermitian", "non-square", "nan-matrix", "b-shape", "nan-b", "nan-sigma0",
         "inf-sigma1", "inf-gap", "tiny-gap"]
    + [f"matrix-n-{kind}" for kind in NON_INTEGER_N] + [f"b-n-{kind}" for kind in NON_INTEGER_N],
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


@pytest.mark.parametrize("failure", ["raise", "residual"])
def test_sharpness_eigen_failure_in_a_lockstep_stack(tmp_path, capsys, monkeypatch, failure):
    # the 5th eigensolve is iteration 4 of all four restarts at once; a
    # LinAlgError there, or a wrong eigenvector of its last matrix caught by
    # the residual check, is still typed
    original = np.linalg.eigh
    sizes = []

    def broken(a, *args, **kwargs):
        sizes.append(len(a))
        values, vectors = original(a, *args, **kwargs)
        if len(sizes) == 5:
            if failure == "raise":
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            vectors = vectors.copy()
            vectors[-1, :, 0] = vectors[-1, :, 1]
        return values, vectors

    monkeypatch.setattr(np.linalg, "eigh", broken)
    args = ["sharpness", "--D", "2", "--d", "0.5", "--v", "0.8", "--n0", "2", "--n1", "3",
            "--restarts", "4", "--iters", "10", "--out", str(tmp_path / "s.json")]
    assert cli.main(args) == cli.EXIT_STRUCTURAL
    assert json.loads(capsys.readouterr().err)["error"] == "EigenFailure"
    assert sizes == [4] * 5
    assert not (tmp_path / "s.json").exists()


def test_lapack_failure_is_structural(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    path = write_e1(tmp_path)
    out = tmp_path / "r.json"
    monkeypatch.setattr(np.linalg, "svd", broken)
    assert cli.main(["analyze", "--in", str(path)]) == cli.EXIT_STRUCTURAL
    assert json.loads(capsys.readouterr().err)["error"] == "ConvergenceFailure"
    args = ["verify", "--trials", "3", "--seed", "1", "--n0", "1:3", "--n1", "2:3",
            "--out", str(out)]
    assert cli.main(args) == cli.EXIT_STRUCTURAL
    doc = json.loads(out.read_text())
    assert doc["aggregates"]["violations"]["structural"] == 3
    assert {rec["error"] for rec in doc["records"]} == {"ConvergenceFailure"}


def test_nan_in_x_is_structural(tmp_path, monkeypatch):
    # a NaN entry of X reaches the Frobenius norm of a residual, which
    # raises ConvergenceFailure as an SVD does; a stack of four meets it and
    # is solved again one instance at a time, each a structural record
    original = spl.riccati.angular_operator

    def poisoned(*args):
        sol = original(*args)
        x = sol.X.copy()
        x[:, 0, 0] = np.nan
        return dataclasses.replace(sol, X=x)

    monkeypatch.setattr(spl.riccati, "angular_operator", poisoned)
    inst = spl.assemble_instance([0.0], [-1.0, 1.0], (-1.0, 1.0), [[0.5, 0.0]])
    rec = spl.trial_record_for_instance(inst)
    assert rec["error"] == "ConvergenceFailure"
    assert rec["violations"] == ["structural:ConvergenceFailure"]
    out = tmp_path / "r.json"
    args = ["verify", "--trials", "4", "--seed", "1", "--n0", "2", "--n1", "3",
            "--out", str(out)]
    assert cli.main(args) == cli.EXIT_STRUCTURAL
    doc = json.loads(out.read_text())
    assert doc["aggregates"]["violations"]["structural"] == 4
    assert {rec["error"] for rec in doc["records"]} == {"ConvergenceFailure"}
