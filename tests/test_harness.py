import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import spl
from spl import cli, matio
from spl.errors import ConfigError, InfeasibleParams, RankMismatch

SQRT2 = math.sqrt(2.0)


def tiny_config(**kw):
    base = dict(
        trials=40, seed=1234, n0=(1, 5), n1=(2, 5), gap=(-1.0, 1.0),
        d=(0.1, 0.9), regime="mixed", v_fraction=0.9,
    )
    base.update(kw)
    return spl.CampaignConfig(**base)


# --- config validation ----------------------------------------------------------


@pytest.mark.parametrize(
    "kw",
    [
        {"trials": 0},
        {"v_fraction": -0.1},
        {"v_fraction": 1.0},
        {"regime": "Z"},
        {"gap": (1.0, -1.0)},
        {"n0": (0, 3)},
        {"n1": (1, 3)},
        {"d": (0.0, 0.5)},
        {"d": (0.5, 1.5)},
        {"outer_radius": -1.0},
        {"parallel": -1},
        {"regime": "C", "d": (0.2, 0.4)},
        # outside bounds.SCALE_RANGE
        {"gap": (-1e200, 1e200), "d": 1e199},
        {"d": (1e-101, 0.5)},
        {"outer_radius": 1.1e100},
        {"seed": -1},
    ],
)
def test_validate_config_rejects(kw):
    with pytest.raises(ConfigError):
        spl.harness.validate_config(tiny_config(**kw))


def test_regime_c_feasible_config():
    spl.harness.validate_config(tiny_config(regime="C", d=(0.7, 0.9)))


# --- per-trial pipeline ------------------------------------------------------------


def test_trial_record_e1_numbers(e1):
    rec = spl.trial_record_for_instance(e1, trial=0)
    npt.assert_allclose(rec["measured"], math.sin(math.pi / 8.0), atol=1e-8)
    npt.assert_allclose(rec["mu"], SQRT2 - 1.0, atol=1e-8)
    npt.assert_allclose(rec["bound13"], 0.5 / math.sqrt(1.25), atol=1e-8)
    npt.assert_allclose(rec["bound32"], 0.5 / math.sqrt(1.25), atol=1e-8)
    npt.assert_allclose(rec["kappa"], 4.0 / 3.0, atol=1e-8)
    npt.assert_allclose(rec["r_V"], (SQRT2 - 1.0) / 2.0, atol=1e-8)
    npt.assert_allclose(rec["encl_hi"], (SQRT2 - 1.0) / 2.0, atol=1e-8)
    assert rec["riccati_residual"] < 1e-12
    assert rec["lemma26_max"] < 1e-12 and rec["lemma27_max"] < 1e-12
    assert rec["enclosure_ok"] is True
    assert rec["violations"] == [] and rec["error"] is None
    assert rec["regime12"] and rec["regime29"] and rec["regime31"]


def nan_at(array, col):
    """A copy of a stacked (k, n) array with column ``col`` set to NaN."""
    out = array.copy()
    out[:, col] = np.nan
    return out


#: A stage of riccati wrapped to put a NaN into one residual, and the
#: violation it must raise.
NAN_STAGES = {
    "graph": ("verify_graph_props", lambda g: dataclasses.replace(g, spec1_residual=g.spec1_residual * np.nan)),
    "riccati": ("_residual", lambda r: r * np.nan),
    # a NaN behind a finite first eigenpair must survive the max over eigenpairs
    "lemma": ("lemma22_check", lambda i: dataclasses.replace(i, res27=nan_at(i.res27, 1))),
}


def poison_stage(monkeypatch, tag):
    """Wrap the riccati stage of NAN_STAGES[tag] to return its poisoned result."""
    name, poison = NAN_STAGES[tag]
    original = getattr(spl.riccati, name)
    monkeypatch.setattr(spl.riccati, name, lambda *a: poison(original(*a)))


@pytest.mark.parametrize("tag", sorted(NAN_STAGES))
def test_nan_residual_is_a_violation(monkeypatch, tag):
    poison_stage(monkeypatch, tag)
    inst = spl.assemble_instance([-0.2, 0.3], [-1.0, 1.0, 2.0], (-1.0, 1.0), 0.1 * np.eye(2, 3))
    rec = spl.trial_record_for_instance(inst)
    assert rec["error"] is None
    assert rec["violations"] == [tag]


#: The aggregate maximum of the record key that each NAN_STAGES entry poisons.
NAN_MAXIMA = {
    "graph": "max_spec1_residual", "riccati": "max_riccati_residual", "lemma": "max_lemma27",
}


def no_bare_constant(token):
    raise AssertionError(f"bare {token} in the report")


@pytest.mark.parametrize("tag", sorted(NAN_STAGES))
def test_nan_campaign_writes_its_report(monkeypatch, tmp_path, tag):
    # a NaN made format_float raise: the campaign exited 4 with no report
    poison_stage(monkeypatch, tag)
    out = tmp_path / "report.json"
    argv = ["verify", "--trials", "6", "--seed", "3", "--n0", "2:3", "--out", str(out)]
    assert cli.main(argv) == 2
    report = json.loads(out.read_text(encoding="utf-8"), parse_constant=no_bare_constant)
    agg = report["aggregates"]
    assert agg["violations"][tag] == agg["trials"] == 6
    assert agg[NAN_MAXIMA[tag]] == "nan"
    assert all("nan" in rec.values() for rec in report["records"])


#: Where each NAN_STAGES poison shows in an analyze report: the path to its
#: value in the report's own sections, and its key in the nested record.
NAN_ANALYZE = {
    "graph": (("graph", "spec1_residual"), "spec1_residual"),
    "riccati": (("angular", "riccati_residual"), "riccati_residual"),
    "lemma": (("identities", 1, "res27"), "lemma27_max"),
}


@pytest.mark.parametrize("tag", sorted(NAN_STAGES))
def test_nan_analyze_writes_its_report(monkeypatch, tmp_path, tag):
    # the sections held the raw NaN, which made format_float raise: analyze
    # exited 4 with no report
    poison_stage(monkeypatch, tag)
    inst = spl.assemble_instance([-0.2, 0.3], [-1.0, 1.0, 2.0], (-1.0, 1.0), 0.1 * np.eye(2, 3))
    path, out = tmp_path / "inst.json", tmp_path / "report.json"
    path.write_text(matio.dumps(matio.instance_to_dict(inst)), encoding="utf-8")
    assert cli.main(["analyze", "--in", str(path), "--out", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"), parse_constant=no_bare_constant)
    keys, record_key = NAN_ANALYZE[tag]
    value = report
    for key in keys:
        value = value[key]
    assert value == "nan"
    assert report["record"][record_key] == "nan"
    assert report["record"]["violations"] == [tag]


def test_trial_record_structural_failure():
    inst = spl.assemble_instance([0.0], [-1.0, 1.0], (-1.0, 1.0), [[5.0, 0.0]])
    rec = spl.trial_record_for_instance(inst)
    assert rec["error"] == "GapClosed"
    assert rec["gap_closed"] is True
    # v = 5 is far outside the split regime, so closure is not a violation
    assert rec["violations"] == []


def test_trial_instance_reproducible():
    cfg = tiny_config()
    inst1, draw1 = spl.trial_instance(cfg, 17)
    inst2, draw2 = spl.trial_instance(cfg, 17)
    assert np.array_equal(inst1.L, inst2.L)
    assert draw1 == draw2
    inst3, _ = spl.trial_instance(cfg, 18)
    assert inst3.L.shape != inst1.L.shape or not np.array_equal(inst3.L, inst1.L)


# --- campaigns -----------------------------------------------------------------------


def test_campaign_clean_and_deterministic():
    cfg = tiny_config()
    rep1 = spl.run_campaign(cfg)
    rep2 = spl.run_campaign(cfg)
    assert rep1.aggregates["violations"]["total"] == 0
    assert rep1.aggregates["failures"] == 0
    assert rep1.exit_code == 0
    assert rep1.to_json() == rep2.to_json()
    assert len(rep1.records) == cfg.trials
    assert rep1.aggregates["max_ratio32"] <= 1.0


def test_campaign_parallel_matches_serial():
    serial = spl.run_campaign(tiny_config(trials=60))
    parallel = spl.run_campaign(tiny_config(trials=60, parallel=2))
    assert serial.to_json() == parallel.to_json()


def test_pool_workers_capped_at_usable_cpus():
    assert spl.harness._pool_workers(500, 10_000, 2) == 2
    assert spl.harness._pool_workers(3, 10_000, 2) == 2  # criterion 9: still a pool
    assert spl.harness._pool_workers(10**9, 10**9, 64) == 64
    assert spl.harness._pool_workers(4, 1, 64) == 1
    assert spl.harness._pool_workers(0, 100, 64) == 0
    assert spl.harness._usable_cpus() >= 1


def test_forked_children_run_one_blas_thread(two_blas_threads, monkeypatch):
    trial_batch, fork = spl.harness._trial_batch, os.fork
    forks = []

    def probed(cfg, indices):
        # raised in the child, this reaches the caller with its type
        if spl.linalg.blas_threads() != 1:
            raise AssertionError(f"share at {indices[0]}: {spl.linalg.blas_threads()} BLAS threads")
        return trial_batch(cfg, indices)

    def counted():
        pid = fork()
        forks.append(pid)
        return pid

    cfg = tiny_config(trials=8)
    serial = spl.run_campaign(cfg).to_json()
    monkeypatch.setattr(spl.harness, "_trial_batch", probed)
    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(spl.harness, "_usable_cpus", lambda: 2)
    assert spl.run_campaign(dataclasses.replace(cfg, parallel=2)).to_json() == serial
    assert len(forks) == 1 and forks[0] > 0
    assert spl.linalg.blas_threads() == 2


def test_fewer_shares_than_processes(monkeypatch):
    seen = []
    forked_batches = spl.harness._forked_batches

    def recording(cfg, shares):
        seen.append(shares)
        return forked_batches(cfg, shares)

    monkeypatch.setattr(spl.harness, "_forked_batches", recording)
    monkeypatch.setattr(spl.harness, "_usable_cpus", lambda: 4)
    cfg = tiny_config(trials=5)
    serial = spl.run_campaign(cfg).to_json()
    assert spl.run_campaign(dataclasses.replace(cfg, parallel=4)).to_json() == serial
    assert seen == [[list(range(5))], [[0, 1], [2, 3], [4]]]


def test_no_fork_means_a_serial_campaign(monkeypatch):
    cfg = tiny_config(trials=10)
    serial = spl.run_campaign(cfg).to_json()
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(spl.harness, "_usable_cpus", lambda: 2)
    assert spl.harness._pool_workers(2, 100, 2) == 1
    assert spl.run_campaign(dataclasses.replace(cfg, parallel=2)).to_json() == serial


#: Run in a fresh interpreter, each case's body after it: a campaign of 8
#: tiny trials over two processes, with ``harness._trial_batch`` replaced by
#: the case.  ``reaped()`` checks that no child process is left behind.
FAILURE_SCRIPT = """
import os, re, sys, time
import spl
from spl import cli, harness
from spl.errors import ConfigError

def reaped():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    raise AssertionError("a campaign child is left behind")

harness._usable_cpus = lambda: 2
trial_batch = harness._trial_batch
cfg = spl.CampaignConfig(trials=8, seed=3, n0=(1, 3), n1=(2, 3), parallel=2)
"""

FAILURE_CASES = {
    "child-error": ("""
def batch(cfg, indices):
    if indices[0] != 0:
        raise ConfigError(f"share at {indices[0]} refused")
    return trial_batch(cfg, indices)

harness._trial_batch = batch
try:
    spl.run_campaign(cfg)
except ConfigError as exc:
    print(type(exc).__name__, exc)
reaped()
print(cli.main(["verify", "--trials", "8", "--seed", "3", "--parallel", "2",
                "--out", sys.argv[1] + "/r.json"]))
reaped()
""", ["ConfigError share at 4 refused", "4"]),
    # the caller's error kills the child instead of waiting for its share
    "caller-error": ("""
def batch(cfg, indices):
    if indices[0] == 0:
        raise ValueError("the caller's share failed")
    time.sleep(120)
    return trial_batch(cfg, indices)

harness._trial_batch = batch
try:
    spl.run_campaign(cfg)
except ValueError as exc:
    print(exc)
reaped()
""", ["the caller's share failed"]),
    "child-exit": ("""
def batch(cfg, indices):
    if indices[0] != 0:
        os._exit(9)
    return trial_batch(cfg, indices)

harness._trial_batch = batch
try:
    spl.run_campaign(cfg)
except RuntimeError as exc:
    print(re.sub(r"child \\d+ ", "child <pid> ", str(exc)))
reaped()
""", ["campaign child <pid> exited with status 9 without sending its records"]),
    # stdout is a pipe, so the line is still in the caller's buffer at the fork
    "unflushed-stdout": ("""
print("before the campaign")
spl.run_campaign(cfg)
reaped()
""", ["before the campaign"]),
}


@pytest.mark.parametrize("case", sorted(FAILURE_CASES))
def test_campaign_children_on_failure(tmp_path, case):
    body, expected = FAILURE_CASES[case]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}  # buffer stdout
    env["PYTHONPATH"] = str(Path(spl.__file__).parents[1])
    run = subprocess.run([sys.executable, "-c", FAILURE_SCRIPT + body, str(tmp_path)],
                         env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == expected


def test_campaign_bytes_independent_of_caller_blas_threads(two_blas_threads, monkeypatch):
    seen = []
    trial_batch = spl.harness._trial_batch

    def probed(cfg, indices):
        seen.append(spl.linalg.blas_threads())
        return trial_batch(cfg, indices)

    monkeypatch.setattr(spl.harness, "_trial_batch", probed)
    cfg = tiny_config(trials=30, n0=(1, 20), n1=(2, 20), d=(0.05, 0.95))
    with_two = spl.run_campaign(cfg).to_json()
    assert spl.linalg.blas_threads() == 2
    two_blas_threads(1)
    assert spl.run_campaign(cfg).to_json() == with_two
    assert spl.linalg.blas_threads() == 1
    assert seen == [1, 1]  # the serial path runs pinned too


def test_campaign_without_blas_thread_control(monkeypatch):
    cfg = tiny_config(trials=20)
    expected = spl.run_campaign(cfg).to_json()
    monkeypatch.setattr(spl.linalg, "_blas_thread_control", lambda: None)
    assert spl.run_campaign(cfg).to_json() == expected
    assert spl.run_campaign(dataclasses.replace(cfg, parallel=2)).to_json() == expected


@pytest.mark.parametrize("regime", ["A", "B", "C"])
def test_campaign_regimes_clean(regime):
    d = (0.7, 0.9) if regime == "C" else (0.1, 0.9)
    rep = spl.run_campaign(tiny_config(trials=30, regime=regime, d=d, seed=5))
    assert rep.aggregates["violations"]["total"] == 0
    if regime == "A":
        assert all(r["v"] < r["d"] for r in rep.records)
    if regime == "C":
        # targets the window beyond the detailed bound's regime
        assert any(not r["regime31"] for r in rep.records)
        assert all(r["regime12"] and r["regime29"] for r in rep.records)


def test_campaign_trivial_limit():
    # zero fraction forces unperturbed instances: measured and ratios vanish
    rep = spl.run_campaign(tiny_config(trials=10, v_fraction=0.0))
    assert rep.aggregates["violations"]["total"] == 0
    for rec in rep.records:
        assert rec["measured"] == 0.0
        assert rec["ratio13"] == 0.0 and rec["ratio32"] == 0.0


def test_campaign_json_shape():
    rep = spl.run_campaign(tiny_config(trials=5))
    doc = json.loads(rep.to_json())
    assert set(doc) == {"config", "aggregates", "records"}
    assert "parallel" not in doc["config"]
    assert "runtime" not in json.dumps(doc)
    assert len(doc["records"]) == 5
    assert doc["aggregates"]["violations"]["total"] == 0
    # floats round-trip exactly through the 17-digit format
    rec = doc["records"][0]
    orig = rep.records[0]
    assert rec["measured"] == orig["measured"]


# --- analyze -----------------------------------------------------------------------------


def test_analyze_e1(e1):
    report = spl.analyze(e1)
    npt.assert_allclose(report["angular"]["mu"], SQRT2 - 1.0, atol=1e-8)
    npt.assert_allclose(report["graph"]["measured"], math.sin(math.pi / 8.0), atol=1e-8)
    npt.assert_allclose(report["record"]["bound13"], 0.4472135954999579, atol=1e-8)
    npt.assert_allclose(report["record"]["bound32"], 0.4472135954999579, atol=1e-8)
    npt.assert_allclose(report["perturbed"]["omega0"], [(SQRT2 - 1.0) / 2.0], atol=1e-12)
    npt.assert_allclose(
        report["angular"]["lambda0_spectrum"], [(SQRT2 - 1.0) / 2.0], atol=1e-12
    )
    assert report["instance"]["trivial"] is False
    assert len(report["identities"]) == 1


def test_analyze_trivial_instance():
    inst = spl.assemble_instance([0.3], [-1.0, 1.0], (-1.0, 1.0), [[0.0, 0.0]])
    report = spl.analyze(inst)
    assert report["graph"]["measured"] == 0.0
    assert report["instance"]["trivial"] is True


def test_analyze_propagates_structural_errors():
    inst = spl.assemble_instance([0.0], [-1.0, 1.0], (-1.0, 1.0), [[5.0, 0.0]])
    with pytest.raises(RankMismatch):
        spl.analyze(inst)


def test_records_rederivable_via_analyze(tmp_path):
    cfg = tiny_config(trials=25, seed=777)
    rep = spl.run_campaign(cfg)
    for index in (0, 7, 23):
        inst, _ = spl.trial_instance(cfg, index)
        path = tmp_path / f"trial{index}.json"
        path.write_text(matio.dumps(matio.instance_to_dict(inst)))
        reloaded = spl.harness.instance_from_file(str(path))
        report = spl.analyze(reloaded)
        # both are views of one pipeline result: equal except the trial index
        assert report["record"] == {**rep.records[index], "trial": None}
        assert list(report["record"]) == list(rep.records[index])


# --- instance loading ----------------------------------------------------------------------


def test_instance_from_file_instance_json(tmp_path, e1):
    path = tmp_path / "inst.json"
    path.write_text(matio.dumps(matio.instance_to_dict(e1)))
    inst = spl.harness.instance_from_file(str(path))
    assert np.array_equal(inst.L, e1.L)


def test_instance_from_file_matrix_json(tmp_path):
    path = tmp_path / "mat.json"
    path.write_text(matio.dumps(matio.matrix_to_dict(np.diag([0.2, -1.0, 1.0]))))
    inst = spl.harness.instance_from_file(str(path), gap=(-1.0, 1.0))
    assert inst.trivial
    npt.assert_allclose(inst.split.sigma0, [0.2])
    with pytest.raises(ConfigError):
        spl.harness.instance_from_file(str(path))  # gap is required


# --- sweep ------------------------------------------------------------------------------------


def test_sweep_single_point():
    rows = spl.sweep_rows([2.0], 1.0, [0.5])
    assert len(rows) == 1
    row = rows[0]
    npt.assert_allclose(row["kappa"], 4.0 / 3.0, atol=1e-12)
    npt.assert_allclose(row["bound32"], 0.4472135954999579, atol=1e-12)
    npt.assert_allclose(row["bound13"], 0.4472135954999579, atol=1e-12)
    assert row["branch"] == "full"
    npt.assert_allclose(row["encl_hi"], (SQRT2 - 1.0) / 2.0, atol=1e-12)


def test_sweep_zero_perturbation_column():
    for row in spl.sweep_rows(np.linspace(2.0, 6.0, 5), 1.0, [0.0]):
        assert row["bound13"] == 0.0 and row["bound32"] == 0.0
        assert row["kappa"] == 0.0 and row["r_V"] == 0.0


def test_sweep_bound_nonincreasing_in_gap_length():
    rows = spl.sweep_rows(np.linspace(2.0, 10.0, 30), 1.0, [0.5])
    vals = [r["bound32"] for r in rows]
    assert np.all(np.diff(vals) <= 1e-15)


def test_sweep_out_of_domain_rows():
    rows = spl.sweep_rows([1.0], 1.0, [0.5])  # d > D/2
    row = rows[0]
    assert row["regime12"] is False and row["regime31"] is False
    assert row["kappa"] is None and row["bound13"] is None


def test_sweep_csv_format():
    text = spl.sweep_csv(spl.sweep_rows([2.0, 1.0], 1.0, [0.0, 0.5]))
    lines = text.strip().split("\n")
    assert lines[0] == "D,d,v,regime12,regime29,regime31,kappa,branch,bound13,bound32,r_V,encl_lo,encl_hi"
    assert len(lines) == 5
    # out-of-domain row keeps its coordinates and empties the bound cells
    bad = lines[3].split(",")
    assert bad[0] == "1" and bad[3] == "false" and bad[6] == ""
    assert spl.sweep_csv(spl.sweep_rows([2.0, 1.0], 1.0, [0.0, 0.5])) == text


# --- sharpness search ----------------------------------------------------------------------------


def test_sharpness_zero_perturbation_convention():
    result = spl.sharpness_search(spl.SharpnessConfig(n0=1, n1=2, D=2.0, d=1.0, v=0.0))
    assert result["best_ratio"] == 0.0
    assert result["ok"]


def test_sharpness_e1_configuration_ratio(e1):
    # at the worked-example geometry the measured/bound ratio is ~0.8557
    rec = spl.trial_record_for_instance(e1)
    npt.assert_allclose(
        rec["ratio32"], math.sin(math.pi / 8.0) / (0.5 / math.sqrt(1.25)), atol=1e-9
    )
    npt.assert_allclose(rec["ratio32"], 0.8557, atol=1e-4)


def test_sharpness_search_improves_and_respects_bound():
    cfg = spl.SharpnessConfig(n0=2, n1=3, D=2.5, d=0.5, v=0.5, restarts=2, iters=40, seed=3)
    result = spl.sharpness_search(cfg)
    assert result["ok"]
    assert 0.0 < result["best_ratio"] <= 1.0 + 1e-9
    assert result["measured"] <= result["bound32"] + 1e-9
    # deterministic given the seed
    again = spl.sharpness_search(cfg)
    assert matio.dumps(result) == matio.dumps(again)
    # the reported instance reproduces the reported measurement
    inst = matio.instance_from_dict(result["instance"])
    rec = spl.trial_record_for_instance(inst)
    npt.assert_allclose(rec["measured"], result["measured"], atol=1e-10)


@pytest.mark.parametrize("v, branch", [(0.8, "full"), (0.3, "linear")])
def test_sharpness_search_attains_the_detailed_bound(v, branch):
    # the detailed bound is sharp: on the 2+2 family a seeded search comes
    # within 1e-6 of it, on both branches of kappa
    assert spl.bounds.kappa(2.0, 0.5, v).branch == branch
    cfg = spl.SharpnessConfig(n0=2, n1=2, D=2.0, d=0.5, v=v, restarts=4, iters=400, seed=0)
    result = spl.sharpness_search(cfg)
    assert 1.0 - 1e-6 <= result["best_ratio"] <= 1.0 + spl.bounds.BOUND_SLACK
    assert result["ok"]


def test_campaign_attains_the_apriori_bound_at_D_equal_2d():
    # the a-priori bound is sharp: at D = 2d, 1+2 instances with
    # d <= v < sqrt(2)d, where only that bound applies, come within 1e-6 of it
    cfg = spl.CampaignConfig(
        trials=500, seed=0, n0=1, n1=2, gap=(-1.0, 1.0), d=1.0, regime="C",
        v_fraction=1.2 / SQRT2,
    )
    agg = spl.run_campaign(cfg).aggregates
    assert 1.0 - 1e-6 <= agg["max_ratio13"] <= 1.0 + spl.bounds.BOUND_SLACK
    assert agg["violations"]["total"] == 0


def test_sharpness_infeasible_params():
    with pytest.raises(InfeasibleParams):
        spl.sharpness_search(spl.SharpnessConfig(n0=0, n1=2, D=2.0, d=1.0, v=0.5))
    with pytest.raises(InfeasibleParams):
        # v at the regime edge is rejected
        spl.sharpness_search(spl.SharpnessConfig(n0=1, n1=2, D=2.0, d=1.0, v=1.0))


# --- serialisation ------------------------------------------------------------------------------


def test_dumps_float_format():
    assert matio.format_float(0.5) == "0.5"
    assert matio.format_float(1.0 / 3.0) == "0.33333333333333331"
    text = matio.dumps({"x": 1.0 / 3.0, "flag": True, "none": None, "list": [1, 2.5]})
    doc = json.loads(text)
    assert doc["x"] == 1.0 / 3.0
    assert doc["flag"] is True and doc["none"] is None
    with pytest.raises(ValueError):
        matio.format_float(float("nan"))


def test_matrix_roundtrip_complex():
    rng = np.random.default_rng(8)
    m = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    doc = json.loads(matio.dumps(matio.matrix_to_dict(m)))
    back = matio.matrix_from_dict(doc)
    assert np.array_equal(back, m)


def test_instance_roundtrip_exact(e1):
    doc = json.loads(matio.dumps(matio.instance_to_dict(e1)))
    back = matio.instance_from_dict(doc)
    assert np.array_equal(back.L, e1.L)


def test_matrix_from_dict_errors():
    with pytest.raises(spl.errors.ParseError):
        matio.matrix_from_dict({"imag": [[1.0]]})
    with pytest.raises(spl.errors.ParseError):
        matio.matrix_from_dict({"n": 3, "real": [[1.0]]})
    with pytest.raises(spl.errors.ParseError):
        matio.matrix_from_dict({"real": [[1.0], [2.0, 3.0]]})
    with pytest.raises(spl.errors.ParseError):
        matio.matrix_from_dict({"real": [[1.0]], "imag": [[1.0, 2.0]]})
    with pytest.raises(spl.errors.ParseError):
        matio.matrix_from_dict({"real": [[float("nan")]]})
