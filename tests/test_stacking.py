"""The stacked pipeline: numpy's stacked calls, bucket independence, grouping.

A campaign solves the trials of one block shape as one stack.  That is
exact only because numpy computes every matrix of a stacked call as it
computes that matrix on its own; the first tests pin that premise down for
every numpy operation the pipeline stacks, so a numpy or BLAS change that
breaks it fails here instead of shifting report bytes.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

import spl
from spl import harness, matio, riccati
from spl.linalg import adjoint

from conftest import rotation_of, solve_one

#: (n0, n1) block shapes: tiny and acceptance-sized, n0 > n1 included.
SHAPES = [(1, 2), (2, 4), (3, 3), (1, 20), (20, 20), (13, 7), (8, 3), (5, 2)]

#: Matrices per stack.
STACK = 5


def shape_instances(n0, n1, seed, trials=STACK, **kw):
    cfg = spl.CampaignConfig(trials=trials, seed=seed, n0=n0, n1=n1, d=(0.05, 0.95), **kw)
    return [spl.trial_instance(cfg, i)[0] for i in range(trials)]


def same_bytes(stacked, singles):
    """Each matrix of ``stacked`` has the bytes of its per-matrix result."""
    return len(stacked) == len(singles) and all(
        a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        for a, b in zip(stacked, singles)
    )


def pipeline_arrays(n0, n1, seed):
    """Stacks laid out as the pipeline lays them out.

    Returns the instances, their InstanceStack, the inner and outer bases
    of L, and three stacks of X: generic (rank min(n0, n1)), rank 0 and
    rank 1.  The pipeline forms its isometry products one rank at a time.
    """
    insts = shape_instances(n0, n1, seed)
    st = riccati.InstanceStack.of(insts)
    es = spl.eigh(st.L)
    # the first n0 eigenvectors stand in for the inner basis: only layouts matter here
    inner = np.zeros(es.values.shape, dtype=bool)
    inner[:, :n0] = True
    _, _, basis0, basis1 = riccati.perturbed_split(es, inner, np.arange(STACK), n0)
    y0, y1 = basis0[:, :n0, :], basis0[:, n0:, :]
    x = np.linalg.solve(y0.swapaxes(1, 2), y1.swapaxes(1, 2)).swapaxes(1, 2)
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((STACK, n0, 1)) + 1j * rng.standard_normal((STACK, n0, 1))
    v = rng.standard_normal((STACK, 1, n1)) + 1j * rng.standard_normal((STACK, 1, n1))
    # (n0, n1) arrays transposed: the layout of the pipeline's X
    zero = np.zeros((STACK, n0, n1), dtype=complex).swapaxes(1, 2)
    rank1 = (u @ v).swapaxes(1, 2)
    return insts, st, basis0, basis1, [(x, min(n0, n1)), (zero, 0), (rank1, 1)]


def pipeline_products(x, a0, a1, b, l, basis1, rank):
    """Every product the pipeline forms, for one instance or a stack."""
    n0 = a0.shape[-1]
    w, s, vh = np.linalg.svd(x, full_matrices=True)
    values = np.zeros(s.shape[:-1] + (n0,))
    values[..., :s.shape[-1]] = s
    u = adjoint(vh)
    iso = w[..., :rank] @ vh[..., :rank, :]
    half = u @ (np.sqrt(1.0 + values * values)[..., :, None] * adjoint(u))
    p = l[..., :, :n0] @ u
    q = l[..., :, n0:] @ (iso @ u)
    return {
        "riccati": x @ a0 - a1 @ x + x @ b @ x - adjoint(b),
        "spec0": a0 + b @ x,
        "spec1": a1 - adjoint(b) @ adjoint(x),
        "isometry": iso,
        "half": half,
        "lambda0": half @ (a0 + b @ x) @ half,
        "p": p,
        "q": q,
        "dots": np.einsum("...ij,...ij->...j", p.conj(), q),
        "graph1": basis1[..., :n0, :] + adjoint(x) @ basis1[..., n0:, :],
    }


@pytest.mark.parametrize("n0, n1", SHAPES)
def test_stacked_lapack_calls_match_per_matrix_calls(n0, n1):
    insts, st, basis0, _, xs = pipeline_arrays(n0, n1, seed=100 * n0 + n1)
    w, v = np.linalg.eigh(st.L)
    singles = [np.linalg.eigh(inst.L) for inst in insts]
    assert same_bytes(w, [s[0] for s in singles]) and same_bytes(v, [s[1] for s in singles])

    y0, y1 = basis0[:, :n0, :], basis0[:, n0:, :]
    assert same_bytes(
        np.linalg.svd(y0, compute_uv=False), [np.linalg.svd(m, compute_uv=False) for m in y0]
    )
    assert same_bytes(np.linalg.svdvals(y1), [np.linalg.svdvals(m) for m in y1])
    assert same_bytes(
        np.linalg.solve(y0.swapaxes(1, 2), y1.swapaxes(1, 2)),
        [np.linalg.solve(a.T, b.T) for a, b in zip(y0, y1)],
    )
    for x, _ in xs:
        full = np.linalg.svd(x, full_matrices=True)
        per = [np.linalg.svd(m, full_matrices=True) for m in x]
        for part in range(3):
            assert same_bytes(full[part], [p[part] for p in per])
        a0, _, b, _ = riccati._blocks(st)
        spec = a0 + b @ x
        assert same_bytes(np.linalg.eigvals(spec), [np.linalg.eigvals(m) for m in spec])
        herm = 0.5 * (spec + adjoint(spec))
        assert same_bytes(np.linalg.eigvalsh(herm), [np.linalg.eigvalsh(m) for m in herm])
        assert same_bytes(np.linalg.svdvals(herm), [np.linalg.svdvals(m) for m in herm])


@pytest.mark.parametrize("n0, n1", SHAPES)
def test_stacked_products_match_per_matrix_products(n0, n1):
    insts, st, _, basis1, xs = pipeline_arrays(n0, n1, seed=7 * n0 + n1)
    blocks = riccati._blocks(st)[:3]  # the layout the pipeline computes with
    for x, rank in xs:
        stacked = pipeline_products(x, *blocks, st.L, basis1, rank)
        singles = [pipeline_products(*args, rank) for args in zip(x, *blocks, st.L, basis1)]
        for name, value in stacked.items():
            assert same_bytes(value, [single[name] for single in singles]), (name, rank)


@pytest.mark.parametrize("n0, n1", [(3, 2), (2, 4), (4, 4)])
def test_polar_decompose_of_mixed_ranks_matches_per_matrix(n0, n1):
    # one stack holding ranks min(n0, n1), 1 and 0
    _, _, _, _, xs = pipeline_arrays(n0, n1, seed=31 * n0 + n1)
    mixed = np.concatenate([x[:2] for x, _ in xs])
    stacked = spl.polar_decompose(mixed)
    singles = [spl.polar_decompose(m) for m in mixed]
    for name in ("isometry", "values", "vectors"):
        assert same_bytes(getattr(stacked, name), [getattr(p, name) for p in singles]), name


@pytest.mark.parametrize("n0, n1", SHAPES)
def test_stacked_generation_calls_match_per_matrix_calls(n0, n1):
    # instance generation: the coupling rescale, the split's sort and separation
    rng = np.random.default_rng(53 * n0 + n1)
    btilde = rng.standard_normal((STACK, n0, n1)) + 1j * rng.standard_normal((STACK, n0, n1))
    norms = np.linalg.svdvals(btilde)
    assert same_bytes(norms, [np.linalg.svdvals(m) for m in btilde])
    v = rng.uniform(0.1, 2.0, STACK)
    v[1] = 0.0
    b = btilde * (v / norms[:, 0])[:, None, None]
    b[v == 0.0] = 0.0
    # per matrix: Python floats, and an exact zero block for v = 0
    singles = [
        m * (x / float(np.linalg.svdvals(m)[0])) if x > 0.0 else np.zeros((n0, n1), dtype=complex)
        for m, x in zip(btilde, v.tolist())
    ]
    assert same_bytes(b, singles)

    inner = rng.uniform(-0.9, 0.9, (STACK, n0))
    ends = np.tile([-1.0, 1.0], (STACK, 1))
    far = rng.uniform(1.0, 3.0, (STACK, n1 - 2)) * rng.choice([-1.0, 1.0], (STACK, n1 - 2))
    outer = np.concatenate([ends, far], axis=1)
    s0, s1 = np.sort(inner), np.sort(outer)
    assert same_bytes(s0, [np.sort(x) for x in inner])
    assert same_bytes(s1, [np.sort(x) for x in outer])
    seps = np.abs(s0[:, :, None] - s1[:, None, :]).min(axis=(1, 2))
    assert same_bytes(seps, [np.abs(a[:, None] - c[None, :]).min() for a, c in zip(s0, s1)])


# --- bucket independence ---------------------------------------------------------

#: A tiny campaign of one block shape: every trial lands in one bucket.
BUCKET = spl.CampaignConfig(trials=12, seed=2718, n0=2, n1=3, d=(0.05, 0.95))


def dumped(records):
    return [matio.dumps(rec) for rec in records]


def gap_closed_instance():
    """Shape (2, 3); the coupling pushes the spectrum across the gap ends."""
    b = [[5.0, 0.0, 0.0], [0.0, 4.0, 0.0]]
    return spl.assemble_instance([0.0, 0.2], [-1.0, 1.0, 1.5], (-1.0, 1.0), b)


def stack_records(insts, trials):
    """Records of ``insts`` solved as one stack."""
    st = riccati.InstanceStack.of(insts)
    return dumped(harness._stack_records(st, trials))


def alone(insts, trials):
    return dumped(spl.trial_record_for_instance(inst, trial=t) for inst, t in zip(insts, trials))


def bucket_with(extra):
    insts = [spl.trial_instance(BUCKET, i)[0] for i in range(BUCKET.trials)]
    trials = list(range(BUCKET.trials))
    mixed = insts[:5] + [extra] + insts[5:]
    mixed_trials = trials[:5] + [None] + trials[5:]
    return insts, trials, mixed, mixed_trials


def test_records_identical_alone_and_in_their_bucket():
    insts, trials, _, _ = bucket_with(None)
    campaign = dumped(spl.run_campaign(BUCKET).records)
    assert campaign == alone(insts, trials)
    assert stack_records(insts, trials) == campaign


def test_gap_closed_instance_leaves_its_bucket_unchanged():
    closed = gap_closed_instance()
    assert (closed.n0, closed.n1) == (BUCKET.n0, BUCKET.n1)
    insts, trials, mixed, mixed_trials = bucket_with(closed)
    # the stack is solved as one, the closed gap masked out
    res = riccati.solve_stack(mixed)
    assert type(res.failures[5]) is spl.errors.RankMismatch
    assert res.solved == [i for i in range(len(mixed)) if i != 5]
    records = stack_records(mixed, mixed_trials)
    assert records == alone(mixed, mixed_trials)
    assert '"error": "GapClosed"' in records[5]


def test_rank_zero_instance_leaves_its_bucket_unchanged():
    # B = 0 gives X = 0: its polar isometry is a product of inner dimension 0
    first = spl.trial_instance(BUCKET, 0)[0]
    trivial = spl.assemble_instance(
        first.split.sigma0, first.split.sigma1, (-1.0, 1.0), np.zeros((2, 3))
    )
    insts, trials, mixed, mixed_trials = bucket_with(trivial)
    res = riccati.solve_stack(mixed)
    assert len(res.solved) == len(mixed) and res.solution.mu[5] == 0.0
    records = stack_records(mixed, mixed_trials)
    assert records == alone(mixed, mixed_trials)


def test_stack_of_instances_with_different_gaps_is_refused():
    # a campaign's trials share its gap; a stack does not mix gaps
    insts, _, _, _ = bucket_with(None)
    inst = insts[0]
    shifted = spl.assemble_instance(
        inst.split.sigma0 + 0.6, inst.split.sigma1 + 0.6, (-0.4, 1.6), inst.B
    )
    with pytest.raises(ValueError, match="one gap"):
        riccati.solve_stack([inst, shifted])


def raise_for(monkeypatch, routine, marker):
    """Patch np.linalg.<routine> to raise LinAlgError when any matrix of its
    first argument has the bytes of ``marker``; returns the stack sizes seen."""
    original = getattr(np.linalg, routine)
    seen = []

    def patched(a, *args, **kwargs):
        mats = np.asarray(a).reshape(-1, *np.shape(a)[-2:])
        seen.append(len(mats))
        if any(m.tobytes() == marker.tobytes() for m in mats):
            raise np.linalg.LinAlgError("did not converge")
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, routine, patched)
    return seen


def test_not_a_graph_instance_leaves_its_bucket_unchanged(monkeypatch):
    insts, trials, _, _ = bucket_with(None)
    target = insts[4]
    ps, _, _, _ = solve_one(target)
    y0 = np.ascontiguousarray(ps.basis0[: target.n0, :])
    original = np.linalg.svd

    def singular_y0(a, *args, **kwargs):
        out = original(a, *args, **kwargs)
        if kwargs.get("compute_uv", True) is False:
            mats = np.asarray(a).reshape(-1, *np.shape(a)[-2:])
            out = out.reshape(len(mats), -1).copy()
            for m, s in zip(mats, out):
                if np.array_equal(m, y0):
                    s[-1] = 0.0  # Y0 numerically singular: cond infinite
            out = out.reshape(np.shape(a)[:-2] + out.shape[-1:])
        return out

    monkeypatch.setattr(np.linalg, "svd", singular_y0)
    res = riccati.solve_stack(insts)
    assert type(res.failures[4]) is spl.errors.NotAGraph
    assert res.solved == [i for i in range(len(insts)) if i != 4]
    records = stack_records(insts, trials)
    assert records == alone(insts, trials)
    assert '"error": "NotAGraph"' in records[4]
    assert sum('"error": null' in r for r in records) == len(records) - 1


@pytest.mark.parametrize(
    "routine, failure", [("eigh", "EigenFailure"), ("solve", "ConvergenceFailure")]
)
def test_failed_stacked_lapack_call_reruns_bucket_per_trial(monkeypatch, routine, failure):
    insts, trials, _, _ = bucket_with(None)
    expected = alone(insts, trials)
    target = insts[7]
    if routine == "eigh":
        marker = target.L
    else:  # the transposed inner block Y0 that the graph inversion solves with
        marker = np.ascontiguousarray(solve_one(target)[0].basis0[: target.n0, :].T)
    seen = raise_for(monkeypatch, routine, marker)
    records = stack_records(insts, trials)
    assert seen[0] == len(insts)  # the stack was tried as one call first
    # today's per-trial path: the same typed structural record for the target
    per_trial = alone(insts, trials)
    assert records == per_trial
    assert f'"error": "{failure}"' in records[7]
    assert f'"structural:{failure}"' in records[7]
    assert records[:7] + records[8:] == expected[:7] + expected[8:]


def test_stack_of_one_types_lapack_failures(e1, monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", fail)
    res = riccati.solve_stack([e1])
    assert type(res.failures[0]) is spl.errors.ConvergenceFailure
    assert res.solution is None and res.solved == []
    with pytest.raises(spl.errors.ConvergenceFailure):
        riccati.solve_stack([e1, e1])


# --- campaign stacks and parallel shares ---------------------------------------------

#: Blocks of at most 2 + 4 rows: six shapes, so buckets hold many trials.
TINY = spl.CampaignConfig(trials=240, seed=1618, n0=(1, 2), n1=(2, 4), d=(0.05, 0.95))


def digest(report):
    """SHA-256 of a campaign report (a failing comparison of the reports
    themselves would spend minutes diffing them)."""
    return hashlib.sha256(report.to_json().encode()).hexdigest()


def test_one_share_per_process_stacks_as_a_serial_run(monkeypatch):
    shares, stacks = [], []
    forked_batches, stack_records = harness._forked_batches, harness._stack_records

    def recording(cfg, parts):
        shares.extend(parts)
        return forked_batches(cfg, parts)

    def counted(st, trials):
        # appended in the process that solves the stack: the caller sees its own
        stacks.append(list(trials))
        return stack_records(st, trials)

    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    serial = spl.run_campaign(TINY)
    monkeypatch.setattr(harness, "_forked_batches", recording)
    monkeypatch.setattr(harness, "_stack_records", counted)
    assert digest(spl.run_campaign(dataclasses.replace(TINY, parallel=2))) == digest(serial)
    # one contiguous share per process, and the caller ran the first
    assert shares == [list(range(120)), list(range(120, TINY.trials))]
    assert sorted(i for stack in stacks for i in stack) == shares[0]
    # six stacks, one per shape, as a serial run of the share solves them
    shape = {i: (rec["n0"], rec["n1"]) for i, rec in enumerate(serial.records)}
    assert len(stacks) == 6 and len({shape[stack[0]] for stack in stacks}) == 6
    assert all(len({shape[i] for i in stack}) == 1 for stack in stacks)
    caller_stacks = stacks[:]
    stacks.clear()
    harness._trial_batch(TINY, shares[0])
    assert stacks == caller_stacks


#: SHA-256 of reports computed by the per-trial pipeline that solved every
#: trial on its own, before campaigns were stacked; the stacked pipeline
#: must reproduce them byte for byte, serially and over two processes.
PER_TRIAL_DIGESTS = {
    "tiny": "2c90eb75057f1f9d5748df763e9ec948def30a0f5aeb92017e0710d7f72c4211",
    "acceptance": "95d69d0a03d4e5fcfa1b51f577a80f6e2c225336d92ae7dab5441f5c9135acdd",
    "analyze": "c9b60bea622e2c7102c6b7c52251ba76295ae145215f59f2037ad8592a5c4ec4",
}

ACCEPTANCE = spl.CampaignConfig(
    trials=24, seed=20260809, n0=(1, 20), n1=(2, 20), d=(0.05, 0.95)
)


@pytest.mark.parametrize("parallel", [0, 2])
@pytest.mark.parametrize("name, cfg", [("tiny", TINY), ("acceptance", ACCEPTANCE)])
def test_reports_match_the_per_trial_pipeline(monkeypatch, name, cfg, parallel):
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    report = spl.run_campaign(dataclasses.replace(cfg, parallel=parallel))
    assert digest(report) == PER_TRIAL_DIGESTS[name]


@pytest.mark.parametrize("open_entries", [1, 100, 2000, None])
def test_grouping_does_not_change_records(monkeypatch, open_entries):
    # stacks of one, then flushes every few tiny trials or about every
    # acceptance trial, every few acceptance trials, and the cap as it is
    # (one stack per shape)
    if open_entries is not None:
        monkeypatch.setattr(harness, "OPEN_ENTRIES", open_entries)
    for name, cfg in [("tiny", TINY), ("acceptance", ACCEPTANCE)]:
        assert digest(spl.run_campaign(cfg)) == PER_TRIAL_DIGESTS[name], name


def campaign_stacks(monkeypatch, cfg) -> list[list[tuple[int, tuple[int, int]]]]:
    """The stacks a campaign solves, in order: (trial, shape) of each member."""
    stacks = []

    def capture(st, trials):
        stacks.append([(i, (inst.n0, inst.n1)) for i, inst in zip(trials, st.insts)])
        return [None] * len(trials)

    monkeypatch.setattr(harness, "_stack_records", capture)
    harness._trial_batch(cfg, list(range(cfg.trials)))
    return stacks


@pytest.mark.parametrize("name", ["tiny", "acceptance"])
def test_stacks_fill(monkeypatch, name):
    cfg = TINY if name == "tiny" else dataclasses.replace(ACCEPTANCE, trials=2000)
    stacks = campaign_stacks(monkeypatch, cfg)
    assert sorted(i for stack in stacks for i, _ in stack) == list(range(cfg.trials))
    assert all(len({shape for _, shape in stack}) == 1 for stack in stacks)
    # both stay under the entry cap, so each shape is solved as one stack
    shapes = [stack[0][1] for stack in stacks]
    assert len(shapes) == len(set(shapes))
    if name == "tiny":
        assert len(stacks) == 6
    else:
        # 380 shapes: stacks of several need buckets that outlive a few draws
        assert cfg.trials / len(stacks) > 1.5


def test_analyze_reports_match_the_per_trial_pipeline():
    wide = spl.CampaignConfig(trials=6, seed=4343, n0=(5, 12), n1=(2, 4), d=(0.05, 0.95))
    h = hashlib.sha256()
    for cfg in (ACCEPTANCE, wide):  # the second has n0 > n1
        for i in range(6):
            h.update(matio.dumps(spl.analyze(spl.trial_instance(cfg, i)[0]), indent=2).encode())
    assert h.hexdigest() == PER_TRIAL_DIGESTS["analyze"]


#: SHA-256 of the sharpness search results of SHARPNESS_CONFIGS, taken when
#: every candidate was evaluated on its own.
SHARPNESS_DIGEST = "b6736dfd61561969a782d97c2e2313a490c64c541c80b35c7d7b95244ddbb00d"

SHARPNESS_CONFIGS = [
    harness.SharpnessConfig(n0=4, n1=6, D=2.0, d=0.5, v=0.8, restarts=2, iters=200, seed=0),
    harness.SharpnessConfig(n0=4, n1=6, D=2.0, d=0.5, v=0.8, restarts=2, iters=200, seed=1),
    harness.SharpnessConfig(n0=3, n1=4, D=2.0, d=0.5, v=0.0),
]


def test_sharpness_results_are_pinned():
    h = hashlib.sha256()
    for cfg in SHARPNESS_CONFIGS:
        h.update(matio.dumps(harness.sharpness_search(cfg), indent=2).encode())
    assert h.hexdigest() == SHARPNESS_DIGEST


#: SHA-256 of the sharpness search results of LOCKSTEP_CONFIGS, taken when
#: the restarts ran one after another: the lockstep search must not depend
#: on how many restarts share a stack.  The configs cover 1, 3, 4 and 8
#: restarts, n1 = 2 (no outer offsets to move), D = 2d (the inner values
#: cannot move) and odd iteration counts.
SHARPNESS_LOCKSTEP_DIGEST = "597611f25b4391b2d0066f24c09a762216bfe06da6f500f8d3c24303178a4e26"

LOCKSTEP_CONFIGS = [
    harness.SharpnessConfig(n0=3, n1=5, D=2.0, d=0.5, v=0.7, restarts=1, iters=61, seed=5),
    harness.SharpnessConfig(n0=2, n1=2, D=2.0, d=0.5, v=0.6, restarts=3, iters=47, seed=2),
    harness.SharpnessConfig(n0=2, n1=4, D=1.0, d=0.5, v=0.3, restarts=4, iters=33, seed=7),
    harness.SharpnessConfig(n0=1, n1=3, D=3.0, d=0.4, v=0.5, restarts=8, iters=25, seed=11),
    harness.SharpnessConfig(n0=1, n1=2, D=1.0, d=0.5, v=0.4, restarts=3, iters=9, seed=4),
    harness.SharpnessConfig(n0=4, n1=6, D=2.0, d=0.5, v=0.8, restarts=4, iters=51, seed=3),
]


def test_stacked_rotations_match_the_per_instance_route():
    # one row's gap closes: its rotation is 1.0, as on its own
    closed = spl.assemble_instance(
        [-0.5, 0.5], [-1.0, 1.0, 1.5], (-1.0, 1.0), 3.0 * np.eye(2, 3)
    )
    insts = shape_instances(2, 3, 808)
    insts.insert(2, closed)
    singles = [rotation_of(i) for i in insts]
    assert singles[2] == 1.0 and riccati.solve_stack([closed]).dims[0] != closed.n0
    stacked = riccati._rotations(np.stack([i.L for i in insts]), (-1.0, 1.0), 2)
    assert stacked.tolist() == singles


def test_lockstep_sharpness_results_are_pinned():
    h = hashlib.sha256()
    for cfg in LOCKSTEP_CONFIGS:
        h.update(matio.dumps(harness.sharpness_search(cfg), indent=2).encode())
    assert h.hexdigest() == SHARPNESS_LOCKSTEP_DIGEST


# --- the two generation routes -------------------------------------------------------

#: Campaigns whose stack-built instances must equal ``trial_instance``'s.
ROUTE_CONFIGS = {
    "tiny": dataclasses.replace(TINY, trials=120),
    "acceptance": ACCEPTANCE,
    "unperturbed": dataclasses.replace(TINY, trials=60, v_fraction=0.0),
    "regime-C": spl.CampaignConfig(
        trials=60, seed=77, n0=(1, 3), n1=(2, 4), d=(0.7, 0.95), regime="C"
    ),
}


def campaign_instances(monkeypatch, cfg):
    """(trial, instance) of every instance a campaign's stacks build."""
    built = []

    def capture(st, trials):
        # the blocks reach the solver as built, each instance a view of its row
        assert all(np.shares_memory(inst.L, st.L) for inst in st.insts)
        built.extend(zip(trials, st.insts))
        return [None] * len(trials)

    monkeypatch.setattr(harness, "_stack_records", capture)
    harness._trial_batch(cfg, list(range(cfg.trials)))
    return sorted(built, key=lambda pair: pair[0])


@pytest.mark.parametrize("name", ROUTE_CONFIGS)
def test_campaign_instances_equal_trial_instances(monkeypatch, name):
    cfg = ROUTE_CONFIGS[name]
    built = campaign_instances(monkeypatch, cfg)
    assert [i for i, _ in built] == list(range(cfg.trials))
    stacked = 0
    for i, inst in built:
        single, _ = spl.trial_instance(cfg, i)
        assert same_bytes(
            [inst.L, inst.A0, inst.A1, inst.B], [single.L, single.A0, single.A1, single.B]
        ), i
        # one copy of each instance: its blocks are views of its L
        assert all(np.shares_memory(block, inst.L) for block in (inst.A0, inst.A1, inst.B)), i
        split, alone = inst.split, single.split
        assert same_bytes([split.sigma0, split.sigma1], [alone.sigma0, alone.sigma1]), i
        assert (inst.v, split.d, split.gap_left, split.gap_right, split.gap_len, inst.trivial) == (
            single.v, alone.d, alone.gap_left, alone.gap_right, alone.gap_len, single.trivial
        ), i
        stacked += inst.L.base.shape[0] > 1
    # built in stacks of several; of the acceptance config's 24 trials over
    # 380 block shapes, two share one
    assert stacked > 0
    if cfg.v_fraction == 0.0:
        assert all(inst.trivial and not inst.B.any() for _, inst in built)


def test_per_trial_records_equal_campaign_records():
    cfg = dataclasses.replace(TINY, trials=40)
    campaign = dumped(spl.run_campaign(cfg).records)
    per_trial = [
        spl.trial_record_for_instance(spl.trial_instance(cfg, i)[0], trial=i)
        for i in range(cfg.trials)
    ]
    assert dumped(per_trial) == campaign
