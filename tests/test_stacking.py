"""The stacked pipeline: numpy's stacked calls, bucket independence, grouping.

A campaign solves the trials of one block shape as one stack.  That is
exact only because numpy computes every matrix of a stacked call as it
computes that matrix on its own; the first tests pin that premise down for
every numpy operation the pipeline stacks, so a numpy or BLAS change that
breaks it fails here instead of shifting report bytes.
"""

import dataclasses
import hashlib
import math

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
    of L, and four stacks of X with their labels: generic (rank
    min(n0, n1)), rank 0, rank 1 and one mixing the three.  The pipeline
    masks the columns of W past the rank of each matrix.
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
    zero = np.zeros((STACK, n0, n1), dtype=complex)
    rank1 = u @ v
    # ranks min(n0, n1), min(n0, n1), 0, 0 and 1 in one stack
    mixed = np.concatenate([x.swapaxes(1, 2)[:2], zero[:2], rank1[:1]])
    # (n0, n1) arrays transposed: the layout of the pipeline's X
    xs = [(x, "generic"), (zero.swapaxes(1, 2), "rank 0"), (rank1.swapaxes(1, 2), "rank 1"),
          (mixed.swapaxes(1, 2), "mixed")]
    return insts, st, basis0, basis1, xs


def pipeline_products(x, a0, a1, b, l, basis1):
    """Every product the pipeline forms, for one instance or a stack."""
    n0, n1 = a0.shape[-1], a1.shape[-1]
    r = min(n0, n1)
    w, s, vh = np.linalg.svd(x, full_matrices=True)
    values = np.zeros(s.shape[:-1] + (n0,))
    values[..., :r] = s
    u = adjoint(vh)
    # Lambda0 in V and Lambda1 in W: diag(h) Q* M Q diag(1/h)
    h0 = np.sqrt(1.0 + values ** 2)
    k0 = adjoint(u) @ (a0 + b @ x) @ u * (h0[..., :, None] / h0[..., None, :])
    h = np.ones(w.shape[:-1])
    h[..., :r] = np.sqrt(1.0 + values[..., :r] ** 2)
    k1 = adjoint(w) @ (a1 - adjoint(b) @ adjoint(x)) @ w * (h[..., :, None] / h[..., None, :])
    # the lemma's w = U u: the columns of W above the rank cutoff
    ranked = values[..., :r] > values[..., :1] * max(n0, n1) * np.finfo(float).eps
    iso_u = np.zeros(w.shape[:-1] + (n0,), dtype=complex)
    iso_u[..., :r] = np.where(ranked[..., None, :], w[..., :r], 0.0)
    p = l[..., :, :n0] @ u
    q = l[..., :, n0:] @ iso_u
    return {
        "riccati": x @ a0 - a1 @ x + x @ b @ x - adjoint(b),
        "left": w,
        "lambda0": k0,
        "lambda0_cols": np.einsum("...ij,...ij->...j", k0.conj(), k0),
        "k1": k1,
        "lambda1_herm": k1 - adjoint(k1),
        "iso_u": iso_u,
        "p": p,
        "q": q,
        "dots": np.einsum("...ij,...ij->...j", p.conj(), q),
        "graph1": basis1[..., :n0, :] + adjoint(x) @ basis1[..., n0:, :],
    }


@pytest.mark.parametrize("n0, n1", SHAPES)
def test_stacked_lapack_calls_match_per_matrix_calls(n0, n1):
    insts, st, basis0, basis1, xs = pipeline_arrays(n0, n1, seed=100 * n0 + n1)
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
    blocks = riccati._blocks(st)[:3]
    for x, _ in xs:
        # the full left basis W is part 0
        full = np.linalg.svd(x, full_matrices=True)
        per = [np.linalg.svd(m, full_matrices=True) for m in x]
        for part in range(3):
            assert same_bytes(full[part], [p[part] for p in per])
        products = pipeline_products(x, *blocks, st.L, basis1)
        # Lambda0 (n0 x n0) and Lambda1 in the basis W (n1 x n1): the
        # spectrum of the Hermitian part; the Frobenius norms of both
        # defects and of the Riccati and graph1 residuals
        residuals = [products["riccati"], products["graph1"]]
        for m in (products["lambda0"], products["k1"]):
            herm = 0.5 * (m + adjoint(m))
            assert same_bytes(np.linalg.eigvalsh(herm), [np.linalg.eigvalsh(a) for a in herm])
            residuals.append(m - adjoint(m))
        for r in residuals:
            assert same_bytes(
                np.linalg.norm(r, axis=(-2, -1)), [np.linalg.norm(a, axis=(-2, -1)) for a in r]
            )


@pytest.mark.parametrize("n0, n1", SHAPES)
def test_stacked_products_match_per_matrix_products(n0, n1):
    insts, st, _, basis1, xs = pipeline_arrays(n0, n1, seed=7 * n0 + n1)
    blocks = riccati._blocks(st)[:3]  # the layout the pipeline computes with
    for x, label in xs:
        stacked = pipeline_products(x, *blocks, st.L, basis1)
        singles = [pipeline_products(*args) for args in zip(x, *blocks, st.L, basis1)]
        for name, value in stacked.items():
            assert same_bytes(value, [single[name] for single in singles]), (name, label)


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
    # B = 0 gives X = 0: the lemma masks every column of its W
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

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
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
#: Re-taken when floats became shortest round-trip text; each report then
#: parsed to the same values as before.  Re-taken when Lambda0 and the
#: lemma's w came to be read in X's singular bases: only the Lambda0 and
#: lemma residuals moved, at rounding level.  Re-taken when the Riccati
#: residual, graph1_residual and the Hermitian defects of Lambda0 and
#: Lambda1 became Frobenius norms: only those residuals and their maxima
#: moved, up by at most sqrt(rank) (down by an ulp or two at rank one).
#: Re-taken when trials moved to Philox counter streams: every instance
#: changed, so the reports were taken again from the per-trial route.
PER_TRIAL_DIGESTS = {
    "tiny": "e3e6b0f33a3b05e8bc269c076b7f494c265ba741c686b440356ddbe3c7acb459",
    "acceptance": "06b6a3070aa2d3039c8b1f019197c42f138af7fc8575ee496ee133f0f7a015c9",
    "analyze": "920e3076b0f8abbffc3fc3cf8c76abb960fda321e28c75b222fca0c8677da8bf",
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
#: every candidate was evaluated on its own (re-taken, as PER_TRIAL_DIGESTS).
SHARPNESS_DIGEST = "171d515d839bc2f76fe1d4498d309f7c23f69b772136f9cd1f326a247948544f"

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
#: cannot move) and odd iteration counts.  Re-taken as PER_TRIAL_DIGESTS,
#: and when the outer offsets came to scale with D: the results of the
#: D = 2 configs kept their bytes.
SHARPNESS_LOCKSTEP_DIGEST = "62e45049f9e4836ef7d91b584c7722332cb606321cf85287c6e1da124c5282c8"

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


@pytest.mark.parametrize("depth", [1, 3, 7])
def test_sharpness_results_do_not_depend_on_the_lookahead(monkeypatch, depth):
    rotations, rows = riccati._rotations, []

    def counted(L, *args):
        rows.append(len(L))
        return rotations(L, *args)

    monkeypatch.setattr(riccati, "_rotations", counted)
    monkeypatch.setattr(harness, "LOOKAHEAD", depth)
    monkeypatch.setattr(harness, "LOOKAHEAD_US", math.inf)
    h = hashlib.sha256()
    for cfg in LOCKSTEP_CONFIGS:
        h.update(matio.dumps(harness.sharpness_search(cfg), indent=2).encode())
    assert h.hexdigest() == SHARPNESS_LOCKSTEP_DIGEST
    # the first block of the 8 restarts plans `depth` moves of each
    assert max(rows) == 8 * depth


def test_null_coupling_moves_keep_the_step_at_any_lookahead(monkeypatch):
    # a coupling direction of norm 0 makes no move and keeps the step; every
    # 5th draw of each restart, when it is a coupling move, is scaled far
    # past any direction the search reaches, which the patched norm reads
    # as 0.  Planning ahead must settle such moves as one at a time does.
    draw, norm, nulls = harness._Walk.draw, harness.op_norm, []

    def draw_with_nulls(self):
        group, normals = draw(self)
        self.draws = getattr(self, "draws", 0) + 1
        return group, normals * 1e12 if group == 2 and self.draws % 5 == 0 else normals

    def null_norm(m):
        if np.abs(m).max() > 1e6:
            nulls.append(m)
            return 0.0
        return norm(m)

    monkeypatch.setattr(harness._Walk, "draw", draw_with_nulls)
    monkeypatch.setattr(harness, "op_norm", null_norm)
    monkeypatch.setattr(harness, "LOOKAHEAD_US", math.inf)
    digests = set()
    for depth in (1, 2, 3):
        monkeypatch.setattr(harness, "LOOKAHEAD", depth)
        h = hashlib.sha256()
        for cfg in LOCKSTEP_CONFIGS:
            h.update(matio.dumps(harness.sharpness_search(cfg), indent=2).encode())
        digests.add(h.hexdigest())
    assert nulls and len(digests) == 1


def test_failed_lookahead_stacks_fall_back_to_the_next_moves(monkeypatch):
    # every stack that holds more rows than the restarts (a look-ahead
    # stack) fails; each is retried with every restart's next move alone
    original, failed = np.linalg.eigh, []
    restarts = 0

    def broken(a, *args, **kwargs):
        if np.ndim(a) == 3 and len(a) > restarts:
            failed.append(len(a))
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", broken)
    monkeypatch.setattr(harness, "LOOKAHEAD_US", math.inf)
    h = hashlib.sha256()
    for cfg in LOCKSTEP_CONFIGS:
        restarts = cfg.restarts
        h.update(matio.dumps(harness.sharpness_search(cfg), indent=2).encode())
    assert h.hexdigest() == SHARPNESS_LOCKSTEP_DIGEST
    assert failed


@pytest.mark.parametrize("n0, n1, restarts, rows", [
    (4, 6, 4, 8),   # 8 rows of 41 us: two moves of each restart
    (4, 6, 5, 5),   # 10 rows of 41 us: one move of each
    (2, 2, 10, 20),
    (2, 2, 11, 11),
])
def test_large_sharpness_stacks_plan_no_moves_ahead(monkeypatch, n0, n1, restarts, rows):
    rotations, sizes = riccati._rotations, []

    def counted(L, *args):
        sizes.append(len(L))
        return rotations(L, *args)

    monkeypatch.setattr(riccati, "_rotations", counted)
    cfg = harness.SharpnessConfig(n0=n0, n1=n1, D=2.0, d=0.5, v=0.6, restarts=restarts, iters=3)
    harness.sharpness_search(cfg)
    assert max(sizes) == rows


# --- the two generation routes -------------------------------------------------------

#: Campaigns whose stack-built instances must equal ``trial_instance``'s.
ROUTE_CONFIGS = {
    "tiny": dataclasses.replace(TINY, trials=120),
    "acceptance": dataclasses.replace(ACCEPTANCE, trials=80),
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
    # built in stacks of several; 80 acceptance trials over 380 block
    # shapes all take distinct shapes with a chance of about 1.3e-4
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
