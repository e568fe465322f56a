"""Campaign engine: randomized verification, deep analysis, sweeps, search.

Trial ``i`` of a campaign with seed ``s`` draws from its own Philox
counter stream, the stream of ``Philox(SeedSequence(s)).jumped(i)`` (a
counter-based generator: every trial reads a block of 2**128 counters
that no other trial reads), so every record is reproducible from
(seed, index) and the campaign output does not depend on how trials are
split over processes.  Wall-clock time is intentionally kept out of the
serialised reports so that reruns compare byte-identical.
"""

from __future__ import annotations

import math
import os
import pickle
import time
from collections.abc import Iterator
from dataclasses import dataclass, replace
from typing import NoReturn

import numpy as np

from . import bounds, matio, riccati
from .disposition import (
    InstanceStack,
    PerturbationInstance,
    _assemble_one,
    _build,
    _check_separation,
    _draw,
    _hull,
    _is_int,
    _operators,
    _outer,
    assemble_instance,
    validate_disposition,
)
from .errors import (
    ConfigError,
    DispositionViolation,
    DomainViolation,
    InfeasibleParams,
    StructuralFailure,
)
from .linalg import one_blas_thread, op_norm

REGIMES = ("A", "B", "C", "mixed")

#: Violation tags of failed bound and identity checks; structural failures
#: are tagged "structural:<error>" instead.
VIOLATION_KINDS = ("bound13", "bound32", "enclosure", "mu", "graph", "riccati", "lemma")

#: Key order of campaign records.
RECORD_KEYS = (
    "trial", "n0", "n1", "D", "d", "v", "regime12", "regime29", "regime31",
    "gap_closed", "measured", "mu", "cond_Y0", "riccati_residual", "riccati_limit",
    "lemma26_max", "lemma27_max", "lemma_limit", "lemma_term_imag_max",
    "graph_angle_residual", "graph1_residual", "spec1_residual",
    "lambda0_herm_residual", "lambda0_spec_residual", "kappa", "kappa_branch",
    "bound13", "bound32", "ratio13", "ratio32", "r_V", "encl_lo", "encl_hi",
    "enclosure_ok", "violations", "error",
)

#: Record keys of the graph residuals, each checked against ``GRAPH_TOL``.
GRAPH_RESIDUALS = (
    "graph_angle_residual", "graph1_residual", "spec1_residual",
    "lambda0_herm_residual", "lambda0_spec_residual",
)

#: Matrix entries ((n0 + n1)^2 summed over trials) drawn and not yet
#: solved that a campaign process may hold; past it every bucket is
#: solved as one stack per shape.  It bounds the instances held at once,
#: so memory does not grow with the campaign or the block size: about
#: 6000 trials of the acceptance shape, whose 380 shapes then share a
#: stack of about 16.
OPEN_ENTRIES = 3 * 2**20

#: Tolerances of the campaign checks, serialised in the report's config.
#: The scales multiply (|A| + |V|)^2, the natural quadratic scale of the
#: identity checks; the others are absolute.  The bound slack is
#: ``bounds.BOUND_SLACK``.
ENCLOSURE_SLACK = 1e-9
GRAPH_TOL = 1e-8
RICCATI_SCALE = 1e-8
LEMMA_SCALE = 1e-9

#: Spread of the outer eigenvalues beyond the gap ends: the default of a
#: campaign, and of the sharpness search in gap half-widths.
OUTER_RADIUS = 2.0

#: Moves of each restart that one stack of the sharpness search evaluates,
#: all from the restart's current point.  Moves are accepted often enough
#: (about a fifth to a third of them) that deeper plans waste more rows
#: than the eigensolves they save.
LOOKAHEAD = 2

#: Time, in microseconds, that the rows of one look-ahead stack of the
#: sharpness search may cost; a larger search evaluates one move per restart
#: and stack.  A stack costs about 90 us plus, per n x n row, about n**2 / 4
#: us to solve and 16 us to make its move (Xeon, OpenBLAS 0.3).  Planning
#: ahead saves about two fifths of the stacks and makes about a sixth more
#: moves, so it pays only while its rows are cheap against the fixed cost:
#: it gained at 4 restarts of n0 = 4, n1 = 6, 8 of 2 + 2 and 1 of 8 + 12,
#: and lost at 8, 16 and 2 of them.
LOOKAHEAD_US = 400

#: Column order of sweep CSV files.
SWEEP_COLUMNS = (
    "D", "d", "v", "regime12", "regime29", "regime31",
    "kappa", "branch", "bound13", "bound32", "r_V", "encl_lo", "encl_hi",
)


@dataclass(frozen=True)
class CampaignConfig:
    """Configuration of a randomized verification campaign.

    n0, n1 and d accept a fixed value or an inclusive (lo, hi) range.
    ``regime`` selects how the perturbation norm is placed relative to the
    regime thresholds: "A" targets v < d, "B" targets the window up to
    sqrt(d(D-d)), "C" the window up to sqrt(2)d, "mixed" alternates A and B
    per trial.  v equals ``v_fraction`` times the target regime's upper
    limit (0 forces unperturbed instances); the recorded regime flags always
    derive from the realised v.  ``parallel`` is an execution detail and
    never enters serialised output; the process count is capped at the
    usable CPUs.
    """

    trials: int
    seed: int
    n0: int | tuple[int, int] = (1, 8)
    n1: int | tuple[int, int] = (2, 8)
    gap: tuple[float, float] = (-1.0, 1.0)
    d: float | tuple[float, float] = (0.1, 0.9)
    outer_radius: float = OUTER_RADIUS
    regime: str = "mixed"
    v_fraction: float = 0.9
    parallel: int = 0

    def to_dict(self) -> dict:
        return {
            "trials": int(self.trials),
            "seed": int(self.seed),
            "n0": _range_doc(self.n0, int),
            "n1": _range_doc(self.n1, int),
            "gap": [float(self.gap[0]), float(self.gap[1])],
            "d": _range_doc(self.d, float),
            "outer_radius": float(self.outer_radius),
            "regime": self.regime,
            "v_fraction": float(self.v_fraction),
            "tolerances": {
                "bound_slack": bounds.BOUND_SLACK,
                "enclosure_slack": ENCLOSURE_SLACK,
                "graph": GRAPH_TOL,
                "riccati_scale": RICCATI_SCALE,
                "lemma_scale": LEMMA_SCALE,
            },
        }


@dataclass(frozen=True, eq=False)
class CampaignReport:
    """Outcome of a campaign: per-trial records plus aggregates."""

    config: CampaignConfig
    records: list
    aggregates: dict
    runtime_seconds: float

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "aggregates": self.aggregates,
            "records": self.records,
        }

    def to_json(self) -> str:
        return matio.dumps(self.to_dict())

    @property
    def exit_code(self) -> int:
        if any(self.aggregates["violations"][k] for k in VIOLATION_KINDS):
            return 2
        if self.aggregates["violations"]["structural"]:
            return 3
        return 0


def _range_doc(x, kind):
    """A fixed value or an inclusive (lo, hi) range as JSON, in ``kind`` values."""
    if isinstance(x, tuple):
        return [kind(x[0]), kind(x[1])]
    return kind(x)


def _as_range(x, kind) -> tuple:
    """(lo, hi) of a range tuple or of one value, as ``kind`` values."""
    if isinstance(x, tuple):
        return kind(x[0]), kind(x[1])
    return kind(x), kind(x)


def validate_config(cfg: CampaignConfig) -> None:
    for name in ("trials", "seed", "parallel", "n0", "n1"):
        value = getattr(cfg, name)
        ranged = name in ("n0", "n1") and isinstance(value, tuple) and len(value) == 2
        if not all(map(_is_int, value if ranged else (value,))):
            raise ConfigError(f"{name} must hold integers, got {value!r}")
    if cfg.trials < 1:
        raise ConfigError(f"trials must be >= 1, got {cfg.trials}")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg.seed}")
    if not 0.0 <= cfg.v_fraction < 1.0:
        # exactly 0 is allowed and forces trivial (unperturbed) instances
        raise ConfigError(f"v_fraction must lie in [0, 1), got {cfg.v_fraction}")
    if cfg.regime not in REGIMES:
        raise ConfigError(f"regime must be one of {REGIMES}, got {cfg.regime!r}")
    gl, gr = map(float, cfg.gap)  # as the draws read it
    if not gl < gr:
        raise ConfigError(f"gap ({gl}, {gr}) is empty")
    width = gr - gl
    if not math.isfinite(width):
        raise ConfigError(f"gap ({gl}, {gr}) is not finite")
    scale_lo, scale_hi = bounds.SCALE_RANGE
    if width > scale_hi:
        raise ConfigError(f"gap ({gl}, {gr}) is longer than {scale_hi:g}")
    n0_lo, n0_hi = _as_range(cfg.n0, int)
    n1_lo, n1_hi = _as_range(cfg.n1, int)
    if n0_lo < 1 or n0_hi < n0_lo:
        raise ConfigError(f"bad inner dimension range {cfg.n0}")
    if n1_lo < 2 or n1_hi < n1_lo:
        raise ConfigError(f"bad outer dimension range {cfg.n1} (need n1 >= 2)")
    d_lo, d_hi = _as_range(cfg.d, float)
    if not 0.0 < d_lo <= d_hi <= width / 2.0:
        raise ConfigError(f"separation range {cfg.d} must lie in (0, {width / 2.0}]")
    if d_lo < scale_lo:
        raise ConfigError(f"separation range {cfg.d} starts below {scale_lo:g}")
    if not 0.0 <= cfg.outer_radius < math.inf:
        raise ConfigError(f"outer_radius must be finite and >= 0, got {cfg.outer_radius}")
    if float(cfg.outer_radius) > scale_hi:
        raise ConfigError(f"outer_radius must be at most {scale_hi:g}, got {cfg.outer_radius}")
    if cfg.parallel < 0:
        raise ConfigError(f"parallel must be nonnegative, got {cfg.parallel}")
    if cfg.regime == "C" and not d_lo > width / 3.0:
        # the C window [sqrt(d(D-d)), sqrt(2)d) is empty unless D < 3d
        raise ConfigError(
            f"regime C needs d > D/3 = {width / 3.0}; separation range starts at {d_lo}"
        )


def _regime_upper_limit(regime: str, d: float, width: float) -> float:
    if regime == "A":
        return d
    gap_survives, _, detailed = bounds.regime_limits(width, d)
    if regime == "B":
        return detailed
    if regime == "C":
        return gap_survives
    raise ConfigError(f"no upper limit for regime {regime!r}")


def trial_instance(cfg: CampaignConfig, index: int) -> tuple[PerturbationInstance, dict]:
    """Deterministically regenerate the instance of one campaign trial.

    The same draws and build as the campaign's, on a stack of one.  The
    index must be an integer in ``[0, cfg.trials)``.
    """
    validate_config(cfg)
    if not (_is_int(index) and 0 <= index < cfg.trials):
        raise ConfigError(f"trial index must be an integer in [0, {cfg.trials}), got {index!r}")
    trial = _trial_draw(cfg, _trial_streams(cfg.seed)(int(index)))
    return _build_trials(cfg, [trial]).insts[0], trial[0]


def _trial_streams(seed: int):
    """The trial streams of a campaign seed: a function of the trial index
    that returns one generator, set to that trial's stream.

    Trial i's stream is the one of ``Philox(SeedSequence(seed)).jumped(i)``,
    counter i * 2**128 with the output buffer empty.  ``jumped`` builds a
    bit generator per call; this sets the counter of one instead.
    """
    bitgen = np.random.Philox(np.random.SeedSequence(seed))
    state, rng = bitgen.state, np.random.Generator(bitgen)

    def stream(index: int) -> np.random.Generator:
        state["state"]["counter"] = [0, 0, index & 0xFFFF_FFFF_FFFF_FFFF, index >> 64]
        bitgen.state = state
        return rng

    return stream


def _trial_draw(cfg: CampaignConfig, rng: np.random.Generator) -> tuple[dict, tuple]:
    """The random draws of one trial of a valid config from its stream, in
    three generator calls: the trial's parameters and then the two calls of
    :func:`disposition._draw`.

    ``u = rng.random(5)`` gives n0 and n1 as ``lo + min(floor(u m), m - 1)``
    over the m sizes of their ranges, d as ``d_lo + (d_hi - d_lo) u``
    (numpy's uniform formula), the pinned side (``u < 0.5`` is left) and,
    in a mixed campaign, the regime (``u < 0.5`` is A).
    """
    gl, gr = float(cfg.gap[0]), float(cfg.gap[1])
    n0_lo, n0_hi = _as_range(cfg.n0, int)
    n1_lo, n1_hi = _as_range(cfg.n1, int)
    d_lo, d_hi = _as_range(cfg.d, float)
    u0, u1, u2, u3, u4 = rng.random(5).tolist()
    m0, m1 = n0_hi - n0_lo + 1, n1_hi - n1_lo + 1
    n0 = n0_lo + min(int(u0 * m0), m0 - 1)
    n1 = n1_lo + min(int(u1 * m1), m1 - 1)
    d = d_lo + (d_hi - d_lo) * u2
    pin_side = "left" if u3 < 0.5 else "right"
    regime = cfg.regime
    if regime == "mixed":
        regime = "A" if u4 < 0.5 else "B"
    v = cfg.v_fraction * _regime_upper_limit(regime, d, gr - gl)
    draw = {"n0": n0, "n1": n1, "d": d, "v": v, "pin_side": pin_side, "regime_target": regime}
    return draw, _draw(rng, n0, n1, (gl, gr), d, cfg.outer_radius, pin_side)


def _build_trials(cfg: CampaignConfig, trials: list) -> InstanceStack:
    """The instances of same-shape trial draws, built as one stack."""
    return _build(
        [parts for _, parts in trials],
        (float(cfg.gap[0]), float(cfg.gap[1])),
        [draw["v"] for draw, _ in trials],
    )


def trial_record_for_instance(inst: PerturbationInstance, trial: int | None = None) -> dict:
    """Run the full verification pipeline on one instance.

    Returns a flat record of every measured quantity, every applicable
    bound with its satisfied/violated status, and a list of violation tags
    (empty on a clean trial).  Structural failures (gap closure inside the
    split regime, non-graph subspaces, eigensolver breakdown) are reported
    in the ``error`` field instead of raising.
    """
    return _stack_records(InstanceStack.of([inst]), [trial])[0]


def _applicable(inst: PerturbationInstance) -> bounds.BoundReport:
    """The bounds at an instance's geometry, evaluated before it is solved:
    a DomainViolation wins over a structural failure."""
    split = inst.split
    return bounds.applicable_bounds(
        split.gap_len, split.d, inst.v, split.gap_left, split.gap_right
    )


def _json_floats(obj):
    """``obj`` with each NaN or infinity, which JSON cannot hold as a number,
    written as the string "nan", "inf" or "-inf"; dicts and lists are
    copied, recursively."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else str(obj)
    if isinstance(obj, dict):
        return {key: _json_floats(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_json_floats(value) for value in obj]
    return obj


def _records(insts: list[PerturbationInstance], res: riccati.StackSolution,
             reports: list[bounds.BoundReport], trials: list) -> list[dict]:
    """Flat campaign records of a solved stack, in stack order; ``reports``
    holds each instance's :func:`_applicable` bounds.  A record with a
    non-finite value goes through :func:`_json_floats`.
    """
    solved, nonfinite = {}, set()
    if res.solution is not None:
        sol, graph, idents = res.solution, res.graph, res.identities
        columns = {
            "measured": graph.measured,
            "mu": sol.mu,
            "cond_Y0": sol.cond_Y0,
            "riccati_residual": sol.riccati_residual,
            # the identities' maxima over eigenpairs, a NaN among them kept
            "lemma26_max": idents.res26.max(axis=1),
            "lemma27_max": idents.res27.max(axis=1),
            "lemma_term_imag_max": idents.term_imag.max(axis=1),
            "graph_angle_residual": graph.angle_residual,
            "graph1_residual": graph.graph1_residual,
            "spec1_residual": graph.spec1_residual,
            "lambda0_herm_residual": graph.lambda0_herm_residual,
            "lambda0_spec_residual": graph.lambda0_spec_residual,
        }
        table = np.array(list(columns.values()))
        solved = {i: dict(zip(columns, row)) for i, row in zip(res.solved, table.T.tolist())}
        finite = np.isfinite(table)
        if not finite.all():
            nonfinite = {res.solved[j] for j in np.flatnonzero(~finite.all(axis=0)).tolist()}
    out = []
    for i, (inst, applicable, trial) in enumerate(zip(insts, reports, trials)):
        rec = dict.fromkeys(RECORD_KEYS)
        rec.update(
            trial=trial, n0=inst.n0, n1=inst.n1, D=applicable.D, d=applicable.d, v=applicable.v,
            regime12=applicable.regime_gap_survives,
            regime29=applicable.regime_split,
            regime31=applicable.regime_detailed,
            violations=[],
        )
        out.append(rec)
        if res.eigen is not None:
            gap_closed = rec["gap_closed"] = res.dims[i] != inst.n0
            encl = applicable.enclosure
            if encl is not None:
                rec["encl_lo"], rec["encl_hi"] = encl
                # omega0, the inner eigenvalues, ascending
                omega0 = res.eigen.values[i][res.inner[i]].tolist()
                rec["enclosure_ok"] = bool(omega0) and bool(
                    omega0[0] >= encl[0] - ENCLOSURE_SLACK
                    and omega0[-1] <= encl[1] + ENCLOSURE_SLACK
                )
            if gap_closed:
                rec["error"] = "GapClosed"
                if applicable.regime_split:
                    rec["violations"] = ["structural:GapClosed"]
                continue
        failure = res.failures[i]
        if failure is not None:
            rec["error"] = type(failure).__name__
            rec["violations"] = [f"structural:{rec['error']}"]
            continue

        fields = solved[i]
        report = applicable.against(fields["measured"])
        scale = inst.scale
        rec.update(
            fields,
            riccati_limit=RICCATI_SCALE * scale,
            lemma_limit=LEMMA_SCALE * scale,
            kappa=report.kappa,
            kappa_branch=report.kappa_branch,
            bound13=report.bound_apriori,
            bound32=report.bound_detailed,
            ratio13=report.ratio_apriori,
            ratio32=report.ratio_detailed,
            r_V=report.r_v,
        )

        violations = []
        if report.ok_apriori is False:
            violations.append("bound13")
        if report.ok_detailed is False:
            violations.append("bound32")
        if rec["enclosure_ok"] is False:
            violations.append("enclosure")
        if applicable.regime_detailed and not rec["mu"] < 1.0:
            violations.append("mu")
        # written as "not x <= limit", so that a NaN residual fails
        if not all(rec[key] <= GRAPH_TOL for key in GRAPH_RESIDUALS):
            violations.append("graph")
        if not rec["riccati_residual"] <= rec["riccati_limit"]:
            violations.append("riccati")
        if not (rec["lemma26_max"] <= rec["lemma_limit"]
                and rec["lemma27_max"] <= rec["lemma_limit"]):
            violations.append("lemma")
        rec["violations"] = violations
        if i in nonfinite:
            out[-1] = _json_floats(rec)
    return out


def _stack_records(st: InstanceStack, trials: list) -> list[dict]:
    """Records of same-shape instances solved as one stack.

    A stack that fails as a whole (a LAPACK call or an eigensolve check
    failed for one of its instances) is solved again one instance at a
    time, so every instance gets the record it gets on its own.
    """
    applicable = [_applicable(inst) for inst in st.insts]
    try:
        res = riccati.solve_stack(st)
    except StructuralFailure:
        # a stack of one records these in its solution; only larger ones raise
        return [trial_record_for_instance(inst, trial) for inst, trial in zip(st.insts, trials)]
    return _records(st.insts, res, applicable, trials)


def _trial_batch(cfg: CampaignConfig, indices: list[int]) -> list[dict]:
    """Records of the trials ``indices``, in that order.

    Trials are drawn one at a time, in index order, and each joins the
    bucket of its block shape (n0, n1).  Every bucket is built and solved
    as one stack when the open trials exceed OPEN_ENTRIES, and at the end.
    """
    by_trial: dict[int, dict] = {}
    buckets: dict[tuple[int, int], list] = {}
    entries = 0
    streams = _trial_streams(cfg.seed)
    for i in indices:
        trial = _trial_draw(cfg, streams(i))
        shape = trial[0]["n0"], trial[0]["n1"]
        buckets.setdefault(shape, []).append((i, trial))
        entries += sum(shape) ** 2
        if entries > OPEN_ENTRIES:
            by_trial.update(_bucket_records(cfg, buckets))
            buckets, entries = {}, 0
    by_trial.update(_bucket_records(cfg, buckets))
    return [by_trial[i] for i in indices]


def _bucket_records(cfg: CampaignConfig, buckets: dict) -> Iterator[tuple[int, dict]]:
    """(trial, record) of every trial in ``buckets``, one stack per bucket."""
    for bucket in buckets.values():
        trials = [i for i, _ in bucket]
        st = _build_trials(cfg, [trial for _, trial in bucket])
        yield from zip(trials, _stack_records(st, trials))


def _aggregate(records: list[dict]) -> dict:
    counts = dict.fromkeys(VIOLATION_KINDS, 0)
    counts["structural"] = 0
    for rec in records:
        for tag in rec["violations"]:
            if tag.startswith("structural:"):
                counts["structural"] += 1
            else:
                counts[tag] += 1
    counts["total"] = sum(counts.values())

    def vmax(key, flag=None):
        """The largest value, written by :func:`_json_floats`; a NaN
        outranks every value."""
        vals = [r[key] for r in records if r[key] is not None and (flag is None or r[flag])]
        if not vals:
            return None
        return _json_floats(np.max(np.array(vals, dtype=float)).item())

    return {
        "trials": len(records),
        "failures": sum(1 for r in records if r["error"] is not None),
        "violations": counts,
        "max_ratio13": vmax("ratio13"),
        "max_ratio32": vmax("ratio32"),
        "max_riccati_residual": vmax("riccati_residual"),
        "max_lemma26": vmax("lemma26_max"),
        "max_lemma27": vmax("lemma27_max"),
        **{f"max_{key}": vmax(key) for key in GRAPH_RESIDUALS},
        "max_cond_Y0": vmax("cond_Y0"),
        "max_mu_regime31": vmax("mu", "regime31"),
        "max_measured_regime31": vmax("measured", "regime31"),
    }


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def _pool_workers(parallel: int, trials: int, cpus: int) -> int:
    """Processes for a campaign; fewer than 2 means run serially.

    All of them start at once, so a request beyond the usable CPUs would
    only fork idle copies of the caller.  Without ``os.fork`` (Windows) a
    campaign runs serially.
    """
    return min(parallel, trials, cpus) if hasattr(os, "fork") else 1


def _forked_batches(cfg: CampaignConfig, shares: list[list[int]]) -> list[dict]:
    """Records of the trials of ``shares``, in share order.

    The caller runs the first share itself.  One forked child runs each
    other share and pickles ``(True, records)`` or ``(False, exception)``
    into its own pipe; the caller reads the pipes in share order and
    re-raises a child's exception.  Every child is reaped before return,
    and one whose pipe was not read, because the campaign failed, is killed
    first.  A single share forks nothing.
    """
    children = []  # (pid, read end of its pipe) of each child not yet reaped
    try:
        for share in shares[1:]:
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                _child_batch(cfg, share, w)
            os.close(w)
            children.append((pid, open(r, "rb")))
        records = _trial_batch(cfg, shares[0])
        while children:
            pid, pipe = children[0]
            data = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            pipe.close()
            del children[0]
            if status != 0:  # a child that sent its records exits with 0
                raise RuntimeError(
                    f"campaign child {pid} exited with status {status} "
                    "without sending its records"
                )
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            records.extend(value)
        return records
    finally:
        if children:
            import signal  # loaded only when a campaign fails

            for pid, pipe in children:
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _child_batch(cfg: CampaignConfig, share: list[int], fd: int) -> NoReturn:
    """Body of a forked child: write the pickled outcome of ``share`` to
    ``fd`` and leave through ``os._exit``, so the stdio buffers and atexit
    handlers inherited from the caller never run twice."""
    code = 1
    try:
        try:
            outcome = (True, _trial_batch(cfg, share))
        except Exception as exc:
            outcome = (False, exc)
        data = pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)  # whole, or nothing written
        with open(fd, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)


def run_campaign(cfg: CampaignConfig) -> CampaignReport:
    """Execute a verification campaign.

    Trials are independent.  Each process draws its trials in index order
    and solves those of one block shape together (see :func:`_trial_batch`).
    With ``parallel`` >= 2 the trials are split into one contiguous share
    per process (at most one process per usable CPU): the caller runs the
    first share and one forked child runs each other one (see
    :func:`_forked_batches`).  The assembled report is identical to a
    serial run of the same config and seed.  The caller runs BLAS on one
    thread, and forked children inherit the pin; the caller's thread count
    is restored on return.
    """
    validate_config(cfg)
    t0 = time.perf_counter()
    indices = list(range(cfg.trials))
    workers = max(1, _pool_workers(cfg.parallel, cfg.trials, _usable_cpus()))
    size = math.ceil(cfg.trials / workers)
    with one_blas_thread():
        records = _forked_batches(cfg, [indices[i:i + size] for i in range(0, cfg.trials, size)])
    runtime = time.perf_counter() - t0
    return CampaignReport(
        config=cfg,
        records=records,
        aggregates=_aggregate(records),
        runtime_seconds=runtime,
    )


# --- single-instance deep analysis -------------------------------------------


def instance_from_file(path: str, gap: tuple[float, float] | None = None) -> PerturbationInstance:
    """Load an analysis input: Instance JSON, or Matrix JSON plus a gap.

    A bare Hermitian matrix is treated as an unperturbed operator (zero
    coupling, flagged trivial): its disposition is validated against the
    supplied gap and the instance is expressed in the split basis.
    """
    doc = matio.load_json(path)
    if matio.is_instance_doc(doc):
        return matio.instance_from_dict(doc)
    if matio.is_matrix_doc(doc):
        if gap is None:
            raise ConfigError("matrix input requires --gap-left and --gap-right")
        split = validate_disposition(matio.matrix_from_dict(doc), gap)
        b = np.zeros((split.n0, split.n1), dtype=complex)
        return assemble_instance(split.sigma0, split.sigma1, gap, b)
    raise ConfigError("input is neither Instance JSON nor Matrix JSON")


def analyze(inst: PerturbationInstance) -> dict:
    """Full single-instance report aggregating every module's output.

    Raises the pipeline's structural failure (a StructuralFailure) so
    callers can map it to a structured error; campaign-style flat fields
    are nested under "record", a second view of the same pipeline result.
    The report goes through :func:`_json_floats`, as a campaign record does.
    """
    applicable = _applicable(inst)
    res = riccati.solve_stack([inst])
    if res.failures[0] is not None:
        raise res.failures[0]
    record = _records([inst], res, [applicable], [None])[0]
    idents = res.identities
    values, inner = res.eigen.values[0], res.inner[0]
    enclosure = applicable.enclosure
    split = inst.split
    return _json_floats({
        "instance": {
            "n0": inst.n0,
            "n1": inst.n1,
            "gap": [split.gap_left, split.gap_right],
            "D": split.gap_len,
            "d": split.d,
            "v": inst.v,
            "trivial": inst.trivial,
            "sigma0": split.sigma0.tolist(),
            "sigma1": split.sigma1.tolist(),
        },
        "perturbed": {
            "omega0": values[inner].tolist(),
            "omega1": values[~inner].tolist(),
            "gap_closed": False,  # a closed gap raised RankMismatch above
            "enclosure": list(enclosure) if enclosure is not None else None,
        },
        "angular": {
            "mu": record["mu"],
            "cond_Y0": record["cond_Y0"],
            "riccati_residual": record["riccati_residual"],
            "lambda0_spectrum": res.graph.lambda0_spectrum[0].tolist(),
            "lambda0_herm_residual": record["lambda0_herm_residual"],
            "X": matio.matrix_to_dict(res.solution.X[0]),
        },
        "identities": [
            dict(zip(("lambda", "res26", "res27", "term_imag", "top"), pair))
            for pair in zip(*(column[0].tolist() for column in (
                idents.lam, idents.res26, idents.res27, idents.term_imag, idents.top
            )))
        ],
        "graph": {
            "measured": record["measured"],
            "angle_residual": record["graph_angle_residual"],
            "graph1_residual": record["graph1_residual"],
            "spec1_residual": record["spec1_residual"],
        },
        "record": record,
    })


# --- bound sweeps --------------------------------------------------------------


def bound_row(D: float, d: float, v: float) -> dict:
    """The bounds applicable at (D, d, v) on the gap (-D/2, D/2), as a row
    of SWEEP_COLUMNS with None for the out-of-regime fields.

    Raises DomainViolation when (D, d, v) violates the basic geometry.
    """
    b = bounds.applicable_bounds(D, d, v, -D / 2.0, D / 2.0)
    encl_lo, encl_hi = b.enclosure or (None, None)
    return dict(zip(SWEEP_COLUMNS, (
        D, d, v, b.regime_gap_survives, b.regime_split, b.regime_detailed,
        b.kappa, b.kappa_branch, b.bound_apriori, b.bound_detailed, b.r_v, encl_lo, encl_hi,
    )))


def sweep_rows(D_values, d: float, v_values) -> list[dict]:
    """Bound landscape over a (D, v) grid at fixed separation d.

    Rows come out in lexicographic (D, v) order.  Out-of-regime fields are
    None; a (D, v) pair violating the basic geometry yields a row with all
    regime flags false and every bound field None.  A non-finite D, d or v
    raises ConfigError before any row is computed.
    """
    D_values, v_values = [float(D) for D in D_values], [float(v) for v in v_values]
    d = float(d)
    if not all(map(math.isfinite, [*D_values, d, *v_values])):
        raise ConfigError("sweep values of D, d and v must be finite")
    rows = []
    for D in D_values:
        for v in v_values:
            try:
                row = bound_row(D, d, v)
            except DomainViolation:
                row = dict.fromkeys(SWEEP_COLUMNS)
                row.update(D=D, d=d, v=v,
                           regime12=False, regime29=False, regime31=False)
            rows.append(row)
    return rows


def sweep_csv(rows: list[dict]) -> str:
    """Render sweep rows as CSV with shortest round-trip floats (``repr``)
    and lowercase booleans."""
    lines = [",".join(SWEEP_COLUMNS)]
    for row in rows:
        cells = []
        for col in SWEEP_COLUMNS:
            val = row[col]
            if val is None:
                cells.append("")
            elif isinstance(val, bool):
                cells.append("true" if val else "false")
            elif isinstance(val, str):
                cells.append(val)
            else:
                cells.append(repr(float(val)))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# --- sharpness search -----------------------------------------------------------


@dataclass(frozen=True)
class SharpnessConfig:
    """Configuration of the randomized bound-tightness search; the outer
    eigenvalues it places lie within OUTER_RADIUS * D / 2 of the gap ends,
    so the search scales with D."""

    n0: int
    n1: int
    D: float
    d: float
    v: float
    restarts: int = 4
    iters: int = 200
    seed: int = 0


class _Walk:
    """One restart of the sharpness search: its generator, its current
    point (s0, offs, outer, b), its step and its queue of drawn moves.
    ``outer`` is the outer spectrum of the offsets ``offs``, built when they
    move and kept with them.  A move is kept only when it raises
    ``measured``, so the current point is also the restart's best, reached
    first.

    A move is drawn (:meth:`draw`) apart from being made (:meth:`move`):
    the draws depend on the config alone, so they can be queued ahead of
    the outcomes that decide the point and the step they are made from.
    """

    def __init__(self, cfg: SharpnessConfig, r: int, gap: tuple[float, float]):
        lo, hi = _hull(gap, cfg.d)
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(r,)))
        self.rng, self.cfg, self.gap, self.lo, self.hi = rng, cfg, gap, lo, hi
        self.pin = lo if r % 2 == 0 else hi
        self.radius = OUTER_RADIUS * cfg.D / 2.0
        s0 = rng.uniform(lo, hi, cfg.n0) if hi > lo else np.full(cfg.n0, lo)
        s0[0] = self.pin
        offs = rng.uniform(0.0, self.radius, cfg.n1 - 2)
        self.sides = rng.integers(0, 2, cfg.n1 - 2)
        bdir = rng.standard_normal((cfg.n0, cfg.n1)) + 1j * rng.standard_normal((cfg.n0, cfg.n1))
        self.point = (s0, offs, _outer(gap, self.sides, offs), bdir * (cfg.v / op_norm(bdir)))
        self.measured = -1.0
        self.step = 0.3
        self.queued, self.undrawn = [], cfg.iters

    def draw(self) -> tuple[int, np.ndarray]:
        """The next move's draws from this restart's generator: the group it
        moves (0 the inner values, 1 the outer offsets, 2 the coupling; a
        group that cannot move is a coupling move) and its normals."""
        cfg, rng = self.cfg, self.rng
        group = int(rng.integers(0, 3))
        if group == 0 and self.hi > self.lo:
            return 0, rng.standard_normal(cfg.n0)
        if group == 1 and cfg.n1 > 2:
            return 1, rng.standard_normal(cfg.n1 - 2)
        shape = (cfg.n0, cfg.n1)
        return 2, rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def move(self, step: float, drawn: tuple[int, np.ndarray]) -> tuple | None:
        """The point that a drawn move makes from the current point with
        ``step``; None when the coupling direction has norm 0 (no move is
        made)."""
        cfg, lo, hi = self.cfg, self.lo, self.hi
        s0, offs, outer, b = self.point
        group, normals = drawn
        if group == 0:
            s0 = (s0 + normals * step * (hi - lo)).clip(lo, hi)
            s0[0] = self.pin
        elif group == 1:
            offs = (offs + normals * step * self.radius).clip(0.0, self.radius)
            outer = _outer(self.gap, self.sides, offs)
        else:
            bdir = b + step * cfg.v * normals
            nrm = op_norm(bdir)
            if nrm == 0.0:
                return None
            b = bdir * (cfg.v / nrm)
        return s0, offs, outer, b

    def plan(self, depth: int) -> list[tuple | None]:
        """The next moves, at most ``depth``, from the current point, each
        with the step that rejecting the moves before it leaves."""
        queued = self.queued
        while len(queued) < depth and self.undrawn:
            queued.append(self.draw())
            self.undrawn -= 1
        step, points = self.step, []
        for drawn in queued[:depth]:
            point = self.move(step, drawn)
            if point is not None:
                step = _shrunk(step)
            points.append(point)
        return points

    def settle(self, points: list[tuple | None], measured: list[float]) -> None:
        """Settle planned moves in order, ``measured`` holding the values of
        those that are not None: keep the first move that improves and stop
        there, shrinking the step at each one before it.  The moves not
        settled stay queued, to be made again from the new point."""
        values = iter(measured)
        for k, point in enumerate(points, 1):
            if point is None:
                continue
            value = next(values)
            if value > self.measured:
                self.point, self.measured = point, value
                break
            self.step = _shrunk(self.step)
        del self.queued[:k]


def _shrunk(step: float) -> float:
    """The step of a restart after a rejected move."""
    return max(step * 0.95, 1e-4)


def _measure(cfg: SharpnessConfig, gap: tuple[float, float], points: list[tuple]) -> list[float]:
    """The measured rotation of each point, evaluated as one stack.

    The search keeps its inner values at least d inside the gap and its
    outer values on or outside its ends, so of the partition rules only
    :func:`_check_separation`'s can fail.  That rule reads a partition's
    largest outer modulus alone, so it is checked once, on the largest
    modulus of each outer position over the stack: it passes every row, or
    raises for the row with the largest modulus.
    """
    outer = np.array([p[2] for p in points])
    _check_separation(cfg.d, np.abs(outer).max(axis=0))
    L = _operators(np.array([p[0] for p in points]), outer, np.array([p[3] for p in points]))
    return riccati._rotations(L, gap, cfg.n0).tolist()


def _step(walks: list[_Walk], depth: int) -> None:
    """One block of the search: plan up to ``depth`` moves of every walk,
    evaluate them all as one stack and settle each walk's moves.

    A failure while planning the moves or evaluating their stack falls
    back to a block of each walk's next move alone, which raises only where
    one of those moves fails on its own, as it does when the restarts run
    one after another.
    """
    try:
        plans = [w.plan(depth) for w in walks]
        points = [p for plan in plans for p in plan if p is not None]
        measured = _measure(walks[0].cfg, walks[0].gap, points) if points else []
    except (StructuralFailure, DispositionViolation):
        if depth == 1:
            raise
        return _step(walks, 1)
    start = 0
    for w, plan in zip(walks, plans):
        count = len(plan) - plan.count(None)
        w.settle(plan, measured[start:start + count])
        start += count


def sharpness_search(cfg: SharpnessConfig) -> dict:
    """Randomized multi-start search for the worst measured/bound ratio.

    Keeps the geometry (D, d, v) fixed, varies the inner/outer eigenvalue
    placements within the disposition (one inner value stays pinned at
    distance d) and the direction of the coupling block on the norm-v
    sphere.  Accept-if-improved coordinate perturbations with a decaying
    step; deterministic for a fixed seed.  The returned ratio can approach
    but never exceed 1, up to rounding: ``ok`` checks the measured value
    against the bound up to the absolute ``bounds.BOUND_SLACK``, as a
    campaign record does, so rounding noise at a tiny v is no violation.

    The restarts run in blocks: each draws from its own generator and
    queues its draws ahead, and one stack evaluates up to ``LOOKAHEAD``
    next moves of every restart (one, where the rows of that stack would
    cost more than ``LOOKAHEAD_US``), each from the restart's current point
    with the step that rejecting the moves before it leaves.  A restart
    settles its moves in order up to its first accepted one; the moves after
    it are made again from the new point in the next block, from the same
    draws.
    The result does not depend on that grouping; it is the one of running
    the restarts one after another, one candidate at a time, the first best
    of the lowest restart reported.
    """
    integers = ("n0", "n1", "restarts", "iters", "seed")
    if not all(_is_int(getattr(cfg, name)) for name in integers):
        raise InfeasibleParams("n0, n1, restarts, iters and seed must be integers")
    # plain Python numbers from here on: a numpy float32 would set the
    # precision of the bounds, and a numpy scalar cannot be written as JSON
    cfg = replace(cfg, D=float(cfg.D), d=float(cfg.d), v=float(cfg.v),
                  **{name: int(getattr(cfg, name)) for name in integers})
    if cfg.n0 < 1 or cfg.n1 < 2:
        raise InfeasibleParams(f"need n0 >= 1 and n1 >= 2, got {cfg.n0}, {cfg.n1}")
    if cfg.restarts < 1 or cfg.iters < 0:
        raise InfeasibleParams("need restarts >= 1 and iters >= 0")
    if cfg.seed < 0:
        raise InfeasibleParams(f"seed must be >= 0, got {cfg.seed}")
    bounds.check_geometry(cfg.D, cfg.d)
    gap = (-cfg.D / 2.0, cfg.D / 2.0)
    if cfg.v == 0.0:
        outer = [gap[0], gap[1]] + [gap[1]] * (cfg.n1 - 2)
        _check_separation(cfg.d, outer)
        inner = [_hull(gap, cfg.d)[0]] * cfg.n0
        inst = _assemble_one(inner, outer, gap, np.zeros((cfg.n0, cfg.n1)))
        return _sharpness_result(cfg, 0.0, inst)
    detailed = bounds.regime_limits(cfg.D, cfg.d)[2]
    if not 0.0 < cfg.v < detailed:
        raise InfeasibleParams(f"search requires 0 <= v < sqrt(d*(D-d)) = {detailed}")

    walks = [_Walk(cfg, r, gap) for r in range(cfg.restarts)]
    for w, measured in zip(walks, _measure(cfg, gap, [w.point for w in walks])):
        w.measured = measured
    row_us = 16 + (cfg.n0 + cfg.n1) ** 2 / 4
    depth = LOOKAHEAD if cfg.restarts * LOOKAHEAD * row_us <= LOOKAHEAD_US else 1
    active = walks
    while active := [w for w in active if w.queued or w.undrawn]:
        _step(active, depth)
    # max keeps the first of equal maxima, as the sequential loop's strict > did
    best = max(walks, key=lambda w: w.measured)
    s0, _, outer, b = best.point
    return _sharpness_result(cfg, best.measured, _assemble_one(s0, outer, gap, b))


def _sharpness_result(cfg: SharpnessConfig, measured: float, inst: PerturbationInstance) -> dict:
    # the bound report owns the rule, as for a campaign record: the measured
    # rotation passes up to BOUND_SLACK above the bound, whatever their
    # ratio; abs reads a v of -0.0 as the norm 0, whose bound is +0.0
    gap = inst.split.gap_left, inst.split.gap_right
    report = bounds.make_bound_report(measured, cfg.D, cfg.d, abs(cfg.v), *gap)
    return {
        "best_ratio": report.ratio_detailed,
        "measured": measured,
        "bound32": report.bound_detailed,
        "D": cfg.D,
        "d": cfg.d,
        "v": cfg.v,
        "n0": cfg.n0,
        "n1": cfg.n1,
        "restarts": cfg.restarts,
        "iters": cfg.iters,
        "seed": cfg.seed,
        "ok": report.ok_detailed,
        "instance": matio.instance_to_dict(inst),
    }
