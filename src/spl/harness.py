"""Campaign engine: randomized verification, deep analysis, sweeps, search.

Per-trial randomness is derived from the master seed and the trial index
through ``numpy.random.SeedSequence(master, spawn_key=(index,))``: a pure
integer mixing scheme, collision-free over the trial range and platform
independent, so every record is reproducible from (master seed, index) and
the campaign output does not depend on how trials are distributed across
workers.  Wall-clock time is intentionally kept out of the serialised
reports so that reruns compare byte-identical.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import bounds, matio, riccati
from .disposition import (
    InstanceParams,
    PerturbationInstance,
    assemble_instance,
    random_instance,
    validate_disposition,
)
from .errors import ConfigError, DomainViolation, InfeasibleParams
from .linalg import op_norm, subspace_angle

SQRT2 = math.sqrt(2.0)

REGIMES = ("A", "B", "C", "mixed")

#: Violation tags of failed bound and identity checks; structural failures
#: are tagged "structural:<error>" instead.
VIOLATION_KINDS = ("bound13", "bound32", "enclosure", "mu", "graph", "riccati", "lemma")

#: Key order of campaign records.
RECORD_KEYS = (
    "trial", "n0", "n1", "D", "d", "v", "regime12", "regime29", "regime31",
    "gap_closed", "measured", "mu", "cond_Y0", "riccati_residual", "riccati_limit",
    "lemma26_max", "lemma27_max", "lemma_limit", "lemma_term_imag_max",
    "graph_angle_residual", "graph1_residual", "spec0_residual", "spec1_residual",
    "lambda0_herm_residual", "lambda0_spec_residual", "kappa", "kappa_branch",
    "bound13", "bound32", "ratio13", "ratio32", "r_V", "encl_lo", "encl_hi",
    "enclosure_ok", "violations", "error",
)

#: Column order of sweep CSV files.
SWEEP_COLUMNS = (
    "D", "d", "v", "regime12", "regime29", "regime31",
    "kappa", "branch", "bound13", "bound32", "r_V", "encl_lo", "encl_hi",
)


@dataclass(frozen=True)
class Tolerances:
    """Per-check tolerances used by campaigns.

    The residual scales multiply (|A| + |V|)^2, the natural quadratic scale
    of the identity checks; the remaining entries are absolute.
    """

    bound_slack: float = 1e-9
    enclosure_slack: float = 1e-9
    graph: float = 1e-8
    riccati_scale: float = 1e-8   # times (|A| + |V|)^2
    lemma_scale: float = 1e-9     # times (|A| + |V|)^2

    def to_dict(self) -> dict:
        return {
            "bound_slack": self.bound_slack,
            "enclosure_slack": self.enclosure_slack,
            "graph": self.graph,
            "riccati_scale": self.riccati_scale,
            "lemma_scale": self.lemma_scale,
        }


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
    never enters serialised output.
    """

    trials: int
    seed: int
    n0: int | tuple[int, int] = (1, 8)
    n1: int | tuple[int, int] = (2, 8)
    gap: tuple[float, float] = (-1.0, 1.0)
    d: float | tuple[float, float] = (0.1, 0.9)
    outer_radius: float = 2.0
    regime: str = "mixed"
    v_fraction: float = 0.9
    tolerances: Tolerances = field(default_factory=Tolerances)
    parallel: int = 0

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "seed": self.seed,
            "n0": _range_doc(self.n0),
            "n1": _range_doc(self.n1),
            "gap": [float(self.gap[0]), float(self.gap[1])],
            "d": _range_doc(self.d),
            "outer_radius": float(self.outer_radius),
            "regime": self.regime,
            "v_fraction": float(self.v_fraction),
            "tolerances": self.tolerances.to_dict(),
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

    def to_json(self, indent: int = 0) -> str:
        return matio.dumps(self.to_dict(), indent=indent)

    @property
    def exit_code(self) -> int:
        if any(self.aggregates["violations"][k] for k in VIOLATION_KINDS):
            return 2
        if self.aggregates["violations"]["structural"]:
            return 3
        return 0


def _range_doc(x):
    if isinstance(x, tuple):
        return [x[0], x[1]]
    return x


def _as_int_range(x) -> tuple[int, int]:
    if isinstance(x, tuple):
        return int(x[0]), int(x[1])
    return int(x), int(x)


def _as_float_range(x) -> tuple[float, float]:
    if isinstance(x, tuple):
        return float(x[0]), float(x[1])
    return float(x), float(x)


def validate_config(cfg: CampaignConfig) -> None:
    if cfg.trials < 1:
        raise ConfigError(f"trials must be >= 1, got {cfg.trials}")
    if not 0.0 <= cfg.v_fraction < 1.0:
        # exactly 0 is allowed and forces trivial (unperturbed) instances
        raise ConfigError(f"v_fraction must lie in [0, 1), got {cfg.v_fraction}")
    if cfg.regime not in REGIMES:
        raise ConfigError(f"regime must be one of {REGIMES}, got {cfg.regime!r}")
    gl, gr = cfg.gap
    if not gl < gr:
        raise ConfigError(f"gap ({gl}, {gr}) is empty")
    width = gr - gl
    n0_lo, n0_hi = _as_int_range(cfg.n0)
    n1_lo, n1_hi = _as_int_range(cfg.n1)
    if n0_lo < 1 or n0_hi < n0_lo:
        raise ConfigError(f"bad inner dimension range {cfg.n0}")
    if n1_lo < 2 or n1_hi < n1_lo:
        raise ConfigError(f"bad outer dimension range {cfg.n1} (need n1 >= 2)")
    d_lo, d_hi = _as_float_range(cfg.d)
    if not 0.0 < d_lo <= d_hi <= width / 2.0:
        raise ConfigError(f"separation range {cfg.d} must lie in (0, {width / 2.0}]")
    if cfg.outer_radius < 0.0:
        raise ConfigError(f"outer_radius must be nonnegative, got {cfg.outer_radius}")
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
    if regime == "B":
        return math.sqrt(d * (width - d))
    if regime == "C":
        return SQRT2 * d
    raise ConfigError(f"no upper limit for regime {regime!r}")


def trial_instance(cfg: CampaignConfig, index: int) -> tuple[PerturbationInstance, dict]:
    """Deterministically regenerate the instance of one campaign trial."""
    ss = np.random.SeedSequence(cfg.seed, spawn_key=(int(index),))
    rng = np.random.default_rng(ss)
    gl, gr = float(cfg.gap[0]), float(cfg.gap[1])
    width = gr - gl
    n0_lo, n0_hi = _as_int_range(cfg.n0)
    n1_lo, n1_hi = _as_int_range(cfg.n1)
    d_lo, d_hi = _as_float_range(cfg.d)
    n0 = int(rng.integers(n0_lo, n0_hi + 1))
    n1 = int(rng.integers(n1_lo, n1_hi + 1))
    d = float(rng.uniform(d_lo, d_hi)) if d_hi > d_lo else d_lo
    pin_side = "left" if int(rng.integers(0, 2)) == 0 else "right"
    regime = cfg.regime
    if regime == "mixed":
        regime = "A" if int(rng.integers(0, 2)) == 0 else "B"
    v = cfg.v_fraction * _regime_upper_limit(regime, d, width)
    params = InstanceParams(
        n0=n0, n1=n1, gap_left=gl, gap_right=gr,
        d=d, outer_radius=cfg.outer_radius, v=v, pin_side=pin_side,
    )
    inst = random_instance(params, rng)
    draw = {"n0": n0, "n1": n1, "d": d, "v": v, "pin_side": pin_side, "regime_target": regime}
    return inst, draw


def trial_record_for_instance(
    inst: PerturbationInstance,
    tol: Tolerances | None = None,
    trial: int | None = None,
) -> dict:
    """Run the full verification pipeline on one instance.

    Returns a flat record of every measured quantity, every applicable
    bound with its satisfied/violated status, and a list of violation tags
    (empty on a clean trial).  Structural failures (gap closure inside the
    split regime, non-graph subspaces, eigensolver breakdown) are reported
    in the ``error`` field instead of raising.
    """
    return _record(inst, riccati.solve_instance(inst), tol or Tolerances(), trial)


def _record(inst: PerturbationInstance, res: riccati.InstanceSolution, tol: Tolerances,
            trial) -> dict:
    """Flat campaign record of a pipeline result."""
    rec = dict.fromkeys(RECORD_KEYS)
    split = inst.split
    D, d, v = split.gap_len, split.d, inst.v
    inputs = bounds.BoundInputs(D=D, d=d, v=v)
    rec.update(
        trial=trial, n0=inst.n0, n1=inst.n1, D=D, d=d, v=v,
        regime12=inputs.regime_gap_survives,
        regime29=inputs.regime_split,
        regime31=inputs.regime_detailed,
        violations=[],
    )
    ps, sol, graph, idents = res
    if ps is not None:
        rec["gap_closed"] = ps.gap_closed
        if ps.enclosure is not None:
            rec["encl_lo"], rec["encl_hi"] = ps.enclosure
            if ps.omega0.size:
                rec["enclosure_ok"] = bool(
                    float(ps.omega0.min()) >= ps.enclosure[0] - tol.enclosure_slack
                    and float(ps.omega0.max()) <= ps.enclosure[1] + tol.enclosure_slack
                )
            else:
                rec["enclosure_ok"] = False
        if ps.gap_closed:
            rec["error"] = "GapClosed"
            if inputs.regime_split:
                rec["violations"] = ["structural:GapClosed"]
            return rec
    if res.failure is not None:
        rec["error"] = type(res.failure).__name__
        rec["violations"] = [f"structural:{rec['error']}"]
        return rec

    measured = graph.measured
    report = bounds.make_bound_report(
        measured, D, d, v, split.gap_left, split.gap_right, slack=tol.bound_slack
    )
    rec.update(
        measured=measured,
        mu=sol.mu,
        cond_Y0=sol.cond_Y0,
        riccati_residual=sol.riccati_residual,
        riccati_limit=tol.riccati_scale * inst.scale,
        lemma26_max=max((r.res26 for r in idents), default=0.0),
        lemma27_max=max((r.res27 for r in idents), default=0.0),
        lemma_limit=tol.lemma_scale * inst.scale,
        lemma_term_imag_max=max((r.term_imag for r in idents), default=0.0),
        graph_angle_residual=graph.angle_residual,
        graph1_residual=graph.graph1_residual,
        spec0_residual=graph.spec0_residual,
        spec1_residual=graph.spec1_residual,
        lambda0_herm_residual=graph.lambda0_herm_residual,
        lambda0_spec_residual=graph.lambda0_spec_residual,
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
    if inputs.regime_detailed and not sol.mu < 1.0:
        violations.append("mu")
    if (
        graph.angle_residual > tol.graph
        or graph.graph1_residual > tol.graph
        or graph.spec0_residual > tol.graph
        or graph.spec1_residual > tol.graph
        or graph.lambda0_herm_residual > tol.graph
        or graph.lambda0_spec_residual > tol.graph
    ):
        violations.append("graph")
    if sol.riccati_residual > rec["riccati_limit"]:
        violations.append("riccati")
    if rec["lemma26_max"] > rec["lemma_limit"] or rec["lemma27_max"] > rec["lemma_limit"]:
        violations.append("lemma")
    rec["violations"] = violations
    return rec


def _trial_batch(cfg: CampaignConfig, indices: list[int]) -> list[dict]:
    out = []
    for i in indices:
        inst, _ = trial_instance(cfg, i)
        out.append(trial_record_for_instance(inst, cfg.tolerances, trial=i))
    return out


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
        vals = [r[key] for r in records if r[key] is not None and (flag is None or r[flag])]
        return max(vals) if vals else None

    mu31 = [r["mu"] for r in records if r["mu"] is not None and r["regime31"]]
    meas31 = [r["measured"] for r in records if r["measured"] is not None and r["regime31"]]
    return {
        "trials": len(records),
        "failures": sum(1 for r in records if r["error"] is not None),
        "violations": counts,
        "max_ratio13": vmax("ratio13"),
        "max_ratio32": vmax("ratio32"),
        "max_riccati_residual": vmax("riccati_residual"),
        "max_lemma26": vmax("lemma26_max"),
        "max_lemma27": vmax("lemma27_max"),
        "max_graph_angle_residual": vmax("graph_angle_residual"),
        "max_graph1_residual": vmax("graph1_residual"),
        "max_spec0_residual": vmax("spec0_residual"),
        "max_spec1_residual": vmax("spec1_residual"),
        "max_lambda0_herm_residual": vmax("lambda0_herm_residual"),
        "max_cond_Y0": vmax("cond_Y0"),
        "max_mu_regime31": max(mu31) if mu31 else None,
        "max_measured_regime31": max(meas31) if meas31 else None,
    }


def run_campaign(cfg: CampaignConfig) -> CampaignReport:
    """Execute a verification campaign.

    Trials are independent; with ``parallel`` >= 2 they are distributed over
    worker processes in deterministic contiguous chunks, and the assembled
    report is identical to a serial run of the same config and seed.
    """
    validate_config(cfg)
    t0 = time.perf_counter()
    indices = list(range(cfg.trials))
    if cfg.parallel >= 2 and cfg.trials > 1:
        workers = min(cfg.parallel, cfg.trials)
        chunk = max(1, math.ceil(cfg.trials / (workers * 4)))
        batches = [indices[i:i + chunk] for i in range(0, cfg.trials, chunk)]
        records: list[dict] = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for batch in pool.map(_trial_batch, [cfg] * len(batches), batches):
                records.extend(batch)
    else:
        records = _trial_batch(cfg, indices)
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


def analyze(inst: PerturbationInstance, tol: Tolerances | None = None) -> dict:
    """Full single-instance report aggregating every module's output.

    Raises the pipeline's NotAGraph / RankMismatch / EigenFailure so callers
    can map them to structured errors; campaign-style flat fields are nested
    under "record", a second view of the same pipeline result.
    """
    res = riccati.solve_instance(inst)
    if res.failure is not None:
        raise res.failure
    ps, sol, graph, idents = res
    split = inst.split
    return {
        "instance": {
            "n0": inst.n0,
            "n1": inst.n1,
            "gap": [split.gap_left, split.gap_right],
            "D": split.gap_len,
            "d": split.d,
            "v": inst.v,
            "trivial": inst.trivial,
            "sigma0": [float(x) for x in split.sigma0],
            "sigma1": [float(x) for x in split.sigma1],
        },
        "perturbed": {
            "omega0": [float(x) for x in ps.omega0],
            "omega1": [float(x) for x in ps.omega1],
            "gap_closed": ps.gap_closed,
            "enclosure": list(ps.enclosure) if ps.enclosure is not None else None,
        },
        "angular": {
            "mu": sol.mu,
            "cond_Y0": sol.cond_Y0,
            "riccati_residual": sol.riccati_residual,
            "lambda0_spectrum": [float(x) for x in graph.lambda0_spectrum],
            "lambda0_herm_residual": graph.lambda0_herm_residual,
            "X": matio.matrix_to_dict(sol.X),
        },
        "identities": [
            {
                "lambda": r.lam,
                "res26": r.res26,
                "res27": r.res27,
                "term_imag": r.term_imag,
                "top": r.top,
            }
            for r in idents
        ],
        "graph": {
            "measured": graph.measured,
            "angle_residual": graph.angle_residual,
            "graph1_residual": graph.graph1_residual,
            "spec0_residual": graph.spec0_residual,
            "spec1_residual": graph.spec1_residual,
        },
        "record": _record(inst, res, tol or Tolerances(), None),
    }


# --- bound sweeps --------------------------------------------------------------


def sweep_rows(D_values, d: float, v_values) -> list[dict]:
    """Bound landscape over a (D, v) grid at fixed separation d.

    Rows come out in lexicographic (D, v) order.  Out-of-regime fields are
    None; a (D, v) pair violating the basic geometry yields a row with all
    regime flags false and every bound field None.
    """
    rows = []
    for D in D_values:
        for v in v_values:
            row = dict.fromkeys(SWEEP_COLUMNS)
            row["D"], row["d"], row["v"] = float(D), float(d), float(v)
            try:
                inputs = bounds.BoundInputs(D=float(D), d=float(d), v=float(v))
            except DomainViolation:
                row["regime12"] = row["regime29"] = row["regime31"] = False
                rows.append(row)
                continue
            row["regime12"] = inputs.regime_gap_survives
            row["regime29"] = inputs.regime_split
            row["regime31"] = inputs.regime_detailed
            if inputs.regime_gap_survives:
                row["bound13"] = bounds.bound_apriori(v, d)
            if inputs.regime_detailed:
                kv = bounds.kappa(D, d, v)
                row["kappa"] = kv.value
                row["branch"] = kv.branch
                row["bound32"] = bounds.sin_half_arctan(kv.value)
            if inputs.regime_split:
                row["r_V"] = bounds.r_v(v, d, D)
                lo, hi = bounds.enclosure(-D / 2.0, D / 2.0, d, v)
                row["encl_lo"], row["encl_hi"] = lo, hi
            rows.append(row)
    return rows


def sweep_csv(rows: list[dict]) -> str:
    """Render sweep rows as CSV with .17g floats and lowercase booleans."""
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
                cells.append(matio.format_float(float(val)))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# --- sharpness search -----------------------------------------------------------


@dataclass(frozen=True)
class SharpnessConfig:
    """Configuration of the randomized bound-tightness search."""

    n0: int
    n1: int
    D: float
    d: float
    v: float
    restarts: int = 4
    iters: int = 200
    seed: int = 0
    outer_radius: float = 2.0


def _measured_for(s0, s1, gap, b) -> tuple[float, PerturbationInstance]:
    inst = assemble_instance(s0, s1, gap, b)
    ps = riccati.perturbed_split(inst)
    return subspace_angle(inst.split.E0, ps.EL0).norm_diff, inst


def sharpness_search(cfg: SharpnessConfig) -> dict:
    """Randomized multi-start search for the worst measured/bound ratio.

    Keeps the geometry (D, d, v) fixed, varies the inner/outer eigenvalue
    placements within the disposition (one inner value stays pinned at
    distance d) and the direction of the coupling block on the norm-v
    sphere.  Accept-if-improved coordinate perturbations with a decaying
    step; deterministic for a fixed seed.  The returned ratio can approach
    but never exceed 1 (up to the bound slack).
    """
    if cfg.n0 < 1 or cfg.n1 < 2:
        raise InfeasibleParams(f"need n0 >= 1 and n1 >= 2, got {cfg.n0}, {cfg.n1}")
    if cfg.restarts < 1 or cfg.iters < 0:
        raise InfeasibleParams("need restarts >= 1 and iters >= 0")
    bounds.check_geometry(cfg.D, cfg.d)
    gap = (-cfg.D / 2.0, cfg.D / 2.0)
    if cfg.v == 0.0:
        _, inst = _measured_for(
            [gap[0] + cfg.d] * cfg.n0,
            [gap[0], gap[1]] + [gap[1]] * (cfg.n1 - 2),
            gap,
            np.zeros((cfg.n0, cfg.n1)),
        )
        return _sharpness_result(cfg, 0.0, 0.0, 0.0, inst)
    if not 0.0 < cfg.v < math.sqrt(cfg.d * (cfg.D - cfg.d)):
        raise InfeasibleParams(
            f"search requires 0 <= v < sqrt(d*(D-d)) = {math.sqrt(cfg.d * (cfg.D - cfg.d))}"
        )
    b32 = bounds.bound_detailed(cfg.D, cfg.d, cfg.v)
    lo, hi = gap[0] + cfg.d, gap[1] - cfg.d
    best_measured = -1.0
    best_inst = None

    for r in range(cfg.restarts):
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(r,)))
        pin = lo if r % 2 == 0 else hi
        s0 = rng.uniform(lo, hi, cfg.n0) if hi > lo else np.full(cfg.n0, lo)
        s0[0] = pin
        offs = rng.uniform(0.0, cfg.outer_radius, cfg.n1 - 2)
        sides = rng.integers(0, 2, cfg.n1 - 2)
        bdir = rng.standard_normal((cfg.n0, cfg.n1)) + 1j * rng.standard_normal((cfg.n0, cfg.n1))
        b = bdir * (cfg.v / op_norm(bdir))

        def outer_values(offs_, sides_):
            return [gap[0], gap[1]] + [
                gap[0] - o if s == 0 else gap[1] + o for o, s in zip(offs_, sides_)
            ]

        measured, inst = _measured_for(s0, outer_values(offs, sides), gap, b)
        if measured > best_measured:
            best_measured, best_inst = measured, inst
        step = 0.3
        for _ in range(cfg.iters):
            group = int(rng.integers(0, 3))
            s0_new, offs_new, b_new = s0, offs, b
            if group == 0 and hi > lo:
                s0_new = np.clip(s0 + rng.standard_normal(cfg.n0) * step * (hi - lo), lo, hi)
                s0_new[0] = pin
            elif group == 1 and cfg.n1 > 2:
                offs_new = np.clip(
                    offs + rng.standard_normal(cfg.n1 - 2) * step * max(cfg.outer_radius, 1e-3),
                    0.0, cfg.outer_radius,
                )
            else:
                bdir_new = b + step * cfg.v * (
                    rng.standard_normal(b.shape) + 1j * rng.standard_normal(b.shape)
                )
                nrm = op_norm(bdir_new)
                if nrm == 0.0:
                    continue
                b_new = bdir_new * (cfg.v / nrm)
            cand, inst_cand = _measured_for(s0_new, outer_values(offs_new, sides), gap, b_new)
            if cand > measured:
                measured, s0, offs, b = cand, s0_new, offs_new, b_new
                if cand > best_measured:
                    best_measured, best_inst = cand, inst_cand
            else:
                step = max(step * 0.95, 1e-4)
    ratio = best_measured / b32 if b32 > 0.0 else 0.0
    return _sharpness_result(cfg, ratio, best_measured, b32, best_inst)


def _sharpness_result(cfg, ratio, measured, bound32, inst) -> dict:
    return {
        "best_ratio": ratio,
        "measured": measured,
        "bound32": bound32,
        "D": cfg.D,
        "d": cfg.d,
        "v": cfg.v,
        "n0": cfg.n0,
        "n1": cfg.n1,
        "restarts": cfg.restarts,
        "iters": cfg.iters,
        "seed": cfg.seed,
        "ok": bool(ratio <= 1.0 + 1e-9),
        "instance": matio.instance_to_dict(inst),
    }
