"""Command line interface.

Subcommands: analyze (single-instance deep dive), bounds (point evaluation
of every bound), verify (randomized campaign), sweep (bound landscape to
CSV), sharpness (bound-tightness search).

Exit codes: 0 clean, 2 in-regime bound violation, 3 structural failure
(non-graph subspace, eigensolver breakdown, gap closure), 4 configuration
or input error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import bounds, harness, matio
from .errors import (
    ConfigError,
    ConvergenceFailure,
    DimensionMismatch,
    DispositionViolation,
    DomainViolation,
    EigenFailure,
    InfeasibleParams,
    NonHermitianInput,
    NotAGraph,
    ParseError,
    RankMismatch,
    SingularDenominator,
)

EXIT_OK = 0
EXIT_BOUND_VIOLATION = 2
EXIT_STRUCTURAL = 3
EXIT_CONFIG = 4


def _parse_int_or_range(text: str):
    if ":" in text:
        lo, hi = text.split(":", 1)
        return (int(lo), int(hi))
    return int(text)


def _parse_float_or_range(text: str):
    if ":" in text:
        lo, hi = text.split(":", 1)
        return (float(lo), float(hi))
    return float(text)


def _parse_linspace(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"range must be lo:hi:steps, got {text!r}")
    lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    if steps < 1:
        raise ConfigError(f"steps must be >= 1 in {text!r}")
    return np.linspace(lo, hi, steps)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_analyze(args) -> int:
    gap = None
    if args.gap_left is not None or args.gap_right is not None:
        if args.gap_left is None or args.gap_right is None:
            raise ConfigError("--gap-left and --gap-right must be given together")
        gap = (args.gap_left, args.gap_right)
    inst = harness.instance_from_file(args.infile, gap)
    report = harness.analyze(inst)
    _emit(matio.dumps(report, indent=2), args.out)
    return EXIT_OK


def _cmd_bounds(args) -> int:
    checked = not args.unchecked
    D, d, v = args.D, args.d, args.v
    inputs = bounds.BoundInputs(D=D, d=d, v=v)
    doc = {
        "D": D, "d": d, "v": v,
        "regime12": inputs.regime_gap_survives,
        "regime29": inputs.regime_split,
        "regime31": inputs.regime_detailed,
        "kappa": None, "branch": None,
        "bound13": None, "bound32": None,
        "r_V": None, "encl_lo": None, "encl_hi": None,
    }
    if inputs.regime_gap_survives or not checked:
        doc["bound13"] = bounds.bound_apriori(v, d, checked=checked)
    if inputs.regime_detailed or not checked:
        try:
            kv = bounds.kappa(D, d, v, checked=checked)
            doc["kappa"], doc["branch"] = kv.value, kv.branch
            doc["bound32"] = bounds.sin_half_arctan(kv.value)
        except SingularDenominator:
            if checked:
                raise
    if inputs.regime_split or not checked:
        doc["r_V"] = bounds.r_v(v, d, D, checked=checked)
        lo, hi = bounds.enclosure(-D / 2.0, D / 2.0, d, v, checked=checked)
        doc["encl_lo"], doc["encl_hi"] = lo, hi
    _emit(matio.dumps(doc, indent=2), None)
    return EXIT_OK


def _cmd_verify(args) -> int:
    cfg = harness.CampaignConfig(
        trials=args.trials,
        seed=args.seed,
        n0=_parse_int_or_range(args.n0),
        n1=_parse_int_or_range(args.n1),
        gap=(args.gap_left, args.gap_right),
        d=_parse_float_or_range(args.d),
        outer_radius=args.outer_radius,
        regime=args.regime,
        v_fraction=args.v_frac,
        parallel=args.parallel,
    )
    report = harness.run_campaign(cfg)
    _emit(report.to_json(), args.out)
    agg = report.aggregates
    sys.stderr.write(
        f"verify: {agg['trials']} trials, {agg['violations']['total']} violations, "
        f"{report.runtime_seconds:.2f} s\n"
    )
    return report.exit_code


def _cmd_sweep(args) -> int:
    rows = harness.sweep_rows(
        _parse_linspace(args.D_range), args.d, _parse_linspace(args.v_range)
    )
    _emit(harness.sweep_csv(rows), args.out)
    return EXIT_OK


def _cmd_sharpness(args) -> int:
    cfg = harness.SharpnessConfig(
        n0=args.n0, n1=args.n1, D=args.D, d=args.d, v=args.v,
        restarts=args.restarts, iters=args.iters, seed=args.seed,
    )
    result = harness.sharpness_search(cfg)
    _emit(matio.dumps(result, indent=2), args.out)
    return EXIT_OK if result["ok"] else EXIT_BOUND_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spl",
        description="Verification laboratory for spectral subspace rotation bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="deep analysis of one instance file")
    p.add_argument("--in", dest="infile", required=True, help="Instance JSON or Matrix JSON file")
    p.add_argument("--gap-left", type=float, default=None)
    p.add_argument("--gap-right", type=float, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["json"], default="json")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("bounds", help="evaluate all bounds at one (D, d, v) point")
    p.add_argument("--D", type=float, required=True)
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--v", type=float, required=True)
    p.add_argument("--unchecked", action="store_true",
                   help="evaluate formulas outside their regimes where defined")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("verify", help="randomized verification campaign")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n0", default="1:8", help="inner dimension, fixed or lo:hi")
    p.add_argument("--n1", default="2:8", help="outer dimension, fixed or lo:hi")
    p.add_argument("--gap-left", type=float, default=-1.0)
    p.add_argument("--gap-right", type=float, default=1.0)
    p.add_argument("--d", default="0.1:0.9", help="separation, fixed or lo:hi")
    p.add_argument("--regime", choices=list(harness.REGIMES), default="mixed")
    p.add_argument("--v-frac", type=float, default=0.9)
    p.add_argument("--outer-radius", type=float, default=2.0)
    p.add_argument("--parallel", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep", help="bound landscape over a (D, v) grid to CSV")
    p.add_argument("--D-range", dest="D_range", required=True, help="lo:hi:steps")
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--v-range", dest="v_range", required=True, help="lo:hi:steps")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("sharpness", help="randomized bound-tightness search")
    p.add_argument("--D", type=float, required=True)
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--v", type=float, required=True)
    p.add_argument("--n0", type=int, required=True)
    p.add_argument("--n1", type=int, required=True)
    p.add_argument("--restarts", type=int, default=4)
    p.add_argument("--iters", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sharpness)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ParseError, InfeasibleParams, DispositionViolation,
            DomainViolation, SingularDenominator, NonHermitianInput, DimensionMismatch,
            ValueError) as exc:
        _print_error(exc)
        return EXIT_CONFIG
    except (NotAGraph, RankMismatch, EigenFailure, ConvergenceFailure) as exc:
        _print_error(exc)
        return EXIT_STRUCTURAL


def _print_error(exc: Exception) -> None:
    doc = {"error": type(exc).__name__, "detail": str(exc)}
    sys.stderr.write(matio.dumps(doc, indent=2))


if __name__ == "__main__":
    sys.exit(main())
