"""Command line interface.

Subcommands: analyze (single-instance deep dive), bounds (point evaluation
of every bound), verify (randomized campaign), sweep (bound landscape to
CSV), sharpness (bound-tightness search).

Exit codes: 0 clean, 2 in-regime bound violation, 3 structural failure
(``errors.StructuralFailure``: non-graph subspace, eigensolver breakdown,
gap closure), 4 any other configuration, input or usage error.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys

import numpy as np

from . import bounds, harness, matio
from .errors import ConfigError, SingularDenominator, SplError, StructuralFailure

EXIT_OK = 0
EXIT_BOUND_VIOLATION = 2
EXIT_STRUCTURAL = 3
EXIT_CONFIG = 4

#: Option values argparse must not mistake for options: negative numbers,
#: also in scientific notation, and -inf/-nan, which then meet the same
#: checks as inf and nan.
_NEGATIVE_NUMBER = re.compile(
    r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE
)


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors exit with EXIT_CONFIG: argparse's
    own code 2 would read as a bound violation.  Subparsers inherit it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _parse_range(text: str, kind):
    """A ``kind`` value, or a (lo, hi) tuple of them for ``lo:hi``."""
    if ":" in text:
        lo, hi = text.split(":", 1)
        return (kind(lo), kind(hi))
    return kind(text)


def _parse_linspace(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"range must be lo:hi:steps, got {text!r}")
    lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"range ends must be finite in {text!r}")
    if steps < 1:
        raise ConfigError(f"steps must be >= 1 in {text!r}")
    return np.linspace(lo, hi, steps)


def _check_out_dir(out: str | None) -> None:
    """Refuse an --out that is a directory or whose directory does not
    exist, before any work."""
    if not out:
        return
    if os.path.isdir(out):
        raise ConfigError(f"cannot write {out}: it is a directory")
    if not os.path.isdir(os.path.dirname(out) or "."):
        raise ConfigError(f"cannot write {out}: its directory does not exist")


def _emit(text: str, out: str | None) -> None:
    try:
        if out:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        raise ConfigError(f"cannot write {out or 'stdout'}: {exc}") from exc


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
    D, d, v = args.D, args.d, args.v
    row = harness.bound_row(D, d, v)
    if args.unchecked:
        # out of regime, evaluate the formulas on the validated (D, d, v) where defined
        if row["bound13"] is None:
            row["bound13"] = bounds.sin_arctan(v / d)
        if row["kappa"] is None:
            try:
                kv = bounds._kappa(D, d, v)
                row.update(kappa=kv.value, branch=kv.branch,
                           bound32=bounds.sin_half_arctan(kv.value))
            except SingularDenominator:
                pass
        if row["r_V"] is None:
            row["r_V"] = bounds._r_v(v, d, D, False)
            row["encl_lo"], row["encl_hi"] = bounds._erode(-D / 2.0, D / 2.0, d, row["r_V"])
    _emit(matio.dumps(row, indent=2), None)
    return EXIT_OK


def _cmd_verify(args) -> int:
    cfg = harness.CampaignConfig(
        trials=args.trials,
        seed=args.seed,
        n0=_parse_range(args.n0, int),
        n1=_parse_range(args.n1, int),
        gap=(args.gap_left, args.gap_right),
        d=_parse_range(args.d, float),
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
    parser = _Parser(
        prog="spl",
        description="Verification laboratory for spectral subspace rotation bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="deep analysis of one instance file")
    p.add_argument("--in", dest="infile", required=True, help="Instance JSON or Matrix JSON file")
    p.add_argument("--gap-left", type=float, default=None)
    p.add_argument("--gap-right", type=float, default=None)
    p.add_argument("--out", default=None)
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
    p.add_argument("--outer-radius", type=float, default=harness.OUTER_RADIUS)
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
        _check_out_dir(getattr(args, "out", None))
        return args.func(args)
    except StructuralFailure as exc:
        _print_error(exc)
        return EXIT_STRUCTURAL
    except (SplError, ValueError) as exc:
        _print_error(exc)
        return EXIT_CONFIG


def _print_error(exc: Exception) -> None:
    doc = {"error": type(exc).__name__, "detail": str(exc)}
    sys.stderr.write(matio.dumps(doc, indent=2))


if __name__ == "__main__":
    sys.exit(main())
