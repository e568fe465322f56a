"""spl benchmark: run one workload and print its metrics.

Usage, from the root of a checkout that holds ``src/spl``::

    python3 perfbench/run.py --workload verify_mixed [--seed 1] [--seconds 26] [--trace 0]

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The last stdout line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it name every metric with its unit.  Details of the run (each
rep, report hashes, the environment) go to
``.perfbench_out/<workload>-seed<seed>-trace<t>.json``.

Exit codes: 0 when every correctness gate held, 1 when one failed, 2 when
the directory is not an spl checkout, 3 when the workload did not finish.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from workloads import WORKLOADS

DEFAULT_SEED = 1
DEFAULT_SECONDS = 26
#: Timed set-up probes per run, half before the workload and half after it
#: (after one untimed probe that warms caches).
SETUP_PROBES = 10
#: The whole run must end within this many seconds.
RUN_DEADLINE_S = 170.0
OUT_DIR = ".perfbench_out"
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(BENCH_DIR, "worker.py")

def worker_cmd(args, root: str, tmpdir: str, *extra: str) -> list[str]:
    return [
        sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
        "--root", root, "--tmpdir", tmpdir, *extra,
    ]


def setup_probe(cmd: list[str]) -> tuple[float, float]:
    """Seconds from starting a fresh interpreter until it is ready to run,
    unscaled and scaled to the reference core."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        rest = proc.stdout.read().split()
    finally:
        proc.stdout.close()
        rc = proc.wait(timeout=60)
    if rc != 0 or line.strip() != "ready" or len(rest) != 1:
        raise RuntimeError(f"set-up probe failed with exit code {rc}")
    return elapsed, elapsed * float(rest[0])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="spl benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"workload seed (default {DEFAULT_SEED}); re-check any gain on a second seed")
    p.add_argument("--seconds", type=int, default=DEFAULT_SECONDS, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    start = time.perf_counter()

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not (os.path.isfile(os.path.join(root, "src", "spl", "cli.py")) and os.path.isfile(spec_path)):
        print(f"error: {root} holds no src/spl or no BENCHMARK.json; "
              "run from the root of an spl checkout", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tmpdir = tempfile.mkdtemp(prefix="tmp-", dir=out_dir)
    try:
        setup = []
        probe = worker_cmd(args, root, tmpdir, "--probe")
        if not args.trace:
            setup_probe(probe)
            setup = [setup_probe(probe) for _ in range(SETUP_PROBES // 2)]
        cmd = worker_cmd(
            args, root, tmpdir, "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--hard-cap", str(max(1.0, RUN_DEADLINE_S - 60.0 - (time.perf_counter() - start))),
            "--spans", os.path.join(out_dir, f"spans-{tag}.tsv.gz"),
        )
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, RUN_DEADLINE_S - (time.perf_counter() - start)),
        )
        if not args.trace and proc.returncode == 0:
            setup += [setup_probe(probe) for _ in range(SETUP_PROBES - len(setup))]
    except subprocess.TimeoutExpired:
        print(f"error: workload {args.workload} did not finish in time", file=sys.stderr)
        return 3
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: worker exited with code {proc.returncode}", file=sys.stderr)
        return 3
    result = json.loads(lines[-1])

    problems = list(result["problems"])
    expected_src = os.path.join(root, "src", "spl")
    if os.path.dirname(os.path.abspath(result["spl_file"])) != expected_src:
        problems.append(f"imported spl from {result['spl_file']}, not {expected_src}")

    metrics = dict(result["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(scaled for _, scaled in setup)
    if set(metrics) != set(units):
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    out_metrics = {name: {"value": metrics[name], "unit": units.get(name)} for name in sorted(metrics)}

    correct = not problems and result["failed"] == 0
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "problems": problems,
        "setup_probes_s": setup, "metrics": out_metrics,
        **{k: v for k, v in result.items() if k not in ("metrics", "problems")},
    }
    with open(os.path.join(out_dir, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)

    env = result["environment"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"blas={env['blas'].get('name')} {env['blas'].get('version')} "
          f"thread_env={env['thread_env'] or 'unset'}")
    for problem in problems:
        print(f"# GATE FAILED: {problem}")
    print(f"# failed_frac = {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} instances)")
    if "unscaled" in result:
        print(f"# reference core: {1e3 * result['t_ref_s']:.3f} ms; "
              + ", ".join(f"unscaled {k} = {v:.6g}" for k, v in result["unscaled"].items()))
    for name, m in out_metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": out_metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
