"""One fresh interpreter that runs a workload through ``spl.cli.main``.

Modes:

* ``--probe``: import spl, parse the workload's arguments with the ``spl``
  parser, print ``ready``, then print the reference-core scale factor
  and exit.  The runner times this from process start to the ``ready``
  line: that is the set-up every ``spl`` call pays.
* ``--trace 0``: warm up with one untimed rep, then time reps until
  ``--seconds`` have passed (at least ``MIN_ROUNDS`` rounds).  A round
  runs each of the workload's seed slots once.  Every slot is timed many
  times; the run reports the instances of one round over the sum of each
  slot's fastest rep, the same for CPU time, and the peak RSS.
* ``--trace 1``: alternate an untraced rep and a traced rep of the same
  seed slot until ``--seconds`` have passed.  Count metrics come
  from the first ``COUNT_REPS`` traced reps only, so they repeat exactly
  for a given seed; time metrics come from every traced rep.

Every rep passes the correctness gate.  The last stdout line is one JSON
object for the runner.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time

from workloads import WORKLOADS, program_seed

MIN_ROUNDS = 2
#: Nominal ``reference_loop()`` time: wall and CPU times are reported in
#: seconds of a core that runs the reference loop in this time.
REFERENCE_S = 0.005
REF_EVERY_S = 0.2
COUNT_REPS = 2
WARMUP_REP = 999


def _rusage():
    return resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)


def _cpu(ru) -> float:
    return ru.ru_utime + ru.ru_stime


class Runner:
    """Runs reps of one workload and gates each report."""

    def __init__(self, workload, seed: int, tmpdir: str, spl_cli) -> None:
        self.w = workload
        self.seed = seed
        self.tmpdir = tmpdir
        self.cli = spl_cli
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def rep(self, slot: int, parallel: int | None = None) -> dict:
        """One ``spl`` call on the inputs of seed slot ``slot``."""
        out = os.path.join(self.tmpdir, "report.json")
        argv = self.w.argv(program_seed(self.seed, slot), out, parallel)
        err = io.StringIO()
        self0, child0 = _rusage()
        t0 = time.perf_counter()
        with contextlib.redirect_stderr(err):
            rc = self.cli.main(argv)
        t1 = time.perf_counter()
        self1, child1 = _rusage()
        data = b""
        if os.path.exists(out):
            with open(out, "rb") as fh:
                data = fh.read()
            os.remove(out)
        failed = self._gate(slot, rc, data, err.getvalue())
        n = self.w.instances_per_rep
        self.attempted += n
        self.failed += failed
        return {
            "slot": slot,
            "program_seed": program_seed(self.seed, slot),
            "instances": n,
            "wall_s": t1 - t0,
            "cpu_self_s": _cpu(self1) - _cpu(self0),
            "cpu_children_s": _cpu(child1) - _cpu(child0),
            "ctx_switches": sum(
                (b.ru_nvcsw + b.ru_nivcsw) - (a.ru_nvcsw + a.ru_nivcsw)
                for a, b in ((self0, self1), (child0, child1))
            ),
            "report_bytes": len(data),
            "sha256": hashlib.sha256(data).hexdigest(),
            "failed": failed,
        }

    def _gate(self, k: int, rc: int, data: bytes, stderr: str) -> int:
        """Check exit code and report; return the failed instance count."""
        n = self.w.instances_per_rep
        where = f"{self.w.name} seed slot {k}"
        if rc != 0 or not data:
            self.problems.append(f"{where}: exit code {rc}, {len(data)} report bytes: {stderr[-500:]}")
            return n
        doc = json.loads(data)
        if self.w.command == "sharpness":
            if doc.get("ok") is not True:
                self.problems.append(f"{where}: sharpness ok is {doc.get('ok')!r}")
                return n
            return 0
        agg = doc["aggregates"]
        if agg["violations"]["total"] != 0 or agg["failures"] != 0:
            self.problems.append(
                f"{where}: {agg['violations']['total']} violations, {agg['failures']} failures"
            )
        if len(doc["records"]) != n:
            self.problems.append(f"{where}: {len(doc['records'])} records, expected {n}")
        return sum(1 for r in doc["records"] if r["error"] is not None or r["violations"])


def environment() -> dict:
    """What a result depends on besides the code: machine, versions, BLAS."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu_model = ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas},
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def reference_matrices() -> list:
    """The fixed symmetric matrices ``reference_loop`` decomposes."""
    import numpy as np

    rng = np.random.default_rng(12345)
    return [(lambda a: a + a.T)(rng.standard_normal((n, n))) for n in (3, 5, 8, 12, 20)]


def reference_loop(matrices: list) -> float:
    """Seconds one fixed piece of benchmark-owned work takes right now.

    Half of it is interpreter work, half small ``numpy.linalg`` calls, the
    mix that ``spl`` runs.  It never calls ``spl``, so no change to the
    program changes its cost; only the speed of the core does.
    """
    import numpy as np

    t0 = time.perf_counter()
    acc, seen = 0.0, {}
    for i in range(18000):
        x = i * 0.5
        acc += x * x - acc * 1e-9
        seen[i & 63] = x
    for _ in range(12):
        for m in matrices:
            w, v = np.linalg.eigh(m)
            acc += float(np.linalg.svd(m, compute_uv=False)[0] + (v @ m).sum() + w[0])
    return time.perf_counter() - t0


def best_per_slot(reps: list[dict], key) -> float:
    """Sum over seed slots of the smallest ``key`` among that slot's reps.

    Other tenants of a shared host only ever add time to a rep, and for
    seconds at a time, so a slot's fastest rep is the one closest to what
    its inputs cost on an idle core.
    """
    best: dict[int, float] = {}
    for r in reps:
        best[r["slot"]] = min(best.get(r["slot"], float("inf")), key(r))
    return sum(best.values())


def measure(runner: Runner, seconds: float, hard_cap: float) -> dict:
    w = runner.w
    runner.rep(WARMUP_REP)
    reference = None
    if w.parallel:
        # Byte-determinism guard: the parallel report must equal the serial one.
        reference = runner.rep(0, parallel=0)
    reps = []
    matrices, cpus = reference_matrices(), sorted(os.sched_getaffinity(0))
    ref: dict[int, list[float]] = {cpu: [] for cpu in cpus}

    def sample_reference() -> None:
        # The main thread visits each CPU for one reference loop, then gets
        # its full mask back before the next rep starts.
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            ref[cpu].append(reference_loop(matrices))
        os.sched_setaffinity(0, cpus)

    begin = time.perf_counter()
    while len(reps) < MIN_ROUNDS * w.slots or time.perf_counter() - begin < seconds:
        # About one reference sample per REF_EVERY_S of rep time, so that
        # long reps do not leave the reference sparsely sampled.
        last = reps[-1]["wall_s"] if reps else 0.0
        for _ in range(max(1, round(last / REF_EVERY_S))):
            sample_reference()
        reps.append(runner.rep(len(reps) % w.slots))
        if time.perf_counter() - begin > hard_cap:
            break
    sample_reference()
    if reference is not None and reps[0]["sha256"] != reference["sha256"]:
        runner.problems.append(
            f"parallel report {reps[0]['sha256']} differs from serial {reference['sha256']}"
        )
    self_ru, child_ru = _rusage()
    instances = w.slots * w.instances_per_rep
    wall = best_per_slot(reps, lambda r: r["wall_s"])
    cpu = best_per_slot(reps, lambda r: r["cpu_self_s"] + r["cpu_children_s"])
    # A CPU's 10th-percentile reference time is how fast it was at its best
    # during this run; the reference core is the mean over CPUs.
    t_ref = statistics.fmean(sorted(t)[len(t) // 10] for t in ref.values())
    scale = REFERENCE_S / t_ref
    metrics = {
        "instances_per_s": instances / (wall * scale),
        "cpu_ms_per_instance": 1e3 * cpu * scale / instances,
        "peak_rss_mb": max(self_ru.ru_maxrss, child_ru.ru_maxrss) / 1024.0,
    }
    raw = {"instances_per_s": instances / wall, "cpu_ms_per_instance": 1e3 * cpu / instances}
    return {"metrics": metrics, "unscaled": raw, "reference_s": ref, "t_ref_s": t_ref, "reps": reps,
            "serial_reference": reference}


def measure_traced(runner: Runner, seconds: float, hard_cap: float, spans_path: str) -> dict:
    from tracer import LAPACK_PREFIX, SPL_TARGETS, Tracer

    tracer = Tracer()
    runner.rep(WARMUP_REP)
    plain, traced = [], []
    count_spans = None
    begin = time.perf_counter()
    while len(traced) < COUNT_REPS or time.perf_counter() - begin < seconds:
        k = len(traced) % runner.w.slots
        plain.append(runner.rep(k))
        tracer.install()
        try:
            traced.append(runner.rep(k))
        finally:
            tracer.uninstall()
        if len(traced) == COUNT_REPS:
            count_spans = tracer.span_count
        if time.perf_counter() - begin > hard_cap:
            break

    counted = tracer.summary(upto=count_spans)
    timed = tracer.summary()
    n_counted = sum(r["instances"] for r in traced[:COUNT_REPS])
    n_timed = sum(r["instances"] for r in traced)
    n_plain = sum(r["instances"] for r in plain)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0.0}
    metrics = {}
    for layer, attrs in SPL_TARGETS.items():
        for attr in attrs:
            name = f"{layer}.{attr}"
            c, t = counted.get(name, empty), timed.get(name, empty)
            metrics[f"{name}.calls_per_instance"] = c["calls"] / n_counted
            metrics[f"{name}.self_us_per_instance"] = 1e6 * t["self_s"] / n_timed
            metrics[f"{name}.total_us_per_instance"] = 1e6 * t["total_s"] / n_timed
    lapack_c = [v for k, v in counted.items() if k.startswith(LAPACK_PREFIX)]
    lapack_t = [v for k, v in timed.items() if k.startswith(LAPACK_PREFIX)]
    metrics["linalg.lapack_calls_per_instance"] = sum(v["calls"] for v in lapack_c) / n_counted
    metrics["linalg.lapack_us_per_instance"] = 1e6 * sum(v["total_s"] for v in lapack_t) / n_timed
    metrics["linalg.n3_per_instance"] = sum(v["work"] for v in lapack_c) / n_counted
    metrics["matio.report_bytes_per_instance"] = (
        sum(r["report_bytes"] for r in traced[:COUNT_REPS]) / n_counted
    )
    metrics["harness.child_cpu_ms_per_instance"] = (
        1e3 * sum(r["cpu_children_s"] for r in plain) / n_plain
    )
    metrics["harness.ctx_switches_per_instance"] = sum(r["ctx_switches"] for r in plain) / n_plain
    metrics["tracer.traced_over_untraced"] = statistics.median(
        p["wall_s"] / t["wall_s"] for p, t in zip(plain, traced)
    )
    tracer.write(spans_path)
    lapack_detail = {k: v["calls"] / n_counted for k, v in counted.items() if k.startswith(LAPACK_PREFIX)}
    return {
        "metrics": metrics,
        "reps": plain + traced,
        "lapack_calls_per_instance_by_entry": lapack_detail,
        "spans_file": spans_path,
        "spans": tracer.span_count,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--hard-cap", type=float, default=120.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--root", required=True, help="checkout root holding src/spl")
    p.add_argument("--tmpdir", required=True)
    p.add_argument("--spans", default=None, help="gzip file for trace spans")
    p.add_argument("--probe", action="store_true")
    args = p.parse_args(argv)

    sys.path.insert(0, os.path.join(args.root, "src"))
    import spl.cli

    w = WORKLOADS[args.workload]
    if args.probe:
        spl.cli.build_parser().parse_args(w.argv(program_seed(args.seed, 0), os.devnull))
        print("ready", flush=True)
        # After the timed part: how fast the core is right now, as the
        # factor that scales this probe's time to the reference core.
        matrices = reference_matrices()
        print(REFERENCE_S / statistics.median(reference_loop(matrices) for _ in range(3)))
        return 0

    runner = Runner(w, args.seed, args.tmpdir, spl.cli)
    if args.trace:
        result = measure_traced(runner, args.seconds, args.hard_cap, args.spans)
    else:
        result = measure(runner, args.seconds, args.hard_cap)
    result.update(
        spl_file=spl.__file__,
        attempted=runner.attempted,
        failed=runner.failed,
        problems=runner.problems,
        environment=environment(),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
