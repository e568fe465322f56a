"""Outside-in tracer for the spl benchmark.

The tracer never edits the program.  It replaces public functions by
timing wrappers through module attributes: for each target it looks up
the function object in its home module and substitutes the wrapper in
every loaded ``spl`` module that holds the same object, so both
``harness.riccati.perturbed_split(...)`` and a name bound by
``from .linalg import eigh`` reach the wrapper.  The ``numpy.linalg``
decomposition entry points are wrapped the same way, in ``numpy.linalg``
and in the private module whose functions call each other by global name
(``norm(a, 2)`` reaches ``svd`` that way).

Spans stay in memory as flat arrays (name, parent, start, end, work) and
are written out once, after the run.  A span's self time is its duration
minus the durations of its direct children.  The tracer follows only the
process that installed it: forked workers restore the original functions
at fork, so a parallel campaign shows up as parent-side time.
"""

from __future__ import annotations

import functools
import gzip
import os
import sys
import time
from array import array

import numpy as np

#: Public functions wrapped per spl module; keys are the layer names.
SPL_TARGETS = {
    "linalg": ("eigh", "op_norm", "polar_decompose", "subspace_angle", "as_hermitian"),
    "disposition": (
        "random_instance", "assemble_instance", "validate_disposition",
        "check_partition", "split_from_eigensystem",
    ),
    "riccati": (
        "perturbed_split", "angular_operator", "verify_graph_props", "lemma22_check",
        "lambda0_diagnostics", "riccati_residual", "spectrum_mismatch",
    ),
    "bounds": ("make_bound_report",),
    "harness": ("trial_instance", "trial_record_for_instance", "run_campaign", "sharpness_search"),
    "matio": ("dumps",),
    "cli": ("main",),
}

#: numpy.linalg entry points that call LAPACK decompositions or solves.
LAPACK_TARGETS = ("svd", "eigh", "eigvalsh", "eigvals", "solve", "qr")
LAPACK_PREFIX = "numpy.linalg."


def matrix_work(args, kwargs) -> float:
    """m * n * min(m, n) of the first array argument, times its batch size.

    This is n**3 for a square matrix; it is computed from shapes, not
    measured.
    """
    a = args[0] if args else next(iter(kwargs.values()), None)
    shape = np.shape(a)
    if len(shape) < 2:
        return 0.0
    m, n = shape[-2], shape[-1]
    batch = 1
    for s in shape[:-2]:
        batch *= s
    return float(batch * m * n * min(m, n))


class Tracer:
    """In-memory span recorder that patches functions by module attribute."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self._owner_pid = os.getpid()
        os.register_at_fork(after_in_child=self._after_fork_in_child)

    # --- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, work=None):
        nid = self._name_id(name)
        span_name, span_parent = self.span_name, self.span_parent
        start, end, work_arr, stack = self.start, self.end, self.work, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            amount = work(args, kwargs) if work is not None else 0.0
            idx = len(span_name)
            span_name.append(nid)
            span_parent.append(stack[-1])
            work_arr.append(amount)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            start.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    # --- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in every module that holds it."""
        spl_modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "spl" or n.startswith("spl."))
        ]
        for layer, attrs in SPL_TARGETS.items():
            home = sys.modules[f"spl.{layer}"]
            for attr in attrs:
                self._patch_everywhere(spl_modules, getattr(home, attr), attr, f"{layer}.{attr}")
        np_modules = [sys.modules["numpy.linalg"]]
        private = sys.modules.get("numpy.linalg._linalg")
        if private is not None:
            np_modules.append(private)
        for attr in LAPACK_TARGETS:
            self._patch_everywhere(
                np_modules, getattr(np.linalg, attr), attr, LAPACK_PREFIX + attr,
                work=matrix_work,
            )

    def _patch_everywhere(self, modules, original, attr: str, name: str, work=None) -> None:
        wrapper = self.wrap(name, original, work)
        for mod in modules:
            if mod.__dict__.get(attr) is original:
                self._patches.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _after_fork_in_child(self) -> None:
        if os.getpid() != self._owner_pid:
            self.uninstall()

    # --- results -----------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self.span_name)

    def summary(self, upto: int | None = None) -> dict:
        """Per-name calls, total and self seconds, and work, over spans[:upto]."""
        count = self.span_count if upto is None else upto
        nnames = len(self.names)
        calls = [0] * nnames
        total = [0.0] * nnames
        child = [0.0] * count
        work = [0.0] * nnames
        durations = [self.end[i] - self.start[i] for i in range(count)]
        for i in range(count):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += durations[i]
        self_time = [0.0] * nnames
        for i in range(count):
            nid = self.span_name[i]
            calls[nid] += 1
            total[nid] += durations[i]
            self_time[nid] += durations[i] - child[i]
            work[nid] += self.work[i]
        return {
            name: {"calls": calls[k], "total_s": total[k], "self_s": self_time[k], "work": work[k]}
            for k, name in enumerate(self.names)
        }

    def write(self, path: str) -> None:
        """Write every span as tab-separated text, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("index\tname\tparent\tstart_s\tend_s\twork\n")
            for i in range(self.span_count):
                fh.write(
                    f"{i}\t{self.names[self.span_name[i]]}\t{self.span_parent[i]}\t"
                    f"{self.start[i]:.9f}\t{self.end[i]:.9f}\t{self.work[i]:.0f}\n"
                )
