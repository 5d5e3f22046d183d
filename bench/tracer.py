"""Spans around the calls into each expsum layer, recorded from outside.

The library imports names directly (``from .prony import fit_nodes``), so a
wrapper must replace each name where it is looked up, not where it is
defined.  :data:`TARGETS` lists every such place.  Spans are kept in memory
as ``[name, start_ns, end_ns, parent, recovery]`` and only while a recovery
id is set, so the benchmark's own checks are never traced.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter, defaultdict

import numpy as np

from expsum import cli, linalg, multivar, oracle

# (owner, attribute, span name).  Several attributes may share a name.
TARGETS = [
    (oracle.Oracle, "sample", "oracle.sample"),
    (oracle.TabulatedOracle, "from_file", "oracle.from_file"),
    (oracle, "evaluate", "model.evaluate.sample"),
    (multivar, "evaluate", "model.evaluate.residual"),
    (cli, "evaluate", "model.evaluate.residual"),
    (multivar, "canonicalize", "model.canonicalize"),
    (linalg, "numerical_rank", "linalg.numerical_rank"),
    (linalg, "solve", "linalg.solve"),
    (linalg, "solve_least_squares", "linalg.solve_least_squares"),
    (linalg, "generalized_eigenvalues", "linalg.generalized_eigenvalues"),
    (linalg, "condition_estimate", "linalg.condition_estimate"),
    (multivar, "detect_sparsity", "prony.detect_sparsity"),
    (multivar, "fit_nodes", "prony.fit_nodes"),
    (multivar, "fit_coefficients", "prony.fit_coefficients"),
    (multivar, "recover_known_n", "multivar.recover"),
    (multivar, "recover_unknown_n", "multivar.recover"),
    (cli, "recover_known_n", "multivar.recover"),
    (cli, "recover_unknown_n", "multivar.recover"),
    (multivar, "solve_shift_system", "multivar.solve_shift_system"),
    (multivar, "disentangle_pile", "multivar.disentangle_pile"),
    (multivar, "assemble_exponents", "multivar.assemble_exponents"),
    (cli, "main", "cli.main"),
]

# Index of the argument each SVD-bearing kernel decomposes.
SVD_ARGUMENT = {
    "linalg.numerical_rank": 0,
    "linalg.solve": 0,
    "linalg.solve_least_squares": 0,
    "linalg.condition_estimate": 0,
    "linalg.generalized_eigenvalues": 1,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.dense_work = 0
        self.recovery = None
        self._stack: list[int] = []

    def wrap(self, name, fn):
        svd_arg = SVD_ARGUMENT.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.recovery is None:
                return fn(*args, **kwargs)
            if svd_arg is not None:
                m, n = np.shape(args[svd_arg])
                self.dense_work += m * n * min(m, n)
            parent = self._stack[-1] if self._stack else None
            span = [name, time.perf_counter_ns(), 0, parent, self.recovery]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                self._stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Replace every target with its traced wrapper; restore on exit."""
        saved = []
        try:
            for owner, attr, name in TARGETS:
                raw = owner.__dict__[attr]
                saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self.wrap(name, raw.__func__)))
                else:
                    setattr(owner, attr, self.wrap(name, raw))
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    @contextlib.contextmanager
    def recovering(self, recovery_id):
        self.recovery = recovery_id
        try:
            yield
        finally:
            self.recovery = None

    def counts(self) -> dict:
        """Exact counters: calls per span name, samples drawn inside rank
        detection, and the computed dense work."""
        calls = Counter(span[0] for span in self.spans)
        detect_samples = 0
        for span in self.spans:
            if span[0] != "oracle.sample":
                continue
            parent = span[3]
            while parent is not None:
                if self.spans[parent][0] == "prony.detect_sparsity":
                    detect_samples += 1
                    break
                parent = self.spans[parent][3]
        return {
            "calls": dict(sorted(calls.items())),
            "detect_sparsity_samples": detect_samples,
            "dense_work": self.dense_work,
        }

    def times_ms(self) -> tuple[dict, dict]:
        """Total and self time per span name, in ms.  A span's self time is
        its duration minus its direct children's durations."""
        total = defaultdict(int)
        child = defaultdict(int)
        by_child_name = defaultdict(lambda: defaultdict(int))
        for span in self.spans:
            duration = span[2] - span[1]
            total[span[0]] += duration
            if span[3] is not None:
                child[span[3]] += duration
                by_child_name[span[3]][span[0]] += duration
        self_time = defaultdict(int)
        for i, span in enumerate(self.spans):
            self_time[span[0]] += span[2] - span[1] - child[i]
        # the CLI's own work: main minus the driver and the file load
        cli_self = 0
        for i, span in enumerate(self.spans):
            if span[0] == "cli.main":
                inner = by_child_name[i]
                cli_self += (span[2] - span[1]) - inner["multivar.recover"] \
                    - inner["oracle.from_file"]
        self_time["cli.main"] = cli_self
        to_ms = lambda table: {k: v / 1e6 for k, v in table.items()}
        return to_ms(total), to_ms(self_time)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, recovery in self.spans:
                fh.write(json.dumps(
                    {"name": name, "start_ns": start, "end_ns": end,
                     "parent": parent, "recovery": recovery}
                ) + "\n")
