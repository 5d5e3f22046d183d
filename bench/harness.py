"""Closed-loop measurement, output checks and metric assembly for one workload.

One client runs one recovery at a time in this process and thread.  The
warm-up pass fixes each case's reference outcome (samples used, ledger
digest, report counts); every later recovery of the case must reproduce it
exactly, traced or not.
"""

from __future__ import annotations

import ctypes
import gc
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from tracer import Tracer
from workloads import model_digest, pool_digest

SETUP_REPEATS = 5

E2E_UNITS = {
    "recoveries_per_s": "1/s",
    "recover_ms_p50": "ms",
    "recover_ms_p90": "ms",
    "samples_per_recovery": "count",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "oracle.sample.calls": "count",
    "oracle.sample.ms": "ms",
    "oracle.sample.self_ms": "ms",
    "oracle.from_file.ms": "ms",
    "model.evaluate.calls": "count",
    "model.evaluate.sample_ms": "ms",
    "model.evaluate.residual_ms": "ms",
    "model.canonicalize.ms": "ms",
    "linalg.numerical_rank.calls": "count",
    "linalg.numerical_rank.ms": "ms",
    "linalg.solve.calls": "count",
    "linalg.solve.ms": "ms",
    "linalg.solve_least_squares.ms": "ms",
    "linalg.generalized_eigenvalues.ms": "ms",
    "linalg.condition_estimate.ms": "ms",
    "linalg.dense_work_computed": "count",
    "prony.detect_sparsity.ms": "ms",
    "prony.detect_sparsity.samples": "count",
    "prony.fit_nodes.ms": "ms",
    "prony.fit_coefficients.ms": "ms",
    "multivar.recover.ms": "ms",
    "multivar.recover.self_ms": "ms",
    "multivar.solve_shift_system.ms": "ms",
    "multivar.disentangle_pile.ms": "ms",
    "multivar.assemble_exponents.ms": "ms",
    "multivar.samples_over_minimum": "ratio",
    "multivar.level_retries": "count",
    "multivar.nonconfident_ranks": "count",
    "cli.main.ms": "ms",
    "cli.self_ms": "ms",
    "cli.report_bytes": "bytes",
    "failed_frac": "ratio",
    "noise_amplification_p50": "ratio",
    "trace.overhead_ms": "ms",
}


@dataclass
class Pass:
    """Latencies and failures of one pass over the case pool."""

    latencies_ns: list[int] = field(default_factory=list)
    outcomes: list = field(default_factory=list)
    errors: list[float] = field(default_factory=list)
    hard_failed: int = 0
    missed: list[tuple[int, float]] = field(default_factory=list)


def environment() -> dict:
    """Versions, cores and BLAS threading this result was measured with."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    for pattern in ("numpy.libs/*openblas*", "scipy.libs/*openblas*"):
        root = Path(np.__file__).parent.parent
        for lib in glob.glob(str(root / pattern)):
            handle = ctypes.CDLL(lib)
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads"):
                getter = getattr(handle, symbol, None)
                if getter is not None:
                    threads[Path(lib).name] = getter()
                    break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas.get("version"),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {
            var: value for var, value in sorted(os.environ.items())
            if var.endswith("_NUM_THREADS")
        },
        "openblas_threads": threads,
    }


def attempt(workload, case):
    """Run one recovery; returns (outcome or None, latency in ns, problem)."""
    start = time.perf_counter_ns()
    try:
        raw = workload.run(case)
    except Exception as exc:  # a failed recovery is counted, not fatal
        return None, time.perf_counter_ns() - start, \
            f"case {case.index}: {type(exc).__name__}: {exc}"
    latency = time.perf_counter_ns() - start
    try:
        return workload.collect(case, raw), latency, None
    except Exception as exc:
        return None, latency, f"case {case.index}: {type(exc).__name__}: {exc}"


def run_pass(workload, cases, reference, problems, tracer=None,
             keep=False) -> Pass:
    """One recovery per case, each checked against ``reference`` when given.

    Outcomes are kept only with ``keep``, so long runs do not grow in memory.
    """
    result = Pass()
    for case in cases:
        if tracer is None:
            outcome, latency, problem = attempt(workload, case)
        else:
            with tracer.recovering(case.index):
                outcome, latency, problem = attempt(workload, case)
        result.latencies_ns.append(latency)
        if keep:
            result.outcomes.append(outcome)
        found = [problem] if problem else []
        miss = False
        if outcome is not None:
            verdict = workload.check(case, outcome)
            result.errors.append(verdict.error)
            miss = verdict.tolerance_miss
            found += [f"case {case.index}: {msg}" for msg in verdict.hard]
            expected = reference[case.index] if reference else None
            if expected and outcome.signature() != expected.signature():
                found.append(
                    f"case {case.index}: samples, ledger or report counts "
                    "differ from the warm-up pass"
                )
        if found:
            result.hard_failed += 1
            problems.extend(found)
        elif miss:
            result.missed.append((case.index, verdict.error))
    return result


def timed_setup(workload, seed, workdir):
    """Build the case pool SETUP_REPEATS times; median time, same pool each."""
    times = []
    digests = None
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        cases = workload.setup(seed, workdir)
        times.append(time.perf_counter() - start)
        current = [model_digest(case.model) for case in cases]
        if digests is not None and current != digests:
            raise RuntimeError("set-up is not deterministic for this seed")
        digests = current
    return cases, statistics.median(times)


def layer_metrics(tracer, cases, warmup) -> dict:
    total, self_time = tracer.times_ms()
    counts = tracer.counts()
    calls = counts["calls"]
    per = lambda value: value / len(cases)
    done = [(o, case) for o, case in zip(warmup.outcomes, cases) if o is not None]
    outcomes = [o for o, _ in done]
    metrics = {
        "oracle.sample.calls": per(calls.get("oracle.sample", 0)),
        "oracle.sample.ms": per(total.get("oracle.sample", 0.0)),
        "oracle.sample.self_ms": per(self_time.get("oracle.sample", 0.0)),
        "oracle.from_file.ms": per(total.get("oracle.from_file", 0.0)),
        "model.evaluate.calls": per(
            calls.get("model.evaluate.sample", 0)
            + calls.get("model.evaluate.residual", 0)
        ),
        "model.evaluate.sample_ms": per(total.get("model.evaluate.sample", 0.0)),
        "model.evaluate.residual_ms": per(
            total.get("model.evaluate.residual", 0.0)
        ),
        "model.canonicalize.ms": per(total.get("model.canonicalize", 0.0)),
    }
    for name in ("numerical_rank", "solve"):
        metrics[f"linalg.{name}.calls"] = per(calls.get(f"linalg.{name}", 0))
        metrics[f"linalg.{name}.ms"] = per(total.get(f"linalg.{name}", 0.0))
    for name in ("solve_least_squares", "generalized_eigenvalues",
                 "condition_estimate"):
        metrics[f"linalg.{name}.ms"] = per(total.get(f"linalg.{name}", 0.0))
    metrics["linalg.dense_work_computed"] = per(counts["dense_work"])
    metrics["prony.detect_sparsity.ms"] = per(
        total.get("prony.detect_sparsity", 0.0)
    )
    metrics["prony.detect_sparsity.samples"] = per(
        counts["detect_sparsity_samples"]
    )
    for name in ("fit_nodes", "fit_coefficients"):
        metrics[f"prony.{name}.ms"] = per(total.get(f"prony.{name}", 0.0))
    metrics["multivar.recover.ms"] = per(total.get("multivar.recover", 0.0))
    metrics["multivar.recover.self_ms"] = per(
        self_time.get("multivar.recover", 0.0)
    )
    for name in ("solve_shift_system", "disentangle_pile", "assemble_exponents"):
        metrics[f"multivar.{name}.ms"] = per(total.get(f"multivar.{name}", 0.0))
    metrics["multivar.samples_over_minimum"] = sum(
        o.samples_used / ((case.d + 1) * case.n_true) for o, case in done
    ) / max(len(done), 1)
    metrics["multivar.level_retries"] = per(sum(o.level_retries for o in outcomes))
    metrics["multivar.nonconfident_ranks"] = per(
        sum(o.nonconfident_ranks for o in outcomes)
    )
    metrics["cli.main.ms"] = per(total.get("cli.main", 0.0))
    metrics["cli.self_ms"] = per(self_time.get("cli.main", 0.0))
    metrics["cli.report_bytes"] = per(sum(o.report_bytes for o in outcomes))
    return metrics


def run_traced(workload, cases, warmup, problems, seconds):
    """Traced passes for ``seconds``, at least two.  Every pass must repeat
    the first one's exact counters; per-layer metrics are medians over the
    passes.  Returns the first pass's tracer and outcomes, the metrics, the
    median pass time in seconds and the number of passes."""
    per_pass = []
    start = time.perf_counter()
    while len(per_pass) < 2 or time.perf_counter() - start < seconds:
        tracer = Tracer()
        with tracer.installed():
            traced = run_pass(workload, cases, warmup.outcomes, problems,
                              tracer, keep=not per_pass)
        if not per_pass:
            first, first_outcomes = tracer, traced
        elif tracer.counts() != first.counts():
            problems.append("per-layer counters differ between traced passes")
        per_pass.append((layer_metrics(tracer, cases, warmup),
                         sum(traced.latencies_ns) / 1e9))
    metrics = {
        name: statistics.median(m[name] for m, _ in per_pass)
        for name in per_pass[0][0]
    }
    pass_s = statistics.median(t for _, t in per_pass)
    return first, first_outcomes, metrics, pass_s, len(per_pass)


def run(workload, seed, seconds, trace, root) -> dict:
    workdir = root / ".bench_work" / f"{workload.name}-{seed}-{os.getpid()}"
    try:
        return _run(workload, seed, seconds, trace, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(workload, seed, seconds, trace, root, workdir) -> dict:
    cases, setup_s = timed_setup(workload, seed, workdir)
    problems: list[str] = []
    warmup = run_pass(workload, cases, None, problems, keep=True)
    reference = warmup.outcomes
    digest = pool_digest(o.digest if o else "-" for o in reference)
    if len(warmup.missed) > workload.max_miss_rate * len(cases):
        problems.append(
            f"{len(warmup.missed)} of {len(cases)} cases miss the "
            f"{workload.tolerance:g} accuracy gate, more than "
            f"{workload.max_miss_rate:.0%}"
        )

    # a traced run spends half its time on untraced passes, half traced
    untraced_s = seconds / 2 if trace else seconds
    gc.collect()
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < untraced_s:
        passes.append(run_pass(workload, cases, reference, problems))
    latencies_ms = np.array(
        [ns for p in passes for ns in p.latencies_ns], dtype=float
    ) / 1e6
    pass_s = [sum(p.latencies_ns) / 1e9 for p in passes]
    attempted = len(latencies_ms)
    hard_failed = sum(p.hard_failed for p in passes)
    misses = sum(len(p.missed) for p in passes)

    samples = [o.samples_used for o in reference if o is not None]
    e2e = {
        "recoveries_per_s": statistics.median(len(cases) / s for s in pass_s),
        "recover_ms_p50": float(np.percentile(latencies_ms, 50)),
        "recover_ms_p90": float(np.percentile(latencies_ms, 90)),
        "samples_per_recovery": sum(samples) / max(len(samples), 1),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    errors = [e for e in warmup.errors if np.isfinite(e)]
    accuracy = {
        "failed_frac": (hard_failed + misses) / attempted,
        "noise_amplification_p50": (
            float(np.median(errors)) / workload.sigma
            if workload.sigma > 0 and errors else 0.0
        ),
    }
    info = {
        "default_seed": workload.default_seed,
        "holdout_seed": workload.holdout_seed,
        "cases": len(cases),
        "passes": len(passes),
        "digest": digest,
        "samples_per_pass": sum(samples),
        "hard_failed": hard_failed,
        "tolerance_misses": misses,
        "missed_cases": warmup.missed,
    }

    layers = None
    if trace:
        traced_run = run_traced(workload, cases, warmup, problems,
                                seconds - untraced_s)
        first, traced, layers, traced_pass_s, info["traced_passes"] = traced_run
        layers.update(accuracy)
        layers["trace.overhead_ms"] = (
            traced_pass_s - statistics.median(pass_s)
        ) * 1e3 / len(cases)
        info["traced_digest"] = pool_digest(
            o.digest if o else "-" for o in traced.outcomes
        )
        if info["traced_digest"] != digest:
            problems.append("traced ledger digest differs from untraced")
        out = root / ".bench_out"
        out.mkdir(exist_ok=True)
        info["spans_file"] = str(
            (out / f"spans-{workload.name}-{seed}.jsonl").relative_to(root)
        )
        first.write(root / info["spans_file"])

    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(),
        "info": info,
        "e2e": e2e,
        "accuracy": accuracy,
        "layers": layers,
        "problems": problems,
        "correct": not problems,
        "attempted": attempted,
        "failed": hard_failed,
    }


def print_result(result) -> None:
    """Human-readable lines, then the one-line JSON result."""
    info = result["info"]
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"(default {info['default_seed']}, held-out {info['holdout_seed']})  "
          f"seconds {result['seconds']:g}  trace {int(result['trace'])}")
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    print(f"pool {info['cases']} cases, {info['samples_per_pass']} samples "
          f"per pass, {info['passes']} timed passes, "
          f"{result['attempted']} recoveries")
    print(f"ledger digest {info['digest'][:16]}")
    if result["trace"]:
        print(f"traced ledger digest {info['traced_digest'][:16]}, "
              f"{info['traced_passes']} traced passes, spans of the first "
              f"in {info['spans_file']}")
    for name, value in result["e2e"].items():
        extra = f"  (n={result['attempted']})" if name.startswith("recover_ms") else ""
        print(f"  {name:<28} {value:>14.6g} {E2E_UNITS[name]}{extra}")
    accuracy = result["accuracy"]
    print(f"  {'failed_frac':<28} {accuracy['failed_frac']:>14.6g} ratio  "
          f"({info['hard_failed']} failed, {info['tolerance_misses']} beyond "
          f"tolerance, of {result['attempted']})")
    if info["missed_cases"]:
        print("  beyond tolerance in the warm-up pass: " + ", ".join(
            f"case {index} ({error:.1e})"
            for index, error in info["missed_cases"][:10]
        ) + (" ..." if len(info["missed_cases"]) > 10 else ""))
    if accuracy["noise_amplification_p50"]:
        print(f"  {'noise_amplification_p50':<28} "
              f"{accuracy['noise_amplification_p50']:>14.6g} ratio")
    if result["layers"]:
        for name, value in result["layers"].items():
            if name in accuracy:
                continue
            print(f"  {name:<34} {value:>14.6g} {LAYER_UNITS[name]}")
    for problem in result["problems"][:20]:
        print(f"CHECK FAILED: {problem}")
    if result["trace"]:
        metrics = {k: {"value": v, "unit": LAYER_UNITS[k]}
                   for k, v in result["layers"].items()}
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]}
                   for k, v in result["e2e"].items()}
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
