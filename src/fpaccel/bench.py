"""Benchmark harness: run problems through driver configurations (by default
vanilla, unsafe and safeguarded; any driver mode runs) and aggregate
iteration counts, timings, and the shifted geometric mean.

Each (problem, config) solve yields a ``RunResult`` holding the solve's
``RunRecord``, from which every count and timing is read; a solve that
raised keeps its error as the status and has no record.  Per-run trace CSVs
and a one-row-per-(problem, config) summary CSV are written when an output
directory is given.  Aggregate statistics over the subset of problems solved
by every configuration are returned (and printed by the CLI); unsolved runs
enter the shifted geometric mean at the wall time cap, which is also passed
to every solve as its ``time_cap`` setting.
"""

from __future__ import annotations

import csv
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from operator import attrgetter

import numpy as np

from . import conic
from .driver import SAFEGUARDED, UNSAFE, VANILLA, RunRecord
from .driver import is_integer_at_least, positive_finite

CONFIGS = (VANILLA, UNSAFE, SAFEGUARDED)  # the default; any driver mode runs

SHIFT_SECONDS = 10.0  # the shifted geometric mean's shift

# (CSV column, field) tables: a trace row is one TraceEntry, a summary row one
# RunResult, whose record fields are read through ``record.``.
TRACE_COLUMNS = (
    ("iter", "k"),
    ("r_fixed_point", "r_norm"),
    ("r_prim", "r_prim"),
    ("r_dual", "r_dual"),
    ("accepted", "accepted"),
    ("j", "j"),
    ("epoch", "epoch"),
    ("cum_operator_evals", "cum_evals"),
)

SUMMARY_COLUMNS = (
    ("problem", "problem"),
    ("config", "config"),
    ("status", "status"),
    ("iterations", "record.iterations"),
    ("solve_seconds", "record.total_seconds"),
    ("accel_seconds", "record.accel_seconds"),
    ("operator_evals", "record.operator_evaluations"),
    ("rejected_candidates", "record.rejected_candidates"),
)


class EmptyInput(Exception):
    """Empty list where at least one value is required."""


def shifted_gmean(times, sh: float = SHIFT_SECONDS) -> float:
    """Shifted geometric mean: (prod(t + sh))^(1/n) - sh.

    Computed through logs so long lists of large times cannot overflow.
    """
    arr = np.asarray(list(times), dtype=float)
    if arr.size == 0:
        raise EmptyInput("shifted_gmean needs at least one value")
    positive_finite("shift", sh)
    if np.any(arr < 0) or not np.all(np.isfinite(arr)):
        raise ValueError("times must be finite and nonnegative")
    return float(np.exp(np.mean(np.log(arr + sh))) - sh)


@dataclass
class RunResult:
    """Outcome of one (problem, config) solve."""

    problem: str
    config: str
    status: str
    objective: float
    record: RunRecord | None = None  # None when the solve raised


@dataclass
class ConfigStats:
    solved: int
    mean_iterations: float
    median_iterations: float
    mean_seconds: float
    median_seconds: float
    shifted_gmean_seconds: float


@dataclass
class BenchSummary:
    rows: list[RunResult] = field(default_factory=list)
    aggregates: dict[str, ConfigStats] = field(default_factory=dict)
    common_subset: list[str] = field(default_factory=list)


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _solve_task(task):
    """Worker body: solve one (problem, config) pair.  Top level for pickling."""
    name, problem, config, kwargs = task
    try:
        sol = conic.solve(problem, mode=config, **kwargs)
        return RunResult(name, config, sol.status, sol.objective, sol.record)
    except Exception as exc:  # a failing run must not sink the batch
        return RunResult(name, config, f"error: {type(exc).__name__}: {exc}", math.nan)


def _write_csv(path, columns, items) -> None:
    """One header row of ``columns``' names, then one row per item read off their fields."""
    getters = [attrgetter(f) for _, f in columns]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([name for name, _ in columns])
        writer.writerows([_fmt(get(item)) for get in getters] for item in items)


def run_benchmark(
    problems,
    configs=CONFIGS,
    *,
    time_cap: float = 300.0,
    out_dir=None,
    workers: int = 1,
    **settings,
) -> BenchSummary:
    """Execute every (problem, config) pair and aggregate the results.

    ``problems`` is a list of (name, ConicProblem) pairs with distinct
    names, none holding a path separator, and ``configs`` a list of distinct
    driver modes; ``settings`` go to ``conic.solve`` by name.  Mean and
    median statistics use only the problems solved by every configuration;
    the shifted geometric mean (shift ``SHIFT_SECONDS``) covers all problems
    with unsolved ones entered at ``time_cap`` seconds.
    """
    problems = list(problems)
    configs = list(configs)
    if not problems or not configs:
        raise EmptyInput("need at least one problem and one configuration")
    names = [name for name, _ in problems]
    for what, values in (("problem name", names), ("configuration", configs)):
        for value in values:
            if values.count(value) > 1:
                raise ValueError(f"duplicate {what} {value!r}")
    for name in names:  # each names a trace file
        if any(sep in str(name) for sep in (os.sep, os.altsep) if sep):
            raise ValueError(f"problem name {name!r} holds a path separator")
    if not is_integer_at_least(workers, 1):
        raise ValueError(f"workers must be a positive integer, got {workers!r}")
    kwargs = dict(settings, time_cap=positive_finite("time_cap", time_cap))
    for config in configs:  # a bad mode or setting raises here once, not in every run
        conic.solve_config(config, **kwargs)

    tasks = [
        (name, problem, config, kwargs)
        for name, problem in problems
        for config in configs
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_solve_task, tasks))
    else:
        rows = [_solve_task(t) for t in tasks]

    solved = {
        config: {r.problem for r in rows if r.config == config and r.status == "converged"}
        for config in configs
    }
    common = [name for name, _ in problems if all(name in solved[c] for c in configs)]

    aggregates = {}
    for config in configs:
        sub = [r for r in rows if r.config == config and r.problem in common]
        iters = [r.record.iterations for r in sub]
        secs = [r.record.total_seconds for r in sub]
        all_times = [
            r.record.total_seconds if r.status == "converged" else time_cap
            for r in rows
            if r.config == config
        ]
        aggregates[config] = ConfigStats(
            solved=len(solved[config]),
            mean_iterations=float(np.mean(iters)) if iters else math.nan,
            median_iterations=float(np.median(iters)) if iters else math.nan,
            mean_seconds=float(np.mean(secs)) if secs else math.nan,
            median_seconds=float(np.median(secs)) if secs else math.nan,
            shifted_gmean_seconds=shifted_gmean(all_times),
        )

    if out_dir is not None:
        trace_dir = os.path.join(out_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        for r in rows:
            if r.record is not None:
                path = os.path.join(trace_dir, f"{r.problem}__{r.config}.csv")
                _write_csv(path, TRACE_COLUMNS, r.record.entries)
        # A failed run reports the zero counts of an empty record.
        reported = [replace(r, record=r.record or RunRecord()) for r in rows]
        _write_csv(os.path.join(out_dir, "summary.csv"), SUMMARY_COLUMNS, reported)

    return BenchSummary(rows=rows, aggregates=aggregates, common_subset=common)


def format_aggregates(summary: BenchSummary) -> str:
    """Human-readable aggregate table (17 significant digits)."""
    lines = [f"common subset: {len(summary.common_subset)} problems"]
    for config, stats in summary.aggregates.items():
        lines.append(
            f"{config}: solved={stats.solved}"
            f" mean_iters={_fmt(stats.mean_iterations)}"
            f" median_iters={_fmt(stats.median_iterations)}"
            f" mean_seconds={_fmt(stats.mean_seconds)}"
            f" median_seconds={_fmt(stats.median_seconds)}"
            f" shifted_gmean_seconds={_fmt(stats.shifted_gmean_seconds)}"
        )
    return "\n".join(lines)
