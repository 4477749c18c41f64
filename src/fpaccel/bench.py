"""Benchmark harness: run problems through the three driver configurations
and aggregate iteration counts, timings, and the shifted geometric mean.

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
import inspect
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import conic
from .driver import SAFEGUARDED, UNSAFE, VANILLA, DriverConfig, RunRecord
from .driver import is_integer_at_least, positive_finite

CONFIGS = (VANILLA, UNSAFE, SAFEGUARDED)

TRACE_COLUMNS = (
    "iter",
    "r_fixed_point",
    "r_prim",
    "r_dual",
    "accepted",
    "j",
    "epoch",
    "cum_operator_evals",
)

SUMMARY_COLUMNS = (
    "problem",
    "config",
    "status",
    "iterations",
    "solve_seconds",
    "accel_seconds",
    "operator_evals",
    "rejected_candidates",
)


class EmptyInput(Exception):
    """Empty list where at least one value is required."""


def shifted_gmean(times, sh: float = 10.0) -> float:
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


def _write_trace(path, record) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for e in record.entries:
            writer.writerow(
                [
                    e.k,
                    _fmt(e.r_norm),
                    _fmt(e.r_prim),
                    _fmt(e.r_dual),
                    _fmt(e.accepted),
                    e.j,
                    e.epoch,
                    e.cum_evals,
                ]
            )


def run_benchmark(
    problems,
    configs=CONFIGS,
    *,
    time_cap: float = 300.0,
    sh: float = 10.0,
    out_dir=None,
    workers: int = 1,
    **settings,
) -> BenchSummary:
    """Execute every (problem, config) pair and aggregate the results.

    ``problems`` is a list of (name, ConicProblem) pairs with distinct
    names; ``settings`` go to ``conic.solve`` by name.  Mean and median
    statistics use only the problems solved by every configuration; the
    shifted geometric mean covers all problems with unsolved ones entered
    at ``time_cap`` seconds.
    """
    problems = list(problems)
    configs = list(configs)
    if not problems or not configs:
        raise EmptyInput("need at least one problem and one configuration")
    for config in configs:
        if config not in CONFIGS:
            raise ValueError(f"unknown configuration {config!r}")
    names = [name for name, _ in problems]
    for name in names:
        if names.count(name) > 1:
            raise ValueError(f"duplicate problem name {name!r}")
    if not is_integer_at_least(workers, 1):
        raise ValueError(f"workers must be a positive integer, got {workers!r}")
    kwargs = dict(settings, time_cap=time_cap)
    # A bad setting raises here once instead of failing every run.
    solve_args = inspect.signature(conic.solve).parameters
    DriverConfig(**{k: v for k, v in kwargs.items() if k not in solve_args})
    for name in ("gamma", "eps_infeas", "time_cap"):
        if name in kwargs:
            positive_finite(name, kwargs[name])
    shifted_gmean([time_cap], sh)  # a bad shift, too, before any run

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
            shifted_gmean_seconds=shifted_gmean(all_times, sh),
        )

    if out_dir is not None:
        trace_dir = os.path.join(out_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        for r in rows:
            if r.record is not None:
                _write_trace(os.path.join(trace_dir, f"{r.problem}__{r.config}.csv"), r.record)
        with open(os.path.join(out_dir, "summary.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(SUMMARY_COLUMNS)
            for r in rows:
                rec = r.record or RunRecord()  # a failed run reports zero counts
                writer.writerow(
                    [
                        r.problem,
                        r.config,
                        r.status,
                        rec.iterations,
                        _fmt(rec.total_seconds),
                        _fmt(rec.accel_seconds),
                        rec.operator_evaluations,
                        rec.rejected_candidates,
                    ]
                )

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
