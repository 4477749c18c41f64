#!/usr/bin/env python3
"""fpaccel solve benchmark.

    python3 perfbench/run.py --workload qp_small --seed 0 --seconds 30 --trace 0

Runs from the root of a source checkout and imports ``fpaccel`` from its
``src/``.  One pass solves every case of the workload (see workloads.py) in
the three configurations, one after another in this process.  Passes repeat
until ``--seconds`` is used up, with at least MIN_PASSES of them; each pass
is checked (checks.py) outside its timed region.

``--trace 0`` reports the end-to-end metrics.  Timings are scaled to a
nominal host speed by a reference kernel timed between solves
(hostspeed.py), then taken as per-solve medians over the passes and summed
over the workload, so neither a slow host nor one slow pass moves them.
``--trace 1`` alternates untraced passes with passes whose layer boundaries
are wrapped in spans (tracing.py) and reports the per-layer metrics.  Both
print a table, a context line and, last, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_PASSES = 3
TIME_CAP_S = 30.0  # per solve; a solve that reaches it fails
SGM_SHIFT_S = 10.0  # the CLI's shifted-geometric-mean shift

# name -> (unit, better, bound); the same list as BENCHMARK.json's end_to_end.
END_TO_END = {
    "wall_s": ("s", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "sgm_s.vanilla": ("s", "lower", 0.25),
    "sgm_s.unsafe": ("s", "lower", 0.25),
    "sgm_s.safeguarded": ("s", "lower", 0.25),
    "iters.vanilla": ("count", "lower", 0.15),
    "iters.unsafe": ("count", "lower", 0.15),
    "iters.safeguarded": ("count", "lower", 0.15),
    "evals.safeguarded": ("count", "lower", 0.15),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

PROJECTED_KINDS = ("nonneg", "psd")

# Per-layer seconds: metric -> the spans whose self time it sums.  Together
# they cover every span name, so they add up to the traced wall time less
# the unattributed gaps between solves.
SPAN_SECONDS = {
    "solve.self_s": ("solve",),
    "driver.self_s": ("driver.run",),
    "operators.apply_s": ("operators.apply",),
    "conic.kkt_factor_s": ("conic.init", "conic.set_params"),
    "conic.kkt_solve_s": ("conic.solve_kkt",),
    "conic.residuals_s": ("conic.residuals",),
    "conic.adapt_s": ("conic.adapt",),
    "conic.infeas_s": ("conic.infeas",),
    **{f"cones.project_s.{k}": (f"cones.project.{k}",) for k in PROJECTED_KINDS},
    "linalg.qr_append_s": ("linalg.qr_append",),
    "linalg.qr_solve_s": ("linalg.qr_solve",),
    "accel.push_s": ("accel.push",),
    "accel.eta_s": ("accel.eta",),
    "accel.candidate_s": ("accel.candidate",),
    "accel.restart_s": ("accel.restart",),
}
# Per-layer counts: metric -> the spans whose calls it counts.
SPAN_CALLS = {
    "conic.kkt_solve_calls": ("conic.solve_kkt",),
    "conic.residuals_calls": ("conic.residuals",),
    "conic.infeas_calls": ("conic.infeas",),
    **{f"cones.project_calls.{k}": (f"cones.project.{k}",) for k in PROJECTED_KINDS},
    "operators.evals": ("operators.apply",),
    "accel.restarts": ("accel.restart",),
}
# Metrics computed from several sources: name -> (unit, better, spans they need).
DERIVED = {
    "conic.kkt_factor_calls": ("count", "lower", ("conic.init", "conic.set_params")),
    "conic.gamma_changes": ("count", "lower", ("conic.set_params",)),
    "conic.certificates": ("count", "higher", ()),
    "driver.rejected_evals": ("count", "lower", ()),
    "driver.accept_ratio": ("ratio", "higher", ("accel.candidate",)),
    "accel.frac": ("ratio", "lower", ()),
    "trace.overhead_frac": ("ratio", "lower", ()),
    "trace.unattributed_frac": ("ratio", "lower", ()),
}

PER_LAYER = {
    **{name: ("s", "lower") for name in SPAN_SECONDS},
    **{name: ("count", "lower") for name in SPAN_CALLS},
    **{name: (unit, better) for name, (unit, better, _spans) in DERIVED.items()},
}


def load_program():
    """Import fpaccel from this checkout's src/, with one BLAS thread."""
    if not (SRC / "fpaccel" / "__init__.py").is_file():
        raise SystemExit(f"fpaccel sources not found under {SRC}")
    # Before numpy loads: one solve process, one BLAS thread, steadier timings.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    # The vCPUs of the shared host slow down independently of each other, so
    # the host-speed reference must run on the CPU the solves run on.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import fpaccel

    if Path(fpaccel.__file__).resolve().parent != SRC / "fpaccel":
        raise SystemExit(f"imported fpaccel from {fpaccel.__file__}, not from {SRC}")
    return fpaccel


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


@dataclass
class SolveRun:
    """Timings and counters of one solve; ``error`` when it raised."""

    case: int
    mode: str
    start: float
    wall: float
    scale: float = 1.0  # host-speed factor from hostspeed.HostClock
    total: float = 0.0
    accel: float = 0.0
    status: str = "error"
    iterations: int = 0
    evals: int = 0
    rejected: int = 0
    certificate: bool = False
    error: str | None = None

    @property
    def signature(self):
        return (self.status, self.iterations, self.evals, self.rejected)


@dataclass
class Pass:
    wall: float
    runs: list
    traced: bool
    spans: range = range(0)
    gamma_changes: int = 0


def run_pass(fp, cases, tracer=None, clock=None):
    """Solve every case in every mode; returns the Pass and the solutions.

    With a ``clock`` the reference kernel is sampled between solves and
    after the last one, and every solve gets its host-speed factor.
    """
    from workloads import MODES

    runs, sols = [], []
    t_pass = time.perf_counter()
    for i, case in enumerate(cases):
        for mode in MODES:
            if clock is not None:
                clock.sample_if_stale()
            if tracer is not None:
                tracer.solve_id = len(runs)
                span = tracer.open("solve")
            t0 = time.perf_counter()
            try:
                sol = fp.solve(
                    case.problem, mode, eps=case.eps, gamma=case.gamma, time_cap=TIME_CAP_S
                )
                err = None
            except Exception as exc:  # counted as a failed solve, the pass goes on
                sol, err = None, f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - t0
            if tracer is not None:
                tracer.close(span)
            run = SolveRun(i, mode, t0, wall, error=err)
            if sol is not None:
                rec = sol.record
                run.total, run.accel = rec.total_seconds, rec.accel_seconds
                run.status, run.iterations = sol.status, rec.iterations
                run.evals, run.rejected = rec.operator_evaluations, rec.rejected_candidates
                run.certificate = sol.certificate is not None
            runs.append(run)
            sols.append(sol)
    if clock is not None:
        clock.sample()
        for run in runs:
            run.scale = clock.scale(run.start)
    return Pass(time.perf_counter() - t_pass, runs, tracer is not None), sols


def check_pass(cases, p: Pass, sols, reference) -> list[str]:
    """Failure reasons for one pass; ``reference`` holds pass 1's signatures."""
    import checks

    reasons = {}
    for k, (run, sol) in enumerate(zip(p.runs, sols)):
        case = cases[run.case]
        if run.error is not None:
            reasons[k] = run.error
        elif (why := checks.check_solution(case, sol)) is not None:
            reasons[k] = why
        elif reference is not None and run.signature != reference[k]:
            reasons[k] = f"counts {run.signature} differ from the first pass's {reference[k]}"
    for i, case in enumerate(cases):
        ks = [k for k, run in enumerate(p.runs) if run.case == i and sols[k] is not None]
        why = checks.objectives_disagree(case, [sols[k].objective for k in ks])
        if why is not None:
            reasons.update({k: why for k in ks if k not in reasons})
    return [
        f"{cases[p.runs[k].case].name} {p.runs[k].mode}: {why}" for k, why in sorted(reasons.items())
    ]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(fp, passes) -> dict:
    from workloads import MODES

    per_solve = list(zip(*(p.runs for p in passes)))
    med = statistics.median
    first = passes[0].runs
    out = {
        "wall_s": sum(med(r.wall * r.scale for r in rs) for rs in per_solve),
        "setup_s": sum(med((r.wall - r.total) * r.scale for r in rs) for rs in per_solve),
    }
    for mode in MODES:
        totals = [med(r.total * r.scale for r in rs) for rs in per_solve if rs[0].mode == mode]
        out[f"sgm_s.{mode}"] = fp.shifted_gmean(totals, sh=SGM_SHIFT_S)
    for mode in MODES:
        out[f"iters.{mode}"] = sum(r.iterations for r in first if r.mode == mode)
    out["evals.safeguarded"] = sum(r.evals for r in first if r.mode == "safeguarded")
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def per_layer(tracer, p: Pass, untraced_walls, accel_fracs) -> tuple[dict, str | None]:
    """Per-layer metrics of one traced pass, and a reconciliation failure."""
    from tracing import self_times

    seconds, calls, root_total = self_times(tracer.spans, p.spans.start, p.spans.stop)
    out = {m: sum(seconds[s] for s in spans) for m, spans in SPAN_SECONDS.items()}
    out.update({m: sum(calls[s] for s in spans) for m, spans in SPAN_CALLS.items()})
    candidates = calls["accel.candidate"]
    rejected = sum(r.rejected for r in p.runs)
    out.update(
        {
            "conic.kkt_factor_calls": calls["conic.init"] + p.gamma_changes,
            "conic.gamma_changes": p.gamma_changes,
            "conic.certificates": sum(r.certificate for r in p.runs),
            "driver.rejected_evals": rejected,
            "driver.accept_ratio": (candidates - rejected) / candidates if candidates else 1.0,
            "accel.frac": statistics.median(accel_fracs),
            "trace.overhead_frac": p.wall / statistics.median(untraced_walls) - 1.0,
            "trace.unattributed_frac": (p.wall - root_total) / p.wall,
        }
    )

    covered = {s for spans in SPAN_SECONDS.values() for s in spans}
    problems = [f"span {name!r} belongs to no layer" for name in calls if name not in covered]
    problems += [f"span {name!r} has negative self time" for name, s in seconds.items() if s < -1e-9]
    attributed = sum(out[m] for m in SPAN_SECONDS)
    if abs(attributed + (p.wall - root_total) - p.wall) > 1e-9 * max(1.0, p.wall):
        problems.append(f"self times {attributed:.9f} s do not reconcile with {root_total:.9f} s")
    if root_total > p.wall:
        problems.append("spans cover more than the pass's wall time")
    return out, "; ".join(problems) or None


def accel_fraction(p: Pass) -> float:
    """RunRecord acceleration share of the safeguarded solves (criterion 9)."""
    runs = [r for r in p.runs if r.mode == "safeguarded"]
    total = sum(r.total for r in runs)
    return sum(r.accel for r in runs) / total if total > 0 else 0.0


# ---------------------------------------------------------------------------
# Context
# ---------------------------------------------------------------------------


def _blas_threads():
    """Thread count reported by the OpenBLAS numpy links, if it is OpenBLAS."""
    import ctypes

    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath

    # dlsym on numpy's extension module also searches the libraries it links.
    dll = ctypes.CDLL(_multiarray_umath.__file__)
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                "openblas_get_num_threads"):
        fn = getattr(dll, sym, None)
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_int
            return fn()
    return None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def context(args, passes) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "pass_walls_s": [round(p.wall, 4) for p in passes],
        "host_scale_median": statistics.median(r.scale for p in passes for r in p.runs),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


@dataclass
class Run:
    """The passes of one benchmark run and every failure found in them."""

    passes: list
    failures: list
    tracer: object = None


def run_passes(
    fp, cases, seconds: float, trace: bool, min_rounds: int, host_kernel: str = "small"
) -> Run:
    """Repeat rounds of passes until another would overrun ``seconds``.

    A round is one untraced pass, or with ``trace`` an untraced pass
    followed by a traced one.  Every pass is checked after it ends, and
    its counts must repeat those of the first pass.  The untraced passes
    of an untraced run sample the ``host_kernel`` reference; traced runs
    do not.
    """
    tracer = clock = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
    else:
        from hostspeed import HostClock

        clock = HostClock(host_kernel)
    run, reference = Run([], [], tracer), None
    t_run = time.perf_counter()
    while True:
        for traced in (False, True) if trace else (False,):
            if traced:
                first = len(tracer.spans)
                tracer.counts.clear()
                tracer.install()
                try:
                    p, sols = run_pass(fp, cases, tracer)
                finally:
                    tracer.uninstall()
                p.spans = range(first, len(tracer.spans))
                p.gamma_changes = tracer.counts["conic.gamma_changes"]
            else:
                p, sols = run_pass(fp, cases, clock=clock)
            run.failures += check_pass(cases, p, sols, reference)
            if reference is None:
                reference = [r.signature for r in p.runs]
            run.passes.append(p)
        rounds = len(run.passes) // (2 if trace else 1)
        elapsed = time.perf_counter() - t_run
        if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > seconds:
            return run


def result_of(fp, run: Run, trace: bool) -> dict:
    """The end-to-end (or, with ``trace``, per-layer) result of a run."""
    failures = list(run.failures)
    untraced = [p for p in run.passes if not p.traced]
    absent = []
    if not trace:
        values = end_to_end(fp, untraced)
        metrics = {name: (value, END_TO_END[name][0]) for name, value in values.items()}
    else:
        walls = [p.wall for p in untraced]
        fracs = [accel_fraction(p) for p in untraced]
        layers = []
        for p in run.passes:
            if p.traced:
                values, problem = per_layer(run.tracer, p, walls, fracs)
                layers.append(values)
                if problem is not None:
                    failures.append(f"trace reconciliation: {problem}")
        absent = _absent_metrics(run.tracer.absent)
        metrics = {
            name: (statistics.median(v[name] for v in layers), PER_LAYER[name][0])
            for name in PER_LAYER
            if name not in absent
        }
    return {
        "correct": not failures,
        "attempted": sum(len(p.runs) for p in run.passes),
        "failed": len(run.failures),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
        "failures": failures,
        "absent": absent,
    }


def _absent_metrics(absent_spans) -> list[str]:
    """Per-layer metrics that need a boundary the program no longer has."""
    gone = set(absent_spans)
    if "cones.project" in gone:
        gone |= {f"cones.project.{k}" for k in PROJECTED_KINDS}
    sources = {**SPAN_SECONDS, **SPAN_CALLS, **{m: d[2] for m, d in DERIVED.items()}}
    return [m for m, spans in sources.items() if gone.intersection(spans)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    fp = load_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {list(workloads.WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    cases = workloads.build(args.workload, args.seed)
    for case in workloads.warmup_cases():
        for mode in workloads.MODES:
            fp.solve(case.problem, mode, eps=case.eps, gamma=case.gamma)
    t_run = time.perf_counter()
    run = run_passes(
        fp, cases, args.seconds, bool(args.trace), 1 if args.trace else MIN_PASSES,
        workloads.HOST_KERNEL[args.workload],
    )
    result = result_of(fp, run, bool(args.trace))
    if args.trace:
        OUT.mkdir(exist_ok=True)
        run.tracer.write_csv(OUT / f"spans_{args.workload}.csv", t_run)
    ctx = context(args, run.passes)

    for reason in result["failures"][:20]:
        print(f"FAIL {reason}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{args.workload:>13}  {name:<26} {m['value']:>14.6g} {m['unit']}")
    if not args.trace:
        fail_frac = result["failed"] / result["attempted"]
        print(f"{args.workload:>13}  {'fail_frac':<26} {fail_frac:>14.6g} ratio")
    for name in result["absent"]:
        print(f"{args.workload:>13}  {name:<26} {'absent':>14}")
    print("context " + json.dumps(ctx, sort_keys=True))
    summary = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
