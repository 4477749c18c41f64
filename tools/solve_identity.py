#!/usr/bin/env python3
"""Solve-by-solve fingerprint of the benchmark's solves, to show a change is bit-identical.

    python3 tools/solve_identity.py

Runs from the root of a source checkout and imports ``fpaccel`` from its
``src/`` and the workload definitions from ``perfbench/workloads.py``.  It
solves four sets and prints the full and the points sha256 of each solve, then
three combined digests per set:

* ``bench``: ``qp_small``, ``sdp`` and ``adapt_infeas`` at workload seeds 0
  and 1 and ``qp_large`` at seed 0, each case in the three configurations
  (267 solves);
* ``strict``: strict mode with ``tau = 0.9`` on the first 10 ``qp_small``
  cases and the 20 ``adapt_infeas`` cases at seed 0 (30 solves);
* ``certs``: ``InfeasibleLP`` and ``UnboundedLP`` at generator seeds 1 to 8,
  each in the three configurations with ``eps = 1e-6`` (48 solves), so that a
  change to a certificate decision shows beyond the six infeasible LPs of
  ``adapt_infeas``;
* ``psd``: ``RandomSDP`` at sides 3, 15 and 30 and generator seeds 1 to 4,
  each in the three configurations with ``eps = 1e-5`` (36 solves), so that a
  change to the PSD projection shows beyond the side-10 blocks of ``sdp``.

Each hash covers the status, the run counters, the bytes of ``x``, ``s``,
``y`` and the final iterate, the objective's bits and every trace column
except the two timings.  Equal digests on two checkouts mean every iterate,
decision and count is the same.  The *points* digest covers the status, the
run counters and the bytes of ``x``, ``s``, ``y`` and the final iterate but
no trace column: equal points digests with unequal full digests mean only
trace columns moved.  The *counts* digest covers only the status, the run
counters and each trace entry's ``k``, ``accepted``, ``j``, ``epoch`` and
``cum_evals``: equal counts digests mean every decision and count is the
same, even where a change moves the bits of the iterates or residuals.
Last come the summed iterations and operator evaluations of each set per
``workload@seed`` (per generator kind for ``certs``, per side for ``psd``)
and mode, the counts a behaviour change moves.
"""

from __future__ import annotations

import hashlib
import os
import struct
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

BENCH_SETS = (
    ("qp_small", 0), ("qp_small", 1), ("sdp", 0), ("sdp", 1),
    ("adapt_infeas", 0), ("adapt_infeas", 1), ("qp_large", 0),
)
STRICT_TAU = 0.9
STRICT_QP_SMALL_CASES = 10
CERT_KINDS = ("InfeasibleLP", "UnboundedLP")
CERT_SEEDS = range(1, 9)
PSD_SIDES = (3, 15, 30)
PSD_SEEDS = range(1, 5)
PSD_EPS = 1e-5


def _status_and_counters(sol):
    rec = sol.record
    h = hashlib.sha256(sol.status.encode())
    h.update(struct.pack(
        "<5q", rec.iterations, rec.operator_evaluations, rec.rejected_candidates,
        rec.strict_checks, rec.convergence_checks,
    ))
    return h


def _points(sol):
    h = _status_and_counters(sol)
    for arr in (sol.x, sol.s, sol.y, sol.record.final_state.v):
        h.update(struct.pack("<q", arr.size) + arr.astype("<f8").tobytes())
    return h


def solve_digest(sol) -> str:
    """sha256 over everything a solve decides, its timings excepted."""
    rec = sol.record
    h = _points(sol)
    h.update(struct.pack("<d", sol.objective))
    for e in rec.entries:
        h.update(struct.pack(
            "<qd?qqqddd?", e.k, e.r_norm, e.accepted, e.j, e.epoch, e.cum_evals,
            e.step_norm, e.r_prim, e.r_dual, e.infeas_checked,
        ))
    return h.hexdigest()


def points_digest(sol) -> str:
    """sha256 over a solve's status, counters and returned point and iterate."""
    return _points(sol).hexdigest()


def counts_digest(sol) -> str:
    """sha256 over a solve's status, counters and per-iteration decisions."""
    h = _status_and_counters(sol)
    for e in sol.record.entries:
        h.update(struct.pack("<q?qqq", e.k, e.accepted, e.j, e.epoch, e.cum_evals))
    return h.hexdigest()


def combined(digests) -> str:
    return hashlib.sha256("".join(digests).encode()).hexdigest()


def main() -> int:
    # Before numpy loads: one BLAS thread, so a dense product sums in one order.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from fpaccel import conic
    from fpaccel.problems import generate
    import workloads

    iters, evals = Counter(), Counter()  # keyed by (set, workload@seed or kind, mode)

    def tally(key, sol):
        iters[key] += sol.record.iterations
        evals[key] += sol.record.operator_evaluations

    # full, points and counts digests per set
    digests = {kind: ([], [], []) for kind in ("bench", "strict", "certs", "psd")}

    def record(kind, sol):
        for out, digest in zip(digests[kind], (solve_digest, points_digest, counts_digest)):
            out.append(digest(sol))
        return f"{digests[kind][0][-1]} {digests[kind][1][-1]}"

    for workload, seed in BENCH_SETS:
        for case in workloads.build(workload, seed):
            for mode in workloads.MODES:
                sol = conic.solve(case.problem, mode, eps=case.eps, gamma=case.gamma)
                tally(("bench", f"{workload}@{seed}", mode), sol)
                print(f"bench  {workload}@{seed} {case.name} {mode} {record('bench', sol)}")

    cases = [("qp_small", c) for c in workloads.build("qp_small")[:STRICT_QP_SMALL_CASES]]
    cases += [("adapt_infeas", c) for c in workloads.build("adapt_infeas")]
    for workload, case in cases:
        sol = conic.solve(case.problem, "strict", eps=case.eps, gamma=case.gamma, tau=STRICT_TAU)
        tally(("strict", f"{workload}@0", "strict"), sol)
        print(f"strict {case.name} {record('strict', sol)}")

    for generator in CERT_KINDS:
        for seed in CERT_SEEDS:
            for mode in workloads.MODES:
                sol = conic.solve(generate(generator, seed=seed), mode, eps=1e-6)
                tally(("certs", generator, mode), sol)
                print(f"certs  {generator}@{seed} {mode} {record('certs', sol)}")

    for side in PSD_SIDES:
        for seed in PSD_SEEDS:
            problem = generate("RandomSDP", seed=seed, side=side)
            for mode in workloads.MODES:
                sol = conic.solve(problem, mode, eps=PSD_EPS)
                tally(("psd", f"RandomSDP:side={side}", mode), sol)
                print(f"psd    RandomSDP:side={side}@{seed} {mode} {record('psd', sol)}")

    for kind, (full, points, counts) in digests.items():
        print(f"{kind} digest ({len(full)} solves): {combined(full)}")
        print(f"{kind} points digest ({len(points)} solves): {combined(points)}")
        print(f"{kind} counts digest ({len(counts)} solves): {combined(counts)}")
    for key in iters:
        print("sums {} {} {} iterations={} evaluations={}".format(*key, iters[key], evals[key]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
