#!/usr/bin/env python3
"""Solve-by-solve fingerprint of the benchmark's solves, to show a change is bit-identical.

    python3 tools/solve_identity.py

Runs from the root of a source checkout and imports ``fpaccel`` from its
``src/`` and the workload definitions from ``perfbench/workloads.py``.  It
solves three sets and prints one line per solve (its status, its iteration
count and its full and points sha256), then three combined digests per set:

* ``bench``: ``qp_small``, ``sdp`` and ``adapt_infeas`` at workload seeds 0
  and 1 and ``qp_large`` at seed 0, each case in the three configurations
  (267 solves);
* ``certs``: ``InfeasibleLP`` and ``UnboundedLP`` at generator seeds 1 to 8,
  ``InfeasibleQP`` at seeds 200 to 207 and ``UnboundedQP`` at scales 1 and
  1e2 and seeds 100 to 107, each in the three configurations with
  ``eps = 1e-6`` and ``max_iter = 20000`` (120 solves), so that a change to a
  certificate decision shows beyond the six infeasible LPs of
  ``adapt_infeas``; every mode detects all 40 certificates, but the
  accelerated modes' iteration counts on the QP families move with rounding;
* ``psd``: ``RandomSDP`` at sides 3, 15 and 30 and generator seeds 1 to 4,
  each in the three configurations with ``eps = 1e-5`` (36 solves), so that a
  change to the PSD projection shows beyond the side-10 blocks of ``sdp``.

The run counters are the iterations, operator evaluations, rejected
candidates and convergence checks.  The full digest covers the status, the
run counters, the bytes of ``x``, ``s``, ``y`` and the final iterate, the
objective's bits and every trace column except the two timings: equal full
digests on two checkouts mean every iterate, decision and count is the same.
The *points* digest covers only the status, the iteration count and the
bytes of ``x``, ``s``, ``y`` and the final iterate: equal points digests with
unequal full digests mean the trajectory's end is the same and only trace
columns or counters moved, as when a change only saves evaluations.  The
*counts* digest covers only the status, the run counters and each trace
entry's ``k``, ``accepted``, ``j``, ``epoch`` and ``cum_evals``: equal counts
digests mean every decision and count is the same, even where a change moves
the bits of the iterates or residuals.  Last come the summed iterations,
operator evaluations and convergence checks of each set per
``workload@seed`` (per family for ``certs``, per side for ``psd``) and mode,
the counts a behaviour change moves.

Run it on two checkouts and diff the outputs.  A change that only stops
earlier, on the same trajectory, shows as equal statuses on every per-solve
line, a lower iteration count and new digests on the lines whose stop moved
(their trace is a prefix of the old one), byte-equal lines elsewhere, and
sums that fall or stay.  A change that only saves evaluations shows as equal
statuses, iteration counts and points digests, new full digests on the lines
that saved some, and evaluation sums that fall.
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
# (generator, parameters, seeds) of each certificate family
CERT_FAMILIES = (
    ("InfeasibleLP", {}, range(1, 9)),
    ("UnboundedLP", {}, range(1, 9)),
    ("InfeasibleQP", {}, range(200, 208)),
    ("UnboundedQP", {"scale": 1.0}, range(100, 108)),
    ("UnboundedQP", {"scale": 1e2}, range(100, 108)),
)
CERT_MAX_ITER = 20000
PSD_SIDES = (3, 15, 30)
PSD_SEEDS = range(1, 5)
PSD_EPS = 1e-5


def _counters(rec) -> bytes:
    return struct.pack(
        "<4q", rec.iterations, rec.operator_evaluations, rec.rejected_candidates,
        rec.convergence_checks,
    )


def _points(sol):
    h = hashlib.sha256(sol.status.encode())
    h.update(struct.pack("<q", sol.record.iterations))
    for arr in (sol.x, sol.s, sol.y, sol.record.final_state.v):
        h.update(struct.pack("<q", arr.size) + arr.astype("<f8").tobytes())
    return h


def solve_digest(sol) -> str:
    """sha256 over everything a solve decides, its timings excepted."""
    rec = sol.record
    h = _points(sol)
    h.update(_counters(rec) + struct.pack("<d", sol.objective))
    for e in rec.entries:
        h.update(struct.pack(
            "<qd?qqqdd?", e.k, e.r_norm, e.accepted, e.j, e.epoch, e.cum_evals,
            e.r_prim, e.r_dual, e.infeas_checked,
        ))
    return h.hexdigest()


def points_digest(sol) -> str:
    """sha256 over a solve's status, iteration count and returned point and iterate."""
    return _points(sol).hexdigest()


def counts_digest(sol) -> str:
    """sha256 over a solve's status, counters and per-iteration decisions."""
    h = hashlib.sha256(sol.status.encode())
    h.update(_counters(sol.record))
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

    # keyed by (set, workload@seed or kind, mode)
    iters, evals, checks = Counter(), Counter(), Counter()

    def tally(key, sol):
        iters[key] += sol.record.iterations
        evals[key] += sol.record.operator_evaluations
        checks[key] += sol.record.convergence_checks

    # full, points and counts digests per set
    digests = {kind: ([], [], []) for kind in ("bench", "certs", "psd")}

    def record(kind, sol):
        for out, digest in zip(digests[kind], (solve_digest, points_digest, counts_digest)):
            out.append(digest(sol))
        return (f"{sol.status} {sol.record.iterations} "
                f"{digests[kind][0][-1]} {digests[kind][1][-1]}")

    for workload, seed in BENCH_SETS:
        for case in workloads.build(workload, seed):
            for mode in workloads.MODES:
                sol = conic.solve(case.problem, mode, eps=case.eps, gamma=case.gamma)
                tally(("bench", f"{workload}@{seed}", mode), sol)
                print(f"bench  {workload}@{seed} {case.name} {mode} {record('bench', sol)}")

    for generator, params, seeds in CERT_FAMILIES:
        family = generator + "".join(f":{k}={v:g}" for k, v in params.items())
        for seed in seeds:
            problem = generate(generator, seed=seed, **params)
            for mode in workloads.MODES:
                sol = conic.solve(problem, mode, eps=1e-6, max_iter=CERT_MAX_ITER)
                tally(("certs", family, mode), sol)
                print(f"certs  {family}@{seed} {mode} {record('certs', sol)}")

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
        print("sums {} {} {} iterations={} evaluations={} convergence_checks={}".format(
            *key, iters[key], evals[key], checks[key]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
