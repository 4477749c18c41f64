#!/usr/bin/env python3
"""Acceleration share of the criterion-9 solve, under the default BLAS threads.

    python3 tools/accel_share.py [N]

Runs from the root of a source checkout and imports ``fpaccel`` from its
``src/``.  It solves the problem of acceptance criterion 9 (RandomQP n=420
m=620 seed 11, safeguarded, ``eps=1e-6``, ``m_max=15``) N times, 20 by
default, and prints:

* the median, p95 and max of ``RunRecord.accel_fraction``, the share of the
  solve spent proposing accelerated points, which criterion 9 keeps below
  0.30, and ``share_over_gate``, the number of solves whose share is at or
  above that gate;
* the p50, p99 and max of the per-iteration ``TraceEntry.accel_seconds``
  over all N solves;
* the seconds spent in iterations whose acceleration took over 1 ms, the
  stalls that make one solve's share an outlier.

It sets no BLAS thread count, so it sees what a user with the default
threads sees; pinning one thread hides the stalls.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

RUNS = 20
STALL_SECONDS = 1e-3
SHARE_GATE = 0.30  # criterion 9's bound on the acceleration share


def summary(records) -> dict[str, float | int]:
    """Share and per-iteration acceleration statistics of solve records."""
    shares = [rec.accel_fraction for rec in records]
    calls = np.array([e.accel_seconds for rec in records for e in rec.entries])
    return {
        "share_median": float(np.median(shares)),
        "share_p95": float(np.percentile(shares, 95)),
        "share_max": max(shares),
        "share_over_gate": sum(share >= SHARE_GATE for share in shares),
        "accel_p50_s": float(np.percentile(calls, 50)),
        "accel_p99_s": float(np.percentile(calls, 99)),
        "accel_max_s": float(calls.max()),
        "stall_s": float(calls[calls > STALL_SECONDS].sum()),
    }


def main(argv) -> int:
    runs = int(argv[0]) if argv else RUNS
    sys.path.insert(0, str(ROOT / "src"))
    from fpaccel.conic import solve
    from fpaccel.problems import generate

    problem = generate("RandomQP", n=420, m=620, seed=11)
    records = []
    for _ in range(runs):
        sol = solve(problem, "safeguarded", eps=1e-6, m_max=15)
        if sol.status != "converged":
            print(f"solve ended {sol.status}", file=sys.stderr)
            return 1
        records.append(sol.record)
    iterations = sorted({rec.iterations for rec in records})
    print(f"criterion-9 solve, {runs} runs, iterations {iterations}")
    for name, value in summary(records).items():
        print(f"{name} {value:.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
