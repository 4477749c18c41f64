#!/usr/bin/env python3
"""Alternating before/after pairs of the benchmark, and the claim rule on them.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W [--seed S]
        [--pairs N] [--seconds T] [--json PATH]

PARENT and CHANGE are two source checkouts.  For each of N pairs the tool
runs ``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0``
once in each checkout, from the checkout's root, with the order alternating:
the parent runs first in even pairs and the change in odd ones.  It reads
each run's closing JSON line and stops with exit status 1 as soon as a run
reports ``correct: false`` or exits non-zero.  It sets no BLAS thread count
and edits nothing in either checkout.

For each end-to-end metric that ``BENCHMARK.json`` in CHANGE lists, it prints
each side's median and quartiles, the parent's interquartile range, the
change's median relative to the parent's (``relative_change``, in percent), the
change's wins (ties count for neither side) and whether the claim rule holds:
the change wins at least nine tenths of the pairs, and its median is better
than the parent's by more than the parent's interquartile range.

``--json PATH`` stores every pair and the summary under the key ``W@S`` of
the JSON object in PATH, which is created, or updated when it exists, so that
runs of several workloads and seeds collect in one file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

WIN_TENTHS = 9  # the claim rule's share of pairs the change must win, in tenths


def quartiles(values) -> tuple[float, float]:
    """Lower and upper quartile (inclusive method; a single value is both)."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def compare(parent, change, better: str = "lower") -> dict:
    """The claim rule on paired runs of one metric.

    ``parent[i]`` and ``change[i]`` come from pair i.  A pair is won when the
    change's value is strictly better; the claim holds when the change wins at
    least ``WIN_TENTHS`` tenths of the pairs and its median is better than the
    parent's by more than the parent's interquartile range.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of parent and change runs")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q, c_q = quartiles(parent), quartiles(change)
    p_iqr = p_q[1] - p_q[0]
    gain = sign * (p_med - c_med)
    return {
        "pairs": len(parent),
        "change_wins": wins,
        "parent_median": p_med,
        "parent_quartiles": list(p_q),
        "change_median": c_med,
        "change_quartiles": list(c_q),
        "parent_iqr": p_iqr,
        "relative_change": (c_med - p_med) / p_med if p_med else None,
        "claim_holds": 10 * wins >= WIN_TENTHS * len(parent) and gain > p_iqr,
    }


def percent(ratio: float | None) -> str:
    """A relative change as a signed percentage; ``n/a`` when there is none (a parent median of 0)."""
    return "n/a" if ratio is None else f"{100 * ratio:+.1f}%"


def end_to_end(checkout: Path) -> list[tuple[str, str]]:
    """(name, better) of each end-to-end metric the checkout's benchmark declares."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    return [(m["name"], m["better"]) for m in spec["end_to_end"]]


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``checkout``: its closing JSON object."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: run exited {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def commit_of(checkout: Path) -> str | None:
    """The checkout's commit, suffixed ``-dirty`` when its tree has changes; None outside git."""
    proc = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                          cwd=checkout, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be >= 1 and --seconds > 0")

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    metrics = end_to_end(sides["change"])
    pairs = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"first": order[0]}
        for side in order:
            out = run_once(sides[side], args.workload, args.seed, args.seconds)
            pair[side] = {
                "correct": out["correct"], "attempted": out["attempted"], "failed": out["failed"],
                "metrics": {n: m["value"] for n, m in out["metrics"].items()},
            }
            if not out["correct"]:
                print(f"pair {i + 1}: the {side} run reports correct: false", file=sys.stderr)
                return 1
        pairs.append(pair)
        print(f"pair {i + 1}/{args.pairs} done ({order[0]} first)", file=sys.stderr)

    summary = {}
    print(f"{args.workload}@{args.seed}: {args.pairs} pairs of {args.seconds:g} s runs")
    print(f"{'metric':<18} {'parent median [q1, q3]':>37} {'change median [q1, q3]':>37} "
          f"{'parent IQR':>10} {'change':>8} {'wins':>5}  claim")
    for name, better in metrics:
        if not all(name in p[s]["metrics"] for p in pairs for s in sides):
            continue
        row = compare([p["parent"]["metrics"][name] for p in pairs],
                      [p["change"]["metrics"][name] for p in pairs], better)
        summary[name] = row
        pq, cq = row["parent_quartiles"], row["change_quartiles"]
        print(f"{name:<18} {row['parent_median']:>11.5g} [{pq[0]:>10.5g}, {pq[1]:>10.5g}]"
              f" {row['change_median']:>11.5g} [{cq[0]:>10.5g}, {cq[1]:>10.5g}]"
              f" {row['parent_iqr']:>10.3g} {percent(row['relative_change']):>8}"
              f" {row['change_wins']:>2}/{row['pairs']:<2}"
              f"  {'holds' if row['claim_holds'] else 'no'}")

    if args.json is not None:
        doc = json.loads(args.json.read_text()) if args.json.exists() else {}
        doc.setdefault("runs", {})[f"{args.workload}@{args.seed}"] = {
            "command": f"python3 perfbench/run.py --workload {args.workload} --seed {args.seed}"
                       f" --seconds {args.seconds:g} --trace 0",
            "parent_commit": commit_of(sides["parent"]),
            "change_commit": commit_of(sides["change"]),
            "summary": summary,
            "pairs": pairs,
        }
        args.json.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
