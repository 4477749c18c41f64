#!/usr/bin/env python3
"""Iteration sweep over problem families, seeds, solver settings and driver modes.

    python3 tools/sweep.py --generate SPECS [--modes MODES] [--gamma G,...]
        [--tau T,...] [--m-max M,...] [--eta-max E,...] [--eps EPS] [--max-iter N]
        [--draws K]

Runs from the root of a source checkout and imports ``fpaccel`` from its
``src/``.  ``--generate`` takes the generator specs of ``bench run``
(``kind:params:seeds``, comma-separated, e.g. ``RandomQP:n=30;m=60:21-35``);
each spec is one family.  The setting axes take comma-separated values and
the sweep runs their full grid: the starting step size ``gamma``, the
safeguard's ``tau``, the memory ``m_max`` and the coefficient guard
``eta_max``.  Every family and setting is solved by ``conic.solve`` in
vanilla, which is always included as the reference, and in each of
``--modes`` (any ``driver.MODES`` entry; safeguarded by default), from each of
``--draws`` starting points: draw 0 starts at v0 = 0, draw d >= 1 at
1e-12 * ``default_rng(1000 + d).standard_normal(n + m)``, a perturbation
that shows how much a count rests on rounding.

It prints one row per family, setting, draw and mode: the reached statuses with
their counts, the sum and median of iterations and of operator evaluations,
the summed rejected candidates, the summed step-size changes (the last trace
entry's epoch), the summed solve seconds and, on each accelerated row, the
bound count: how many solves reached vanilla's status on the same problem and
setting within max(2000, 3 x vanilla's iterations).  The count is read off
the solves the sweep already ran, since a run is deterministic: a solve that
stopped with another status, or later than the bound, missed it, and where
vanilla stopped at ``--max-iter`` an accelerated solve that did too met it.
A solve that stopped at ``--max-iter`` below its bound, where vanilla reached
another status, cannot be judged; the cell then reads ``met/n (u open)``, so
pass a ``--max-iter`` of at least the bound (20000 judges every solve whose
vanilla run took up to 6666 iterations).  Each accelerated row also counts its
wins apart: solves that converged or certified where vanilla stopped at
``--max-iter``, which the bound counts as misses.  Under the table, one
``total`` row per draw and mode sums that mode's rows at that draw over every
family and setting: its statuses, iterations, evaluations, rejections,
step-size changes, seconds, bound count with its open cells and wins, its
medians taken over all its solves.  Last, one line per accelerated mode gives
its total bound count and wins at each draw and the least bound count over
the draws.  It checks
that every solve's evaluations are its iterations plus its rejections, and
exits 1, naming the solves, when one is not; a bad spec, mode or setting
exits 2 before any solve.

It sets no BLAS thread count.  Accelerated counts move with the rounding of
dense products, so compare two checkouts under the same thread count, e.g.
``OPENBLAS_NUM_THREADS=1``.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

AXES = ("gamma", "tau", "m_max", "eta_max")  # the setting axes, in the table's order
BOUND_FLOOR, BOUND_FACTOR = 2000, 3  # the bound: max(2000, 3 x vanilla's iterations)
DRAW_SCALE, DRAW_SEED = 1e-12, 1000  # draw d >= 1: DRAW_SCALE x N(0, I) of seed DRAW_SEED + d


@dataclass
class Row:
    """The solves of one family under one setting and mode."""

    family: str
    setting: dict
    mode: str
    draw: int = 0
    statuses: Counter = field(default_factory=Counter)
    outcomes: list = field(default_factory=list)  # (status, iterations or None) per solve
    iterations: list = field(default_factory=list)
    evaluations: list = field(default_factory=list)
    rejections: int = 0
    gamma_changes: int = 0
    seconds: float = 0.0
    unreconciled: list = field(default_factory=list)  # names of solves whose counts disagree
    in_bound: int | None = None  # solves within the bound; None on the vanilla row
    open: int = 0  # solves the bound count cannot judge
    wins: int = 0  # solves that converged or certified where vanilla stopped at max_iter


def bound_counts(vanilla, accelerated) -> tuple[int, int, int]:
    """(met, open, wins): of the ``accelerated`` outcomes, those that reached
    the status of the ``vanilla`` outcome of the same problem within the
    bound, those that stopped at the iteration cap below it while vanilla
    reached another status, and those that converged or certified where
    vanilla stopped at the iteration cap.  Outcomes are (status, iterations),
    iterations None for a solve that raised."""
    from fpaccel.conic import DUAL_INFEASIBLE, PRIMAL_INFEASIBLE
    from fpaccel.driver import CONVERGED, MAX_ITER

    met = open_ = wins = 0
    for (status0, iters0), (status, iters) in zip(vanilla, accelerated, strict=True):
        if iters0 is None or iters is None:
            continue
        bound = max(BOUND_FLOOR, BOUND_FACTOR * iters0)
        if status == status0:
            met += iters <= bound
        elif status == MAX_ITER and iters < bound:
            open_ += 1
        elif status0 == MAX_ITER:
            wins += status in (CONVERGED, PRIMAL_INFEASIBLE, DUAL_INFEASIBLE)
    return met, open_, wins


def start(problem, draw: int):
    """The starting point of ``draw``: None (v0 = 0) at draw 0."""
    if draw == 0:
        return None
    rng = np.random.default_rng(DRAW_SEED + draw)
    return DRAW_SCALE * rng.standard_normal(problem.n + problem.m)


def sweep(families, modes, grid, draws: int = 1, **settings) -> list[Row]:
    """Solve every family under every setting of ``grid`` from each of
    ``draws`` starts, in vanilla and ``modes``.

    ``families`` is a list of (family name, [(problem name, ConicProblem)])
    pairs, ``grid`` a list of dicts of ``AXES`` values; ``settings`` go to
    every solve.  A bad mode or setting raises ValueError before any solve;
    a solve that raises has its exception's type name as its status.
    """
    from fpaccel import conic
    from fpaccel.driver import VANILLA

    configs = [VANILLA] + [m for m in modes if m != VANILLA]
    for mode, setting in itertools.product(configs, grid):
        conic.solve_config(mode, **setting, **settings)
    rows = []
    for (family, problems), setting, draw in itertools.product(families, grid, range(draws)):
        by_mode = {mode: Row(family, setting, mode, draw) for mode in configs}
        for (name, problem), (mode, row) in itertools.product(problems, by_mode.items()):
            try:
                rec = conic.solve(problem, mode, v0=start(problem, draw),
                                  **setting, **settings).record
            except Exception as exc:  # a failing solve must not sink the sweep
                row.statuses[type(exc).__name__] += 1
                row.outcomes.append((type(exc).__name__, None))
                continue
            row.statuses[rec.status] += 1
            row.outcomes.append((rec.status, rec.iterations))
            row.iterations.append(rec.iterations)
            row.evaluations.append(rec.operator_evaluations)
            row.rejections += rec.rejected_candidates
            row.gamma_changes += rec.entries[-1].epoch if rec.entries else 0
            row.seconds += rec.total_seconds
            if rec.operator_evaluations != rec.iterations + rec.rejected_candidates:
                row.unreconciled.append(name)
        for row in list(by_mode.values())[1:]:
            row.in_bound, row.open, row.wins = bound_counts(by_mode[VANILLA].outcomes,
                                                            row.outcomes)
        rows.extend(by_mode.values())
    return rows


def totals(rows) -> list[Row]:
    """One ``total`` row per draw and mode, in the order they first appear,
    over all of that mode's ``rows`` at that draw."""
    out = {}
    for row in rows:
        total = out.setdefault((row.draw, row.mode), Row("total", {}, row.mode, row.draw))
        total.statuses += row.statuses
        total.outcomes += row.outcomes
        total.iterations += row.iterations
        total.evaluations += row.evaluations
        total.rejections += row.rejections
        total.gamma_changes += row.gamma_changes
        total.seconds += row.seconds
        if row.in_bound is not None:
            total.in_bound = (total.in_bound or 0) + row.in_bound
            total.open += row.open
            total.wins += row.wins
    return list(out.values())


def format_draws(total_rows) -> str:
    """One line per accelerated mode of ``total_rows`` (the rows of ``totals``):
    its bound count and wins at each draw and the least bound count."""
    by_mode = {}
    for total in total_rows:
        if total.in_bound is not None:
            by_mode.setdefault(total.mode, []).append(total)
    return "\n".join(
        f"{mode}: in bound {', '.join(_bound_cell(t) for t in mine)}"
        f" (min {min(t.in_bound for t in mine)}); wins {', '.join(str(t.wins) for t in mine)}"
        for mode, mine in by_mode.items())


def _sum_median(values) -> str:
    return f"{sum(values)}/{np.median(values):g}" if values else "-"


def _bound_cell(row) -> str:
    if row.in_bound is None:
        return "-"
    cell = f"{row.in_bound}/{len(row.outcomes)}"
    return cell + f" ({row.open} open)" if row.open else cell


def format_table(rows) -> str:
    """The sweep's rows as an aligned text table, one line per row."""
    header = ("family", *AXES, "draw", "mode", "statuses", "iters sum/med", "evals sum/med",
              "rejected", "gamma_changes", "seconds", "in bound", "wins")
    lines = [header]
    for row in rows:
        statuses = ",".join(f"{status}={n}" for status, n in sorted(row.statuses.items()))
        lines.append((
            row.family, *(f"{row.setting[axis]:g}" if row.setting else "-" for axis in AXES),
            str(row.draw), row.mode, statuses,
            _sum_median(row.iterations), _sum_median(row.evaluations), str(row.rejections),
            str(row.gamma_changes), f"{row.seconds:.3f}", _bound_cell(row),
            "-" if row.in_bound is None else str(row.wins),
        ))
    widths = [max(len(line[i]) for line in lines) for i in range(len(header))]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(line, widths)).rstrip()
                     for line in lines)


def _values(convert):
    return lambda text: [convert(item) for item in text.split(",") if item.strip()]


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from fpaccel import problems
    from fpaccel.cli import parse_generate_specs
    from fpaccel.driver import MODES, DriverConfig

    cfg = DriverConfig()  # the settings' defaults
    parser = argparse.ArgumentParser(prog="sweep", description=__doc__.split("\n\n")[0])
    parser.add_argument("--generate", required=True,
                        help="generator specs kind:params:seeds[,...]")
    parser.add_argument("--modes", type=_values(str), default=["safeguarded"],
                        help=f"comma-separated modes beside vanilla, any of {','.join(MODES)}")
    parser.add_argument("--gamma", type=_values(float), default=[1.0])
    parser.add_argument("--tau", type=_values(float), default=[cfg.tau])
    parser.add_argument("--m-max", dest="m_max", type=_values(int), default=[cfg.m_max])
    parser.add_argument("--eta-max", dest="eta_max", type=_values(float), default=[cfg.eta_max])
    parser.add_argument("--eps", type=float, default=cfg.eps)
    parser.add_argument("--max-iter", dest="max_iter", type=int, default=cfg.max_iter)
    parser.add_argument("--draws", type=int, default=1,
                        help="starting points per solve: draw 0 is v0 = 0, draw d >= 1 a "
                             f"{DRAW_SCALE:g}-scaled normal draw of seed {DRAW_SEED} + d")
    args = parser.parse_args(argv)
    if args.draws < 1:
        parser.error("--draws must be at least 1")

    grid = [dict(zip(AXES, values))
            for values in itertools.product(*(getattr(args, axis) for axis in AXES))]
    families = {}
    try:
        for kind, params, seed in parse_generate_specs(args.generate):
            family = kind + "".join(f":{k}={v:g}" for k, v in params.items())
            families.setdefault(family, []).append(
                (f"{family}@{seed}", problems.generate(kind, seed, **params)))
        rows = sweep(list(families.items()), args.modes, grid, args.draws, eps=args.eps,
                     max_iter=args.max_iter)
    except (ValueError, problems.InvalidParams) as exc:  # a bad spec, mode or setting
        print(f"error: {exc}", file=sys.stderr)
        return 2
    total_rows = totals(rows)
    print(format_table(rows + total_rows))
    print(format_draws(total_rows))
    bad = [(row.mode, name) for row in rows for name in row.unreconciled]
    for mode, name in bad:
        print(f"error: {name} {mode}: evaluations != iterations + rejections", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
