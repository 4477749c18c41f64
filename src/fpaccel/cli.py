"""Command-line benchmark front end.

Two subcommands:

* ``bench run`` executes a batch of problems (from files or generators)
  under the selected driver modes and writes trace/summary CSVs;
* ``bench gen`` writes one generated problem to a JSON file.

Generator specs have the form ``kind:params:seed`` with semicolon-separated
``key=value`` params and an optional seed range, e.g.
``RandomQP:n=50;m=100:1-20``.  Multiple specs are comma-separated.
"""

from __future__ import annotations

import argparse
import glob
import os
import sys

from . import bench, problems
from .driver import MODES, DriverConfig


def _parse_params(text: str) -> dict:
    params = {}
    if not text:
        return params
    for item in text.split(";"):
        if not item:
            continue
        key, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"bad parameter {item!r}, expected key=value")
        try:
            params[key] = int(value)
        except ValueError:
            params[key] = float(value)
    return params


def _parse_seeds(text: str) -> list[int]:
    lo, sep, hi = text.partition("-")
    if sep:
        first, last = int(lo), int(hi)
        if last < first:
            raise ValueError(f"empty seed range {text!r}")
        return list(range(first, last + 1))
    return [int(text)]


def parse_generate_specs(text: str) -> list[tuple[str, dict, int]]:
    """Expand 'kind:params:seed[,...]' into (kind, params, seed) triples."""
    out = []
    for spec in text.split(","):
        spec = spec.strip()
        if not spec:
            continue
        parts = spec.split(":")
        if len(parts) == 2:
            kind, param_text, seed_text = parts[0], "", parts[1]
        elif len(parts) == 3:
            kind, param_text, seed_text = parts
        else:
            raise ValueError(f"bad generate spec {spec!r}, expected kind[:params]:seed")
        params = _parse_params(param_text)
        for seed in _parse_seeds(seed_text):
            out.append((kind, params, seed))
    if not out:
        raise ValueError("no generate specs given")
    return out


def _spec_name(kind: str, params: dict, seed: int) -> str:
    parts = [kind] + [f"{k}{v}" for k, v in sorted(params.items())] + [f"s{seed}"]
    return "-".join(str(p) for p in parts)


def _collect_problems(args) -> list:
    named = []
    if args.problems:
        paths = (
            sorted(glob.glob(os.path.join(args.problems, "*.json")))
            if os.path.isdir(args.problems)
            else sorted(glob.glob(args.problems))
        )
        if not paths:
            raise ValueError(f"no problem files match {args.problems!r}")
        for path in paths:
            name = os.path.splitext(os.path.basename(path))[0]
            named.append((name, problems.load_problem(path)))
    if args.generate:
        for kind, params, seed in parse_generate_specs(args.generate):
            named.append((_spec_name(kind, params, seed), problems.generate(kind, seed, **params)))
    if not named:
        raise ValueError("give --problems and/or --generate")
    return named


def _cmd_run(args) -> int:
    named = _collect_problems(args)
    configs = [c.strip() for c in args.configs.split(",") if c.strip()]
    summary = bench.run_benchmark(
        named,
        configs,
        eps=args.eps,
        tau=args.tau,
        eta_max=args.eta_max,
        m_max=args.mmax,
        check_interval=args.check_interval,
        max_iter=args.max_iter,
        time_cap=args.time_cap,
        gamma=args.gamma,
        # Updates scheduled past the last iteration never run: a frozen step size.
        adapt_interval=args.max_iter + 1 if args.no_adapt else DriverConfig.adapt_interval,
        out_dir=args.out_dir,
        workers=args.threads,
    )
    print(bench.format_aggregates(summary))
    if args.out_dir:
        print(f"summary: {os.path.join(args.out_dir, 'summary.csv')}")
    return 0


def _cmd_gen(args) -> int:
    params = _parse_params(args.params)
    problem = problems.generate(args.kind, args.seed, **params)
    problems.save_problem(problem, args.out)
    print(f"wrote {args.kind} (seed {args.seed}, n={problem.n}, m={problem.m}) to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bench",
        description="Benchmark the fixed-point solver configurations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    cfg = DriverConfig()  # the solver settings' defaults

    run_p = sub.add_parser("run", help="run a benchmark batch")
    run_p.add_argument("--problems", help="directory or glob of problem JSON files")
    run_p.add_argument("--generate", help="generator specs kind:params:seed[,...]")
    run_p.add_argument(
        "--configs", default=",".join(bench.CONFIGS),
        help=f"comma-separated driver modes, any of {','.join(MODES)}",
    )
    run_p.add_argument("--eps", type=float, default=cfg.eps)
    run_p.add_argument("--tau", type=float, default=cfg.tau)
    run_p.add_argument("--eta-max", dest="eta_max", type=float, default=cfg.eta_max)
    run_p.add_argument("--mmax", type=int, default=cfg.m_max)
    run_p.add_argument(
        "--check-interval", dest="check_interval", type=int, default=cfg.check_interval,
        help="longest gap, in iterations, between convergence tests; an iteration whose "
        "trace residuals are within eps is tested too",
    )
    run_p.add_argument("--max-iter", dest="max_iter", type=int, default=cfg.max_iter)
    run_p.add_argument(
        "--time-cap", dest="time_cap", type=float, default=300.0,
        help="wall seconds per solve (positive, finite)",
    )
    run_p.add_argument("--out-dir", dest="out_dir")
    run_p.add_argument("--threads", type=int, default=1)
    run_p.add_argument("--gamma", type=float, default=1.0, help="initial step size")
    run_p.add_argument("--no-adapt", action="store_true", help="freeze the step size")
    run_p.set_defaults(func=_cmd_run)

    gen_p = sub.add_parser("gen", help="write one generated problem to JSON")
    gen_p.add_argument("--kind", required=True, help=f"one of {problems.GENERATOR_KINDS}")
    gen_p.add_argument("--seed", type=int, default=0)
    gen_p.add_argument("--out", required=True)
    gen_p.add_argument("--params", default="", help="semicolon-separated key=value sizes")
    gen_p.set_defaults(func=_cmd_gen)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, problems.InvalidParams, problems.ParseError,
            problems.SchemaError, bench.EmptyInput) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
