import csv
import importlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from fpaccel import cli
from fpaccel.bench import EmptyInput, CONFIGS, run_benchmark, shifted_gmean
from fpaccel.cones import BOX, NONNEG, PSD_TRIANGLE, ConeBlock
from fpaccel.conic import ConicProblem, solve
from fpaccel.driver import DriverConfig
from fpaccel.problems import (
    InvalidParams,
    ParseError,
    SchemaError,
    generate,
    load_problem,
    save_problem,
)


# -- shifted geometric mean -----------------------------------------------------


def test_shifted_gmean_unit_values():
    assert abs(shifted_gmean([0.0], sh=10.0) - 0.0) <= 1e-12
    assert abs(shifted_gmean([90.0, 90.0], sh=10.0) - 90.0) <= 1e-12
    # sqrt(10 * 1000) - 10 = 90
    assert abs(shifted_gmean([0.0, 990.0], sh=10.0) - 90.0) <= 1e-12


def test_shifted_gmean_monotone():
    rng = np.random.default_rng(0)
    for _ in range(50):
        times = rng.uniform(0.0, 100.0, 8)
        base = shifted_gmean(times)
        idx = rng.integers(0, 8)
        bumped = times.copy()
        bumped[idx] += rng.uniform(0.1, 50.0)
        assert shifted_gmean(bumped) >= base


def test_shifted_gmean_identical_times():
    for t in (0.0, 1.0, 123.456):
        assert abs(shifted_gmean([t] * 5) - t) <= 1e-12 * max(1.0, t)


def test_shifted_gmean_errors():
    with pytest.raises(EmptyInput):
        shifted_gmean([])
    with pytest.raises(ValueError):
        shifted_gmean([1.0], sh=0.0)
    with pytest.raises(ValueError):
        shifted_gmean([-1.0])


# -- generators ------------------------------------------------------------------


def test_generator_determinism():
    a = generate("RandomQP", n=50, m=100, seed=1)
    b = generate("RandomQP", n=50, m=100, seed=1)
    assert np.array_equal(a.P, b.P)
    assert np.array_equal(a.q, b.q)
    assert np.array_equal(a.A, b.A)
    assert np.array_equal(a.b, b.b)
    c = generate("RandomQP", n=50, m=100, seed=2)
    assert not np.array_equal(a.b, c.b)


def test_portfolio_psd_by_construction():
    prob = generate("Portfolio", assets=100, factors=10, seed=7)
    vals = np.linalg.eigvalsh(prob.P)
    assert vals.min() >= -1e-10


def test_lasso_dimensions_consistent():
    prob = generate("Lasso", features=12, samples=20, seed=4)
    assert prob.n == 12 + 20 + 12
    assert prob.m == 20 + 2 * 12
    assert sum(c.dim for c in prob.cones) == prob.m


def test_random_sdp_block():
    prob = generate("RandomSDP", side=5, seed=2)
    assert prob.cones[0].kind == PSD_TRIANGLE
    assert prob.m == 15


def test_infeasible_by_construction():
    prob = generate("InfeasibleLP", seed=3)
    # rows say x <= c_lo and x >= c_hi with c_lo < 0 < c_hi
    assert prob.b[0] < 0.0 < -prob.b[1]


def test_generate_rejects_unknown():
    with pytest.raises(InvalidParams):
        generate("Knapsack", seed=0)
    with pytest.raises(InvalidParams):
        generate("RandomQP", seed=0, banana=3)


# -- problem files ----------------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    for kind, params in [
        ("RandomQP", dict(n=8, m=12)),
        ("Portfolio", dict(assets=6, factors=2)),
        ("RandomSDP", dict(side=3)),
    ]:
        prob = generate(kind, seed=5, **params)
        path = tmp_path / f"{kind}.json"
        save_problem(prob, path)
        loaded = load_problem(path)
        assert np.array_equal(prob.P, loaded.P)
        assert np.array_equal(prob.q, loaded.q)
        assert np.array_equal(prob.A, loaded.A)
        assert np.array_equal(prob.b, loaded.b)
        assert prob.cones == loaded.cones


def test_load_box_bounds_with_nulls(tmp_path):
    doc = {
        "n": 1,
        "m": 2,
        "P": [],
        "q": [0.0],
        "A": [{"row": 0, "col": 0, "value": 1.0}],
        "b": [0.0, 1.0],
        "cones": [{"kind": "box", "dim": 2, "l": [None, 0.5], "u": [3.0, None]}],
    }
    path = tmp_path / "box.json"
    path.write_text(json.dumps(doc))
    prob = load_problem(path)
    block = prob.cones[0]
    assert block.kind == BOX
    assert block.l[0] == -math.inf and block.u[1] == math.inf


def test_load_duplicate_triplets_summed(tmp_path):
    doc = {
        "n": 1,
        "m": 1,
        "P": [{"row": 0, "col": 0, "value": 1.0}, {"row": 0, "col": 0, "value": 2.0}],
        "q": [0.0],
        "A": [{"row": 0, "col": 0, "value": 1.0}],
        "b": [1.0],
        "cones": [{"kind": "nonneg", "dim": 1}],
    }
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(doc))
    assert load_problem(path).P[0, 0] == 3.0


def test_load_schema_errors(tmp_path):
    bad_sum = {
        "n": 1,
        "m": 2,
        "P": [],
        "q": [0.0],
        "A": [],
        "b": [0.0, 0.0],
        "cones": [{"kind": "nonneg", "dim": 1}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad_sum))
    with pytest.raises(SchemaError, match="cone dims"):
        load_problem(path)

    out_of_range = dict(bad_sum)
    out_of_range["cones"] = [{"kind": "nonneg", "dim": 2}]
    out_of_range["A"] = [{"row": 5, "col": 0, "value": 1.0}]
    path.write_text(json.dumps(out_of_range))
    with pytest.raises(SchemaError, match="out of range"):
        load_problem(path)

    path.write_text("{not json")
    with pytest.raises(ParseError, match="line 1"):
        load_problem(path)

    path.write_bytes(b'{"n": "\xff"}')  # not UTF-8
    with pytest.raises(ParseError, match="utf-8"):
        load_problem(path)

    path.write_text("[" * 100000 + "]" * 100000)  # too deep to decode
    with pytest.raises(ParseError, match="recursion"):
        load_problem(path)

    def write_with_literal(base, where, literal):
        """Write base with the entry at the key path ``where`` set to a raw JSON literal."""
        doc = json.loads(json.dumps(base))
        parent = doc
        for key in where[:-1]:
            parent = parent[key]
        parent[where[-1]] = "@"
        path.write_text(json.dumps(doc).replace('"@"', literal))

    # Dimensions and indices must be JSON integers, written here as raw
    # literals: true, 0.7 and 1.9 used to be truncated, 1e400 to overflow.
    valid = {
        "n": 2,
        "m": 2,
        "P": [],
        "q": [0.0, 0.0],
        "A": [{"row": 0, "col": 0, "value": 1.0}],
        "b": [0.0, 0.0],
        "cones": [{"kind": "nonneg", "dim": 2}],
    }
    path.write_text(json.dumps(valid))
    assert load_problem(path).n == 2
    path.write_text(json.dumps(dict(valid, n=10**20)))  # no 10^20-square buffer
    with pytest.raises(SchemaError, match="q must have"):
        load_problem(path)
    for where, literal, name in [
        (("n",), "true", "n"),
        (("m",), "2.0", "m"),
        (("n",), "1e400", "n"),
        (("A", 0, "row"), "0.7", "A[0].row"),
        (("A", 0, "col"), "1.9", "A[0].col"),
        (("P",), '[{"row": false, "col": 0, "value": 1.0}]', "P[0].row"),
        (("cones", 0, "dim"), "1e400", "cones[0].dim"),
        (("cones", 0, "dim"), "true", "cones[0].dim"),
    ]:
        write_with_literal(valid, where, literal)
        with pytest.raises(SchemaError, match=rf"^{re.escape(name)} must be an integer"):
            load_problem(path)

    # Data entries must be JSON numbers: strings and booleans used to be
    # converted by float(); null stays "unbounded" in box bounds only.
    box = dict(valid, cones=[{"kind": "box", "dim": 2, "l": [None, 0.0], "u": [1.0, None]}])
    path.write_text(json.dumps(box))
    assert load_problem(path).cones[0].l[0] == -np.inf
    for where, literal, message in [
        (("q", 0), '"1.5"', "q[0] must be a number"),
        (("b", 1), "false", "b[1] must be a number"),
        (("b", 0), "null", "b[0] must be a number"),
        (("A", 0, "value"), '"2"', "A[0].value must be a number"),
        (("A", 0, "value"), "true", "A[0].value must be a number"),
        (("cones", 0, "l", 1), '"0"', "cones[0].l[1] must be a number or null"),
        (("cones", 0, "u", 0), "true", "cones[0].u[0] must be a number or null"),
        (("q", 1), "1" + "0" * 400, "q[1] is out of range"),
    ]:
        write_with_literal(box, where, literal)
        with pytest.raises(SchemaError, match=rf"^{re.escape(message)}"):
            load_problem(path)
    # A cone kind must be one of the kind strings; a list or an object used
    # to escape as TypeError (unhashable) from a dict lookup.
    for kind in (["nonneg"], {"a": 1}, None, 2, "Nonneg"):
        path.write_text(json.dumps(dict(valid, cones=[{"kind": kind, "dim": 2}])))
        with pytest.raises(SchemaError, match=r"^cones\[0\]\.kind must be one of"):
            load_problem(path)
    path.write_text(json.dumps(box).replace("1.0", "1" * 5000))  # too long to convert
    with pytest.raises(ParseError, match="digits"):
        load_problem(path)


def test_load_rejects_non_finite_literals(tmp_path):
    # Python's json reads NaN and Infinity, which are not JSON; a NaN box
    # bound used to load and fail later inside the solve.
    path = tmp_path / "p.json"
    doc = {
        "n": 1,
        "m": 2,
        "P": [],
        "q": [0.0],
        "A": [{"row": 0, "col": 0, "value": 1.0}],
        "b": [0.0, 1.0],
        "cones": [{"kind": "box", "dim": 2, "l": ["@", 0.0], "u": [None, None]}],
    }
    text = json.dumps(doc)
    for literal in ("NaN", "Infinity", "-Infinity"):
        path.write_text(text.replace('"@"', literal))
        with pytest.raises(ParseError, match=f"{literal} is not a JSON number"):
            load_problem(path)
        path.write_text(text.replace('"@"', "null").replace("1.0", literal))
        with pytest.raises(ParseError, match=f"{literal} is not a JSON number"):
            load_problem(path)
    # A float literal beyond the double range reads as inf; it is rejected
    # like an integer one.
    for literal in ("1e400", "-1e400"):
        path.write_text(text.replace('"@"', literal))
        with pytest.raises(SchemaError, match=r"^cones\[0\]\.l\[0\] is out of range"):
            load_problem(path)
        path.write_text(text.replace('"@"', "null").replace('"q": [0.0]', f'"q": [{literal}]'))
        with pytest.raises(SchemaError, match=r"^q\[0\] is out of range"):
            load_problem(path)
    path.write_text(text.replace('"@"', "-1e300"))
    assert load_problem(path).cones[0].l[0] == -1e300


def test_load_rejects_non_psd_cost(tmp_path):
    doc = {
        "n": 1,
        "m": 1,
        "P": [{"row": 0, "col": 0, "value": -10.0}],
        "q": [0.0],
        "A": [{"row": 0, "col": 0, "value": 1.0}],
        "b": [1.0],
        "cones": [{"kind": "nonneg", "dim": 1}],
    }
    path = tmp_path / "nonpsd.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="P must be positive semidefinite"):
        load_problem(path)


# -- benchmark runner ---------------------------------------------------------------


def small_suite(k=2):
    return [
        (f"qp{seed}", generate("RandomQP", n=10, m=20, seed=seed)) for seed in range(1, k + 1)
    ]


def test_run_benchmark_three_configs(tmp_path):
    problems = [("tiny", load_tiny())]
    summary = run_benchmark(
        problems, CONFIGS, eps=1e-7, check_interval=5, out_dir=tmp_path, time_cap=60.0
    )
    assert len(summary.rows) == 3
    assert all(r.status == "converged" for r in summary.rows)
    objs = [r.objective for r in summary.rows]
    assert max(objs) - min(objs) <= 1e-5
    assert summary.common_subset == ["tiny"]

    with open(tmp_path / "summary.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3 and rows[0]["problem"] == "tiny"
    trace = tmp_path / "traces" / "tiny__safeguarded.csv"
    with open(trace) as fh:
        header = fh.readline().strip().split(",")
    assert header == [
        "iter", "r_fixed_point", "r_prim", "r_dual", "accepted", "j", "epoch",
        "cum_operator_evals",
    ]


def load_tiny():
    from fpaccel.cones import ConeBlock
    from fpaccel.conic import ConicProblem

    return ConicProblem([[1.0]], [-2.0], [[1.0]], [1.0], [ConeBlock(NONNEG, 1)])


def test_run_benchmark_common_subset_rule():
    nonconvex = ConicProblem([[-10.0]], [0.0], [[1.0]], [1.0], [ConeBlock(NONNEG, 1)])
    problems = small_suite(2) + [
        ("infeas", generate("InfeasibleLP", seed=1)),
        ("nonconvex", nonconvex),
    ]
    summary = run_benchmark(problems, ["vanilla", "safeguarded"], eps=1e-6, time_cap=60.0)
    # the infeasible and failing problems are excluded from means but counted in rows
    assert "infeas" not in summary.common_subset
    assert len(summary.common_subset) == 2
    assert len(summary.rows) == 8
    # a failed solve keeps the exception message, not just its type
    for row in summary.rows[-2:]:
        assert row.problem == "nonconvex"
        prefix = "error: LinAlgError: "
        assert row.status.startswith(prefix) and row.status[len(prefix):].strip()
    for stats in summary.aggregates.values():
        assert stats.solved == 2
        assert math.isfinite(stats.mean_iterations)


def test_run_benchmark_deterministic_iterations():
    problems = small_suite(2)
    s1 = run_benchmark(problems, ["vanilla", "safeguarded"], eps=1e-6)
    s2 = run_benchmark(problems, ["vanilla", "safeguarded"], eps=1e-6)
    iters1 = [(r.problem, r.config, r.iterations) for r in s1.rows]
    iters2 = [(r.problem, r.config, r.iterations) for r in s2.rows]
    assert iters1 == iters2


def test_run_benchmark_parallel_matches_serial():
    problems = small_suite(2)
    serial = run_benchmark(problems, ["vanilla", "safeguarded"], eps=1e-6)
    parallel = run_benchmark(problems, ["vanilla", "safeguarded"], eps=1e-6, workers=2)
    a = [(r.problem, r.config, r.iterations, r.status) for r in serial.rows]
    b = [(r.problem, r.config, r.iterations, r.status) for r in parallel.rows]
    assert a == b


def test_run_benchmark_empty_inputs():
    with pytest.raises(EmptyInput):
        run_benchmark([], ["vanilla"])
    with pytest.raises(ValueError):
        run_benchmark(small_suite(1), ["turbo"])
    with pytest.raises(TypeError, match="m_maxx"):
        run_benchmark(small_suite(1), ["vanilla"], m_maxx=5)
    with pytest.raises(ValueError, match="tau"):
        run_benchmark(small_suite(1), ["vanilla"], tau=5.0)


def test_run_benchmark_rejects_duplicate_names(tmp_path, capsys):
    (name, problem), (_, other) = small_suite(2)
    with pytest.raises(ValueError, match="duplicate problem name 'qp1'"):
        run_benchmark([(name, problem), ("qp2", other), (name, other)], ["vanilla"])

    # two files of the same name in different directories, one glob
    for sub, p in (("a", problem), ("b", other)):
        (tmp_path / sub).mkdir()
        save_problem(p, tmp_path / sub / "qp.json")
    out_dir = tmp_path / "results"
    rc = cli.main(["run", "--problems", str(tmp_path / "*" / "qp.json"), "--out-dir", str(out_dir)])
    assert rc == 1
    assert "duplicate problem name 'qp'" in capsys.readouterr().err
    assert not out_dir.exists()


# -- CLI ----------------------------------------------------------------------------


def test_cli_gen_and_run(tmp_path, capsys):
    out_file = tmp_path / "p.json"
    assert cli.main(["gen", "--kind", "RandomQP", "--seed", "4", "--out", str(out_file),
                     "--params", "n=8;m=16"]) == 0
    assert out_file.exists()

    out_dir = tmp_path / "results"
    rc = cli.main([
        "run",
        "--problems", str(out_file),
        "--generate", "RandomQP:n=8;m=16:5-6",
        "--configs", "vanilla,safeguarded",
        "--eps", "1e-6",
        "--out-dir", str(out_dir),
    ])
    assert rc == 0
    captured = capsys.readouterr()
    assert "common subset: 3 problems" in captured.out
    assert (out_dir / "summary.csv").exists()
    assert len(list((out_dir / "traces").glob("*.csv"))) == 6


def test_cli_run_defaults_are_the_driver_config_defaults():
    args = cli.build_parser().parse_args(["run"])
    cfg = DriverConfig()
    assert (
        args.eps,
        args.tau,
        args.eta_max,
        args.mmax,
        args.check_interval,
        args.max_iter,
    ) == (cfg.eps, cfg.tau, cfg.eta_max, cfg.m_max, cfg.check_interval, cfg.max_iter)
    assert args.configs.split(",") == list(CONFIGS)


def test_variant_setting_is_an_error(capsys):
    # Type-II is the only coefficient solve; the old selector is rejected,
    # not ignored.
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--generate", "RandomQP:n=4;m=8:1", "--variant", "type2"])
    assert exc.value.code == 2
    assert "--variant" in capsys.readouterr().err
    with pytest.raises(TypeError, match="variant"):
        run_benchmark(small_suite(1), ["vanilla"], variant="type2")


def test_adapt_setting_is_an_error():
    # An adapt_interval beyond max_iter freezes the step size; the old
    # switch is rejected, not ignored.
    with pytest.raises(TypeError, match="adapt"):
        solve(generate("RandomQP", n=4, m=8, seed=1), adapt=False)
    with pytest.raises(TypeError, match="adapt"):
        run_benchmark(small_suite(1), ["vanilla"], adapt=False)


def test_cli_no_adapt_freezes_the_step_size(tmp_path):
    def epochs(*flags):
        out_dir = tmp_path / "-".join(("run",) + flags)
        argv = ["run", "--generate", "RandomQP:n=30;m=60:17", "--gamma", "100"]
        assert cli.main(argv + list(flags) + ["--out-dir", str(out_dir)]) == 0
        traces = sorted((out_dir / "traces").glob("*.csv"))
        assert len(traces) == len(CONFIGS)
        out = []
        for trace in traces:
            with open(trace) as fh:
                out += [int(row["epoch"]) for row in csv.DictReader(fh)]
        return out

    assert max(epochs()) > 0  # the step size adapts from this start
    frozen = epochs("--no-adapt")
    assert frozen and set(frozen) == {0}


def test_cli_generate_spec_parsing():
    specs = cli.parse_generate_specs("RandomQP:n=8;m=16:1-3,UnboundedLP:7")
    assert specs == [
        ("RandomQP", {"n": 8, "m": 16}, 1),
        ("RandomQP", {"n": 8, "m": 16}, 2),
        ("RandomQP", {"n": 8, "m": 16}, 3),
        ("UnboundedLP", {}, 7),
    ]
    with pytest.raises(ValueError):
        cli.parse_generate_specs("RandomQP")


def test_cli_bad_input_returns_nonzero(tmp_path, capsys):
    assert cli.main(["run", "--problems", str(tmp_path / "missing*.json")]) == 1
    assert "error:" in capsys.readouterr().err


# -- benchmark tooling ------------------------------------------------------------


def test_benchmark_spans_cover_every_layer(monkeypatch):
    # perfbench/tracing.py wraps the functions it lists by name; a rename in
    # src/ would leave its layer unmeasured, reported only as absent.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    assert tracing.Tracer().absent == []
