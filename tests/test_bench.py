import csv
import importlib
import inspect
import json
import math
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from fpaccel import cli
from fpaccel.bench import EmptyInput, CONFIGS, run_benchmark, shifted_gmean
from fpaccel.cones import BOX, NONNEG, PSD_TRIANGLE, ConeBlock
from fpaccel.conic import ConicProblem, solve, solve_config
from fpaccel.driver import DriverConfig
from fpaccel.problems import (
    GENERATOR_KINDS,
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
    for sh in (math.nan, math.inf):
        with pytest.raises(ValueError, match="shift must be positive and finite"):
            shifted_gmean([1.0], sh=sh)


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
    for params in (dict(rank=0), dict(rank=31), dict(scale=-1.0), dict(scale=math.inf)):
        with pytest.raises(InvalidParams):
            generate("UnboundedQP", seed=0, **params)


@pytest.mark.parametrize("kind, params, status", [
    ("InfeasibleQP", {}, "primal_infeasible"),
    ("UnboundedQP", {}, "dual_infeasible"),
    ("UnboundedQP", {"scale": 1e8}, "dual_infeasible"),
    ("UnboundedQP", {"scale": 1e2}, "dual_infeasible"),
])
def test_infeasible_and_unbounded_qp_families(kind, params, status):
    # Identical arguments give identical data, and plain iterations reach the
    # family's certificate at seeds 1-8, the cells a step-size rule must not
    # starve of it; UnboundedQP seed 4 is bounded and converges.
    for seed in range(1, 9):
        prob = generate(kind, seed=seed, **params)
        again = generate(kind, seed=seed, **params)
        for name in ("P", "q", "A", "b"):
            assert np.array_equal(getattr(prob, name), getattr(again, name))
        want = "converged" if (kind, seed) == ("UnboundedQP", 4) else status
        assert solve(prob, "vanilla", max_iter=20000).status == want


def test_every_generator_kind_builds_in_any_letter_case():
    for kind in GENERATOR_KINDS:
        built = [generate(name, seed=2) for name in (kind, kind.lower(), kind.upper())]
        for prob in built[1:]:
            assert np.array_equal(prob.A, built[0].A) and np.array_equal(prob.b, built[0].b)


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
    # ConeBlock owns the dimension rule; the loader names the entry.
    for cone in ({"kind": "nonneg", "dim": 0}, {"kind": "nonneg", "dim": -1},
                 {"kind": "box", "dim": 0, "l": [], "u": []}, {"kind": "psd", "dim": -1}):
        path.write_text(json.dumps(dict(valid, cones=[cone])))
        with pytest.raises(SchemaError, match=r"^cones\[0\]: cone dimension must be an integer"):
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


def test_load_refuses_cone_dims_beyond_m_before_building_a_block(tmp_path):
    # A PSD block lays out its dim entries when built, so a file's dims are
    # checked against m first: a side-2000 block in a two-row file is
    # refused without a two-million-entry layout.
    doc = {
        "n": 1,
        "m": 2,
        "P": [],
        "q": [0.0],
        "A": [],
        "b": [0.0, 0.0],
        "cones": [{"kind": "nonneg", "dim": 1}, {"kind": "psd", "dim": 2000 * 2001 // 2}],
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=r"^cone dims exceed m = 2 at cones\[1\]"):
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
        header, *trace_rows = list(csv.reader(fh))
    assert header == [
        "iter", "r_fixed_point", "r_prim", "r_dual", "accepted", "j", "epoch",
        "cum_operator_evals",
    ]
    # One row per TraceEntry, each cell the entry's field: a float in 17
    # significant digits, a bool as 1 or 0.
    (entries,) = [r.record.entries for r in summary.rows if r.config == "safeguarded"]
    assert len(trace_rows) == len(entries) > 0
    for row, e in zip(trace_rows, entries):
        assert int(row[0]) == e.k
        assert row[1:4] == [format(v, ".17g") for v in (e.r_norm, e.r_prim, e.r_dual)]
        assert row[4] == ("1" if e.accepted else "0")
        assert [int(c) for c in row[5:]] == [e.j, e.epoch, e.cum_evals]


def load_tiny():
    from fpaccel.cones import ConeBlock
    from fpaccel.conic import ConicProblem

    return ConicProblem([[1.0]], [-2.0], [[1.0]], [1.0], [ConeBlock(NONNEG, 1)])


def test_run_benchmark_common_subset_rule(tmp_path):
    nonconvex = ConicProblem([[-10.0]], [0.0], [[1.0]], [1.0], [ConeBlock(NONNEG, 1)])
    problems = small_suite(2) + [
        ("infeas", generate("InfeasibleLP", seed=1)),
        ("nonconvex", nonconvex),
    ]
    summary = run_benchmark(
        problems, ["vanilla", "safeguarded"], eps=1e-6, time_cap=60.0, out_dir=tmp_path
    )
    # the infeasible and failing problems are excluded from means but counted in rows
    assert "infeas" not in summary.common_subset
    assert len(summary.common_subset) == 2
    assert len(summary.rows) == 8
    # a failed solve keeps the exception message, not just its type
    for row in summary.rows[-2:]:
        assert row.problem == "nonconvex"
        prefix = "error: LinAlgError: "
        assert row.status.startswith(prefix) and row.status[len(prefix):].strip()
        assert row.record is None
    for stats in summary.aggregates.values():
        assert stats.solved == 2
        assert math.isfinite(stats.mean_iterations)
    # the summary reports a failed run with the zero counts of an empty record
    with open(tmp_path / "summary.csv") as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 9
    for line, row in zip(lines[-2:], summary.rows[-2:]):
        assert line == f"nonconvex,{row.config},{row.status},0,0,0,0,0"


def test_run_benchmark_deterministic_iterations():
    problems = small_suite(2)
    s1 = run_benchmark(problems, ["vanilla", "safeguarded"], eps=1e-6)
    s2 = run_benchmark(problems, ["vanilla", "safeguarded"], eps=1e-6)
    iters1 = [(r.problem, r.config, r.record.iterations) for r in s1.rows]
    iters2 = [(r.problem, r.config, r.record.iterations) for r in s2.rows]
    assert iters1 == iters2


def test_run_benchmark_parallel_matches_serial():
    problems = small_suite(2)
    serial = run_benchmark(problems, ["vanilla", "safeguarded"], eps=1e-6)
    parallel = run_benchmark(problems, ["vanilla", "safeguarded"], eps=1e-6, workers=2)
    a = [(r.problem, r.config, r.record.iterations, r.status) for r in serial.rows]
    b = [(r.problem, r.config, r.record.iterations, r.status) for r in parallel.rows]
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


@pytest.mark.parametrize("cap", [0.0, -1.0, math.nan, math.inf, None, "5", True])
def test_bad_time_cap_fails_before_any_solve(monkeypatch, cap):
    calls = []
    monkeypatch.setattr("fpaccel.conic.solve", lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError, match="time_cap"):
        run_benchmark(small_suite(1), ["vanilla"], time_cap=cap)
    assert calls == []


def test_cli_bad_time_cap_exits_before_any_solve(tmp_path, capsys):
    out_dir = tmp_path / "results"
    for cap in ("0", "-1", "nan"):
        argv = ["run", "--generate", "RandomQP:n=4;m=8:1", "--time-cap", cap]
        assert cli.main(argv + ["--out-dir", str(out_dir)]) == 1
        assert "time_cap must be positive and finite" in capsys.readouterr().err
        assert not (out_dir / "summary.csv").exists()


@pytest.mark.parametrize("name", ["gamma", "eps_infeas"])
@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf, -math.inf, "2", True, None])
def test_bad_solve_setting_fails_before_any_solve(monkeypatch, name, value):
    calls = []
    monkeypatch.setattr("fpaccel.bench._solve_task", calls.append)
    with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
        run_benchmark(small_suite(1), ["vanilla"], **{name: value})
    assert calls == []


@pytest.mark.parametrize("gamma", ["nan", "0", "-1"])
def test_cli_bad_gamma_exits_before_any_solve(tmp_path, capsys, monkeypatch, gamma):
    calls = []
    monkeypatch.setattr("fpaccel.bench._solve_task", calls.append)
    out_dir = tmp_path / "results"
    argv = ["run", "--generate", "RandomQP:n=4;m=8:1", "--gamma", gamma]
    assert cli.main(argv + ["--out-dir", str(out_dir)]) == 1
    assert "gamma must be positive and finite" in capsys.readouterr().err
    assert not (out_dir / "summary.csv").exists()
    assert calls == []


@pytest.mark.parametrize("workers", [0, -1, 1.5, True])
def test_bad_worker_count_fails_before_any_solve(monkeypatch, workers):
    calls = []
    monkeypatch.setattr("fpaccel.bench._solve_task", calls.append)
    with pytest.raises(ValueError, match="workers must be a positive integer"):
        run_benchmark(small_suite(1), ["vanilla"], workers=workers)
    assert calls == []


@pytest.mark.parametrize("sh", ["10", True, None])
def test_non_numeric_shift_is_rejected_before_any_solve(sh):
    with pytest.raises(ValueError, match="shift must be positive and finite"):
        shifted_gmean([1.0], sh=sh)


@pytest.mark.parametrize("name, value", [("mode", "vanilla"), ("v0", np.zeros(2))], ids=["mode", "v0"])
def test_solve_arguments_that_are_not_settings_fail_before_any_solve(monkeypatch, name, value):
    # run_benchmark sets each solve's mode and start itself.
    calls = []
    monkeypatch.setattr("fpaccel.bench._solve_task", calls.append)
    with pytest.raises(TypeError, match=name):
        run_benchmark(small_suite(1), ["vanilla"], **{name: value})
    assert calls == []


def test_strict_at_the_default_tau_fails_before_any_solve(monkeypatch):
    # strict is no mode, at this or any tau.
    calls = []
    monkeypatch.setattr("fpaccel.bench._solve_task", calls.append)
    for tau in ({}, {"tau": 0.9}):
        with pytest.raises(ValueError, match="mode must be one of"):
            run_benchmark(small_suite(1), ["safeguarded", "strict"], **tau)
    assert calls == []


def test_run_benchmark_rejects_a_repeated_configuration(monkeypatch):
    calls = []
    monkeypatch.setattr("fpaccel.bench._solve_task", calls.append)
    with pytest.raises(ValueError, match="duplicate configuration 'vanilla'"):
        run_benchmark(small_suite(1), ["vanilla", "safeguarded", "vanilla"])
    assert calls == []


def test_solve_config_has_the_defaults_of_solve():
    solve_params = inspect.signature(solve).parameters
    for name, param in inspect.signature(solve_config).parameters.items():
        if param.kind is not param.VAR_KEYWORD:
            assert param.default == solve_params[name].default, name
    assert solve_config() == DriverConfig()
    assert solve_config("unsafe", tau=0.5, eps=1e-8) == DriverConfig(
        mode="unsafe", tau=0.5, eps=1e-8
    )


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--eps", "inf"], "eps must be positive and finite"),
        (["--eps", "nan"], "eps must be positive and finite"),
        (["--eta-max", "nan"], "eta_max must be positive and finite"),
        (["--threads", "0"], "workers must be a positive integer"),
    ],
)
def test_cli_bad_setting_exits_before_any_solve(tmp_path, capsys, monkeypatch, flags, message):
    calls = []
    monkeypatch.setattr("fpaccel.bench._solve_task", calls.append)
    out_dir = tmp_path / "results"
    argv = ["run", "--generate", "RandomQP:n=4;m=8:1", "--out-dir", str(out_dir)]
    assert cli.main(argv + flags) == 1
    assert message in capsys.readouterr().err
    assert not (out_dir / "summary.csv").exists()
    assert calls == []


def test_solve_takes_time_cap_as_a_setting():
    problem = generate("RandomQP", n=4, m=8, seed=1)
    assert solve(problem, time_cap=60.0).status == "converged"
    with pytest.raises(ValueError, match="time_cap"):
        solve(problem, time_cap=0.0)


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


def test_run_benchmark_refuses_a_problem_name_with_a_path_separator(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr("fpaccel.bench._solve_task", calls.append)
    (_, problem), = small_suite(1)
    with pytest.raises(ValueError, match="problem name 'a/b' holds a path separator"):
        run_benchmark([("a/b", problem)], ["vanilla"], out_dir=tmp_path)
    assert calls == [] and not any(tmp_path.iterdir())


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


def test_cli_refuses_strict_before_any_solve(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr("fpaccel.bench._solve_task", calls.append)
    out_dir = tmp_path / "results"
    argv = ["run", "--generate", "RandomQP:n=10;m=20:1-2", "--configs", "safeguarded,strict",
            "--tau", "0.9", "--out-dir", str(out_dir)]
    assert cli.main(argv) == 1
    assert "mode must be one of" in capsys.readouterr().err
    assert not (out_dir / "summary.csv").exists()
    assert calls == []


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


def test_accelerated_step_spans_are_live(monkeypatch):
    # The spans of the accelerated step time calls that propose makes; a
    # copy of the step inlined into propose would leave them reading 0.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("tracing").Tracer()
    problem = generate("RandomQP", n=50, m=100, seed=1)
    tracer.install()
    try:
        solve(problem, "safeguarded")
    finally:
        tracer.uninstall()
    calls = Counter(span[0] for span in tracer.spans)
    names = ("accel.push", "accel.eta", "accel.candidate", "accel.restart",
             "linalg.qr_append", "linalg.qr_solve")
    assert all(calls[name] for name in names), calls


def test_residual_span_counts_every_residual_formation(monkeypatch):
    # conic.residuals times every residual formation: one per convergence
    # check, one per scheduled step-size update, made inside conic.adapt,
    # and one at solve's return.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    problem = generate("RandomQP", n=20, m=40, seed=9)
    tracer.install()
    try:
        rec = solve(problem, "safeguarded", gamma=1e-3, adapt_interval=7).record
    finally:
        tracer.uninstall()
    assert rec.status == "converged"
    spans = tracer.spans
    adapts = {i for i, span in enumerate(spans) if span[tracing.NAME] == "conic.adapt"}
    residuals = [span for span in spans if span[tracing.NAME] == "conic.residuals"]
    assert adapts and adapts <= {span[tracing.PARENT] for span in residuals}
    updates = (rec.iterations - 1) // 7
    assert len(residuals) == rec.convergence_checks + updates + 1


def test_solve_identity_digest_sees_one_bit(monkeypatch):
    # tools/solve_identity.py fingerprints solves to show a change is
    # bit-identical; one flipped bit of x or one trace column must show.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "tools"))
    tool = importlib.import_module("solve_identity")
    digest, points, counts = tool.solve_digest, tool.points_digest, tool.counts_digest
    sol = solve(generate("RandomQP", n=6, m=12, seed=2), "safeguarded")
    base, base_points, base_counts = digest(sol), points(sol), counts(sol)
    sol.record.total_seconds += 1.0  # timings are left out
    sol.record.entries[0].elapsed += 1.0
    assert digest(sol) == base and points(sol) == base_points
    sol.x.view(np.uint64)[0] ^= 1
    assert digest(sol) != base and points(sol) != base_points
    sol.x.view(np.uint64)[0] ^= 1
    assert digest(sol) == base and points(sol) == base_points
    sol.record.final_state.v.view(np.uint64)[-1] ^= 1  # the final iterate is a point
    assert points(sol) != base_points
    sol.record.final_state.v.view(np.uint64)[-1] ^= 1
    # a trace residual column moves the full digest, not the points digest
    sol.record.entries[-1].r_dual = np.nextafter(sol.record.entries[-1].r_dual, np.inf)
    assert digest(sol) != base and points(sol) == base_points
    sol.record.entries[-1].r_dual = np.nextafter(sol.record.entries[-1].r_dual, -np.inf)
    # a run counter moves the full and counts digests, not the points digest
    sol.record.operator_evaluations += 1
    assert digest(sol) != base and counts(sol) != base_counts and points(sol) == base_points
    sol.record.operator_evaluations -= 1
    assert digest(sol) == base and counts(sol) == base_counts
    sol.record.entries[-1].j += 1
    assert digest(sol) != base and counts(sol) != base_counts


def test_accel_share_summary_on_a_small_problem(monkeypatch):
    # tools/accel_share.py summarizes the acceleration share of repeated
    # solves; its statistics must be ordered and within the solves' totals.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "tools"))
    summary = importlib.import_module("accel_share").summary
    problem = generate("RandomQP", n=6, m=12, seed=2)
    records = [solve(problem, "safeguarded").record for _ in range(2)]
    stats = summary(records)
    assert 0.0 < stats["share_median"] <= stats["share_p95"] <= stats["share_max"] < 1.0
    assert 0 <= stats["share_over_gate"] <= len(records)
    assert 0.0 < stats["accel_p50_s"] <= stats["accel_p99_s"] <= stats["accel_max_s"]
    assert 0.0 <= stats["stall_s"] <= sum(rec.accel_seconds for rec in records)


def test_src_lines_counts_code_without_docstrings_comments_or_blanks(monkeypatch, tmp_path,
                                                                     capsys):
    # tools/src_lines.py reports the net src/ line delta; a docstring, a
    # comment or a blank line is not code, a multi-line string or call is.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "tools"))
    tool = importlib.import_module("src_lines")
    source = '''"""Module
docstring."""

import math  # a trailing comment


# a comment line
class Box:
    """Class docstring."""

    def area(self, side):
        """Function
        docstring."""
        text = """not a
docstring"""
        return math.prod(
            (side, side)
        )
'''
    assert tool.count_lines(source) == (18, 8)  # code: lines 4, 8, 11 and 14-18
    package = tmp_path / "src" / "fpaccel"
    package.mkdir(parents=True)
    (package / "a.py").write_text(source)
    (package / "b.py").write_text("x = 1\n\n")
    assert tool.main(["src_lines.py", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "total lines=20 code=9"


def test_sweep_runs_the_grid_with_vanilla_and_reconciles_evaluations(monkeypatch, capsys):
    # tools/sweep.py runs families x seeds x settings x draws x modes through
    # conic.solve, always with vanilla; each row's sums are its solves' own
    # counts, and a solve whose evaluations are not its iterations plus its
    # rejections fails the run.  Each accelerated row counts the solves that
    # reached vanilla's status within max(2000, 3 x vanilla's iterations),
    # and apart from them its wins: solves that converged or certified where
    # vanilla stopped at max_iter.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "tools"))
    tool = importlib.import_module("sweep")
    qps = [(f"qp@{seed}", generate("RandomQP", n=6, m=12, seed=seed)) for seed in (1, 2)]
    families = [("RandomQP", qps), ("InfeasibleLP", [("lp@1", generate("InfeasibleLP", seed=1))])]
    grid = [dict(gamma=g, tau=0.9, m_max=m, eta_max=1e4) for g in (1e-2, 1e2) for m in (3, 5)]
    rows = tool.sweep(families, ["safeguarded"], grid, max_iter=500)
    assert [(r.family, r.mode, r.draw) for r in rows[:2]] == [("RandomQP", "vanilla", 0),
                                                              ("RandomQP", "safeguarded", 0)]
    assert len(rows) == 2 * len(grid) * 2
    for row in rows:
        problems = dict(families)[row.family]
        sols = [solve(p, row.mode, max_iter=500, **row.setting) for _, p in problems]
        assert sum(row.statuses.values()) == len(problems)
        assert row.statuses == Counter(sol.status for sol in sols)
        assert row.iterations == [sol.record.iterations for sol in sols]
        assert row.evaluations == [sol.record.operator_evaluations for sol in sols]
        assert row.rejections == sum(sol.record.rejected_candidates for sol in sols)
        assert row.gamma_changes == sum(sol.record.entries[-1].epoch for sol in sols)
        assert row.unreconciled == []
        if row.mode == "vanilla":
            assert row.in_bound is None
            vanilla = sols
            continue
        met = [s.status == v.status and s.record.iterations <= max(2000, 3 * v.record.iterations)
               for s, v in zip(sols, vanilla)]
        unjudged = [s.status == "max_iter" != v.status for s, v in zip(sols, vanilla)]
        wins = [v.status == "max_iter" != s.status for s, v in zip(sols, vanilla)]
        assert (row.in_bound, row.open, row.wins) == (sum(met), sum(unjudged), sum(wins))
    assert any(row.gamma_changes for row in rows) and any(row.rejections for row in rows)

    # one total row per mode sums that mode's rows over every family and setting
    totals = tool.totals(rows)
    assert [(t.family, t.setting, t.mode) for t in totals] == [("total", {}, "vanilla"),
                                                              ("total", {}, "safeguarded")]
    for total in totals:
        mine = [row for row in rows if row.mode == total.mode]
        assert total.statuses == sum((row.statuses for row in mine), Counter())
        assert total.iterations == [n for row in mine for n in row.iterations]
        assert total.evaluations == [n for row in mine for n in row.evaluations]
        assert total.rejections == sum(row.rejections for row in mine)
        assert total.gamma_changes == sum(row.gamma_changes for row in mine)
    assert totals[0].in_bound is None
    assert (totals[1].in_bound, totals[1].open) == (
        sum(row.in_bound for row in rows[1::2]), sum(row.open for row in rows[1::2]))

    # met at the bound, later than it, unjudged below it, vanilla's own
    # max_iter, another status, a solve that raised, stopped at the bound, a
    # win by a certificate and one by convergence, and two that are no win
    vanilla = [("converged", 100), ("primal_infeasible", 1000), ("converged", 700),
               ("max_iter", 20000), ("converged", 50), ("converged", 10), ("converged", 700),
               ("max_iter", 20000), ("max_iter", 20000), ("max_iter", 20000), ("max_iter", 20000)]
    accelerated = [("converged", 2000), ("primal_infeasible", 3001), ("max_iter", 2000),
                   ("max_iter", 20000), ("dual_infeasible", 30), ("ValueError", None),
                   ("max_iter", 2100), ("dual_infeasible", 4000), ("converged", 9000),
                   ("diverged", 50), ("ValueError", None)]
    assert tool.bound_counts(vanilla, accelerated) == (2, 1, 2)
    with pytest.raises(ValueError):
        tool.bound_counts(vanilla, accelerated[:-1])

    # draw 0 starts at zero and draw d >= 1 at a 1e-12-scaled normal draw of
    # seed 1000 + d; the last line gives each accelerated mode's bound count
    # and wins per draw and the least bound count
    prob = qps[0][1]
    assert tool.start(prob, 0) is None
    expected = 1e-12 * np.random.default_rng(1002).standard_normal(prob.n + prob.m)
    assert np.array_equal(tool.start(prob, 2), expected)
    drawn = tool.sweep([("RandomQP", qps[:1])], ["unsafe"], grid[:1], draws=2, max_iter=500)
    assert [(r.draw, r.mode) for r in drawn] == [(0, "vanilla"), (0, "unsafe"),
                                                 (1, "vanilla"), (1, "unsafe")]
    for row in drawn:
        sol = solve(prob, row.mode, v0=tool.start(prob, row.draw), max_iter=500, **grid[0])
        assert row.iterations == [sol.record.iterations]
    synthetic = [tool.Row("total", {}, mode, draw, outcomes=[("max_iter", 20000)] * 32,
                          in_bound=met, open=open_, wins=wins)
                 for draw, (met, open_, wins) in enumerate([(32, 0, 0), (30, 1, 1), (31, 0, 0)])
                 for mode in ("unsafe", "safeguarded")]
    synthetic[4].in_bound = 29
    assert tool.format_draws([tool.Row("total", {}, "vanilla")] + synthetic).splitlines() == [
        "unsafe: in bound 32/32, 30/32 (1 open), 29/32 (min 29); wins 0, 1, 0",
        "safeguarded: in bound 32/32, 30/32 (1 open), 31/32 (min 30); wins 0, 1, 0",
    ]

    spec = ["--generate", "RandomQP:n=6;m=12:1-2", "--gamma", "1e-2,1e2"]
    assert tool.main(spec) == 0
    table = capsys.readouterr().out.splitlines()
    assert len(table) == 1 + 2 * 2 + 2 + 1 and "iters sum/med" in table[0]
    assert all("converged=2" in line for line in table[1:5])
    assert table[0].endswith("in bound  wins")
    assert [line.split()[-2:] for line in table[1:5]] == [["-", "-"], ["2/2", "0"]] * 2
    assert [line.split()[:7] for line in table[5:7]] == [
        ["total", "-", "-", "-", "-", "0", mode] for mode in ("vanilla", "safeguarded")]
    assert "converged=4" in table[6] and table[6].split()[-2:] == ["4/4", "0"]
    assert table[7] == "safeguarded: in bound 4/4 (min 4); wins 0"
    open_row = tool.Row("F", grid[0], "unsafe", outcomes=[("max_iter", 500)] * 3, in_bound=1, open=2)
    assert tool.format_table([open_row]).splitlines()[1].endswith("1/3 (2 open)  0")
    assert tool.main(spec + ["--modes", "turbo"]) == 2  # an unknown mode
    with pytest.raises(SystemExit, match="2"):
        tool.main(spec + ["--draws", "0"])

    def miscounted(*args, **kwargs):
        sol = solve(*args, **kwargs)
        sol.record.operator_evaluations += 1
        return sol

    monkeypatch.setattr("fpaccel.conic.solve", miscounted)
    assert tool.main(spec) == 1
    assert "evaluations != iterations + rejections" in capsys.readouterr().err

    def failing(problem, mode, **kwargs):  # a solve that raises has its error's type as status
        if mode == "safeguarded":
            raise FloatingPointError("overflow")
        return solve(problem, mode, **kwargs)

    monkeypatch.setattr("fpaccel.conic.solve", failing)
    vanilla_row, failed = tool.sweep(families[:1], ["safeguarded"], grid[:1], max_iter=500)
    assert vanilla_row.statuses == Counter(converged=2)
    assert failed.statuses == Counter(FloatingPointError=2) and failed.iterations == []
    assert (failed.outcomes, failed.in_bound) == ([("FloatingPointError", None)] * 2, 0)


def test_bench_pairs_claim_rule_on_synthetic_runs(monkeypatch, tmp_path, capsys):
    # tools/bench_pairs.py claims a gain only with 9/10 pairs won (ties win
    # for neither side) and medians apart by more than the parent's IQR.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "tools"))
    tool = importlib.import_module("bench_pairs")
    parent = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    assert tool.quartiles(parent) == (12.25, 16.75) and tool.quartiles([3.0]) == (3.0, 3.0)
    row = tool.compare(parent, [p - 5.0 for p in parent])
    assert row["change_wins"] == 10 and row["parent_iqr"] == 4.5 and row["claim_holds"]
    assert row["parent_median"] == 14.5 and row["change_median"] == 9.5
    assert row["relative_change"] == -5.0 / 14.5
    # 9 wins and a tie still claim; 8 wins do not
    tied = tool.compare(parent, [p - 5.0 for p in parent[:9]] + [19.0])
    assert tied["change_wins"] == 9 and tied["claim_holds"]
    assert tool.compare(parent, parent)["change_wins"] == 0
    assert not tool.compare(parent, [p - 5.0 for p in parent[:8]] + [19.0, 20.0])["claim_holds"]
    # every pair won but the medians closer than the parent's IQR
    small = tool.compare(parent, [p - 1.0 for p in parent])
    assert small["change_wins"] == 10 and not small["claim_holds"]
    # a higher-is-better metric flips the direction
    assert tool.compare(parent, [p + 5.0 for p in parent], better="higher")["claim_holds"]
    assert not tool.compare(parent, [p + 5.0 for p in parent])["claim_holds"]
    with pytest.raises(ValueError):
        tool.compare(parent, parent[:9])

    # main alternates the order, stores every pair, and exits 1 on an
    # incorrect run; run_once is replaced, so no benchmark runs.
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        calls.append(checkout.name)
        value = 2.0 if checkout.name == "parent" else 1.0
        return {"correct": not (checkout.name == "change" and len(calls) > 4), "attempted": 3,
                "failed": 0, "metrics": {"sgm_s.vanilla": {"value": value, "unit": "s"}}}

    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(
            {"end_to_end": [{"name": "sgm_s.vanilla", "better": "lower"}]}))
    monkeypatch.setattr(tool, "run_once", fake_run)
    monkeypatch.setattr(tool, "commit_of", lambda checkout: None)
    out = tmp_path / "pairs.json"
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "qp_small"]
    assert tool.main(argv + ["--pairs", "2", "--json", str(out)]) == 0
    assert calls == ["parent", "change", "change", "parent"]
    run = json.loads(out.read_text())["runs"]["qp_small@0"]
    assert [p["first"] for p in run["pairs"]] == ["parent", "change"]
    assert run["summary"]["sgm_s.vanilla"]["change_wins"] == 2
    # the table's row carries the relative change of the medians (1.0 against 2.0)
    row = next(line for line in capsys.readouterr().out.splitlines()
               if line.startswith("sgm_s.vanilla"))
    assert row.split()[-3:] == ["-50.0%", "2/2", "holds"]
    assert tool.percent(None) == "n/a" and tool.percent(0.125) == "+12.5%"
    assert tool.main(argv + ["--pairs", "3"]) == 1


def bench_pairs_tool(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "tools"))
    return importlib.import_module("bench_pairs")


def test_bench_pairs_compare_on_synthetic_pairs(monkeypatch):
    tool = bench_pairs_tool(monkeypatch)
    parent = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    # A tie wins for neither side, whichever way is better.
    for better in ("lower", "higher"):
        row = tool.compare(parent, parent[:5] + [p - 5.0 for p in parent[5:]], better)
        assert row["change_wins"] == (5 if better == "lower" else 0)
    # The 9/10 rule: nine wins and a loss claim, eight wins and two ties do not.
    faster = [p - 5.0 for p in parent]
    assert tool.compare(parent, faster[:9] + [30.0])["claim_holds"]
    assert not tool.compare(parent, faster[:8] + parent[8:])["claim_holds"]
    # The IQR rule: a gain of exactly the parent's IQR (4.5) does not claim.
    assert not tool.compare(parent, [p - 4.5 for p in parent])["claim_holds"]
    assert tool.compare(parent, [p - 4.75 for p in parent])["claim_holds"]
    # better: higher counts a larger value as the win.
    higher = tool.compare(parent, [p + 5.0 for p in parent], "higher")
    assert higher["change_wins"] == 10 and higher["claim_holds"]
    assert tool.compare(parent, faster, "higher")["change_wins"] == 0
    # A parent median of 0 has no relative change; the rules still apply.
    zero = tool.compare([0.0, 0.0, 0.0], [0.0, 0.0, 0.0], bound=0.25)
    assert zero["relative_change"] is None and zero["change_wins"] == 0
    assert not zero["claim_holds"] and zero["within_bound"]
    assert not tool.compare([0.0] * 3, [1e-9] * 3, bound=0.25)["within_bound"]
    assert tool.compare([0.0] * 3, [1.0] * 3, "higher", 0.25)["claim_holds"]


def test_bench_pairs_bound_column_is_the_no_regression_rule(monkeypatch, tmp_path, capsys):
    tool = bench_pairs_tool(monkeypatch)
    parent = [4.0, 4.0, 4.0, 4.0]
    # Worse by exactly the bound is ok; by more is WORSE; better is always ok.
    assert tool.compare(parent, [5.0] * 4, bound=0.25)["within_bound"]
    assert not tool.compare(parent, [5.01] * 4, bound=0.25)["within_bound"]
    assert tool.compare(parent, [1.0] * 4, bound=0.25)["within_bound"]
    assert tool.compare(parent, [3.0] * 4, "higher", 0.25)["within_bound"]
    assert not tool.compare(parent, [2.9] * 4, "higher", 0.25)["within_bound"]
    assert tool.compare(parent, [9.0] * 4)["within_bound"] is None
    assert [tool.verdict(w) for w in (True, False, None)] == ["ok", "WORSE", "-"]

    # main reads each metric's bound from the change's BENCHMARK.json.
    values = {"parent": {"wall_s": 1.0, "setup_s": 1.0, "peak_rss_mb": 1.0},
              "change": {"wall_s": 1.2, "setup_s": 1.3, "peak_rss_mb": 1.2}}

    def fake_run(checkout, workload, seed, seconds):
        return {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {k: {"value": v} for k, v in values[checkout.name].items()}}

    spec = {"end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25},
                           {"name": "setup_s", "better": "lower", "bound": 0.25},
                           {"name": "peak_rss_mb", "better": "lower"}]}
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(spec))
    monkeypatch.setattr(tool, "run_once", fake_run)
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "w", "--pairs", "2"]
    assert tool.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "bound" in lines[1].split()
    rows = {line.split()[0]: line.split() for line in lines[2:]}
    assert [rows[name][-4] for name in ("wall_s", "setup_s", "peak_rss_mb")] == ["ok", "WORSE", "-"]
