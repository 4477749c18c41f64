"""Self-tests of the benchmark.  Run from the checkout root:

    python3 -m pytest -q perfbench

The schema test makes one untraced and one traced pass of every workload,
so the file takes about a minute.
"""

import json
import math

import numpy as np
import pytest

import run

fp = run.load_program()

import checks  # noqa: E402  (needs fpaccel on the path)
import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module", params=list(workloads.WORKLOADS))
def traced_run(request):
    cases = workloads.build(request.param, seed=5)
    return run.run_passes(fp, cases, seconds=0.0, trace=True, min_rounds=1)


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: why for name, (why, _specs) in workloads.WORKLOADS.items()
    }
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]} == (
        run.END_TO_END
    )
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER


def test_output_has_every_metric_for_every_workload(traced_run):
    e2e = run.result_of(fp, traced_run, trace=False)
    layers = run.result_of(fp, traced_run, trace=True)
    for res, table in ((e2e, run.END_TO_END), (layers, run.PER_LAYER)):
        assert res["correct"], res["failures"]
        assert res["failed"] == 0 and res["attempted"] > 0
        assert list(res["metrics"]) == list(table)
        for name, metric in res["metrics"].items():
            assert metric["unit"] == table[name][0]
            assert math.isfinite(metric["value"])
    for name in run.END_TO_END:
        assert e2e["metrics"][name]["value"] > 0, name


def test_self_times_reconcile_with_traced_wall_time(traced_run):
    untraced, traced = traced_run.passes
    values, problem = run.per_layer(traced_run.tracer, traced, [untraced.wall], [0.0])
    assert problem is None
    attributed = sum(values[m] for m in run.SPAN_SECONDS)
    unattributed = values["trace.unattributed_frac"] * traced.wall
    assert attributed + unattributed == pytest.approx(traced.wall, rel=1e-9)
    assert 0.0 <= values["trace.unattributed_frac"] < 0.05


def test_traced_pass_repeats_the_untraced_counts(traced_run):
    untraced, traced = traced_run.passes
    assert [r.signature for r in traced.runs] == [r.signature for r in untraced.runs]


def test_every_traced_pass_reconciles_on_its_own():
    cases = workloads.build("adapt_infeas", seed=0)[:4]
    two_rounds = run.run_passes(fp, cases, seconds=0.0, trace=True, min_rounds=2)
    res = run.result_of(fp, two_rounds, trace=True)
    assert res["correct"], res["failures"]
    layers = [
        run.per_layer(two_rounds.tracer, p, [1.0], [0.0])[0] for p in two_rounds.passes if p.traced
    ]
    assert len(layers) == 2
    assert layers[0]["operators.evals"] == layers[1]["operators.evals"] > 0


def test_self_times_of_nested_spans():
    # root [0, 10] > a [1, 4] > b [2, 3]; root > c [5, 9]
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 2.0, 3.0, 1, 0],
        ["c", 5.0, 9.0, 0, 0],
    ]
    seconds, calls, root_total = tracing.self_times(spans)
    assert dict(seconds) == {"root": 3.0, "a": 2.0, "b": 1.0, "c": 4.0}
    assert root_total == 10.0 and calls["a"] == 1


def test_missing_boundary_is_reported_absent(monkeypatch):
    monkeypatch.setattr(
        tracing, "BOUNDARIES", tracing.BOUNDARIES + (("linalg.gone", "fpaccel.linalg", "gone"),)
    )
    tracer = tracing.Tracer()
    assert tracer.absent == ["linalg.gone"]
    tracer.install()
    tracer.uninstall()
    assert run._absent_metrics(["cones.project"]) == [
        "cones.project_s.nonneg", "cones.project_s.psd",
        "cones.project_calls.nonneg", "cones.project_calls.psd",
    ]


def test_host_clock_scales_each_solve_by_its_bracketing_samples():
    assert set(workloads.HOST_KERNEL) == set(workloads.WORKLOADS)
    assert set(workloads.HOST_KERNEL.values()) <= set(hostspeed.KERNELS)
    clock = hostspeed.HostClock("small")
    clock.ends, clock.seconds = [1.0, 2.0, 3.0], [0.004, 0.006, 0.012]
    assert clock.scale(1.5) == pytest.approx(clock.nominal / 0.005)
    assert clock.scale(2.0) == pytest.approx(clock.nominal / 0.009)
    for outside in (0.5, 3.5):
        with pytest.raises(ValueError):
            clock.scale(outside)
    for kernel in hostspeed.KERNELS:
        cases = workloads.build("qp_small", seed=0)[:2]
        p, _ = run.run_pass(fp, cases, clock=hostspeed.HostClock(kernel))
        assert all(0.0 < r.scale < 10.0 for r in p.runs)


def _solve(case, mode="safeguarded"):
    return fp.solve(case.problem, mode, eps=case.eps, gamma=case.gamma)


def test_checker_flags_a_perturbed_solution():
    case = workloads.warmup_cases()[0]
    sol = _solve(case)
    assert checks.check_solution(case, sol) is None
    sol.x = sol.x + 1e-3
    assert "residuals" in checks.check_solution(case, sol)
    assert checks.objectives_disagree(case, [1.0, 1.0 + 1e-2]) is not None
    assert checks.objectives_disagree(case, [1.0, 1.0 + 1e-6]) is None


@pytest.mark.parametrize("index", [3, 4])
def test_checker_flags_a_wrong_certificate(index):
    case = workloads.warmup_cases()[index]
    sol = _solve(case)
    assert checks.check_solution(case, sol) is None
    sol.certificate.witness = -sol.certificate.witness
    assert "certificate" in checks.check_solution(case, sol)
    sol.certificate = None
    assert checks.check_solution(case, sol) is not None


def test_same_seed_same_inputs_and_counts():
    first = workloads.build("adapt_infeas", seed=7)[:4]
    again = workloads.build("adapt_infeas", seed=7)[:4]
    for a, b in zip(first, again):
        assert np.array_equal(a.problem.A, b.problem.A) and np.array_equal(a.problem.q, b.problem.q)
    p1, _ = run.run_pass(fp, first)
    p2, _ = run.run_pass(fp, again)
    assert [r.signature for r in p1.runs] == [r.signature for r in p2.runs]


@pytest.mark.parametrize("workload", ["qp_small", "sdp", "adapt_infeas"])
def test_default_seed_lists_the_instances_and_other_seeds_reformulate_them(workload):
    base = workloads.build(workload, seed=workloads.DEFAULT_SEED)
    other = workloads.build(workload, seed=1)
    kind, params, inst, *_ = workloads.WORKLOADS[workload][1][0]
    assert np.array_equal(base[0].problem.A, fp.generate(kind, seed=inst, **params).A)
    assert any(not np.array_equal(a.problem.A, b.problem.A) for a, b in zip(base, other))
    case_a, case_b = base[0], other[0]
    sol_a, sol_b = _solve(case_a), _solve(case_b)
    assert checks.check_solution(case_b, sol_b) is None
    if case_a.expected == workloads.CONVERGED:
        assert sol_b.objective == pytest.approx(sol_a.objective, rel=1e-5, abs=1e-6)
