from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import cho_factor, cho_solve

from fpaccel.cones import BOX, NONNEG, ZERO, ConeBlock
from fpaccel.conic import ConicProblem, DrsOperator, solve
from fpaccel.problems import generate


def tiny_qp():
    """minimize 0.5 x^2 - 2 x  s.t.  x + s = 1, s >= 0 (optimum x = 1)."""
    return ConicProblem([[1.0]], [-2.0], [[1.0]], [1.0], [ConeBlock(NONNEG, 1)])


def tiny_qp_fixed_point(gamma):
    """Fixed point of the splitting operator, from the active-set KKT solve."""
    prob = tiny_qp()
    kkt = np.array([[prob.P[0, 0], prob.A[0, 0]], [prob.A[0, 0], 0.0]])
    x, y = np.linalg.solve(kkt, np.array([-prob.q[0], prob.b[0]]))
    s = prob.b[0] - prob.A[0, 0] * x
    return np.array([x, s + gamma * y])


def test_problem_validation():
    with pytest.raises(ValueError):
        ConicProblem([[1.0, 0.5], [0.0, 1.0]], [0.0, 0.0], None, [], [])  # asymmetric P
    with pytest.raises(ValueError):
        ConicProblem(None, [0.0], [[1.0]], [1.0], [ConeBlock(NONNEG, 2)])  # dims
    with pytest.raises(ValueError):
        ConicProblem(None, [np.nan], None, [], [])


def test_prox_identity_when_objective_vanishes():
    prob = ConicProblem(None, np.zeros(3), None, [], [])
    op = DrsOperator(prob, gamma=0.7)
    v = np.array([1.0, -2.0, 3.0])
    assert_allclose(op.apply(v), v, atol=1e-9)
    assert_allclose(op.info.x, v, atol=1e-9)


def test_prox_pure_quadratic():
    prob = ConicProblem(np.eye(2), np.zeros(2), None, [], [])
    op = DrsOperator(prob, gamma=1.0)
    v = np.array([2.0, -4.0])
    op.apply(v)
    assert_allclose(op.info.x, v / 2.0, atol=1e-9)


def test_prox_satisfies_equality_constraint():
    rng = np.random.default_rng(0)
    prob = generate("RandomQP", n=20, m=30, seed=1)
    op = DrsOperator(prob, gamma=0.5)
    n = prob.n
    for _ in range(20):
        v = 5.0 * rng.standard_normal(op.dim)
        x, lam, ax = op.solve_kkt(v[:n] / op.gamma - prob.q, prob.b - v[n:])
        assert np.array_equal(ax, prob.A @ x)
        lhs = ax + (v[n:] - op.gamma * lam)  # A z_x + z_s for the prox output z
        assert np.linalg.norm(lhs - prob.b) <= 1e-8 * max(1.0, np.linalg.norm(prob.b))


@pytest.mark.parametrize("gamma", [10.0**k for k in range(-6, 7)])
def test_prox_kkt_residual_small(gamma):
    rng = np.random.default_rng(1)
    prob = generate("RandomQP", n=15, m=25, seed=2)
    op = DrsOperator(prob, gamma=gamma)
    n, gamma = prob.n, op.gamma
    kkt = np.block(
        [
            [prob.P + np.eye(n) / gamma, prob.A.T],
            [prob.A, -gamma * np.eye(prob.m)],
        ]
    )
    v = rng.standard_normal(op.dim)
    rhs = np.concatenate([v[:n] / gamma - prob.q, prob.b - v[n:]])
    x, lam, _ax = op.solve_kkt(rhs[:n], rhs[n:])
    sol = np.concatenate([x, lam])
    assert np.linalg.norm(kkt @ sol - rhs) <= 1e-8 * np.linalg.norm(rhs)
    # Dense oracle on the full KKT matrix; lam is compared as gamma * lam,
    # the slack correction the prox step actually uses.
    oracle = np.linalg.solve(kkt, rhs)
    for got, want in ((sol[:n], oracle[:n]), (gamma * sol[n:], gamma * oracle[n:])):
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


@pytest.mark.parametrize("gamma", [1e-6, 1e-3, 1.0, 1e3, 1e6])
def test_solve_kkt_bit_identical_to_cho_solve(gamma):
    # solve_kkt calls LAPACK potrs on the factor itself; it must give the
    # bits of scipy's cho_solve with the same factor and right-hand side.
    rng = np.random.default_rng(3)
    prob = generate("RandomQP", n=30, m=60, seed=4)
    op = DrsOperator(prob, gamma=gamma)
    factor = cho_factor(prob.P + (np.eye(prob.n) + prob.A.T @ prob.A) / gamma)
    for _ in range(3):
        r1, r2 = rng.standard_normal(prob.n), rng.standard_normal(prob.m)
        want = cho_solve(factor, r1 + prob.A.T @ r2 / gamma)
        assert op.solve_kkt(r1, r2)[0].tobytes() == want.tobytes()


def test_drs_fixed_point_is_fixed():
    for gamma in (0.5, 1.0, 2.0):
        op = DrsOperator(tiny_qp(), gamma=gamma)
        vstar = tiny_qp_fixed_point(gamma)
        assert np.linalg.norm(op.apply(vstar) - vstar) <= 1e-10


def test_tiny_qp_solves_to_known_optimum():
    sol = solve(tiny_qp(), "safeguarded", eps=1e-8, check_interval=5)
    assert sol.status == "converged"
    assert abs(sol.x[0] - 1.0) <= 1e-6
    assert abs(sol.y[0] - 1.0) <= 1e-6
    assert sol.s[0] >= -1e-9


def test_zero_cone_matches_equality_kkt_oracle():
    rng = np.random.default_rng(3)
    n, m = 12, 5
    M = rng.standard_normal((n, n))
    P = M.T @ M / n + 0.1 * np.eye(n)
    q = rng.standard_normal(n)
    A = rng.standard_normal((m, n))
    b = rng.standard_normal(m)
    prob = ConicProblem(P, q, A, b, [ConeBlock(ZERO, m)])
    sol = solve(prob, "safeguarded", eps=1e-9, check_interval=10)
    kkt = np.block([[P, A.T], [A, np.zeros((m, m))]])
    oracle = np.linalg.solve(kkt, np.concatenate([-q, b]))
    assert sol.status == "converged"
    assert np.linalg.norm(sol.x - oracle[:n]) <= 1e-6 * (1 + np.linalg.norm(oracle[:n]))


def test_residual_norms_trivial():
    prob = ConicProblem(None, np.zeros(2), np.zeros((3, 2)), np.array([1.0, 2.0, 3.0]),
                        [ConeBlock(NONNEG, 3)])
    step = DrsOperator(prob).residuals(np.zeros(2), prob.b.copy(), np.zeros(3), np.zeros(3))
    assert step.r_prim == 0.0 and step.r_dual == 0.0


def test_residual_norms_match_recomputation():
    rng = np.random.default_rng(4)
    prob = generate("RandomQP", n=10, m=15, seed=5)
    x = rng.standard_normal(10)
    s = rng.standard_normal(15)
    y = rng.standard_normal(15)
    step = DrsOperator(prob).residuals(x, s, y, prob.A @ x)
    assert step.r_prim == pytest.approx(np.abs(prob.A @ x + s - prob.b).max())
    assert step.r_dual == pytest.approx(np.abs(prob.P @ x + prob.q + prob.A.T @ y).max())


def test_residuals_at_converged_point():
    sol = solve(tiny_qp(), "vanilla", eps=1e-7, check_interval=5)
    assert sol.r_prim <= 1e-6 and sol.r_dual <= 1e-6


def test_gamma_update_refactors_and_bumps_epoch():
    op = DrsOperator(tiny_qp(), gamma=1.0)
    v = np.array([0.3, 0.4])
    before = op.apply(v)
    op.set_params([0.5])
    assert op.epoch == 1 and op.gamma == 0.5
    after = op.apply(v)
    assert not np.allclose(before, after)  # the KKT system really changed
    op.set_params([0.5])
    assert op.epoch == 1  # unchanged parameters do not bump the epoch


def test_adapt_gamma_deadband_and_clip():
    prob = generate("RandomQP", n=8, m=12, seed=6)
    op = DrsOperator(prob, gamma=1.0)
    v = np.zeros(op.dim)
    op.apply(v)
    step = op.info
    x, s, y = step.x, step.s, step.y
    # the record's residuals are those of its own point, bit for bit
    assert step.r_prim == np.abs(prob.A @ x + s - prob.b).max()
    assert step.r_dual == np.abs(prob.P @ x + prob.q + prob.A.T @ y).max()
    prim_scale = max(np.abs(prob.A @ x).max(), np.abs(s).max(), np.abs(prob.b).max(), 1.0)
    dual_scale = max(
        np.abs(prob.P @ x).max(), np.abs(prob.q).max(), np.abs(prob.A.T @ y).max(), 1.0
    )

    # balanced residuals: factor 1 sits inside the deadband
    assert not op.adapt_gamma(replace(step, r_prim=prim_scale, r_dual=dual_scale))
    assert op.epoch == 0

    # scaled ratio 100 -> clip(sqrt(100)) = 10 -> gamma divided by 10
    assert op.adapt_gamma(replace(step, r_prim=100.0 * prim_scale, r_dual=dual_scale))
    assert op.epoch == 1
    assert op.gamma == pytest.approx(0.1)

    # converged state: no change regardless of the ratio
    op2 = DrsOperator(prob, gamma=1.0)
    op2.apply(v)
    assert not op2.adapt_gamma(replace(op2.info, r_prim=1e-9, r_dual=1e-13), tol=1e-6)
    assert op2.epoch == 0


def test_kkt_solves_are_the_counted_evaluations(monkeypatch):
    # Every KKT solve is the setup evaluation, a counted loop evaluation or
    # an infeasibility check: none is spent re-deriving data at an iterate.
    prob = generate("RandomQP", n=30, m=60, seed=17)
    calls = []
    solve_kkt = DrsOperator.solve_kkt

    def counted(op, r1, r2):
        calls.append(1)
        return solve_kkt(op, r1, r2)

    monkeypatch.setattr(DrsOperator, "solve_kkt", counted)
    for gamma in (100.0, 0.001):
        calls.clear()
        rec = solve(prob, "safeguarded", eps=1e-6, gamma=gamma).record
        checks = sum(e.infeas_checked for e in rec.entries)
        assert rec.rejected_candidates > 0 and checks > 0
        assert len(calls) == rec.operator_evaluations + 1 + checks


def test_drs_firmly_nonexpansive_small():
    rng = np.random.default_rng(7)
    prob = generate("RandomQP", n=10, m=15, seed=8)
    op = DrsOperator(prob, gamma=0.8)
    for _ in range(200):
        v = 4.0 * rng.standard_normal(op.dim)
        w = 4.0 * rng.standard_normal(op.dim)
        fv, fw = op.apply(v), op.apply(w)
        lhs = np.linalg.norm(fv - fw) ** 2 + np.linalg.norm((v - fv) - (w - fw)) ** 2
        assert lhs <= np.linalg.norm(v - w) ** 2 + 1e-9


# Generator kinds for the operator properties, at sizes that keep each
# example well under a millisecond.
PROPERTY_PROBLEMS = {
    "RandomQP": dict(n=8, m=12),
    "Portfolio": dict(assets=6, factors=2),
    "Lasso": dict(features=4, samples=6),
    "RandomSDP": dict(side=3),
}
# Firm nonexpansiveness may fail by rounding only: by at most this share of
# ||v - w||^2.
FNE_RTOL = 1e-6


@st.composite
def drs_points(draw):
    """A DRS operator over gamma = 10^u, u in [-6, 6], and two points v, w
    drawn at independent scales from 1e-3 to 1e3."""
    kind = draw(st.sampled_from(sorted(PROPERTY_PROBLEMS)))
    prob = generate(kind, seed=draw(st.integers(0, 2)), **PROPERTY_PROBLEMS[kind])
    op = DrsOperator(prob, gamma=10.0 ** draw(st.floats(-6.0, 6.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v, w = (10.0 ** draw(st.floats(-3.0, 3.0)) * rng.standard_normal(op.dim) for _ in range(2))
    return op, v, w


@settings(derandomize=True, max_examples=150, deadline=None)
@given(drs_points())
def test_drs_step_returns_the_kkt_x(point):
    op, v, _w = point
    assert op.apply(v)[: op.problem.n].tobytes() == op.info.x.tobytes()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(drs_points())
def test_drs_step_is_firmly_nonexpansive(point):
    op, v, w = point
    fv, fw = op.apply(v), op.apply(w)
    d, df = v - w, fv - fw
    slack = d @ d - df @ df - (d - df) @ (d - df)
    assert slack >= -FNE_RTOL * (d @ d)


def test_vanilla_converges_linearly_on_seeded_qp():
    prob = generate("RandomQP", n=20, m=40, seed=9)
    sol = solve(prob, "vanilla", eps=1e-6)
    assert sol.status == "converged"
    assert sol.r_prim <= 1e-6 and sol.r_dual <= 1e-6


def test_feasible_problem_never_emits_certificate():
    sol = solve(tiny_qp(), "safeguarded", eps=1e-8, check_interval=5)
    assert sol.certificate is None
    prob = generate("RandomQP", n=15, m=30, seed=10)
    assert solve(prob, "safeguarded", eps=1e-6).certificate is None


def test_primal_infeasible_lp_detected():
    prob = generate("InfeasibleLP", seed=3)
    sol = solve(prob, "safeguarded", eps=1e-6)
    assert sol.status == "primal_infeasible"
    assert sol.record.iterations <= 2000
    w = sol.certificate.witness
    assert np.abs(w).max() == pytest.approx(1.0)
    # independent re-verification of the separating hyperplane conditions
    assert np.abs(prob.A.T @ w).max() <= 1e-6
    assert prob.b @ w < -1e-6
    assert np.all(w >= -1e-6)  # support of the nonnegative cone stays finite


def test_dual_infeasible_lp_detected():
    prob = generate("UnboundedLP", seed=3)
    sol = solve(prob, "safeguarded", eps=1e-6)
    assert sol.status == "dual_infeasible"
    assert sol.record.iterations <= 2000
    d = sol.certificate.witness
    assert np.abs(d).max() == pytest.approx(1.0)
    assert np.abs(prob.P @ d).max() <= 1e-6
    assert prob.q @ d < -1e-6
    assert np.all(prob.A @ d <= 1e-6)  # descent direction stays feasible


def test_sdp_solves():
    prob = generate("RandomSDP", side=6, seed=11)
    sol = solve(prob, "safeguarded", eps=1e-5)
    assert sol.status == "converged"
    assert sol.r_prim <= 1e-5 and sol.r_dual <= 1e-5


def test_three_modes_agree_on_tiny_qp():
    sols = {mode: solve(tiny_qp(), mode, eps=1e-8, check_interval=5) for mode in
            ("vanilla", "unsafe", "safeguarded")}
    for mode, sol in sols.items():
        assert sol.status == "converged", mode
        assert abs(sol.x[0] - 1.0) <= 1e-5, mode


def test_nan_box_bound_ends_diverged():
    # A NaN bound makes the first operator value non-finite; the solve
    # reports it as a status instead of raising from the driver.
    prob = ConicProblem(
        [[1.0]], [0.0], [[1.0], [1.0]], [0.0, 1.0],
        [ConeBlock(BOX, 2, l=[np.nan, 0.0], u=[np.inf, np.inf])],
    )
    for mode in ("vanilla", "unsafe", "safeguarded"):
        sol = solve(prob, mode)
        assert sol.status == "diverged" and sol.record.iterations == 0


@pytest.mark.parametrize("gamma", [0.0, -5.0, np.nan, np.inf, -np.inf, "2", True, None])
def test_bad_starting_gamma_is_rejected(gamma):
    with pytest.raises(ValueError, match="gamma must be positive and finite"):
        DrsOperator(tiny_qp(), gamma=gamma)
    with pytest.raises(ValueError, match="gamma must be positive and finite"):
        solve(tiny_qp(), gamma=gamma)


@pytest.mark.parametrize("eps_infeas", [0.0, -1.0, np.nan, np.inf, "1e-6", True, None])
def test_bad_eps_infeas_is_rejected(eps_infeas):
    with pytest.raises(ValueError, match="eps_infeas must be positive and finite"):
        solve(tiny_qp(), eps_infeas=eps_infeas)


def test_solve_runs_strict_mode():
    sol = solve(tiny_qp(), "strict", tau=0.5)
    assert sol.status == "converged" and sol.record.strict_checks > 0
    with pytest.raises(ValueError, match="mode must be one of"):
        solve(tiny_qp(), "turbo")


@pytest.mark.parametrize("mode", ["vanilla", "unsafe", "safeguarded", "strict"])
def test_solve_counts_every_loop_evaluation(mode):
    prob = generate("RandomQP", n=20, m=40, seed=9)
    rec = solve(prob, mode, tau=0.5 if mode == "strict" else 2.0).record
    assert rec.status == "converged"
    assert rec.operator_evaluations == rec.iterations + rec.rejected_candidates + rec.strict_checks


def test_finite_positive_gamma_is_clipped():
    assert DrsOperator(tiny_qp(), gamma=1e-9).gamma == 1e-6
    op = DrsOperator(tiny_qp(), gamma=1e9)
    assert op.gamma == 1e6
    op.set_params([1e-9])  # the adaptive update clips as well
    assert op.gamma == 1e-6 and op.epoch == 1
    assert solve(tiny_qp(), gamma=1e9, eps=1e-8).status == "converged"


def _data_residuals(prob, x, s, y):
    """(r_prim, r_dual) of a primal-dual point, formed from the problem data."""
    r_prim = np.abs(prob.A @ x + s - prob.b).max()
    return r_prim, np.abs(prob.P @ x + prob.q + prob.A.T @ y).max()


def _identity_test_points(prob, gamma, rng):
    """A solved, a perturbed and a random iterate of the operator at gamma."""
    sol = solve(prob, "safeguarded", eps=1e-9)
    solved = np.concatenate([sol.x, sol.s + gamma * sol.y])  # the fixed point at gamma
    perturbed = solved + 1e-3 * (1.0 + np.abs(solved)) * rng.standard_normal(solved.size)
    return solved, perturbed, 5.0 * rng.standard_normal(solved.size)


@pytest.mark.parametrize("gamma", [1e-6, 1e-3, 1.0, 1e3, 1e6])
def test_dual_residual_identity_matches_the_data(gamma):
    # The operator reads r_dual off the first KKT row, (v_x - x) / gamma; it
    # must be the data residual P x + q + A'y of its own point across gamma.
    rng = np.random.default_rng(12)
    for prob in (generate("RandomQP", n=20, m=40, seed=13), generate("RandomSDP", side=5, seed=14)):
        op = DrsOperator(prob, gamma=gamma)
        for v in _identity_test_points(prob, gamma, rng):
            op.apply(v)
            step = op.info
            r_prim, r_dual = _data_residuals(prob, step.x, step.s, step.y)
            assert step.r_prim == r_prim
            assert abs(step.r_dual - r_dual) <= 1e-12 * max(1.0, r_dual)


def test_adapt_gamma_decides_from_the_data_products():
    # adapt_gamma forms P x and A'y itself; its decision must be the one the
    # data products of the step's own x and y give.
    rng = np.random.default_rng(15)
    prob = generate("RandomQP", n=12, m=24, seed=16)
    changed = 0
    for gamma in (1e-3, 1.0, 1e3):
        for _ in range(10):
            op = DrsOperator(prob, gamma=gamma)
            op.apply(rng.standard_normal(op.dim) * 10.0 ** rng.uniform(-2, 2))
            step = op.info
            prim_scale = max(np.abs(step.ax).max(), np.abs(step.s).max(), np.abs(prob.b).max(), 1.0)
            dual_scale = max(
                np.abs(prob.P @ step.x).max(), np.abs(prob.q).max(),
                np.abs(prob.A.T @ step.y).max(), 1.0,
            )
            ratio = (step.r_prim / prim_scale) / max(step.r_dual / dual_scale, 1e-300)
            factor = float(np.clip(np.sqrt(ratio), 0.1, 10.0))
            want = op.gamma if 0.2 <= factor <= 5.0 else float(np.clip(op.gamma / factor, 1e-6, 1e6))
            assert op.adapt_gamma(step) == (want != gamma)
            assert op.gamma == want
            changed += want != gamma
    assert 0 < changed < 30  # both decisions were exercised


@pytest.mark.parametrize(
    "prob, settings",
    [
        (generate("RandomQP", n=20, m=40, seed=9), {"eps": 1e-6}),
        (generate("RandomSDP", side=6, seed=11), {"eps": 1e-5}),
        (generate("RandomQP", n=20, m=40, seed=9), {"eps": 1e-12, "max_iter": 30}),
    ],
    ids=["converged_qp", "converged_sdp", "max_iter"],
)
def test_reported_residuals_are_the_data_residuals(prob, settings):
    sol = solve(prob, "safeguarded", **settings)
    assert sol.status == ("max_iter" if "max_iter" in settings else "converged")
    r_prim, r_dual = _data_residuals(prob, sol.x, sol.s, sol.y)
    assert sol.r_prim == r_prim and sol.r_dual == r_dual


def test_evaluations_take_r_dual_from_the_kkt_solve(monkeypatch):
    # At a moderate step size no evaluation forms P x or A'y.  At gamma =
    # 1e-6 the identity is too coarse near the solution, and the data take
    # over there.
    from_data = []
    residuals = DrsOperator.residuals

    def counted(op, x, s, y, ax, r_dual=None):
        from_data.append(r_dual is None)
        return residuals(op, x, s, y, ax, r_dual)

    monkeypatch.setattr(DrsOperator, "residuals", counted)
    prob = generate("RandomQP", n=20, m=40, seed=9)
    rec = solve(prob, "safeguarded", eps=1e-6).record
    assert len(from_data) == rec.operator_evaluations + 1 and not any(from_data)
    from_data.clear()
    solve(prob, "vanilla", gamma=1e-6, eps=1e-6, adapt_interval=10**6, max_iter=200)
    assert 1 < sum(from_data) < len(from_data)


@pytest.mark.parametrize("mode", ["unsafe", "safeguarded"])
def test_no_op_updates_leave_the_run_alone(mode):
    # gamma never moves on this problem, so how often the update runs must
    # not matter: an update that changes nothing keeps the history.
    prob = generate("RandomQP", n=50, m=100, seed=1)
    max_iter = 10000
    runs = []
    for adapt_interval in (1, 2, 3, 5, 40, max_iter + 1):
        rec = solve(prob, mode, max_iter=max_iter, adapt_interval=adapt_interval).record
        assert rec.status == "converged"
        assert {e.epoch for e in rec.entries} == {0}
        columns = [(e.k, e.j, e.accepted, e.epoch, e.cum_evals) for e in rec.entries]
        runs.append((rec.final_state.v.tobytes(), columns))
    assert all(run == runs[-1] for run in runs)
