import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import cho_factor, cho_solve

from fpaccel.cones import NONNEG, ZERO, ConeBlock
from fpaccel import conic
from fpaccel.conic import ConicProblem, DrsOperator, DrsStep, _inf_norm, solve
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
    with pytest.raises(ValueError, match="q and b must be vectors"):
        ConicProblem(None, [[1.0, 2.0]], None, [], [])  # a row matrix q
    with pytest.raises(ValueError, match="q and b must be vectors"):
        ConicProblem(None, [1.0], [[1.0]], [[1.0]], [ConeBlock(NONNEG, 1)])  # a matrix b
    with pytest.raises(ValueError, match="q and b must be vectors"):
        ConicProblem(None, 1.0, None, [], [])  # a scalar q


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


@pytest.mark.parametrize("n, m", [(30, 60), (420, 620)])
@pytest.mark.parametrize("gamma", [1e-6, 1e-3, 1.0, 1e3, 1e6])
def test_solve_kkt_matches_cho_solve_and_is_backward_stable(gamma, n, m):
    # solve_kkt runs its two triangular solves as BLAS-2 dtrsv calls on the
    # Cholesky factor of the reduced matrix K; x must agree with scipy's
    # cho_solve to rounding and have a backward error at rounding level.
    rng = np.random.default_rng(3)
    prob = generate("RandomQP", n=n, m=m, seed=4)
    op = DrsOperator(prob, gamma=gamma)
    reduced = prob.P + (np.eye(n) + prob.A.T @ prob.A) / gamma
    factor = cho_factor(reduced)
    reduced_norm = np.linalg.norm(reduced, 2)
    for _ in range(3):
        r1, r2 = rng.standard_normal(n), rng.standard_normal(m)
        rhs = r1 + prob.A.T @ r2 / gamma
        x = op.solve_kkt(r1, r2)[0]
        x_norm = np.linalg.norm(x)
        assert np.linalg.norm(x - cho_solve(factor, rhs)) <= 1e-13 * x_norm
        assert np.linalg.norm(reduced @ x - rhs) <= 1e-14 * reduced_norm * x_norm


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
    step = DrsStep(np.zeros(2), prob.b.copy(), np.zeros(3), np.zeros(3))
    assert DrsOperator(prob).residuals(step) == (0.0, 0.0)


def test_residual_norms_match_recomputation():
    # residuals(step) is the data formula at the step's own point, bit for
    # bit, with or without constraints.
    rng = np.random.default_rng(4)
    for prob in (generate("RandomQP", n=10, m=15, seed=5),
                 ConicProblem(np.eye(3), [1.0, -2.0, 0.5], None, [], [])):
        n, m = prob.n, prob.m
        x, s, y = rng.standard_normal(n), rng.standard_normal(m), rng.standard_normal(m)
        r_prim, r_dual = DrsOperator(prob).residuals(DrsStep(x, s, y, prob.A @ x))
        assert r_prim == np.abs(prob.A @ x + s - prob.b).max(initial=0.0)
        assert r_dual == np.abs(prob.P @ x + prob.q + prob.A.T @ y).max()
    assert r_prim == 0.0  # m = 0 has no primal residual


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


@pytest.mark.parametrize("gamma", [np.nan, np.inf, -np.inf, 0.0, "1"])
def test_set_params_validates_like_the_constructor(gamma):
    op = DrsOperator(tiny_qp(), gamma=0.5)
    with pytest.raises(ValueError, match="gamma must be positive and finite"):
        op.set_params([gamma])
    assert op.gamma == 0.5 and op.epoch == 0


def test_adapt_gamma_deadband_and_clip():
    prob = generate("RandomQP", n=8, m=12, seed=6)
    op = DrsOperator(prob, gamma=1.0)
    v = np.zeros(op.dim)
    op.apply(v)
    step = op.info
    x, s, y = step.x, step.s, step.y
    prim_scale = max(np.abs(prob.A @ x).max(), np.abs(s).max(), np.abs(prob.b).max(), 1.0)
    dual_scale = max(
        np.abs(prob.P @ x).max(), np.abs(prob.q).max(), np.abs(prob.A.T @ y).max(), 1.0
    )

    # balanced residuals: factor 1 sits inside the deadband
    op.residuals = lambda _step: (prim_scale, dual_scale)
    assert not op.adapt_gamma(step)
    assert op.epoch == 0

    # scaled ratio 100 -> clip(sqrt(100)) = 10 -> gamma divided by 10
    op.residuals = lambda _step: (100.0 * prim_scale, dual_scale)
    assert op.adapt_gamma(step)
    assert op.epoch == 1
    assert op.gamma == pytest.approx(0.1)

    # converged state: no change regardless of the ratio
    op2 = DrsOperator(prob, gamma=1.0)
    op2.apply(v)
    op2.residuals = lambda _step: (1e-9, 1e-13)
    assert not op2.adapt_gamma(op2.info, tol=1e-6)
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


# Every seed's certificate in each benchmark configuration is re-verified from
# the data against criterion 8's separating-hyperplane conditions.
CERT_CONFIGS = ("vanilla", "unsafe", "safeguarded")


@pytest.mark.parametrize("mode", CERT_CONFIGS)
@pytest.mark.parametrize("seed", range(1, 9))
def test_primal_infeasible_lp_detected(seed, mode):
    prob = generate("InfeasibleLP", seed=seed)
    sol = solve(prob, mode, eps=1e-6)
    assert sol.status == "primal_infeasible"
    assert sol.record.iterations <= 2000
    w = sol.certificate.witness
    assert abs(np.abs(w).max() - 1.0) <= 1e-12
    # independent re-verification of the separating hyperplane conditions
    assert np.abs(prob.A.T @ w).max() <= 1e-6
    assert prob.b @ w < -1e-6
    assert np.all(w >= -1e-6)  # support of the nonnegative cone stays finite


@pytest.mark.parametrize("mode", CERT_CONFIGS)
@pytest.mark.parametrize("seed", range(1, 9))
def test_dual_infeasible_lp_detected(seed, mode):
    prob = generate("UnboundedLP", seed=seed)
    sol = solve(prob, mode, eps=1e-6)
    assert sol.status == "dual_infeasible"
    assert sol.record.iterations <= 2000
    d = sol.certificate.witness
    assert abs(np.abs(d).max() - 1.0) <= 1e-12
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


def test_non_finite_first_evaluation_ends_diverged():
    # A NaN starting point makes the first operator value non-finite; the
    # solve reports it as a status instead of raising from the driver.  (A NaN
    # box bound, the other way in, is refused by ConeBlock.)
    for mode in ("vanilla", "unsafe", "safeguarded"):
        sol = solve(tiny_qp(), mode, v0=np.array([np.nan, 0.0]))
        assert sol.status == "diverged" and sol.record.iterations == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("mode", ["vanilla", "unsafe", "safeguarded", "strict"])
def test_non_finite_start_at_a_psd_block_ends_diverged(mode, bad):
    # The eigensolver of the PSD projection does not converge on a non-finite
    # matrix; the projection returns a non-finite block, so the first operator
    # value is non-finite and the solve ends as diverged, as a QP does.
    prob = generate("RandomSDP", side=3)
    for index in (0, prob.n):  # one entry in the x-part, one in the s-part
        v0 = np.zeros(prob.n + prob.m)
        v0[index] = bad
        sol = solve(prob, mode, v0=v0, tau=0.9 if mode == "strict" else 2.0)
        assert sol.status == "diverged" and sol.record.iterations == 0


def test_trace_columns_are_the_fixed_point_residual_norms(monkeypatch):
    # Bit for bit ||r_s||_inf and ||r_x||_inf / gamma, including a problem
    # with no constraints (m == 0), where r_s is empty.
    calls = []
    hook = conic._trace_norms

    def bits(pair):
        return struct.pack("<2d", *pair)

    def spy(op, state):
        out = hook(op, state)
        calls.append((state.r.copy(), op.problem.n, op.gamma, out))
        return out

    monkeypatch.setattr(conic, "_trace_norms", spy)
    unconstrained = ConicProblem([[2.0, 0.0], [0.0, 1.0]], [-2.0, 1.0], None, [], [])
    assert unconstrained.m == 0
    for prob in (generate("RandomQP", n=20, m=40, seed=3), generate("RandomSDP", side=4, seed=2),
                 unconstrained):
        calls.clear()
        sol = solve(prob, "safeguarded", gamma=0.3, max_iter=60)
        assert len(calls) == len(sol.record.entries) > 0
        for (r, n, gamma, out), entry in zip(calls, sol.record.entries):
            expected = bits((_inf_norm(r[n:]), _inf_norm(r[:n]) / gamma))
            assert bits(out) == expected == bits((entry.r_prim, entry.r_dual))


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


GAMMAS = [1e-6, 1e-3, 1.0, 1e3, 1e6]
# Trace columns may differ from the data residuals by rounding, relative to
# the scale of the numbers they are formed from, and r_dual also by the
# residual of the reduced KKT solve, at most a few eps ||M|| ||x||.
TRACE_RTOL = 1e-12
KKT_SLACK = 100.0


@pytest.mark.parametrize("gamma", GAMMAS)
def test_dual_residual_identity_matches_the_data(gamma):
    # The trace reads r_prim = ||r_s|| and r_dual = ||r_x|| / gamma off the
    # fixed-point residual r = v - F(v); both must be the data residuals of
    # the iterate's point, within bounds fixed above.
    frozen = {"adapt_interval": 10**6, "eps": 1e-9}
    for prob in (generate("RandomQP", n=20, m=40, seed=13), generate("RandomSDP", side=5, seed=14)):
        reduced = prob.P + (np.eye(prob.n) + prob.A.T @ prob.A) / gamma
        kkt_norm = np.abs(reduced).sum(axis=1).max()
        for max_iter in (1, 30, 300):
            sol = solve(prob, "safeguarded", gamma=gamma, max_iter=max_iter, **frozen)
            last, v = sol.record.entries[-1], sol.record.final_state.v
            scale = max(1.0, *(np.abs(a).max() for a in (v, prob.b, prob.A @ sol.x, sol.s)))
            assert abs(last.r_prim - sol.r_prim) <= TRACE_RTOL * scale
            kkt_err = KKT_SLACK * np.finfo(float).eps * kkt_norm * np.abs(sol.x).max()
            assert abs(last.r_dual - sol.r_dual) <= TRACE_RTOL * max(1.0, sol.r_dual) + kkt_err


@pytest.fixture(scope="module")
def sweep_problems():
    """(problem, eps, its accurate solution) for the step-size sweep.  The
    RandomQP has A and b scaled by 30, which makes the reduced KKT matrix
    large at small gamma."""
    qp = generate("RandomQP", n=20, m=40, seed=13)
    problems = (
        (ConicProblem(qp.P, qp.q, 30.0 * qp.A, 30.0 * qp.b, qp.cones), 1e-6),
        (generate("RandomSDP", side=5, seed=14), 1e-5),
        (tiny_qp(), 1e-8),
    )
    return [(prob, eps, solve(prob, "safeguarded", eps=1e-10)) for prob, eps in problems]


@pytest.mark.parametrize("gamma", GAMMAS)
def test_converged_means_data_residuals_within_eps(gamma, sweep_problems):
    # With the step size frozen anywhere in its range, a converged status
    # always certifies the data residuals of the returned point: from a cold
    # start, and from at or near the solution, where at small gamma the KKT
    # identity r_x / gamma is too coarse to decide convergence.
    rng = np.random.default_rng(12)
    frozen = {"adapt_interval": 10**6, "max_iter": 300, "check_interval": 5}
    converged = 0
    for prob, eps, ref in sweep_problems:
        fixed = np.concatenate([ref.x, ref.s + gamma * ref.y])  # the fixed point at gamma
        near = fixed + 1e-9 * (1.0 + np.abs(fixed)) * rng.standard_normal(fixed.size)
        for v0 in (None, fixed, near):
            for mode in ("vanilla", "safeguarded"):
                sol = solve(prob, mode, gamma=gamma, eps=eps, v0=v0, **frozen)
                if sol.status == "converged":
                    converged += 1
                    assert sol.r_prim <= eps and sol.r_dual <= eps
    assert converged > 0


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
            r_prim, r_dual = _data_residuals(prob, step.x, step.s, step.y)
            prim_scale = max(np.abs(step.ax).max(), np.abs(step.s).max(), np.abs(prob.b).max(), 1.0)
            dual_scale = max(
                np.abs(prob.P @ step.x).max(), np.abs(prob.q).max(),
                np.abs(prob.A.T @ step.y).max(), 1.0,
            )
            ratio = (r_prim / prim_scale) / max(r_dual / dual_scale, 1e-300)
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


def test_evaluations_form_no_residual_norms(monkeypatch):
    # Only the decisions call residuals(): each convergence check, each
    # scheduled step-size update and solve's return, never an evaluation.
    calls = []
    residuals = DrsOperator.residuals

    def counted(op, step):
        calls.append(1)
        return residuals(op, step)

    monkeypatch.setattr(DrsOperator, "residuals", counted)
    prob = generate("RandomQP", n=20, m=40, seed=9)
    op = DrsOperator(prob)
    for _ in range(5):
        op.apply(np.random.default_rng(0).standard_normal(op.dim))
    assert not calls
    for gamma in (1.0, 1e-3):
        calls.clear()
        rec = solve(prob, "safeguarded", gamma=gamma, eps=1e-6, adapt_interval=7).record
        assert rec.status == "converged"
        updates = (rec.iterations - 1) // 7
        assert len(calls) == rec.convergence_checks + updates + 1
        assert len(calls) < rec.operator_evaluations / 3


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
