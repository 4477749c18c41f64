import json
import math
import struct
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.blas import dgemv, dtrsv

from fpaccel.cones import (
    BOX, KINDS, NONNEG, PSD_TRIANGLE, SECOND_ORDER, ZERO, ConeBlock, project_cone,
)
from fpaccel import conic
from fpaccel.conic import ConicProblem, DrsOperator, DrsStep, _inf_norm, solve
from fpaccel.driver import CONVERGED, DIVERGED, MAX_ITER
from fpaccel.problems import ParseError, SchemaError, generate, load_problem, save_problem


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
        r1, r2 = v[:n] / op.gamma - prob.q, prob.b - v[n:]
        x, ax = op.solve_kkt(op.gamma * r1, r2)
        assert np.array_equal(ax, prob.A @ x)
        lam = (ax - r2) / op.gamma
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
    # solve_kkt takes the gamma-scaled first row and returns A x, from which
    # the multiplier of this (unscaled) system is lam = (A x - r2) / gamma.
    x, ax = op.solve_kkt(gamma * rhs[:n], rhs[n:])
    sol = np.concatenate([x, (ax - rhs[n:]) / gamma])
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
    # Cholesky factor of M = gamma P + I + A'A; x must agree with scipy's
    # cho_solve on the unscaled reduced matrix K = M / gamma to rounding and
    # have a backward error on M at rounding level.
    rng = np.random.default_rng(3)
    prob = generate("RandomQP", n=n, m=m, seed=4)
    op = DrsOperator(prob, gamma=gamma)
    reduced = prob.P + (np.eye(n) + prob.A.T @ prob.A) / gamma
    factor = cho_factor(reduced)
    scaled = gamma * prob.P + (np.eye(n) + prob.A.T @ prob.A)
    scaled_norm = np.linalg.norm(scaled, 2)
    for _ in range(3):
        r1, r2 = rng.standard_normal(n), rng.standard_normal(m)
        rhs = r1 + prob.A.T @ r2 / gamma
        x = op.solve_kkt(gamma * r1, r2)[0]
        x_norm = np.linalg.norm(x)
        assert np.linalg.norm(x - cho_solve(factor, rhs)) <= 1e-13 * x_norm
        scaled_rhs = gamma * r1 + prob.A.T @ r2
        assert np.linalg.norm(scaled @ x - scaled_rhs) <= 1e-14 * scaled_norm * x_norm


def test_solve_kkt_refuses_vectors_of_the_wrong_length():
    # BLAS checks neither length: a longer u gave a longer x, and a longer t
    # was read up to its first m entries.
    op = DrsOperator(generate("RandomQP", n=5, m=8, seed=1))
    for u, t in ((np.ones(6), np.ones(8)), (np.ones(5), np.ones(9)),
                 (np.ones(4), np.ones(8)), (np.ones(5), np.ones(7)), (np.ones((5, 1)), np.ones(8))):
        with pytest.raises(ValueError, match="expected \\(5,\\) and \\(8,\\)"):
            op.solve_kkt(u, t)
    x, ax = op.solve_kkt(np.ones(5), np.ones(8))
    assert x.shape == (5,) and ax.shape == (8,)


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
    assert DrsOperator(prob).residuals(step)[:2] == (0.0, 0.0)


def test_residual_norms_match_recomputation():
    # residuals(step) is the data formula at the step's own point, bit for
    # bit, with or without constraints, and returns the products it formed.
    rng = np.random.default_rng(4)
    for prob in (generate("RandomQP", n=10, m=15, seed=5),
                 ConicProblem(np.eye(3), [1.0, -2.0, 0.5], None, [], [])):
        n, m = prob.n, prob.m
        x, s, y = rng.standard_normal(n), rng.standard_normal(m), rng.standard_normal(m)
        r_prim, r_dual, px, aty = DrsOperator(prob).residuals(DrsStep(x, s, y, prob.A @ x))
        assert r_prim == np.abs(prob.A @ x + s - prob.b).max(initial=0.0)
        assert r_dual == np.abs(prob.P @ x + prob.q + prob.A.T @ y).max()
        assert px.tobytes() == (prob.P @ x).tobytes() and aty.tobytes() == (prob.A.T @ y).tobytes()
    assert r_prim == 0.0  # m = 0 has no primal residual


def test_residuals_at_converged_point():
    sol = solve(tiny_qp(), "vanilla", eps=1e-7, check_interval=5)
    assert sol.r_prim <= 1e-6 and sol.r_dual <= 1e-6


def test_gamma_update_refactors_and_bumps_epoch():
    op = DrsOperator(tiny_qp(), gamma=1.0)
    v = np.array([0.3, 0.4])
    before = op.apply(v)
    op.set_params(0.5)
    assert op.epoch == 1 and op.gamma == 0.5
    after = op.apply(v)
    assert not np.allclose(before, after)  # the KKT system really changed
    op.set_params(0.5)
    assert op.epoch == 1  # unchanged parameters do not bump the epoch


@pytest.mark.parametrize("gamma", [np.nan, np.inf, -np.inf, 0.0, "1", [0.5]])
def test_set_params_validates_like_the_constructor(gamma):
    op = DrsOperator(tiny_qp(), gamma=0.5)
    with pytest.raises(ValueError, match="gamma must be positive and finite"):
        op.set_params(gamma)
    assert op.gamma == 0.5 and op.epoch == 0


def test_failed_refactor_leaves_the_operator_unchanged():
    # P = -1e-3 I passes the in-memory checks; (I + A'A)/gamma keeps the
    # reduced matrix definite at gamma = 1 but not at 1e4 (A'A has rank 3).
    rng = np.random.default_rng(0)
    prob = ConicProblem(
        -1e-3 * np.eye(6), rng.standard_normal(6), rng.standard_normal((3, 6)),
        rng.standard_normal(3), [ConeBlock(NONNEG, 3)],
    )
    op = DrsOperator(prob, gamma=1.0)
    v = rng.standard_normal(op.dim)
    before = op.apply(v).tobytes()
    with pytest.raises(np.linalg.LinAlgError):
        op.set_params(1e4)
    assert op.gamma == 1.0 and op.epoch == 0
    assert op.apply(v).tobytes() == before


def fake_residuals(op, r_prim, r_dual):
    """Make op's decisions read (r_prim, r_dual), with the step's own products P x and A'y."""
    residuals = op.residuals
    op.residuals = lambda step: (r_prim, r_dual, *residuals(step)[2:])


def test_adapt_gamma_keeps_gamma_when_the_refactor_fails():
    # The reduced matrix -1e-3 I + (I + A'A)/gamma is definite at gamma = 500
    # and not at the GAMMA_MAX the update asks for (A'A has rank 3 of 6).
    rng = np.random.default_rng(0)
    prob = ConicProblem(
        -1e-3 * np.eye(6), rng.standard_normal(6), rng.standard_normal((3, 6)),
        rng.standard_normal(3), [ConeBlock(NONNEG, 3)],
    )
    op = DrsOperator(prob, gamma=500.0)
    v = rng.standard_normal(op.dim)
    f = op.apply(v)
    before, factor = f.tobytes(), op._factor.copy()
    fake_residuals(op, 0.0, 1.0)  # ratio 0: the update asks for GAMMA_MAX
    assert op.adapt_gamma(op.info, f) is None
    assert op.gamma == 500.0 and op.epoch == 0
    assert np.array_equal(op._factor, factor)
    assert op.apply(v).tobytes() == before


def rank5_cost_problem(seed):
    """P = 1e10 BB' of rank 5, whose rounding leaves eigenvalues down to about -6e-5."""
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((30, 5))
    A = rng.standard_normal((40, 30))
    b = rng.standard_normal(40) + 2.0
    q = rng.standard_normal(30)
    return ConicProblem(1e10 * B @ B.T, q, A, b, [ConeBlock(NONNEG, 40)])


def test_solve_survives_a_refactor_failure_mid_run():
    # In memory (the loader refuses this P): it factors at the starting
    # gamma, and the safeguarded run's step-size updates then reach gammas
    # near GAMMA_MAX where the reduced matrix is not definite.
    prob = rank5_cost_problem(116)
    for mode in ("vanilla", "unsafe", "safeguarded"):
        sol = solve(prob, mode, max_iter=1000)
        assert sol.status in (CONVERGED, MAX_ITER, DIVERGED, conic.PRIMAL_INFEASIBLE,
                              conic.DUAL_INFEASIBLE)


def test_rank5_cost_file_is_refused_or_solved_at_every_gamma(tmp_path):
    # The loader's rule is the factorization's: a file either fails to load
    # or its solve ends in a status from every starting gamma in range.
    save_problem(rank5_cost_problem(5), tmp_path / "p.json")
    try:
        prob = load_problem(tmp_path / "p.json")
    except SchemaError:
        return
    for gamma in 10.0 ** np.arange(-6, 7):
        for mode in ("vanilla", "unsafe", "safeguarded"):
            sol = solve(prob, mode, gamma=gamma, max_iter=500)
            assert sol.status in (CONVERGED, MAX_ITER, DIVERGED, conic.PRIMAL_INFEASIBLE,
                                  conic.DUAL_INFEASIBLE)


@pytest.fixture(scope="module")
def fuzz_bases(tmp_path_factory):
    """Valid problem files, the rank-5 recipe's among them, and a path to
    write mutated ones to."""
    box_soc = ConicProblem(
        [[2.0, 0.5], [0.5, 1.0]], [1.0, -1.0], np.vstack([np.eye(2), np.eye(2)]),
        [1.0, 0.0, 2.0, 0.5],
        [ConeBlock(BOX, 2, l=[-np.inf, -1.0], u=[1.0, np.inf]), ConeBlock(SECOND_ORDER, 2)],
    )
    problems = [
        generate("RandomQP", n=4, m=6, seed=1),
        generate("RandomSDP", side=3, seed=1),
        generate("InfeasibleLP", seed=1),
        box_soc,
        rank5_cost_problem(5),
    ]
    path = tmp_path_factory.mktemp("fuzz") / "p.json"
    bases = []
    for prob in problems:
        save_problem(prob, path)
        bases.append(path.read_text())
    return bases, path


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.sampled_from(KINDS) | st.text(max_size=4)
    | st.integers(-3, 60) | st.sampled_from((2**31, 2**63, 10**20, -(10**20)))
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(("row", "col", "value", "kind", "dim", "l", "u", "n")), inner, max_size=3),
    max_leaves=6,
)


def places(node):
    """(container, key) of each entry of a JSON object, with at most the first
    two and the last entry of each list, so that a short field is as likely
    a target as a long one."""
    if isinstance(node, dict):
        keys = list(node)
    elif isinstance(node, list):
        keys = sorted({0, 1, len(node) - 1} & set(range(len(node))))
    else:
        return []
    out = [(node, key) for key in keys]
    for key in keys:
        out += places(node[key])
    return out


def mutate(data, doc):
    """Replace or delete one entry of the JSON object, or append to a list."""
    # A uniform pick: hypothesis's own integers favour the first places.
    node, key = data.draw(st.randoms(use_true_random=False)).choice(places(doc))
    action = data.draw(st.sampled_from(("replace", "delete", "append")))
    if action == "replace":
        node[key] = data.draw(JSON_VALUES)
    elif action == "delete":
        del node[key]
    elif isinstance(node[key], list):
        node[key].append(data.draw(JSON_VALUES))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.data())
def test_load_problem_raises_only_parse_or_schema_errors(fuzz_bases, data):
    # Mutated valid documents, and their bytes edited: the loader returns a
    # problem or raises one of its two errors, never another exception.
    bases, path = fuzz_bases
    doc = json.loads(data.draw(st.sampled_from(bases)))
    for _ in range(data.draw(st.integers(0, 3))):
        mutate(data, doc)
    raw = bytearray(json.dumps(doc).encode())
    for _ in range(max(0, data.draw(st.integers(0, 9)) - 7)):  # byte edits, at most 2
        at = data.draw(st.integers(0, len(raw)))
        edit = data.draw(st.sampled_from(("set", "insert", "delete")))
        byte = data.draw(st.integers(0, 255) | st.sampled_from(b'{}[]",:0-.eE'))
        if edit == "insert":
            raw.insert(at, byte)
        elif at < len(raw):
            if edit == "set":
                raw[at] = byte
            else:
                del raw[at]
    path.write_bytes(bytes(raw))
    try:
        assert isinstance(load_problem(path), ConicProblem)
    except (ParseError, SchemaError):
        pass


class CountedMatrix(np.ndarray):
    """A matrix that logs the shape of each matrix-vector product it takes part in."""

    products = []

    def __matmul__(self, other):
        if np.ndim(other) == 1:
            CountedMatrix.products.append(self.shape)
        return np.asarray(self) @ other


def test_adapt_gamma_forms_each_product_once():
    # The residual norms and the dual scale share one P x and one A'y.
    prob = generate("RandomQP", n=8, m=12, seed=6)
    op = DrsOperator(prob, gamma=1.0)
    f = op.apply(np.ones(op.dim))
    prob.P, prob.A = prob.P.view(CountedMatrix), prob.A.view(CountedMatrix)
    CountedMatrix.products.clear()
    op.adapt_gamma(op.info, f)
    assert sorted(CountedMatrix.products) == [(8, 8), (8, 12)]


def test_adapt_gamma_deadband_and_clip():
    prob = generate("RandomQP", n=8, m=12, seed=6)
    op = DrsOperator(prob, gamma=1.0)
    v = np.zeros(op.dim)
    f = op.apply(v)
    step = op.info
    x, s, y = step.x, step.s, step.y
    prim_scale = max(np.abs(prob.A @ x).max(), np.abs(s).max(), np.abs(prob.b).max(), 1.0)
    dual_scale = max(
        np.abs(prob.P @ x).max(), np.abs(prob.q).max(), np.abs(prob.A.T @ y).max(), 1.0
    )

    # balanced residuals: factor 1 sits inside the deadband
    fake_residuals(op, prim_scale, dual_scale)
    assert op.adapt_gamma(step, f) is None
    assert op.epoch == 0

    # scaled ratio 100 -> sqrt(100) = 10 -> gamma divided by 10
    fake_residuals(op, 100.0 * prim_scale, dual_scale)
    assert op.adapt_gamma(step, f) is not None
    assert op.epoch == 1
    assert op.gamma == pytest.approx(0.1)

    # scaled ratio 1e4 -> gamma divided by 100 in one update, with no cap on the factor
    op = DrsOperator(prob, gamma=1.0)
    f = op.apply(v)
    fake_residuals(op, 1e4 * prim_scale, dual_scale)
    assert op.adapt_gamma(op.info, f) is not None
    assert op.epoch == 1
    assert op.gamma == pytest.approx(0.01)

    # a ratio of 0 (r_prim = 0) sends gamma to GAMMA_MAX; r_dual = 0, or a
    # ratio that overflows to inf, sends it to GAMMA_MIN; none raises
    for r_prim, r_dual, want in ((0.0, 1.0, conic.GAMMA_MAX), (1.0, 0.0, conic.GAMMA_MIN),
                                 (1e300, 1e-300, conic.GAMMA_MIN)):
        op = DrsOperator(prob, gamma=1.0)
        f = op.apply(v)
        fake_residuals(op, r_prim, r_dual)
        assert op.adapt_gamma(op.info, f) is not None
        assert op.gamma == want and op.epoch == 1

    # converged state: no change regardless of the ratio
    op2 = DrsOperator(prob, gamma=1.0)
    f2 = op2.apply(v)
    fake_residuals(op2, 1e-9, 1e-13)
    assert op2.adapt_gamma(op2.info, f2, tol=1e-6) is None
    assert op2.epoch == 0


def update_with_factor(op, step, f, factor):
    """adapt_gamma on ``step`` with the residuals faked so that its factor is ``factor``."""
    prob = op.problem
    prim_scale = max(_inf_norm(step.ax), _inf_norm(step.s), _inf_norm(prob.b), 1.0)
    dual_scale = max(_inf_norm(prob.P @ step.x), _inf_norm(prob.q),
                     _inf_norm(prob.A.T @ step.y), 1.0)
    fake_residuals(op, factor**2 * prim_scale, dual_scale)
    return op.adapt_gamma(step, f)


def test_a_jump_earns_one_narrow_check(monkeypatch):
    # A move by a factor outside [0.2, 5] is a jump; the next update also
    # moves outside [0.5, 2] (a correction), and after it the wide band is back.
    prob = generate("RandomQP", n=8, m=12, seed=6)
    op = DrsOperator(prob, gamma=1.0)
    f = op.apply(np.zeros(op.dim))
    step = op.info

    assert update_with_factor(op, step, f, 10.0) is not None  # the jump
    assert op.gamma == pytest.approx(0.1) and op.epoch == 1
    assert update_with_factor(op, step, f, 0.4) is not None  # the correction
    assert op.gamma == pytest.approx(0.25) and op.epoch == 2
    assert update_with_factor(op, step, f, 0.4) is None  # a correction earns no narrow check
    assert op.gamma == pytest.approx(0.25) and op.epoch == 2

    # a factor inside the narrow band after a jump clears the state
    op = DrsOperator(prob, gamma=1.0)
    assert update_with_factor(op, step, f, 0.1) is not None
    assert op.gamma == pytest.approx(10.0)
    assert update_with_factor(op, step, f, 1.5) is None
    assert update_with_factor(op, step, f, 0.4) is None
    assert op.gamma == pytest.approx(10.0) and op.epoch == 1

    # a refactor that fails leaves gamma and the state as they were
    op = DrsOperator(prob, gamma=1.0)
    assert update_with_factor(op, step, f, 10.0) is not None
    commit = op.set_params

    def fail(_gamma):
        raise np.linalg.LinAlgError("not positive definite")

    monkeypatch.setattr(op, "set_params", fail)
    assert update_with_factor(op, step, f, 0.4) is None
    assert op.gamma == pytest.approx(0.1) and op.epoch == 1
    monkeypatch.setattr(op, "set_params", commit)
    assert update_with_factor(op, step, f, 0.4) is not None  # still the correction
    assert op.gamma == pytest.approx(0.25) and op.epoch == 2


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


@pytest.mark.parametrize("extra", [-1, 1])
def test_infeasibility_check_refuses_a_difference_of_the_wrong_length(extra):
    # The KKT solve's dgemv would read a prefix of a longer vector.
    op = DrsOperator(generate("InfeasibleLP", seed=1))
    with pytest.raises(ValueError, match="u and t have shapes"):
        op.infeasibility_check(np.ones(op.dim + extra))


def test_infeasibility_check_reads_the_multiplier_difference_at_a_small_gamma():
    # At gamma = 3.23e-5, where the accelerated solves of InfeasibleQP seed 14
    # settle, the pure-step s-part difference divided by gamma carries ds / gamma
    # beside dy, and in 3000 plain steps it never passes the test A'w = 0; the
    # multiplier difference does.
    prob = generate("InfeasibleQP", seed=14)
    op = DrsOperator(prob, gamma=3.23e-5)
    v, cert = np.zeros(op.dim), None
    for k in range(1, 3001):
        f = op.apply(v)
        if k % 25 == 0 and (cert := op.infeasibility_check(f - v)) is not None:
            break
        v = f
    assert cert is not None and cert.kind == "primal_infeasible"
    w = cert.witness
    assert abs(np.abs(w).max() - 1.0) <= 1e-12
    assert np.abs(prob.A.T @ w).max() <= 1e-6
    support = 0.0 if w.min() >= -1e-6 else np.inf  # of the nonnegative cone, at -w
    assert prob.b @ w + support < -1e-6


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
@pytest.mark.parametrize("mode", ["vanilla", "unsafe", "safeguarded"])
def test_non_finite_start_at_a_psd_block_ends_diverged(mode, bad):
    # The eigensolver of the PSD projection does not converge on a non-finite
    # matrix; the projection returns a non-finite block, so the first operator
    # value is non-finite and the solve ends as diverged, as a QP does.
    prob = generate("RandomSDP", side=3)
    for index in (0, prob.n):  # one entry in the x-part, one in the s-part
        v0 = np.zeros(prob.n + prob.m)
        v0[index] = bad
        sol = solve(prob, mode, v0=v0)
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


TRACE_ENTRIES = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300, 1e300, -1e300, math.inf, -math.inf]),
)


@given(
    x_part=st.lists(TRACE_ENTRIES, min_size=1, max_size=12),
    s_part=st.lists(TRACE_ENTRIES, max_size=12),
    gamma=st.floats(conic.GAMMA_MIN, conic.GAMMA_MAX),
)
@settings(max_examples=300, deadline=None)
@example(x_part=[1.0], s_part=[2.0, -3.0], gamma=1.0)  # an index not offset by n reads r[1]
@example(x_part=[-0.0, 0.0], s_part=[-0.0], gamma=0.5)
@example(x_part=[1e-300, -1e300], s_part=[-math.inf, 1.0, math.inf], gamma=1e-6)
def test_trace_norms_are_the_numpy_max_of_each_part(x_part, s_part, gamma):
    # Bit for bit (max|r_s|, max|r_x| / gamma) as numpy forms them, as Python
    # floats, for any r apply can leave: finite or +-inf, ties and -0.0
    # included, and no s-part at all (m == 0).
    r = np.array(x_part + s_part)
    n, m = len(x_part), len(s_part)
    op = types.SimpleNamespace(problem=types.SimpleNamespace(n=n, m=m), gamma=gamma)
    out = conic._trace_norms(op, types.SimpleNamespace(r=r))
    with np.errstate(over="ignore"):  # a large max over a small gamma is inf, as in Python
        expected = (np.abs(r[n:]).max(initial=0.0), np.abs(r[:n]).max() / gamma)
    assert [type(col) for col in out] == [float, float]
    assert struct.pack("<2d", *out) == struct.pack("<2d", *expected)


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


@pytest.mark.parametrize("mode", ["strict", "turbo"])
def test_solve_refuses_an_unknown_mode(monkeypatch, mode):
    monkeypatch.setattr(conic, "DrsOperator", None)  # a solve would call it
    with pytest.raises(ValueError, match="mode must be one of"):
        solve(tiny_qp(), mode, tau=0.5)


@pytest.mark.parametrize("mode", ["vanilla", "unsafe", "safeguarded"])
def test_solve_counts_every_loop_evaluation(mode):
    prob = generate("RandomQP", n=20, m=40, seed=9)
    rec = solve(prob, mode).record
    assert rec.status == "converged"
    assert rec.operator_evaluations == rec.iterations + rec.rejected_candidates
    assert rec.strict_checks == 0


@pytest.mark.parametrize("kind, params, seeds", [
    # Held-out InfeasibleQP seed 14 settles at a step size near 3e-5, where the
    # s-part difference divided by gamma would hide the multiplier difference.
    ("InfeasibleQP", {}, [*range(1, 9), 14]),
    ("UnboundedQP", {"scale": 1e8}, range(1, 9)),
], ids=["InfeasibleQP", "UnboundedQP-1e8"])
def test_accelerated_reaches_the_status_of_vanilla_within_the_bound(kind, params, seeds):
    # Each accelerated mode, at the default tau, must reach vanilla's status
    # (a certificate, or convergence at UnboundedQP seed 4) within
    # max(2000, 3 x vanilla's iterations).
    missed = []
    for seed in seeds:
        prob = generate(kind, seed=seed, **params)
        vanilla = solve(prob, "vanilla", max_iter=20000)
        assert vanilla.status != "max_iter"
        bound = max(2000, 3 * vanilla.record.iterations)
        for mode in ("safeguarded", "unsafe"):
            sol = solve(prob, mode, max_iter=bound)
            if sol.status != vanilla.status:
                missed.append((mode, seed, vanilla.status, sol.status, sol.record.iterations))
    assert missed == []


def test_finite_positive_gamma_is_clipped():
    assert DrsOperator(tiny_qp(), gamma=1e-9).gamma == 1e-6
    op = DrsOperator(tiny_qp(), gamma=1e9)
    assert op.gamma == 1e6
    op.set_params(1e-9)  # the adaptive update clips as well
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
    # Two consecutive updates on one operator: the second one also moves
    # outside [0.5, 2] when the first was a jump (a factor outside [0.2, 5]).
    rng = np.random.default_rng(15)
    prob = generate("RandomQP", n=12, m=24, seed=16)
    changed = beyond_tenfold = corrections = 0
    for gamma in (1e-3, 1.0, 1e3):
        for _ in range(10):
            op = DrsOperator(prob, gamma=gamma)
            after_jump = False
            for _update in range(2):
                gamma0 = op.gamma
                f = op.apply(rng.standard_normal(op.dim) * 10.0 ** rng.uniform(-2, 2))
                step = op.info
                r_prim, r_dual = _data_residuals(prob, step.x, step.s, step.y)
                prim_scale = max(np.abs(step.ax).max(), np.abs(step.s).max(),
                                 np.abs(prob.b).max(), 1.0)
                dual_scale = max(
                    np.abs(prob.P @ step.x).max(), np.abs(prob.q).max(),
                    np.abs(prob.A.T @ step.y).max(), 1.0,
                )
                ratio = (r_prim / prim_scale) / max(r_dual / dual_scale, 1e-300)
                factor = float(np.sqrt(ratio))  # one jump, clipped only to the step-size range
                jump = not 0.2 <= factor <= 5.0
                moves = jump or (after_jump and not 0.5 <= factor <= 2.0)
                want = float(np.clip(gamma0 / factor, 1e-6, 1e6)) if moves else gamma0
                corrections += moves and not jump
                after_jump = jump
                beyond_tenfold += not 0.1 <= factor <= 10.0
                assert (op.adapt_gamma(step, f) is not None) == (want != gamma0)
                assert op.gamma == want
                changed += want != gamma0
    assert 0 < changed < 60  # both decisions were exercised
    assert beyond_tenfold > 0  # and moves past a factor of 10
    assert corrections > 0  # and the narrow band after a jump


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.floats(allow_nan=False))
def test_scalar_clip_is_np_clip_bit_for_bit(x):
    # Both clips on the step-size path: adapt_gamma's factor, whose ratio can
    # be 0 or infinite, to [GAMMA_MIN / GAMMA_MAX, GAMMA_MAX / GAMMA_MIN], and
    # _step_size's range.
    wide = (conic.GAMMA_MIN / conic.GAMMA_MAX, conic.GAMMA_MAX / conic.GAMMA_MIN)
    for lo, hi in (wide, (conic.GAMMA_MIN, conic.GAMMA_MAX)):
        for value in (x, lo, hi, math.nextafter(lo, 0.0), math.nextafter(hi, math.inf),
                      0.0, math.inf, -math.inf):
            got = conic._clip(value, lo, hi)
            assert struct.pack("<d", got) == struct.pack("<d", float(np.clip(value, lo, hi)))
    if 0.0 < x < math.inf:
        want = float(np.clip(x, conic.GAMMA_MIN, conic.GAMMA_MAX))
        assert struct.pack("<d", conic._step_size(x)) == struct.pack("<d", want)


def test_adapt_gamma_carries_a_fixed_point_to_the_new_one(monkeypatch):
    # At an accurate fixed point of the operator at gamma0 = 1, the start
    # adapt_gamma returns is a fixed point at gamma1 up to rounding, across
    # the step-size range; the kept iterate f is far from it.
    prob = generate("RandomQP", n=30, m=60, seed=3)
    sol = solve(prob, eps=1e-12, adapt_interval=10**5)  # gamma stays 1
    assert sol.status == "converged"
    v = sol.record.final_state.v
    op = DrsOperator(prob, gamma=1.0)
    f = op.apply(v)
    assert np.linalg.norm(f - v) <= 1e-11
    assert op.adapt_gamma(op.info, f) is None and op.epoch == 0  # converged: gamma stays

    for gamma1 in (1e-3, 0.1, 0.5, 2.0, 10.0, 1e3):
        op = DrsOperator(prob, gamma=1.0)
        f = op.apply(v)
        fake_residuals(op, 1.0, 0.0)  # r_dual = 0: far outside the deadband, a move

        def commit_gamma1(_gamma, commit=op.set_params, gamma1=gamma1):
            commit(gamma1)

        monkeypatch.setattr(op, "set_params", commit_gamma1)
        start = op.adapt_gamma(op.info, f)
        assert op.gamma == gamma1 and op.epoch == 1
        assert start[: prob.n].tobytes() == f[: prob.n].tobytes()
        assert np.linalg.norm(op.apply(start) - start) <= 1e-10 * max(1.0, gamma1)
        assert np.linalg.norm(op.apply(f) - f) > 1.0


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
    # Only the decisions form residuals: each convergence check, each
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


def all_cone_problem(seed):
    """n = 6 with one block of each kind: zero 2, nonneg 3, box 3 (finite and
    infinite bounds), second-order 4 and PSD side 3 (6 entries), m = 18."""
    rng = np.random.default_rng(seed)
    n = 6
    cones = [
        ConeBlock(ZERO, 2),
        ConeBlock(NONNEG, 3),
        ConeBlock(BOX, 3, l=[-1.0, -np.inf, 0.0], u=[1.0, 2.0, np.inf]),
        ConeBlock(SECOND_ORDER, 4),
        ConeBlock(PSD_TRIANGLE, 6),
    ]
    M = rng.standard_normal((n, n))
    return ConicProblem(M.T @ M / n, rng.standard_normal(n), rng.standard_normal((18, n)),
                        rng.standard_normal(18), cones)


def reference_evaluation(op, v):
    """One DRS evaluation written as the expressions the operator's arithmetic
    must equal bit for bit: (F(v), (x, s, y, A x)).  The right-hand side
    (v_x - gamma q) + A't is the one fused dgemv (a problem with no
    constraints has no A't)."""
    prob, gamma, n = op.problem, op.gamma, op.problem.n
    t, u = prob.b - v[n:], v[:n] - gamma * prob.q
    rhs = dgemv(1.0, prob.A.T, t, beta=1.0, y=u) if prob.m else u
    x = dtrsv(op._factor, dtrsv(op._factor, rhs, trans=1))
    ax = prob.A @ x
    mu = ax - t
    s = v[n:] - 2.0 * mu
    for block, sl in zip(prob.cones, prob.cone_slices()):
        s[sl] = project_cone(block, s[sl])
    return np.concatenate([x, s + mu]), (x, s, mu / gamma, ax)


def unscaled_evaluation(prob, gamma, v):
    """F(v) in the form with the unscaled multiplier lam and the reduced matrix
    P + (I + A'A) / gamma."""
    n = prob.n
    r1, r2 = v[:n] / gamma - prob.q, prob.b - v[n:]
    factor = cho_factor(prob.P + (np.eye(n) + prob.A.T @ prob.A) / gamma)
    x = cho_solve(factor, r1 + prob.A.T @ r2 / gamma)
    lam = (prob.A @ x - r2) / gamma
    s = v[n:] - 2.0 * gamma * lam
    for block, sl in zip(prob.cones, prob.cone_slices()):
        s[sl] = project_cone(block, s[sl])
    return np.concatenate([x, s + gamma * lam])


IDENTITY_PROBLEMS = {
    "all_cones": all_cone_problem,
    "RandomQP": lambda seed: generate("RandomQP", n=8, m=12, seed=seed),
    "RandomSDP": lambda seed: generate("RandomSDP", side=3, seed=seed),
    "Lasso": lambda seed: generate("Lasso", features=4, samples=6, seed=seed),
    "unconstrained": lambda seed: ConicProblem(np.eye(3), np.arange(3.0) - seed, None, [], []),
}


@pytest.mark.parametrize("gamma", [1e-6, 1e-3, 1.0, 1e3, 1e6])
@pytest.mark.parametrize("kind", sorted(IDENTITY_PROBLEMS))
def test_evaluation_is_the_reference_expressions_bit_for_bit(kind, gamma):
    # A rewrite of the evaluation may save temporaries but not reorder an
    # expression: the factor is that of gamma P + (I + A'A), and F(v) and every
    # field of its DrsStep equal the reference's bytes, over generated points
    # at scales 1e-3 to 1e3, and v is left as it was.  F(v) also agrees with
    # the unscaled form to rounding: the largest condition number of
    # gamma P + I + A'A over these cases is about 3e5, so two backward-stable
    # solves differ by about cond * eps = 4e-11 of the data's scale at most.
    for seed in range(3):
        prob = IDENTITY_PROBLEMS[kind](seed)
        op = DrsOperator(prob, gamma=gamma)
        scaled = gamma * prob.P + (np.eye(prob.n) + prob.A.T @ prob.A)
        assert np.triu(op._factor).tobytes() == np.triu(cho_factor(scaled)[0]).tobytes()
        rng = np.random.default_rng(100 + seed)
        for scale in (1e-3, 1.0, 1e3):
            v = scale * rng.standard_normal(op.dim)
            v_bytes = v.tobytes()
            out, fields = reference_evaluation(op, v.copy())
            assert op.apply(v).tobytes() == out.tobytes()
            assert v.tobytes() == v_bytes
            step = op.info
            for got, want in zip((step.x, step.s, step.y, step.ax), fields):
                assert got.tobytes() == want.tobytes()
            unscaled = unscaled_evaluation(prob, op.gamma, v)
            tol = 1e-9 * (np.linalg.norm(v) + np.linalg.norm(unscaled))
            assert np.linalg.norm(out - unscaled) <= tol


def test_drs_step_is_an_immutable_record_in_field_order():
    x, s, y, ax = (np.full(k, float(k)) for k in (1, 2, 3, 4))
    step = DrsStep(x, s, y, ax)
    assert step.x is x and step.s is s and step.y is y and step.ax is ax
    assert tuple(step) == (x, s, y, ax)
    for name in ("x", "s", "y", "ax"):
        with pytest.raises(AttributeError):
            setattr(step, name, np.zeros(1))
