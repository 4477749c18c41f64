import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import lu_factor, lu_solve

from fpaccel.accel import (
    TYPE_I,
    TYPE_II,
    AccelMemory,
    SingularSystem,
    alpha_from_eta,
    eta_guard,
)
from fpaccel.driver import DriverConfig, Hooks, run_unsafe
from fpaccel.linalg import ColumnRankDeficient
from fpaccel.operators import AffineTestOperator


def test_push_pair_advances_pointer():
    mem = AccelMemory(2, 4)
    assert mem.j == 1 and mem.ncols == 0
    mem.push_pair(np.array([1.0, 0.0]), np.array([0.5, 0.0]))
    assert mem.j == 2 and mem.ncols == 1
    assert_allclose(mem.v_diffs[:, 0], [1.0, 0.0])
    assert_allclose(mem.r_diffs[:, 0], [0.5, 0.0])


def test_push_pair_capacity_boundary():
    mem = AccelMemory(3, 2)
    rng = np.random.default_rng(0)
    mem.push_pair(rng.standard_normal(3), rng.standard_normal(3))
    mem.push_pair(rng.standard_normal(3), rng.standard_normal(3))
    assert mem.ncols == mem.m_max
    with pytest.raises(ValueError):
        mem.push_pair(rng.standard_normal(3), rng.standard_normal(3))


def test_push_pair_collinear_residual_diff():
    mem = AccelMemory(3, 4)
    dr = np.array([1.0, -2.0, 0.5])
    mem.push_pair(np.ones(3), dr)
    with pytest.raises(ColumnRankDeficient):
        mem.push_pair(np.zeros(3), dr.copy())
    assert mem.ncols == 1  # the failed pair is not committed


def test_eta_type2_single_column():
    mem = AccelMemory(2, 4)
    mem.push_pair(np.array([1.0, 0.0]), np.array([2.0, 0.0]))
    eta = mem.compute_eta_type2(np.array([1.0, 0.0]))
    assert_allclose(eta, [0.5])


def test_eta_type2_orthogonal_residual_is_zero():
    mem = AccelMemory(3, 4)
    mem.push_pair(np.ones(3), np.array([1.0, 0.0, 0.0]))
    mem.push_pair(np.ones(3), np.array([0.0, 1.0, 0.0]))
    eta = mem.compute_eta_type2(np.array([0.0, 0.0, 3.0]))
    assert_allclose(eta, [0.0, 0.0], atol=1e-14)


def test_eta_type2_matches_normal_equations():
    rng = np.random.default_rng(1)
    mem = AccelMemory(50, 8)
    for _ in range(5):
        mem.push_pair(rng.standard_normal(50), rng.standard_normal(50))
    r_k = rng.standard_normal(50)
    R = mem.r_diffs
    oracle = np.linalg.solve(R.T @ R, R.T @ r_k)
    got = mem.compute_eta_type2(r_k)
    assert np.linalg.norm(got - oracle) <= 1e-8 * max(1.0, np.linalg.norm(oracle))


def test_eta_type1_degenerate_equals_type2():
    mem = AccelMemory(2, 4, variant=TYPE_I)
    col = np.array([2.0, 0.0])
    mem.push_pair(col.copy(), col.copy())  # V = R
    eta = mem.compute_eta_type1(np.array([1.0, 0.0]))
    assert_allclose(eta, [0.5])


def test_eta_type1_matches_direct_solve():
    rng = np.random.default_rng(2)
    mem = AccelMemory(20, 6, variant=TYPE_I)
    for _ in range(4):
        mem.push_pair(rng.standard_normal(20), rng.standard_normal(20))
    r_k = rng.standard_normal(20)
    oracle = np.linalg.solve(mem.v_diffs.T @ mem.r_diffs, mem.v_diffs.T @ r_k)
    got = mem.compute_eta_type1(r_k)
    assert np.linalg.norm(got - oracle) <= 1e-8 * max(1.0, np.linalg.norm(oracle))


def test_eta_type1_singular_system():
    mem = AccelMemory(3, 4, variant=TYPE_I)
    dr = np.array([1.0, 0.0, 0.0])
    # identical residual columns make V'R rank one
    mem.push_pair(np.array([1.0, 0.0, 0.0]), dr.copy())
    mem.push_pair(np.array([0.0, 1.0, 0.0]), dr.copy())
    with pytest.raises(SingularSystem):
        mem.compute_eta_type1(np.ones(3))


def test_eta_type1_bit_identical_to_lu_solve():
    # compute_eta_type1 calls LAPACK getrf/getrs itself; it must give the
    # bits of scipy's lu_factor/lu_solve for every column count.
    rng = np.random.default_rng(6)
    mem = AccelMemory(20, 8, variant=TYPE_I)
    for _ in range(8):
        mem.push_pair(rng.standard_normal(20), rng.standard_normal(20))
        r_k = rng.standard_normal(20)
        v = mem.v_diffs
        want = lu_solve(lu_factor(v.T @ mem.r_diffs), v.T @ r_k)
        assert mem.compute_eta_type1(r_k).tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_eta_type1_rejects_non_finite(bad):
    rng = np.random.default_rng(7)
    mem = AccelMemory(5, 4, variant=TYPE_I)
    for _ in range(2):
        mem.push_pair(rng.standard_normal(5), rng.standard_normal(5))
    r_k = rng.standard_normal(5)
    r_k[2] = bad
    with pytest.raises(ValueError, match="finite"):
        mem.compute_eta_type1(r_k)
    dr = rng.standard_normal(5)
    dr[0] = bad  # V'R is not finite; V' r_k is
    mem.push_pair(rng.standard_normal(5), dr)
    with pytest.raises(ValueError, match="finite"), np.errstate(invalid="ignore"):
        mem.compute_eta_type1(rng.standard_normal(5))


def test_candidate_equals_f_when_histories_match():
    rng = np.random.default_rng(3)
    mem = AccelMemory(5, 4)
    for _ in range(3):
        d = rng.standard_normal(5)
        mem.push_pair(d.copy(), d.copy())  # V = R exactly
    f_k = rng.standard_normal(5)
    out = mem.candidate(f_k, rng.standard_normal(3))
    assert np.array_equal(out, f_k)


def test_candidate_zero_eta_returns_f():
    rng = np.random.default_rng(4)
    mem = AccelMemory(4, 4)
    mem.push_pair(rng.standard_normal(4), rng.standard_normal(4))
    f_k = rng.standard_normal(4)
    assert np.array_equal(mem.candidate(f_k, np.zeros(1)), f_k)


def test_candidate_matches_inverse_jacobian_form():
    # On an affine map, the candidate equals v_k - H r_k with
    # H = I + (V - R)(R'R)^{-1} R'.
    rng = np.random.default_rng(5)
    n = 10
    a = rng.standard_normal((n, n))
    a *= 0.9 / np.max(np.abs(np.linalg.eigvals(a)))
    b = rng.standard_normal(n)
    op = AffineTestOperator(a, b)

    mem = AccelMemory(n, n + 2)
    v = rng.standard_normal(n)
    f = op.apply(v)
    r = v - f
    for _ in range(n):
        v_new = f
        f_new = op.apply(v_new)
        r_new = v_new - f_new
        mem.push_pair(v_new - v, r_new - r)
        v, f, r = v_new, f_new, r_new

    eta = mem.compute_eta_type2(r)
    got = mem.candidate(f, eta)
    V, R = mem.v_diffs, mem.r_diffs
    h = np.eye(n) + (V - R) @ np.linalg.solve(R.T @ R, R.T)
    oracle = v - h @ r
    assert np.linalg.norm(got - oracle) <= 1e-9 * max(1.0, np.linalg.norm(oracle))


def test_eta_guard_boundary():
    assert eta_guard(np.array([3.0, 4.0]), 5.0)  # norm exactly 5
    assert not eta_guard(np.array([3.0, 4.0]), 4.9)
    with pytest.raises(ValueError):
        eta_guard(np.zeros(1), 0.0)


def test_restart_empties_memory():
    rng = np.random.default_rng(6)
    mem = AccelMemory(4, 3)
    for _ in range(3):
        mem.push_pair(rng.standard_normal(4), rng.standard_normal(4))
    mem.restart(epoch=5)
    assert mem.j == 1 and mem.ncols == 0 and mem.epoch == 5
    mem.restart()
    assert mem.j == 1 and mem.ncols == 0  # idempotent


def test_observe_anchor_rules():
    rng = np.random.default_rng(9)
    mem = AccelMemory(4, 2, epoch=0)
    vs = [rng.standard_normal(4) for _ in range(10)]
    rs = [rng.standard_normal(4) for _ in range(10)]

    # a fresh memory keeps the first iterate as its anchor, then pushes
    assert mem.observe(vs[0], rs[0], 0).j == 1
    assert mem.observe(vs[1], rs[1], 0).j == 2
    assert mem.observe(vs[2], rs[2], 0).j == 3
    assert_allclose(mem.v_diffs, np.column_stack([vs[1] - vs[0], vs[2] - vs[1]]))
    assert_allclose(mem.r_diffs, np.column_stack([rs[1] - rs[0], rs[2] - rs[1]]))

    # full: restart and keep this iterate, so the next push uses it
    assert mem.observe(vs[3], rs[3], 0).j == 1
    assert mem.observe(vs[4], rs[4], 0).j == 2
    assert_allclose(mem.v_diffs[:, 0], vs[4] - vs[3])

    # epoch change: restart without an anchor, so one more observation
    # passes before the next push
    assert mem.observe(vs[5], rs[5], 1).j == 1 and mem.epoch == 1
    assert mem.observe(vs[6], rs[6], 1).j == 1
    assert mem.observe(vs[7], rs[7], 1).j == 2
    assert_allclose(mem.v_diffs[:, 0], vs[7] - vs[6])

    # rank-deficient pair: the pair is dropped along with the anchor
    assert mem.observe(vs[8], rs[7] + 2.0 * (rs[7] - rs[6]), 1).j == 1
    assert mem.observe(vs[9], rs[9], 1).j == 1
    assert mem.observe(vs[0], rs[0], 1).j == 2
    assert_allclose(mem.r_diffs[:, 0], rs[0] - rs[9])

    # an external restart drops the anchor as well
    mem.restart(epoch=2)
    assert mem.observe(vs[1], rs[1], 2).j == 1
    assert mem.observe(vs[2], rs[2], 2).j == 2
    assert_allclose(mem.v_diffs[:, 0], vs[2] - vs[1])


def test_alpha_from_eta():
    assert_allclose(alpha_from_eta(np.array([])), [1.0])
    assert_allclose(alpha_from_eta(np.array([0.5])), [0.5, 0.5])
    rng = np.random.default_rng(7)
    for _ in range(20):
        eta = rng.standard_normal(5)
        alpha = alpha_from_eta(eta)
        assert alpha.size == 6
        assert abs(alpha.sum() - 1.0) < 1e-13


def test_affine_full_memory_reaches_fixed_point():
    # With memory covering the whole space, safeguard-free acceleration
    # solves an affine problem in at most n + 2 iterations.
    rng = np.random.default_rng(8)
    n = 7
    a = rng.standard_normal((n, n))
    a *= 0.95 / np.max(np.abs(np.linalg.eigvals(a)))
    b = rng.standard_normal(n)
    vstar = np.linalg.solve(np.eye(n) - a, b)
    for trial in range(3):
        op = AffineTestOperator(a, b)
        v0 = 10.0 * rng.standard_normal(n)
        cfg = DriverConfig(eps=1e-10, m_max=n + 2, check_interval=1)
        hooks = Hooks(converged=lambda st, _o: np.linalg.norm(st.r) <= 1e-10)
        rec = run_unsafe(op, v0, cfg, hooks)
        assert rec.status == "converged"
        assert rec.iterations <= n + 2
        assert np.linalg.norm(rec.final_state.v - vstar) <= 1e-8 * (1 + np.linalg.norm(vstar))
