import numpy as np
import pytest
from numpy.testing import assert_allclose

from fpaccel.accel import AccelMemory, eta_guard
from fpaccel.driver import DriverConfig, Hooks, run_unsafe
from fpaccel.linalg import ColumnRankDeficient, SingularTriangular
from fpaccel.operators import AffineTestOperator


def test_push_pair_advances_pointer():
    mem = AccelMemory(2, 4)
    assert mem.j == 1 and mem.ncols == 0
    mem.push_pair(np.array([1.0, 0.0]), np.array([0.5, 0.0]))
    assert mem.j == 2 and mem.ncols == 1
    assert_allclose(mem.f_diffs[:, 0], [0.5, 0.0])  # dv - dr
    assert_allclose(mem.qr.q @ mem.qr.r, [[0.5], [0.0]])  # dr


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
    eta = mem.compute_eta(np.array([1.0, 0.0]))
    assert_allclose(eta, [0.5])


def test_eta_type2_orthogonal_residual_is_zero():
    mem = AccelMemory(3, 4)
    mem.push_pair(np.ones(3), np.array([1.0, 0.0, 0.0]))
    mem.push_pair(np.ones(3), np.array([0.0, 1.0, 0.0]))
    eta = mem.compute_eta(np.array([0.0, 0.0, 3.0]))
    assert_allclose(eta, [0.0, 0.0], atol=1e-14)


def test_eta_type2_matches_normal_equations():
    rng = np.random.default_rng(1)
    mem = AccelMemory(50, 8)
    drs = [rng.standard_normal(50) for _ in range(5)]
    for dr in drs:
        mem.push_pair(rng.standard_normal(50), dr)
    r_k = rng.standard_normal(50)
    R = np.column_stack(drs)
    oracle = np.linalg.solve(R.T @ R, R.T @ r_k)
    got = mem.compute_eta(r_k)
    assert np.linalg.norm(got - oracle) <= 1e-8 * max(1.0, np.linalg.norm(oracle))


def test_candidate_equals_f_when_histories_match():
    rng = np.random.default_rng(3)
    mem = AccelMemory(5, 4)
    for _ in range(3):
        d = rng.standard_normal(5)
        mem.push_pair(d.copy(), d.copy())  # V = R exactly
    f_k = rng.standard_normal(5)
    out = mem.candidate(f_k, rng.standard_normal(3))
    assert np.array_equal(out, f_k)


def test_candidate_bit_identical_to_difference_matrix_form():
    # The F buffer stores dv - dr at push time; the candidate must keep the
    # bits of f - (V - R) eta with V - R formed from separate V and R
    # buffers, for every column count up to a full memory.
    rng = np.random.default_rng(10)
    n, m_max = 150, 15
    mem = AccelMemory(n, m_max)
    v_buf, r_buf = np.zeros((n, m_max)), np.zeros((n, m_max))
    for k in range(1, m_max + 1):
        dv, dr = rng.standard_normal(n), rng.standard_normal(n)
        mem.push_pair(dv, dr)
        v_buf[:, k - 1], r_buf[:, k - 1] = dv, dr
        for _ in range(3):
            f_k, eta = rng.standard_normal(n), rng.standard_normal(k)
            want = f_k - (v_buf[:, :k] - r_buf[:, :k]) @ eta
            assert mem.candidate(f_k, eta).tobytes() == want.tobytes()
    assert mem.ncols == m_max


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
    dvs, drs = [], []
    for _ in range(n):
        v_new = f
        f_new = op.apply(v_new)
        r_new = v_new - f_new
        dvs.append(v_new - v)
        drs.append(r_new - r)
        mem.push_pair(dvs[-1], drs[-1])
        v, f, r = v_new, f_new, r_new

    eta = mem.compute_eta(r)
    got = mem.candidate(f, eta)
    V, R = np.column_stack(dvs), np.column_stack(drs)
    h = np.eye(n) + (V - R) @ np.linalg.solve(R.T @ R, R.T)
    oracle = v - h @ r
    assert np.linalg.norm(got - oracle) <= 1e-9 * max(1.0, np.linalg.norm(oracle))


def test_eta_guard_boundary():
    assert eta_guard(np.array([3.0, 4.0]), 5.0)  # norm exactly 5
    assert not eta_guard(np.array([3.0, 4.0]), 4.9)
    with pytest.raises(ValueError):
        eta_guard(np.zeros(1), 0.0)


def assert_one_column_count(mem, j):
    assert mem.j == j and mem.j == mem.qr.ncols + 1 and mem.ncols == mem.qr.ncols


def test_j_is_the_qr_column_count_plus_one():
    # j and ncols keep no counter of their own; every push, observe, restart
    # and refused push leaves them equal to the QR factors' column count.
    rng = np.random.default_rng(11)
    mem = AccelMemory(4, 3)
    assert_one_column_count(mem, 1)
    dr = rng.standard_normal(4)
    mem.push_pair(rng.standard_normal(4), dr)
    assert_one_column_count(mem, 2)
    with pytest.raises(ColumnRankDeficient):
        mem.push_pair(rng.standard_normal(4), 2.0 * dr)
    assert_one_column_count(mem, 2)
    with pytest.raises(ValueError):  # a wrong dv is refused before the QR commit
        mem.push_pair(rng.standard_normal(3), rng.standard_normal(4))
    assert_one_column_count(mem, 2)
    with pytest.raises(ValueError):  # a wrong dr is refused by the QR update
        mem.push_pair(rng.standard_normal(4), rng.standard_normal(5))
    assert_one_column_count(mem, 2)
    mem.push_pair(rng.standard_normal(4), rng.standard_normal(4))
    mem.push_pair(rng.standard_normal(4), rng.standard_normal(4))
    assert_one_column_count(mem, 4)
    with pytest.raises(ValueError):  # full
        mem.push_pair(rng.standard_normal(4), rng.standard_normal(4))
    assert_one_column_count(mem, 4)
    mem.restart()
    assert_one_column_count(mem, 1)
    expected = [1, 2, 3, 4, 1, 2, 3, 1, 1, 2]  # full at the 5th, epoch change at the 8th
    for i, j in enumerate(expected):
        mem.observe(rng.standard_normal(4), rng.standard_normal(4), 0 if i < 7 else 1)
        assert_one_column_count(mem, j)


def test_memory_rejects_bad_sizes():
    for dim, m_max in ((4, 0), (0, 3)):
        with pytest.raises(ValueError):
            AccelMemory(dim, m_max)


def manual_step(mem, v, r, f, epoch, eta_max):
    """observe, then the j > 2 test, coefficient solve, guard and candidate."""
    mem.observe(v, r, epoch)
    if mem.j <= 2:
        return None
    try:
        eta = mem.compute_eta(r)
    except SingularTriangular:
        return None
    if not eta_guard(eta, eta_max):
        return None
    return mem.candidate(f, eta)


def iterates(seed, n, count):
    """(v, r, f) of a plain iteration of a random affine contraction."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    a *= 0.9 / np.max(np.abs(np.linalg.eigvals(a)))
    op = AffineTestOperator(a, rng.standard_normal(n))
    v, out = rng.standard_normal(n), []
    for _ in range(count):
        f = op.apply(v)
        out.append((v, v - f, f))
        v = f
    return out


def test_propose_needs_two_stored_pairs():
    mem = AccelMemory(6, 5)
    steps = iterates(12, 6, 3)
    assert mem.propose(*steps[0], 0, 1e4) is None and mem.j == 1
    assert mem.propose(*steps[1], 0, 1e4) is None and mem.j == 2
    v_acc = mem.propose(*steps[2], 0, 1e4)
    assert mem.j == 3 and v_acc is not None and v_acc.shape == (6,)


def test_propose_none_on_singular_solve():
    # The second residual difference e1 + 1e-13 e2 passes the append's rank
    # test (1e-14) but leaves a pivot ratio of 1e-13, below the solve's 1e-12.
    e1, e2 = np.eye(3)[0], np.eye(3)[1]
    mem = AccelMemory(3, 4)
    r2 = np.array([2.0, 1e-13, 0.0])
    assert mem.propose(np.zeros(3), np.zeros(3), np.ones(3), 0, 1e4) is None
    assert mem.propose(e1, e1, np.ones(3), 0, 1e4) is None
    assert mem.propose(e2, r2, np.ones(3), 0, 1e4) is None
    assert mem.j == 3  # both pairs were stored; only the solve refused
    with pytest.raises(SingularTriangular):
        mem.compute_eta(r2)


def test_propose_none_when_guard_trips():
    steps = iterates(13, 6, 3)
    probe = AccelMemory(6, 5)
    for v, r, _f in steps:
        probe.observe(v, r, 0)
    eta_norm = float(np.linalg.norm(probe.compute_eta(steps[-1][1])))
    for eta_max, passes in ((eta_norm, True), (np.nextafter(eta_norm, 0.0), False)):
        mem = AccelMemory(6, 5)
        out = [mem.propose(*step, 0, eta_max) for step in steps]
        assert out[:2] == [None, None] and (out[2] is not None) == passes
        assert mem.j == 3


@pytest.mark.parametrize("eta_max", [1e4, 3.0])
def test_propose_equals_the_manual_sequence(eta_max):
    # Full memories (m_max = 3), an epoch change and, at eta_max = 3, guard
    # trips: propose gives the bytes and the state of the step by step call.
    steps = iterates(14, 8, 40)
    got, want = AccelMemory(8, 3), AccelMemory(8, 3)
    proposed = 0
    for i, (v, r, f) in enumerate(steps):
        epoch = int(i >= 17)
        a = got.propose(v, r, f, epoch, eta_max)
        b = manual_step(want, v, r, f, epoch, eta_max)
        assert (a is None) == (b is None) and got.j == want.j and got.epoch == want.epoch
        if a is not None:
            proposed += 1
            assert a.tobytes() == b.tobytes()
        assert got.f_diffs.tobytes() == want.f_diffs.tobytes()
    assert 0 < proposed < len(steps)


def test_variant_argument_is_gone():
    with pytest.raises(TypeError):
        AccelMemory(4, 3, variant="type2")


def test_restart_empties_memory():
    rng = np.random.default_rng(6)
    mem = AccelMemory(4, 3)
    for _ in range(3):
        mem.push_pair(rng.standard_normal(4), rng.standard_normal(4))
    mem.restart(epoch=5)
    assert mem.j == 1 and mem.ncols == 0 and mem.epoch == 5
    mem.restart()
    assert mem.j == 1 and mem.ncols == 0  # idempotent


def assert_pairs(mem, pairs):
    """The memory holds exactly these (dv, dr) pairs: F = V - R and QR = R."""
    V = np.column_stack([dv for dv, _ in pairs])
    R = np.column_stack([dr for _, dr in pairs])
    assert mem.ncols == len(pairs)
    assert np.array_equal(mem.f_diffs, V - R)
    assert_allclose(mem.qr.q @ mem.qr.r, R, atol=1e-14)


def test_observe_anchor_rules():
    rng = np.random.default_rng(9)
    mem = AccelMemory(4, 2, epoch=0)
    vs = [rng.standard_normal(4) for _ in range(10)]
    rs = [rng.standard_normal(4) for _ in range(10)]

    # a fresh memory keeps the first iterate as its anchor, then pushes
    assert mem.observe(vs[0], rs[0], 0).j == 1
    assert mem.observe(vs[1], rs[1], 0).j == 2
    assert mem.observe(vs[2], rs[2], 0).j == 3
    assert_pairs(mem, [(vs[1] - vs[0], rs[1] - rs[0]), (vs[2] - vs[1], rs[2] - rs[1])])

    # full: restart and keep this iterate, so the next push uses it
    assert mem.observe(vs[3], rs[3], 0).j == 1
    assert mem.observe(vs[4], rs[4], 0).j == 2
    assert_pairs(mem, [(vs[4] - vs[3], rs[4] - rs[3])])

    # epoch change: restart without an anchor, so one more observation
    # passes before the next push
    assert mem.observe(vs[5], rs[5], 1).j == 1 and mem.epoch == 1
    assert mem.observe(vs[6], rs[6], 1).j == 1
    assert mem.observe(vs[7], rs[7], 1).j == 2
    assert_pairs(mem, [(vs[7] - vs[6], rs[7] - rs[6])])

    # rank-deficient pair: the pair is dropped along with the anchor
    assert mem.observe(vs[8], rs[7] + 2.0 * (rs[7] - rs[6]), 1).j == 1
    assert mem.observe(vs[9], rs[9], 1).j == 1
    assert mem.observe(vs[0], rs[0], 1).j == 2
    assert_pairs(mem, [(vs[0] - vs[9], rs[0] - rs[9])])

    # an external restart drops the anchor as well
    mem.restart(epoch=2)
    assert mem.observe(vs[1], rs[1], 2).j == 1
    assert mem.observe(vs[2], rs[2], 2).j == 2
    assert_pairs(mem, [(vs[2] - vs[1], rs[2] - rs[1])])


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
