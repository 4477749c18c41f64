import copy

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg.blas import dgemv

from fpaccel.accel import PAUSE_DROP, PAUSE_STEPS, AccelMemory, eta_guard
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


def test_memory_leaves_its_inputs_untouched():
    # push_pair forms dv - dr after the append and candidate runs a fused
    # update on f_k; neither may write the caller's arrays or F.
    rng = np.random.default_rng(11)
    mem = AccelMemory(20, 5)
    for _ in range(3):
        dv, dr = rng.standard_normal(20), rng.standard_normal(20)
        saved = dv.tobytes(), dr.tobytes()
        mem.push_pair(dv, dr)
        assert (dv.tobytes(), dr.tobytes()) == saved
    f_k, eta = rng.standard_normal(20), rng.standard_normal(3)
    saved = f_k.tobytes(), eta.tobytes(), mem.f_diffs.tobytes()
    out = mem.candidate(f_k, eta)
    assert (f_k.tobytes(), eta.tobytes(), mem.f_diffs.tobytes()) == saved
    assert not np.shares_memory(out, f_k)


@pytest.mark.parametrize("size", [4, 6])
def test_candidate_rejects_f_of_the_wrong_length(size):
    # BLAS updates a prefix of a longer f_k without complaint, and f2py
    # refuses a shorter one with its own exception type.
    mem = AccelMemory(5, 3)
    mem.push_pair(np.ones(5), np.arange(5.0))
    with pytest.raises(ValueError, match="shape"):
        mem.candidate(np.ones(size), np.ones(1))


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
    # bits of the fused dgemv f - (V - R) eta with V - R formed from
    # separate V and R buffers, for every column count up to a full memory.
    rng = np.random.default_rng(10)
    n, m_max = 150, 15
    mem = AccelMemory(n, m_max)
    v_buf, r_buf = np.zeros((n, m_max), order="F"), np.zeros((n, m_max), order="F")
    for k in range(1, m_max + 1):
        dv, dr = rng.standard_normal(n), rng.standard_normal(n)
        mem.push_pair(dv, dr)
        v_buf[:, k - 1], r_buf[:, k - 1] = dv, dr
        for _ in range(3):
            f_k, eta = rng.standard_normal(n), rng.standard_normal(k)
            want = dgemv(-1.0, v_buf[:, :k] - r_buf[:, :k], eta, 1.0, f_k)
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


def manual_step(mem, v, r, f, epoch, eta_max, r_norm):
    """observe and pause, then the j > 2 test, coefficient solve, guard and
    candidate."""
    mem.observe(v, r, epoch)
    if mem.pause(r_norm) or mem.j <= 2:
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
    assert mem.propose(*steps[0], 0, 1e4, 1.0) is None and mem.j == 1
    assert mem.propose(*steps[1], 0, 1e4, 1.0) is None and mem.j == 2
    v_acc = mem.propose(*steps[2], 0, 1e4, 1.0)
    assert mem.j == 3 and v_acc is not None and v_acc.shape == (6,)


def test_propose_none_on_singular_solve():
    # The second residual difference e1 + 1e-13 e2 passes the append's rank
    # test (1e-14) but leaves a pivot ratio of 1e-13, below the solve's 1e-12.
    e1, e2 = np.eye(3)[0], np.eye(3)[1]
    mem = AccelMemory(3, 4)
    r2 = np.array([2.0, 1e-13, 0.0])
    assert mem.propose(np.zeros(3), np.zeros(3), np.ones(3), 0, 1e4, 1.0) is None
    assert mem.propose(e1, e1, np.ones(3), 0, 1e4, 1.0) is None
    assert mem.propose(e2, r2, np.ones(3), 0, 1e4, 1.0) is None
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
        out = [mem.propose(*step, 0, eta_max, 1.0) for step in steps]
        assert out[:2] == [None, None] and (out[2] is not None) == passes
        assert mem.j == 3


@pytest.mark.parametrize("eta_max", [1e4, 3.0])
def test_propose_equals_the_manual_sequence(eta_max):
    # Full memories (m_max = 3), an epoch change, a pause from step
    # 17 + PAUSE_STEPS on (||r|| is held at 1) and, at eta_max = 3, guard
    # trips: propose gives the bytes and the state of the step by step calls
    # it is composed of, so a second, forked copy of the step cannot drift.
    steps = iterates(14, 8, 17 + PAUSE_STEPS + 10)
    got, want = AccelMemory(8, 3), AccelMemory(8, 3)
    proposed = 0
    for i, (v, r, f) in enumerate(steps):
        epoch = int(i >= 17)
        a = got.propose(v, r, f, epoch, eta_max, 1.0)
        b = manual_step(want, v, r, f, epoch, eta_max, 1.0)
        assert (a is None) == (b is None) and got.j == want.j and got.epoch == want.epoch
        if a is not None:
            proposed += 1
            assert i < 17 + PAUSE_STEPS and a.tobytes() == b.tobytes()
        assert got.f_diffs.tobytes() == want.f_diffs.tobytes()
    assert 0 < proposed < len(steps)


def pause_states(mem, norms, epochs=None, collinear=()):
    """Drive ``mem`` through ``propose`` over random iterates observed at the
    residual norms ``norms``: per step "short" (None at j <= 2), "paused"
    (None at j > 2: the coefficients of random iterates pass a 1e300 guard)
    or "candidate".  ``epochs`` gives each step's operator epoch (0 by
    default).  A step in ``collinear`` whose memory holds a pair and has room
    for another gets a residual difference twice the last one: the pair is
    rank-deficient, the memory restarts, and the step's state is "rank"."""
    rng = np.random.default_rng(len(norms))
    rs, states = [], []
    for i, r_norm in enumerate(norms):
        v, r = rng.standard_normal(mem.dim), rng.standard_normal(mem.dim)
        rank = i in collinear and 0 < mem.ncols < mem.m_max
        if rank:
            r = rs[-1] + 2.0 * (rs[-1] - rs[-2])
        rs.append(r)
        out = mem.propose(v, r, v - r, 0 if epochs is None else epochs[i], 1e300, r_norm)
        if rank:
            assert out is None and mem.j == 1
            states.append("rank")
        else:
            states.append("short" if mem.j <= 2 else "paused" if out is None else "candidate")
    return states


def test_memory_pauses_after_pause_steps_without_a_new_best():
    # At a flat ||r||, the first observation sets the best and the
    # PAUSE_STEPS-th after it pauses the memory: no candidate, while j keeps
    # counting, the pairs are pushed and full memories restart (m_max = 4)
    # exactly as in a memory whose ||r|| keeps falling.
    count = PAUSE_STEPS + 15
    flat, falling = AccelMemory(6, 4), AccelMemory(6, 4)
    flat_states = pause_states(flat, [1.0] * count)
    falling_states = pause_states(falling, [0.5**i for i in range(count)])
    assert "paused" not in falling_states
    assert flat_states[:PAUSE_STEPS] == falling_states[:PAUSE_STEPS]
    assert "candidate" not in flat_states[PAUSE_STEPS:]
    assert {"paused", "short"} == set(flat_states[PAUSE_STEPS:])
    assert flat.j == falling.j and flat.f_diffs.tobytes() == falling.f_diffs.tobytes()


def test_a_new_best_ends_the_pause():
    # Paused at best 1; PAUSE_DROP x 1 itself is no new best, the next float
    # below it is, and proposals resume until PAUSE_STEPS more observations
    # pass without another.
    drop = np.nextafter(PAUSE_DROP, 0.0)
    norms = [1.0] * (PAUSE_STEPS + 5) + [PAUSE_DROP] * 5 + [drop] * (PAUSE_STEPS + 5)
    states = pause_states(AccelMemory(6, 4), norms)
    resume = PAUSE_STEPS + 10
    assert "candidate" not in states[PAUSE_STEPS:resume]
    assert "paused" not in states[resume:resume + PAUSE_STEPS]
    assert "candidate" in states[resume:resume + PAUSE_STEPS]
    assert "candidate" not in states[resume + PAUSE_STEPS:]
    assert "paused" in states[resume + PAUSE_STEPS:]


def test_an_epoch_change_resets_the_best_to_the_new_iterates_norm():
    # Paused at best 1, then a new epoch at ||r|| = 5, which is no new best
    # against 1: the reset makes it the best, so proposals resume after the
    # restart's plain steps and pause again PAUSE_STEPS observations later.
    change = PAUSE_STEPS + 5
    norms = [1.0] * change + [5.0] * (PAUSE_STEPS + 5)
    epochs = [0] * change + [1] * (PAUSE_STEPS + 5)
    states = pause_states(AccelMemory(6, 4), norms, epochs)
    assert "candidate" not in states[PAUSE_STEPS:change]
    assert states[change:change + 3] == ["short"] * 3
    assert "paused" not in states[change:change + PAUSE_STEPS]
    assert "candidate" not in states[change + PAUSE_STEPS:]
    assert "paused" in states[change + PAUSE_STEPS:]


def test_full_and_rank_deficient_restarts_keep_the_pause():
    # Neither restart is an epoch change, so neither resets the best: a
    # paused memory with m_max = 3 goes on restarting on full memories and
    # on rank-deficient pairs, and stays paused.
    count = PAUSE_STEPS + 30
    collinear = range(PAUSE_STEPS + 5, PAUSE_STEPS + 15)
    states = pause_states(AccelMemory(6, 3), [1.0] * count, collinear=collinear)
    assert "candidate" in states[:PAUSE_STEPS]
    assert "candidate" not in states[PAUSE_STEPS:]
    assert states.count("rank") >= 2 and states[PAUSE_STEPS + 15:].count("paused") >= 5


STEP_KINDS = ("fresh", "fresh", "repeat", "scaled", "near_singular", "nan", "inf", "epoch",
              "long_v", "long_r")


@st.composite
def step_sequences(draw):
    """Iterate sequences that reach every branch of the accelerated step.

    Residual differences that repeat or scale the last one (rank-deficient
    pushes), that differ from it by 1e-13 of its norm (near-singular pivots),
    NaN or inf residual entries, an iterate or a residual one entry too long,
    epoch changes, and full memories (m_max of 2 to 5 over up to 24 steps).
    Each step's ``eta_max`` is 1e4, a small value, or the boundary: the
    coefficient norm the step will form, or the next float below it.
    Returns (n, m_max, [(v, r, f, epoch, guard), ...]).
    """
    n = draw(st.integers(2, 6))
    m_max = draw(st.integers(2, 5))
    kinds = draw(st.lists(st.sampled_from(STEP_KINDS), min_size=3, max_size=24))
    guards = draw(st.lists(st.sampled_from(("wide", "tight", "at", "below")),
                           min_size=len(kinds), max_size=len(kinds)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    epoch, prev, dr = 0, None, rng.standard_normal(n)
    steps = []
    with np.errstate(invalid="ignore"):  # inf - inf in a difference
        for kind, guard in zip(kinds, guards):
            v = rng.standard_normal(n)
            r = rng.standard_normal(n)
            if prev is not None and kind in ("repeat", "scaled", "near_singular"):
                step = {"repeat": dr, "scaled": rng.uniform(-3.0, 3.0) * dr}.get(kind)
                if step is None:
                    step = dr + 1e-13 * np.linalg.norm(dr) * rng.standard_normal(n)
                r = prev + step
            elif kind in ("nan", "inf"):
                r[rng.integers(n)] = np.nan if kind == "nan" else rng.choice([np.inf, -np.inf])
            elif kind.startswith("long"):  # refused; the sequence goes on from prev
                bad = rng.standard_normal(n + 1)
                bad_step = (bad, r, r) if kind == "long_v" else (v, bad, v)
                steps.append((*bad_step, epoch, guard))
                continue
            epoch += kind == "epoch"
            if prev is not None:
                dr = r - prev
            prev = r
            steps.append((v, r, v - r, epoch, guard))
    return n, m_max, steps


def eta_max_for(mem, v, r, epoch, guard):
    """eta_max for one step: 1e4, 1e-3, or at or just below the coefficient
    norm the step forms (1.0 when it forms none)."""
    if guard in ("wide", "tight"):
        return 1e4 if guard == "wide" else 1e-3
    probe = copy.deepcopy(mem)
    with np.errstate(invalid="ignore", over="ignore"):
        try:
            probe.observe(v, r, epoch)
            norm = float(np.linalg.norm(probe.compute_eta(r))) if probe.j > 2 else 1.0
        except (SingularTriangular, ValueError):
            norm = 1.0
    if not 0.0 < norm < np.inf:
        return 1.0
    return norm if guard == "at" else np.nextafter(norm, 0.0)


def state_bytes(mem):
    anchor = () if mem._anchor is None else tuple(a.tobytes() for a in mem._anchor)
    pivots = np.array([mem.qr.pivot_min, mem.qr.pivot_max]).tobytes()
    return (mem.ncols, mem.j, mem.epoch, mem.qr.q.tobytes(), mem.qr.r.tobytes(),
            mem.f_diffs.tobytes(), pivots, anchor)


def outcome(step, *args):
    """("value", bytes or None) of one step, or ("raises", exception type)."""
    try:
        with np.errstate(invalid="ignore", over="ignore"):
            out = step(*args)
    except ValueError:
        return "raises", ValueError
    return "value", None if out is None else out.tobytes()


def step_reasons(mem, v, r, f, epoch, eta_max):
    """The step by step sequence, naming its restart and its decision."""
    reasons = set()
    if epoch != mem.epoch:
        reasons.add("epoch")
    elif mem.ncols == mem.m_max:
        reasons.add("full")
    elif mem._anchor is not None:
        reasons.add("push")
    with np.errstate(invalid="ignore", over="ignore"):
        try:
            mem.observe(v, r, epoch)
        except ValueError:
            return reasons | {"shape"}
        if "push" in reasons and mem._anchor is None:
            reasons.add("rank")
        if mem.j <= 2:
            return reasons | {"short"}
        try:
            eta = mem.compute_eta(r)
        except SingularTriangular:
            return reasons | {"singular"}
        except ValueError:
            return reasons | {"non-finite"}
    if not eta_guard(eta, eta_max):
        return reasons | {"guard"}
    return reasons | {"candidate"}


def test_propose_equals_the_manual_sequence_on_generated_steps():
    # propose against the calls it is composed of (observe, pause,
    # compute_eta, eta_guard and candidate), so that a forked copy of the step
    # must match: the same output bytes, the same state after every call, and
    # a non-finite residual or a wrong shape raises ValueError from both at
    # the same call.  A third memory names the branches the sequences reach.
    seen = set()

    # test_propose_none_on_singular_solve's steps: a pivot ratio below the solve's
    e1, e2, ones = np.eye(3)[0], np.eye(3)[1], np.ones(3)
    singular = [(np.zeros(3), np.zeros(3), ones, 0, "wide"), (e1, e1, ones, 0, "wide"),
                (e2, np.array([2.0, 1e-13, 0.0]), ones, 0, "wide")]

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(step_sequences())
    @example((3, 4, singular))
    def check(case):
        n, m_max, steps = case
        got, want, probe = (AccelMemory(n, m_max) for _ in range(3))
        for v, r, f, epoch, guard in steps:
            eta_max = eta_max_for(want, v, r, epoch, guard)
            a = outcome(got.propose, v, r, f, epoch, eta_max, 1.0)
            b = outcome(manual_step, want, v, r, f, epoch, eta_max, 1.0)
            assert a == b
            assert state_bytes(got) == state_bytes(want)
            seen.update(step_reasons(probe, v, r, f, epoch, eta_max))

    check()
    assert seen == {"epoch", "full", "push", "rank", "shape", "short", "singular", "non-finite",
                    "guard", "candidate"}


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
