import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from fpaccel import accel, conic
from fpaccel.conic import DrsOperator, solve
from fpaccel.driver import (
    Driver,
    DriverConfig,
    Hooks,
    TraceEntry,
    run,
    run_unsafe,
    run_vanilla,
    safeguard,
)
from fpaccel.linalg import ColumnRankDeficient
from fpaccel.operators import AffineTestOperator, FixedPointOperator
from fpaccel.problems import generate


class QueueOperator(FixedPointOperator):
    """Returns scripted outputs in call order, ignoring the input."""

    def __init__(self, dim, outputs):
        super().__init__(dim)
        self.outputs = [np.asarray(o, dtype=float) for o in outputs]
        self.calls = 0

    def _apply(self, v):
        out = self.outputs[self.calls]
        self.calls += 1
        return out


class BetaOperator(AffineTestOperator):
    """Affine map whose offset scale is a tunable parameter."""

    def __init__(self, a, b, beta=1.0):
        super().__init__(a, b)
        self.beta = beta

    def set_params(self, beta):
        if beta != self.beta:
            self.beta = float(beta)
            self.epoch += 1

    def _apply(self, v):
        return self.a @ v + self.beta * self.b


class EchoOperator(BetaOperator):
    """Beta operator whose evaluation record is a copy of its input."""

    def _apply(self, v):
        self.info = v.copy()
        return super()._apply(v)


def contraction(seed, n, radius=0.9):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    vals = rng.uniform(-1.0, 1.0, n)
    vals = radius * vals / np.abs(vals).max()
    a = q @ np.diag(vals) @ q.T
    return a, rng.standard_normal(n), rng


def residual_hook(tol):
    return Hooks(converged=lambda st, _o: np.linalg.norm(st.r) <= tol)


# -- safeguard predicates ------------------------------------------------------


def test_safeguard_relaxed_values():
    # reference: the previous residual norm, tau up to 2
    assert safeguard(1.0, 0.6, 2.0)  # 1.0 <= 1.2
    assert safeguard(1.2, 0.6, 2.0)  # the bound itself is accepted
    assert not safeguard(1.3, 0.6, 2.0)


def test_safeguard_strict_values():
    # reference: a fresh residual norm at the current point, tau < 1
    assert safeguard(0.4, 0.5, 0.9)
    assert not safeguard(0.5, 0.5, 0.9)
    assert safeguard(0.0, 123.4, 0.3)


def test_config_validation():
    with pytest.raises(ValueError):
        DriverConfig(tau=2.5)
    with pytest.raises(ValueError):
        DriverConfig(tau=1.5, mode="strict")
    with pytest.raises(ValueError):
        DriverConfig(m_max=1)
    with pytest.raises(ValueError):
        DriverConfig(eps=0.0)
    DriverConfig(tau=0.5, mode="strict")
    with pytest.raises(TypeError):  # type-II is the only coefficient solve
        DriverConfig(variant="type2")
    for cap in (0.0, -1.0, math.nan, math.inf, "5", True):
        with pytest.raises(ValueError, match="time_cap"):
            DriverConfig(time_cap=cap)
    assert DriverConfig(time_cap=1e-3).time_cap == 1e-3


@pytest.mark.parametrize("name", ["eps", "eta_max", "tau"])
@pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -1.0, "1e-6", True, None])
def test_config_tolerances_must_be_positive_and_finite(name, value):
    with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
        DriverConfig(**{name: value})


@pytest.mark.parametrize("name", ["m_max", "check_interval", "adapt_interval", "max_iter"])
@pytest.mark.parametrize("value", [2.5, 10.0, math.nan, True, "10"])
def test_config_counts_must_be_integers(name, value):
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        DriverConfig(**{name: value})


def test_config_counts_accept_numpy_integers():
    cfg = DriverConfig(m_max=np.int64(5), max_iter=np.int32(50))
    assert cfg.m_max == 5 and cfg.max_iter == 50


def test_time_cap_is_not_an_argument():
    # The time cap is a DriverConfig field; a fifth positional argument is an error.
    op = AffineTestOperator(np.eye(2), np.zeros(2))
    for entry in (Driver, run, run_vanilla, run_unsafe):
        with pytest.raises(TypeError):
            entry(op, np.ones(2), DriverConfig(), Hooks(), 60.0)


# -- basic runs -----------------------------------------------------------------


def test_wrong_v0_shape_is_refused():
    with pytest.raises(ValueError, match="shape"):
        Driver(AffineTestOperator(np.eye(4), np.zeros(4)), np.zeros(3))


def test_identity_converges_without_iterating():
    rec = run(AffineTestOperator(np.eye(4), np.zeros(4)), np.ones(4), DriverConfig())
    assert rec.status == "converged"
    assert rec.iterations == 0
    assert rec.convergence_checks == 1
    assert rec.operator_evaluations == 0
    assert not any(e.accepted for e in rec.entries)


def test_vanilla_identity_single_check():
    rec = run_vanilla(AffineTestOperator(np.eye(3), np.zeros(3)), np.zeros(3), DriverConfig())
    assert rec.status == "converged" and rec.convergence_checks == 1


@pytest.mark.parametrize("mode", ["vanilla", "unsafe", "safeguarded", "strict"])
def test_non_finite_first_evaluation_is_diverged(mode):
    # The evaluation at v0 runs before the loop; a non-finite value there
    # ends the run as diverged, not in an exception from the constructor.
    op = QueueOperator(2, [[math.nan, 0.0]])
    cfg = DriverConfig(mode=mode, tau=0.5 if mode == "strict" else 2.0)
    rec = run(op, np.zeros(2), cfg)
    assert rec.status == "diverged"
    assert rec.iterations == 0 and rec.operator_evaluations == 0 and rec.entries == []
    assert rec.convergence_checks == 0
    assert np.array_equal(rec.final_state.v, np.zeros(2))
    assert math.isnan(rec.final_state.r_norm)


def test_vanilla_linear_rate_on_trace():
    a, b, rng = contraction(0, 10)
    op = AffineTestOperator(a, b)
    cfg = DriverConfig(eps=1e-9, check_interval=1, max_iter=2000)
    rec = run_vanilla(op, rng.standard_normal(10), cfg, residual_hook(1e-9))
    assert rec.status == "converged"
    norms = [e.r_norm for e in rec.entries]
    # asymptotic slope of the log-residual matches the spectral radius
    tail = norms[len(norms) // 2 : -1]
    rates = [n2 / n1 for n1, n2 in zip(tail, tail[1:])]
    assert abs(np.median(rates) - 0.9) < 0.05


def test_accelerated_beats_picard():
    a, b, rng = contraction(1, 10)
    op = AffineTestOperator(a, b)
    cfg = DriverConfig(eps=1e-12, m_max=12, check_interval=1)
    rec = run(op, rng.standard_normal(10), cfg, residual_hook(1e-12))
    assert rec.status == "converged" and rec.iterations <= 15

    op2 = AffineTestOperator(a, b)
    rec2 = run_vanilla(op2, rng.standard_normal(10), cfg, residual_hook(1e-12))
    assert rec2.iterations > 100


def test_unsafe_not_slower_than_safeguarded_on_linear():
    a, b, rng = contraction(2, 12)
    v0 = rng.standard_normal(12)
    cfg = DriverConfig(eps=1e-10, m_max=14, check_interval=1)
    safe = run(AffineTestOperator(a, b), v0.copy(), cfg, residual_hook(1e-10))
    unsafe = run_unsafe(AffineTestOperator(a, b), v0.copy(), cfg, residual_hook(1e-10))
    assert unsafe.status == safe.status == "converged"
    assert unsafe.iterations <= safe.iterations


def test_max_iter_status():
    a, b, rng = contraction(3, 6, radius=0.999)
    op = AffineTestOperator(a, b)
    cfg = DriverConfig(eps=1e-14, max_iter=5, check_interval=1)
    rec = run_vanilla(op, rng.standard_normal(6), cfg, residual_hook(1e-14))
    assert rec.status == "max_iter" and rec.iterations == 5


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_diverging_unsafe_run_is_legal():
    # expansive map: plain iteration diverges; unsafe acceleration must
    # surface a diverged status instead of crashing
    op = AffineTestOperator(3.0 * np.eye(2), np.ones(2))
    cfg = DriverConfig(eps=1e-8, max_iter=3000, check_interval=1)
    rec = run_vanilla(op, np.ones(2), cfg, residual_hook(1e-8))
    assert rec.status == "diverged"


# -- the first iterations and memory cadence -------------------------------------


def test_first_two_iterations_are_plain():
    a, b, rng = contraction(4, 5)
    op = AffineTestOperator(a, b)
    cfg = DriverConfig(eps=1e-10, check_interval=1)
    rec = run(op, rng.standard_normal(5), cfg, residual_hook(1e-10))
    assert rec.entries[0].j == 1 and not rec.entries[0].accepted
    assert rec.entries[1].j == 2 and not rec.entries[1].accepted
    assert rec.entries[0].cum_evals == 1


def test_no_acceleration_at_short_history_and_memory_cap():
    a, b, rng = contraction(5, 20, radius=0.97)
    op = AffineTestOperator(a, b)
    cfg = DriverConfig(eps=1e-12, m_max=4, check_interval=1, max_iter=400)
    rec = run(op, rng.standard_normal(20), cfg, residual_hook(1e-12))
    entries = rec.entries
    for e in entries:
        assert e.j <= cfg.m_max + 1
        if e.accepted:
            assert e.j > 2
    # j returns to 1 right after exceeding m_max
    for prev, nxt in zip(entries, entries[1:]):
        if prev.j > cfg.m_max:
            assert nxt.j == 1
        if nxt.j == 1:
            assert prev.j > cfg.m_max or prev.j == 1


@pytest.mark.parametrize("mode", ["vanilla", "unsafe", "safeguarded", "strict"])
def test_one_propose_call_per_accelerated_step(monkeypatch, mode):
    # The driver asks the memory once per iteration and records the j the
    # memory holds after that call; vanilla mode keeps no memory.
    real_propose = accel.AccelMemory.propose
    calls = []

    def propose(mem, *args):
        out = real_propose(mem, *args)
        calls.append(mem.j)
        return out

    monkeypatch.setattr(accel.AccelMemory, "propose", propose)
    a, b, rng = contraction(7, 10)
    cfg = DriverConfig(eps=1e-10, tau=0.9, mode=mode, check_interval=1)
    rec = run(AffineTestOperator(a, b), rng.standard_normal(10), cfg, residual_hook(1e-10))
    assert rec.status == "converged"
    if mode == "vanilla":
        assert calls == [] and all(e.j == 1 for e in rec.entries)
    else:
        assert calls == [e.j for e in rec.entries]


def test_guard_trip_is_a_plain_step():
    # With a coefficient bound no eta meets, propose never returns a
    # candidate: every step is plain, nothing is evaluated twice.
    a, b, rng = contraction(8, 10)
    v0 = rng.standard_normal(10)
    cfg = DriverConfig(eps=1e-10, check_interval=1, max_iter=60, eta_max=1e-300)
    guarded = run(AffineTestOperator(a, b), v0, cfg, residual_hook(1e-10))
    plain = run_vanilla(AffineTestOperator(a, b), v0, cfg, residual_hook(1e-10))
    assert guarded.iterations > 10 and not any(e.accepted for e in guarded.entries)
    assert guarded.operator_evaluations == guarded.iterations
    assert guarded.final_state.v.tobytes() == plain.final_state.v.tobytes()


def test_rejected_candidate_costs_two_evaluations():
    # Scripted outputs force the third iteration's candidate to fail the
    # relaxed check; the fallback then costs a second evaluation.
    w0 = np.array([1.0, 0.0, 0.0])
    w1 = np.array([1.0, 1.0, 0.0])
    w2 = np.array([1.0, 1.0, 1.0])
    big = np.full(3, 50.0)
    w4 = np.array([1.0, 1.0, 1.0])
    op = QueueOperator(3, [w0, w1, w2, big, w4, w4, w4, w4])
    cfg = DriverConfig(eps=1e-15, check_interval=1, max_iter=3)
    rec = run(op, np.zeros(3), cfg, Hooks(converged=lambda st, _o: False))
    e3 = rec.entries[2]
    assert e3.j == 3 and not e3.accepted
    assert rec.rejected_candidates == 1
    assert e3.cum_evals - rec.entries[1].cum_evals == 2
    assert rec.operator_evaluations == rec.iterations + rec.rejected_candidates


def test_driver_counts_into_the_record_it_returns():
    # The scripted rejection above, stepped by hand: the record is live
    # before run(), which finishes and returns that same record.
    scripted = [[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [1.0, 1.0, 1.0], np.full(3, 50.0)]
    op = QueueOperator(3, scripted + [np.ones(3)] * 4)
    cfg = DriverConfig(eps=1e-15, check_interval=1, max_iter=3)
    driver = Driver(op, np.zeros(3), cfg, Hooks(converged=lambda st, _o: False))
    stepped = [driver.step() for _ in range(3)]
    rec = driver.record
    assert rec.entries == stepped
    assert rec.rejected_candidates == 1
    assert rec.accel_seconds > 0
    assert rec.accel_seconds == pytest.approx(math.fsum(e.accel_seconds for e in stepped))
    assert driver.run() is rec
    assert (rec.status, rec.iterations, rec.operator_evaluations) == ("max_iter", 3, 4)
    assert rec.entries == stepped and rec.final_state is driver.state


def test_accepted_candidate_reuses_evaluation():
    a, b, rng = contraction(6, 10)
    op = AffineTestOperator(a, b)
    cfg = DriverConfig(eps=1e-11, check_interval=1)
    rec = run(op, rng.standard_normal(10), cfg, residual_hook(1e-11))
    accepted = [e for e in rec.entries if e.accepted]
    assert accepted, "expected at least one accepted candidate"
    for prev, nxt in zip(rec.entries, rec.entries[1:]):
        if nxt.accepted:
            assert nxt.cum_evals - prev.cum_evals == 1
    assert rec.operator_evaluations == rec.iterations + rec.rejected_candidates


def test_accepted_steps_satisfy_relaxed_bound_exactly():
    a, b, rng = contraction(7, 15, radius=0.95)
    op = AffineTestOperator(a, b)
    cfg = DriverConfig(eps=1e-12, check_interval=1, max_iter=500)
    rec = run(op, rng.standard_normal(15), cfg, residual_hook(1e-12))
    norms = {e.k: e.r_norm for e in rec.entries}
    for e in rec.entries:
        if e.accepted:
            assert e.k >= 3
            assert e.r_norm <= cfg.tau * norms[e.k - 2]


def test_strict_mode_spends_one_evaluation_per_candidate():
    # The strict reference is the current residual norm, which the state
    # already holds: checking a candidate costs its own evaluation alone.
    a, b, rng = contraction(8, 10)
    op = AffineTestOperator(a, b)
    cfg = DriverConfig(eps=1e-11, tau=0.99, mode="strict", check_interval=1)
    rec = run(op, rng.standard_normal(10), cfg, residual_hook(1e-11))
    assert rec.status == "converged"
    assert any(e.accepted for e in rec.entries)
    assert rec.strict_checks == 0
    assert rec.operator_evaluations == rec.iterations + rec.rejected_candidates


def test_residual_never_worse_than_safeguard_bound():
    # firmly nonexpansive example: the 1/2-averaged map of a rotation
    theta = 0.3
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    a = 0.5 * (np.eye(2) + rot)
    op = AffineTestOperator(a, np.array([0.3, -0.2]))
    cfg = DriverConfig(eps=1e-11, check_interval=1, max_iter=2000)
    rec = run(op, np.array([5.0, 5.0]), cfg, residual_hook(1e-11))
    assert rec.status == "converged"
    norms = [e.r_norm for e in rec.entries]
    for k in range(2, len(norms)):
        bound = max(norms[k - 1], cfg.tau * norms[k - 2])
        assert norms[k] <= bound + 1e-10


@st.composite
def driver_runs(draw, modes=("unsafe", "safeguarded", "strict")):
    """A run record from generated settings on a small RandomQP or an affine
    contraction, possibly non-normal, whose offset scale a scheduled update
    changes."""
    mode = draw(st.sampled_from(modes))
    tau = draw(st.floats(0.05, 0.99) if mode == "strict" else st.floats(0.05, 2.0))
    settings_ = dict(
        mode=mode,
        tau=tau,
        m_max=draw(st.integers(2, 8)),
        eta_max=draw(st.sampled_from((1e-2, 1.0, 1e2, 1e4, 1e8))),
        adapt_interval=draw(st.integers(1, 60)),
        check_interval=draw(st.integers(1, 25)),
    )
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        problem = generate("RandomQP", n=draw(st.integers(2, 8)), m=draw(st.integers(2, 12)),
                           seed=seed)
        rec = solve(problem, eps=1e-6, max_iter=300, **settings_).record
    else:
        a, b, rng = contraction(seed, draw(st.integers(2, 12)), draw(st.floats(0.5, 0.99)))
        # A similarity keeps the spectrum and makes the map non-normal, so that
        # residuals can grow from one step to the next.
        s = np.eye(len(b)) + draw(st.floats(0.0, 1.0)) * rng.standard_normal(a.shape)
        op = BetaOperator(s @ a @ np.linalg.inv(s), b)
        cfg = DriverConfig(eps=1e-10, max_iter=300, **settings_)
        update = Hooks(
            converged=residual_hook(1e-10).converged,
            operator_update=lambda op_, _st: op_.set_params(op_.beta * 1.01),
        )
        rec = run(op, rng.standard_normal(op.dim), cfg, update)
    return settings_, rec


@settings(derandomize=True, max_examples=80, deadline=None)
@given(driver_runs(modes=("safeguarded", "strict")))
def test_every_accepted_safeguarded_step_meets_the_bound(case):
    # ||r_acc|| <= tau ||r_ref||.  Entry k is the step from iterate k - 1, so
    # the reference is entry k - 2 (the iterate before that one) for the
    # relaxed test and entry k - 1 (the iterate the step left) for strict.
    cfg, rec = case
    lag = 1 if cfg["mode"] == "strict" else 2
    norms = {e.k: e.r_norm for e in rec.entries}
    for e in rec.entries:
        if e.accepted:
            assert e.k >= 3 and e.r_norm <= cfg["tau"] * norms[e.k - lag]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(driver_runs())
def test_evaluations_are_iterations_rejections_and_strict_checks(case):
    # No mode evaluates the operator beyond the candidate, strict included.
    cfg, rec = case
    assert rec.operator_evaluations == rec.iterations + rec.rejected_candidates
    assert rec.strict_checks == 0
    if cfg["mode"] == "unsafe":
        assert rec.rejected_candidates == 0


@st.composite
def rotation_maps(draw):
    """F(v) = A v + b with A = (1 - alpha) I + alpha R for a rotation R
    (Zhang, O'Donoghue & Boyd 2020): an averaged rotation for alpha < 1, a
    nonexpansive map that is not a contraction where R fixes a direction,
    and for alpha = 1 a pure rotation, which vanilla does not solve.
    b = (I - A) w, so a fixed point exists."""
    n, fixed = draw(st.integers(2, 10)), draw(st.integers(0, 2))
    alpha = draw(st.one_of(st.floats(0.05, 1.0), st.just(1.0)))
    min_angle = draw(st.sampled_from((0.3, 1.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    r = np.eye(n)
    for i in range(fixed, n - 1, 2):
        t = rng.choice((-1.0, 1.0)) * rng.uniform(min_angle, math.pi)
        r[i:i + 2, i:i + 2] = [[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]]
    a = (1.0 - alpha) * np.eye(n) + alpha * (q @ r @ q.T)
    w = rng.standard_normal(n)
    return a, w - a @ w, rng.standard_normal(n)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(rotation_maps())
def test_safeguarded_and_strict_converge_wherever_vanilla_does(case):
    a, b, v0 = case
    tol = 1e-6 * np.linalg.norm(a @ v0 + b - v0)
    status = {}
    for mode, tau in (("vanilla", 2.0), ("safeguarded", 2.0), ("strict", 0.9)):
        cfg = DriverConfig(eps=1e-6, mode=mode, tau=tau, max_iter=2000)
        rec = run(AffineTestOperator(a, b), v0.copy(), cfg, residual_hook(tol))
        assert rec.operator_evaluations == rec.iterations + rec.rejected_candidates
        status[mode] = rec.status
    if status["vanilla"] == "converged":
        assert status["safeguarded"] == status["strict"] == "converged"


def plain_steps_from(entries, i):
    """Entries from index i up to the next one that extrapolates with j == 3.

    Each of them must be a plain step (j < 3, nothing accepted).
    """
    count = 0
    for e in entries[i:]:
        if e.j == 3:
            return count
        assert e.j < 3 and not e.accepted
        count += 1
    raise AssertionError("the run ended before j reached 3 again")


def test_full_memory_restart_is_followed_by_two_plain_steps():
    a, b, rng = contraction(5, 20, radius=0.97)
    op = AffineTestOperator(a, b)
    cfg = DriverConfig(eps=1e-12, m_max=4, check_interval=1, max_iter=60)
    rec = run(op, rng.standard_normal(20), cfg, residual_hook(1e-12))
    full = [i for i, e in enumerate(rec.entries[:-3]) if e.j == cfg.m_max + 1]
    assert len(full) >= 5
    for i in full:
        assert plain_steps_from(rec.entries, i + 1) == 2


def test_rank_deficient_push_is_followed_by_three_plain_steps(monkeypatch):
    # The 7th QR append reports its column as collinear; the push that made
    # it is not committed, the memory restarts, and the anchor is dropped.
    real_append = accel.qr_append_column
    appends = []

    def append(state, col, *args, **kwargs):
        appends.append(1)
        if len(appends) == 7:
            raise ColumnRankDeficient("forced")
        return real_append(state, col, *args, **kwargs)

    monkeypatch.setattr(accel, "qr_append_column", append)
    a, b, rng = contraction(5, 20, radius=0.97)
    op = AffineTestOperator(a, b)
    cfg = DriverConfig(eps=1e-14, check_interval=1, max_iter=30)
    rec = run(op, rng.standard_normal(20), cfg, residual_hook(1e-14))
    js = [e.j for e in rec.entries]
    # appends 1..6 fill j = 2..7 on steps 2..7; step 8's push is the 7th
    assert js[:7] == [1, 2, 3, 4, 5, 6, 7] and js[7] == 1
    assert plain_steps_from(rec.entries, 7) == 3


# -- scheduling -------------------------------------------------------------------


def adaptive_setup(adapt_interval=10, check_interval=25, seed=9, n=12, radius=0.97):
    a, b, rng = contraction(seed, n, radius)
    op = BetaOperator(a, b, beta=1.0)
    cfg = DriverConfig(
        eps=1e-12, check_interval=check_interval, adapt_interval=adapt_interval, max_iter=600
    )
    fired = []

    def bump(op_, state):
        # change the operator the first three times, then hold it fixed so
        # the run can still converge
        if len(fired) < 3:
            fired.append(1)
            op_.set_params(op_.beta * 1.01)

    return op, cfg, bump, rng


def test_epoch_change_restarts_memory():
    op, cfg, bump, rng = adaptive_setup()
    hooks = Hooks(
        converged=lambda st, _o: np.linalg.norm(st.r) <= 1e-12,
        operator_update=bump,
    )
    rec = run(op, rng.standard_normal(12), cfg, hooks)
    assert rec.status == "converged"
    entries = rec.entries
    epoch_changes = [
        i for i in range(1, len(entries)) if entries[i].epoch != entries[i - 1].epoch
    ]
    assert epoch_changes, "expected the update rule to fire"
    for i in epoch_changes:
        if i + 1 < len(entries):
            assert entries[i + 1].j == 1
            assert not entries[i].accepted
        if i + 3 < len(entries):
            # the step that changed the operator and the two after it
            assert plain_steps_from(entries, i) == 3


def test_out_of_band_epoch_change_restarts_memory():
    a, b, rng = contraction(10, 8)
    op = BetaOperator(a, b)
    cfg = DriverConfig(eps=1e-12, check_interval=1)
    driver = Driver(op, rng.standard_normal(8), cfg, residual_hook(1e-12))
    for _ in range(4):
        driver.step()
    assert driver.mem.ncols > 0
    op.set_params(1.5)  # outside the scheduled path
    entry = driver.step()
    assert entry.j == 1  # memory was rebuilt before any push
    assert driver.mem.epoch == op.epoch
    entries = [entry] + [driver.step() for _ in range(3)]
    assert plain_steps_from(entries, 0) == 3


@pytest.mark.parametrize("mode", ["unsafe", "safeguarded"])
def test_operator_update_runs_on_its_cadence(mode):
    # The update is due at the start of every step whose k is a positive
    # multiple of adapt_interval, whether that step accelerates or not.
    a, b, rng = contraction(17, 12, radius=0.97)
    seen = []
    cfg = DriverConfig(eps=1e-13, mode=mode, check_interval=1, adapt_interval=4, max_iter=200)
    hooks = residual_hook(1e-13)
    hooks.operator_update = lambda op_, state: seen.append(state.k)
    rec = run(BetaOperator(a, b), rng.standard_normal(12), cfg, hooks)
    assert rec.status == "converged"
    assert seen == list(range(4, rec.iterations, 4))
    # entries[k] is the step taken from iterate k
    assert any(rec.entries[k].accepted for k in seen)


def trace_columns(entries):
    """Every trace column but the two timings."""
    return [
        (e.k, e.r_norm, e.accepted, e.j, e.epoch, e.cum_evals, e.infeas_checked)
        for e in entries
    ]


def test_scheduled_change_equals_the_same_change_made_between_steps():
    a, b, rng = contraction(18, 10, radius=0.97)
    v0 = rng.standard_normal(10)
    cfg = DriverConfig(eps=1e-13, check_interval=1, adapt_interval=10)

    def bump(op_, state):
        if state.k == 10:
            op_.set_params(op_.beta * 1.01)

    hooks = residual_hook(1e-13)
    hooks.operator_update = bump
    scheduled = Driver(BetaOperator(a, b), v0, cfg, hooks)
    by_hand = Driver(BetaOperator(a, b), v0, cfg, residual_hook(1e-13))
    for k in range(40):
        if k == 10:
            by_hand.op.set_params(by_hand.op.beta * 1.01)
        scheduled.step()
        by_hand.step()
    assert scheduled.op.epoch == by_hand.op.epoch == 1
    assert trace_columns(scheduled.record.entries) == trace_columns(by_hand.record.entries)
    assert scheduled.state.v.tobytes() == by_hand.state.v.tobytes()


class LoggingBetaOperator(BetaOperator):
    """Beta operator that keeps a copy of every point it evaluates."""

    def __init__(self, a, b):
        super().__init__(a, b)
        self.points = []

    def _apply(self, v):
        self.points.append(v.copy())
        return super()._apply(v)


@pytest.mark.parametrize("mode, tau", [("vanilla", 2.0), ("unsafe", 2.0),
                                       ("safeguarded", 2.0), ("strict", 0.9)])
def test_an_update_start_is_what_the_next_plain_step_evaluates(mode, tau):
    a, b, rng = contraction(19, 10, radius=0.97)
    op = LoggingBetaOperator(a, b)
    starts = {}

    def update(op_, state):
        if state.k in (10, 30):  # two changes, each handing over a new point
            op_.set_params(op_.beta * 1.5)
            starts[state.k] = state.f + 0.25
            return starts[state.k]
        return None

    cfg = DriverConfig(eps=1e-13, mode=mode, tau=tau, check_interval=2, adapt_interval=10)
    hooks = Hooks(converged=residual_hook(1e-13).converged, operator_update=update,
                  infeasibility=lambda op_, dv: None)
    driver = Driver(op, rng.standard_normal(10), cfg, hooks)
    entries = []
    for _ in range(50):
        evals0 = len(op.points)
        entries.append(driver.step())
        if len(entries) - 1 in starts:  # the step taken from iterate 10 or 30
            assert len(op.points) == evals0 + 1  # the plain step alone
            assert op.points[-1].tobytes() == driver.state.v.tobytes()
            assert driver.state.v.tobytes() == starts[len(entries) - 1].tobytes()
    rec = driver.record
    assert entries[-1].cum_evals == len(entries) + rec.rejected_candidates
    assert op.epoch == 2
    for k in starts:
        # entries[k] took the step from iterate k: the epoch moved there, the
        # memory restarted, and no checkpoint reads its difference
        remapped, after = entries[k], entries[k + 1]
        assert remapped.epoch == entries[k - 1].epoch + 1
        assert remapped.j == after.j == 1 and not remapped.accepted
        assert not remapped.infeas_checked
        assert any(e.infeas_checked for e in entries[k + 1 : k + 10])
    if mode != "vanilla":
        assert any(e.accepted for e in entries)


def test_a_start_without_an_epoch_change_is_refused():
    a, b, rng = contraction(20, 6)
    hooks = residual_hook(1e-12)
    hooks.operator_update = lambda op_, state: state.f.copy()  # no parameter change
    driver = Driver(BetaOperator(a, b), rng.standard_normal(6),
                    DriverConfig(adapt_interval=3), hooks)
    for _ in range(3):
        driver.step()
    with pytest.raises(ValueError, match="without changing the epoch"):
        driver.step()


def test_infeasibility_hook_fires_only_at_j2():
    a, b, rng = contraction(11, 10, radius=0.98)
    op = AffineTestOperator(a, b)
    calls = []

    def infeas(op_, dv):
        calls.append(np.linalg.norm(dv))
        return None

    cfg = DriverConfig(eps=1e-13, check_interval=5, m_max=4, max_iter=300)
    hooks = Hooks(converged=lambda st, _o: np.linalg.norm(st.r) <= 1e-13, infeasibility=infeas)
    rec = run(op, rng.standard_normal(10), cfg, hooks)
    checked = [e for e in rec.entries if e.infeas_checked]
    assert len(checked) == len(calls) and calls
    for e in checked:
        assert e.j == 2
        assert not e.accepted


def test_infeasibility_certificate_stops_run():
    class Cert:
        kind = "primal_infeasible"

    a, b, rng = contraction(12, 6, radius=0.99)
    op = AffineTestOperator(a, b)
    cfg = DriverConfig(eps=1e-14, check_interval=2, m_max=3, max_iter=200)
    hooks = Hooks(
        converged=lambda st, _o: False,
        infeasibility=lambda op_, dv: Cert(),
    )
    rec = run(op, rng.standard_normal(6), cfg, hooks)
    assert rec.status == "primal_infeasible"
    assert rec.certificate is not None


def test_vanilla_runs_infeasibility_when_scheduled():
    a, b, rng = contraction(13, 6)
    op = AffineTestOperator(a, b)
    calls = []
    cfg = DriverConfig(eps=1e-13, check_interval=3, max_iter=50)
    hooks = Hooks(
        converged=lambda st, _o: np.linalg.norm(st.r) <= 1e-13,
        infeasibility=lambda op_, dv: calls.append(1),
    )
    run_vanilla(op, rng.standard_normal(6), cfg, hooks)
    assert calls


def test_time_cap_status():
    a, b, rng = contraction(14, 6, radius=0.9999)
    op = AffineTestOperator(a, b)
    cfg = DriverConfig(eps=1e-16, max_iter=10**6, check_interval=100, time_cap=0.05)
    rec = run_vanilla(op, rng.standard_normal(6), cfg, residual_hook(0.0))
    assert rec.status == "time_limit"


@pytest.mark.parametrize("mode, tau", [("safeguarded", 0.2), ("strict", 0.5)])
def test_hooks_see_the_record_of_the_current_iterate(mode, tau):
    a, b, rng = contraction(16, 12, radius=0.97)
    op = EchoOperator(a, b)
    seen = []

    def record_matches(state):
        seen.append(np.array_equal(state.info, state.v))

    def converged(state, _op):
        record_matches(state)
        return np.linalg.norm(state.r) <= 1e-12

    def operator_update(op_, state):
        record_matches(state)
        if op_.epoch < 3:
            op_.set_params(op_.beta * 1.001)

    def metrics(_op, state):
        record_matches(state)
        return math.nan, math.nan

    cfg = DriverConfig(
        eps=1e-12, tau=tau, mode=mode, check_interval=1, adapt_interval=5, max_iter=300
    )
    hooks = Hooks(converged=converged, operator_update=operator_update, metrics=metrics)
    rec = run(op, rng.standard_normal(12), cfg, hooks)
    assert rec.status == "converged"
    assert rec.rejected_candidates > 0 and op.epoch == 3
    assert len(seen) > rec.iterations and all(seen)
    assert np.array_equal(rec.final_state.info, rec.final_state.v)


def test_trace_entry_bookkeeping():
    a, b, rng = contraction(15, 8)
    op = AffineTestOperator(a, b)
    cfg = DriverConfig(eps=1e-10, check_interval=1)
    rec = run(op, rng.standard_normal(8), cfg, residual_hook(1e-10))
    assert [e.k for e in rec.entries] == list(range(1, rec.iterations + 1))
    assert rec.entries[-1].cum_evals == rec.operator_evaluations
    assert rec.accel_seconds <= rec.total_seconds
    assert rec.final_state.k == rec.iterations


@pytest.mark.parametrize("mode, tau", [("vanilla", 2.0), ("unsafe", 2.0),
                                       ("safeguarded", 2.0), ("strict", 0.9)])
def test_default_stop_test_is_the_residual_norm(mode, tau):
    # Without a converged hook, a run tested after every step stops at the
    # first entry whose residual norm ||v - F(v)|| is within eps.
    a, b, rng = contraction(16, 8, radius=0.99)
    eps = 1e-8
    rec = run(AffineTestOperator(a, b), rng.standard_normal(8),
              DriverConfig(eps=eps, mode=mode, tau=tau, check_interval=1))
    assert rec.status == "converged"
    first = next(e.k for e in rec.entries if e.r_norm <= eps)
    assert rec.iterations == first == rec.convergence_checks - 1
    assert {e.accepted for e in rec.entries} == ({False} if mode == "vanilla" else {False, True})


def conic_driver(prob, cfg):
    """A Driver over the splitting operator, with the hooks ``solve`` plugs in at its
    default ``eps_infeas``."""
    op = DrsOperator(prob)
    return Driver(op, np.zeros(op.dim), cfg, conic._hooks(cfg.eps, 1e-6))


def untimed(entry):
    return replace(entry, elapsed=0.0, accel_seconds=0.0)


@pytest.mark.parametrize("mode, tau", [("vanilla", 2.0), ("unsafe", 2.0),
                                       ("safeguarded", 2.0), ("strict", 0.9)])
@pytest.mark.parametrize("prob", [generate("RandomQP", n=20, m=40, seed=3),
                                  generate("RandomSDP", side=4, seed=2)], ids=["qp", "sdp"])
def test_run_stops_at_the_first_tested_step_that_passes(prob, mode, tau):
    # The exact test runs at every multiple of check_interval and wherever
    # both trace columns are within eps; the run stops at the first of those
    # steps where it passes, never later than the cadence alone would.
    cfg = DriverConfig(mode=mode, tau=tau)
    rec = conic_driver(prob, cfg).run()
    assert rec.status == "converged"
    assert rec.iterations == solve(prob, mode, tau=tau).record.iterations

    hand = conic_driver(prob, cfg)
    exact = hand.hooks.converged
    assert not exact(hand.state, hand.op)
    cadence_stop = None
    while cadence_stop is None:
        entry = hand.step()
        k = entry.k
        passes = exact(hand.state, hand.op)
        if k == rec.iterations:
            assert passes
        near = entry.r_prim <= cfg.eps and entry.r_dual <= cfg.eps
        if k < rec.iterations and (near or k % cfg.check_interval == 0):
            assert not passes, k
        if passes and k % cfg.check_interval == 0:
            cadence_stop = k
    assert rec.iterations <= cadence_stop
    assert [untimed(e) for e in rec.entries] == [
        untimed(e) for e in hand.record.entries[: rec.iterations]
    ]


def test_trace_entry_keeps_its_fields_through_replace():
    # An entry is a plain record: dataclasses.replace copies it with one
    # field changed, and its fields stay assignable.
    fields = dict(k=3, r_norm=0.5, accepted=True, j=2, epoch=1, elapsed=0.1,
                  accel_seconds=0.01, cum_evals=4, r_prim=0.2, r_dual=0.3, infeas_checked=True)
    entry = TraceEntry(**fields)
    moved = replace(entry, r_dual=1.5)
    assert isinstance(moved, TraceEntry) and moved is not entry
    assert moved == TraceEntry(**{**fields, "r_dual": 1.5}) and entry == TraceEntry(**fields)
    entry.elapsed += 1.0
    assert entry.elapsed == 1.1
