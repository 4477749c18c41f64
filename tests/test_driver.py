import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fpaccel import accel
from fpaccel.driver import (
    Driver,
    DriverConfig,
    Hooks,
    run,
    run_unsafe,
    run_vanilla,
    safeguard,
)
from fpaccel.linalg import ColumnRankDeficient
from fpaccel.operators import AffineTestOperator, FixedPointOperator


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

    @property
    def params(self):
        return np.array([self.beta])

    def set_params(self, rho):
        rho = np.asarray(rho, dtype=float)
        if rho[0] != self.beta:
            self.beta = float(rho[0])
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


def test_strict_mode_counts_extra_evaluations():
    a, b, rng = contraction(8, 10)
    op = AffineTestOperator(a, b)
    cfg = DriverConfig(eps=1e-11, tau=0.99, mode="strict", check_interval=1)
    rec = run(op, rng.standard_normal(10), cfg, residual_hook(1e-11))
    assert rec.status == "converged"
    assert rec.strict_checks > 0
    assert rec.operator_evaluations == (
        rec.iterations + rec.rejected_candidates + rec.strict_checks
    )


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
            op_.set_params(op_.params * 1.01)

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
    op.set_params(np.array([1.5]))  # outside the scheduled path
    entry = driver.step()
    assert entry.j == 1  # memory was rebuilt before any push
    assert driver.mem.epoch == op.epoch
    entries = [entry] + [driver.step() for _ in range(3)]
    assert plain_steps_from(entries, 0) == 3


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
    cfg = DriverConfig(eps=1e-16, max_iter=10**6, check_interval=100)
    rec = run_vanilla(op, rng.standard_normal(6), cfg, residual_hook(0.0), time_cap=0.05)
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
            op_.set_params(op_.params * 1.001)

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
    if mode == "strict":
        assert rec.strict_checks > 0
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
