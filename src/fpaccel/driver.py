"""Safeguarded acceleration loop.

One ``Driver`` instance runs one solve, in the configuration named by
``DriverConfig.mode``: ``vanilla`` (plain operator iteration, no history),
``unsafe`` (acceleration without the residual safeguard), ``safeguarded``
(the relaxed residual test) or ``strict`` (a contraction test against a
fresh evaluation at the current point).  ``run`` is the single entry point.
Each iteration, in order:

1. ask the memory for a candidate (``AccelMemory.propose``): it takes in
   the current iterate, pushing the (delta v, delta r) pair formed against
   the previous one or restarting, and returns the accelerated point when
   its history, coefficient solve and coefficient-norm guard allow one;
2. evaluate the operator at the candidate and run the configured safeguard;
   on success adopt the candidate together with its already-computed
   operator value;
3. otherwise fall back to a plain operator step -- applying any pending
   operator-parameter update first (which restarts the memory);
4. run the scheduled infeasibility hook when the step was a pure operator
   step in a fresh history (j == 2); vanilla mode keeps no history, so there
   the hook runs on the next step without a parameter update.

Every restart is followed by at least two plain iterations (see
``AccelMemory.observe``), so the infeasibility hook always sees a difference
of consecutive pure operator steps.

Parameter updates and infeasibility checks are latched on fixed iteration
cadences (``adapt_interval`` and ``check_interval``) and consumed at the
next legal point in the loop.

A non-finite operator value ends the run as ``diverged``, the one at ``v0``
included: that run stops before its first iteration.

The state carries, in ``info``, the operator's record of the evaluation
that produced ``f`` from ``v``: it is taken right after the evaluation the
driver adopts, so hooks always read data belonging to ``state.v`` and never
need to evaluate the operator again.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .accel import AccelMemory
from .operators import FixedPointOperator, NonFiniteOutput

CONVERGED = "converged"
MAX_ITER = "max_iter"
DIVERGED = "diverged"
TIME_LIMIT = "time_limit"

VANILLA = "vanilla"
UNSAFE = "unsafe"
SAFEGUARDED = "safeguarded"
STRICT = "strict"
MODES = (VANILLA, UNSAFE, SAFEGUARDED, STRICT)


def safeguard(r_acc_norm: float, r_ref_norm: float, tau: float) -> bool:
    """Accept when the candidate residual is within tau times the reference one.

    The relaxed test's reference is the previous iterate's residual norm; the
    strict test's is a fresh evaluation at the current point, with tau < 1.
    """
    return r_acc_norm <= tau * r_ref_norm


@dataclass
class FixedPointState:
    """Current iterate with its operator value, residual and evaluation record."""

    v: np.ndarray
    f: np.ndarray
    r: np.ndarray
    r_norm: float | None = None  # ||r||, computed from r when not given
    k: int = 0
    r_prev_norm: float = math.inf
    info: object = None

    def __post_init__(self):
        if self.r_norm is None:
            self.r_norm = math.sqrt(self.r @ self.r)


@dataclass
class DriverConfig:
    eps: float = 1e-6
    tau: float = 2.0
    eta_max: float = 1e4
    m_max: int = 15
    mode: str = SAFEGUARDED
    check_interval: int = 25
    max_iter: int = 10000
    adapt_interval: int = 40

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if not 0.0 < self.tau <= 2.0:
            raise ValueError("tau must lie in (0, 2]")
        if self.mode == STRICT and not self.tau < 1.0:
            raise ValueError("strict safeguarding needs tau in (0, 1)")
        if self.eta_max <= 0:
            raise ValueError("eta_max must be positive")
        if self.m_max < 2:
            raise ValueError("m_max must be at least 2")
        if self.check_interval < 1 or self.adapt_interval < 1:
            raise ValueError("intervals must be at least 1")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")


@dataclass
class Hooks:
    """Optional solve-specific behavior plugged into the loop.

    converged(state, op) -> bool replaces the default step-norm test.
    operator_update(op, state) runs the scheduled parameter update.
    infeasibility(op, dv) -> certificate-or-None inspects a pure-step
    difference; a returned object must expose ``kind`` (used as status).
    metrics(op, state) -> (r_prim, r_dual) fills the trace columns.
    """

    converged: object = None
    operator_update: object = None
    infeasibility: object = None
    metrics: object = None


@dataclass
class TraceEntry:
    k: int
    r_norm: float
    accepted: bool
    j: int
    epoch: int
    elapsed: float
    accel_seconds: float
    cum_evals: int
    step_norm: float
    r_prim: float = math.nan
    r_dual: float = math.nan
    infeas_checked: bool = False


@dataclass
class RunRecord:
    """Per-iteration trace plus summary counters for one solve."""

    entries: list = field(default_factory=list)
    iterations: int = 0
    status: str = MAX_ITER
    operator_evaluations: int = 0
    rejected_candidates: int = 0
    strict_checks: int = 0
    convergence_checks: int = 0
    total_seconds: float = 0.0
    accel_seconds: float = 0.0
    certificate: object = None
    final_state: FixedPointState | None = None

    @property
    def accel_fraction(self) -> float:
        return self.accel_seconds / self.total_seconds if self.total_seconds > 0 else 0.0


class Driver:
    """One solve over a fixed-point operator, in the configured mode."""

    def __init__(
        self,
        op: FixedPointOperator,
        v0: np.ndarray,
        cfg: DriverConfig | None = None,
        hooks: Hooks | None = None,
        time_cap: float | None = None,
    ):
        self.op = op
        self.cfg = cfg if cfg is not None else DriverConfig()
        self.hooks = hooks if hooks is not None else Hooks()
        self.accelerate = self.cfg.mode != VANILLA
        self.time_cap = time_cap

        v0 = np.asarray(v0, dtype=float)
        self._start = time.perf_counter()
        self._status = None
        try:
            f0 = op.apply(v0)
        except NonFiniteOutput:
            # run() ends before the first iteration; info keeps the operator's
            # record of the failed evaluation.
            f0 = np.full(op.dim, math.nan)
            self._status = DIVERGED
        self.state = FixedPointState(v=v0.copy(), f=f0, r=v0 - f0, info=op.info)
        self.mem = (
            AccelMemory(op.dim, self.cfg.m_max, epoch=op.epoch)
            if self.accelerate
            else None
        )
        self._pending_update = False
        self._pending_infeas = False
        # Loop evaluations only: the setup evaluation above is excluded so
        # that evaluations == iterations + rejections (+ strict checks).
        self._evals0 = op.eval_count
        self._rejected = 0
        self._strict_checks = 0
        self._checks = 0
        self._accel_seconds = 0.0
        self._last_step_norm = self.state.r_norm
        self.entries: list[TraceEntry] = []
        self.certificate = None

    # -- internals ---------------------------------------------------------

    def _converged(self) -> bool:
        self._checks += 1
        if self.hooks.converged is not None:
            return bool(self.hooks.converged(self.state, self.op))
        return self._last_step_norm <= self.cfg.eps

    # -- one iteration -----------------------------------------------------

    def step(self) -> TraceEntry:
        cfg, op, st = self.cfg, self.op, self.state
        accel_t = 0.0
        accepted = False
        op_changed = False
        new = None

        j_decision = 1
        if self.accelerate:
            t0 = time.perf_counter()
            v_acc = self.mem.propose(st.v, st.r, st.f, op.epoch, cfg.eta_max)
            accel_t = time.perf_counter() - t0
            j_decision = self.mem.j

            if v_acc is not None:
                f_acc = op.apply(v_acc)
                info_acc = op.info  # the strict test below re-evaluates st.v
                r_acc = v_acc - f_acc
                r_acc_norm = math.sqrt(r_acc @ r_acc)
                r_ref_norm = st.r_prev_norm
                if cfg.mode == STRICT:
                    # The strict test prices in a fresh evaluation at the
                    # current point, which is what makes it expensive.
                    f_now = op.apply(st.v)
                    self._strict_checks += 1
                    r_now = st.v - f_now
                    r_ref_norm = math.sqrt(r_now @ r_now)
                if cfg.mode == UNSAFE or safeguard(r_acc_norm, r_ref_norm, cfg.tau):
                    accepted = True
                    new = (v_acc, f_acc, r_acc, r_acc_norm, info_acc)
                else:
                    self._rejected += 1

        if new is None:
            # Fallback branch: either no candidate was accepted or the
            # history is too short.  Scheduled operator changes land here.
            if self._pending_update and self.hooks.operator_update is not None:
                self._pending_update = False
                self.hooks.operator_update(op, st)
                op_changed = True
                if self.accelerate:
                    self.mem.restart(op.epoch)
            v_next = st.f.copy()
            f_next = op.apply(v_next)
            r_next = v_next - f_next
            new = (v_next, f_next, r_next, math.sqrt(r_next @ r_next), op.info)

        old_v = st.v
        st.r_prev_norm = st.r_norm
        st.v, st.f, st.r, st.r_norm, st.info = new
        st.k += 1
        step = st.v - old_v
        self._last_step_norm = math.sqrt(step @ step)

        infeas_checked = False
        if self._pending_infeas and self.hooks.infeasibility is not None:
            at_checkpoint = (self.mem.j == 2) if self.accelerate else not op_changed
            if at_checkpoint:
                self._pending_infeas = False
                infeas_checked = True
                cert = self.hooks.infeasibility(op, step)
                if cert is not None:
                    self.certificate = cert

        # Latch the scheduled work for upcoming iterations.
        if self.hooks.operator_update is not None and st.k % cfg.adapt_interval == 0:
            self._pending_update = True
        if self.hooks.infeasibility is not None and st.k % cfg.check_interval == 0:
            self._pending_infeas = True

        r_prim = r_dual = math.nan
        if self.hooks.metrics is not None:
            r_prim, r_dual = self.hooks.metrics(op, st)
        entry = TraceEntry(
            k=st.k,
            r_norm=st.r_norm,
            accepted=accepted,
            j=j_decision,
            epoch=op.epoch,
            elapsed=time.perf_counter() - self._start,
            accel_seconds=accel_t,
            cum_evals=op.eval_count - self._evals0,
            step_norm=self._last_step_norm,
            r_prim=r_prim,
            r_dual=r_dual,
            infeas_checked=infeas_checked,
        )
        self._accel_seconds += accel_t
        self.entries.append(entry)
        return entry

    # -- full solve --------------------------------------------------------

    def run(self) -> RunRecord:
        cfg = self.cfg
        status = self._status
        if status is None and self._converged():
            status = CONVERGED
        while status is None:
            if self.state.k >= cfg.max_iter:
                status = MAX_ITER
                break
            try:
                self.step()
            except NonFiniteOutput:
                status = DIVERGED
                break
            if self.certificate is not None:
                status = self.certificate.kind
                break
            if self.state.k % cfg.check_interval == 0 and self._converged():
                status = CONVERGED
                break
            if self.time_cap is not None and time.perf_counter() - self._start > self.time_cap:
                status = TIME_LIMIT
                break
        return RunRecord(
            entries=self.entries,
            iterations=self.state.k,
            status=status,
            operator_evaluations=self.op.eval_count - self._evals0,
            rejected_candidates=self._rejected,
            strict_checks=self._strict_checks,
            convergence_checks=self._checks,
            total_seconds=time.perf_counter() - self._start,
            accel_seconds=self._accel_seconds,
            certificate=self.certificate,
            final_state=self.state,
        )


def run(op, v0, cfg=None, hooks=None, time_cap=None) -> RunRecord:
    """Solve in ``cfg.mode`` (the loop described above)."""
    return Driver(op, v0, cfg, hooks, time_cap).run()


def run_vanilla(op, v0, cfg=None, hooks=None, time_cap=None) -> RunRecord:
    """``run`` in vanilla mode."""
    return run(op, v0, replace(cfg or DriverConfig(), mode=VANILLA), hooks, time_cap)


def run_unsafe(op, v0, cfg=None, hooks=None, time_cap=None) -> RunRecord:
    """``run`` in unsafe mode."""
    return run(op, v0, replace(cfg or DriverConfig(), mode=UNSAFE), hooks, time_cap)
