"""Safeguarded acceleration loop.

One ``Driver`` instance runs one solve, in the configuration named by
``DriverConfig.mode``: ``vanilla`` (plain operator iteration, no history),
``unsafe`` (acceleration without the residual safeguard) or ``safeguarded``
(a candidate is accepted when its residual norm is within ``tau`` times the
previous iterate's).  The reference is a norm the state already holds, so a
candidate costs one evaluation.  ``run`` is the single entry point.
Each iteration, in order:

1. run the scheduled operator update (``Hooks.operator_update``) when
   ``k`` is a positive multiple of ``adapt_interval``; an update that
   changes the operator may hand over the point this step's plain step
   starts from, in place of ``f``;
2. ask the memory for a candidate (``AccelMemory.propose``): it takes in
   the current iterate, pushing the (delta v, delta r) pair formed against
   the previous one or restarting, and returns the accelerated point when
   its history, coefficient solve and coefficient-norm guard allow one
   and it does not pause (see ``accel``);
3. evaluate the operator at the candidate and, when safeguarded, test it;
   on success adopt the candidate together with its already-computed
   operator value, otherwise take a plain operator step;
4. run the scheduled infeasibility hook at the first checkpoint: a step in
   which the operator epoch did not move and, with a history, whose memory
   is fresh (j == 2).

A scheduled update is an ordinary epoch change: when it moves the operator
epoch, ``AccelMemory.observe`` restarts the memory, exactly as for a
parameter change made between steps; an update that changes nothing leaves
the history alone.  The driver never restarts the memory itself.  An
operator whose fixed point moves with its parameters returns, from the
update, the current point mapped into the new operator's coordinates; the
driver installs it: the step is a plain one (the memory has just restarted)
and evaluates that start instead of ``f``, at no extra evaluation.  A start
returned without an epoch change is refused with ValueError, since the
memory would keep its history and the start could go unused.  Every
restart is followed by at least two plain iterations (see
``AccelMemory.observe``), so the infeasibility hook always sees a difference
of consecutive pure operator steps; the step that moves to a start changes
the epoch, so it is never a checkpoint.

The convergence test (``Hooks.converged``) runs at the start, after every
step whose ``k`` is a multiple of ``check_interval`` and after every step
whose trace columns ``r_prim`` and ``r_dual`` are both within ``eps``, so
``check_interval`` is the longest gap between tests.  The columns only pick
extra steps to test; the test alone decides, and a run stops at the first
tested step that passes.  Without a metrics hook the columns are NaN and
only the cadence remains.  Without a ``converged`` hook the test is
``state.r_norm <= eps``.

Infeasibility checks are latched on the ``check_interval`` cadence and
consumed at the next checkpoint.

A non-finite operator value ends the run as ``diverged``, the one at ``v0``
included: that run stops before its first iteration.  A run that passes
``DriverConfig.time_cap`` wall seconds ends as ``time_limit``: the cap is
judged against each step's own ``TraceEntry.elapsed``, read at the end of
the step, with no second clock read, so the run ends right after the first
step whose ``elapsed`` exceeds the cap.

The driver counts into the ``RunRecord`` it returns, ``Driver.record``: each
step appends its trace entry and updates the counters in place, so the
record is current between hand-driven ``step`` calls, and ``run`` fills in
the status, iteration and evaluation counts and total time of that same
record.

The state carries, in ``info``, the operator's record of the evaluation
that produced ``f`` from ``v``: it is taken right after the evaluation the
driver adopts, so hooks always read data belonging to ``state.v`` and never
need to evaluate the operator again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np
from scipy.linalg.blas import ddot

from .accel import AccelMemory
from .operators import FixedPointOperator, NonFiniteOutput

CONVERGED = "converged"
MAX_ITER = "max_iter"
DIVERGED = "diverged"
TIME_LIMIT = "time_limit"

VANILLA = "vanilla"
UNSAFE = "unsafe"
SAFEGUARDED = "safeguarded"
MODES = (VANILLA, UNSAFE, SAFEGUARDED)


def positive_finite(name: str, value) -> float:
    """``value`` as a float; ValueError unless it is a positive finite real (not a str or bool)."""
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    if not (real and 0 < value < math.inf):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return float(value)


def is_integer_at_least(value, least: int) -> bool:
    """Whether ``value`` is an integer (a bool is not) of at least ``least``."""
    return not isinstance(value, bool) and isinstance(value, (int, np.integer)) and value >= least


@dataclass
class FixedPointState:
    """Current iterate with its operator value, residual and evaluation record.

    The first five fields are in the order ``Driver._evaluate`` returns them.
    """

    v: np.ndarray
    f: np.ndarray
    r: np.ndarray
    r_norm: float  # ||r||
    info: object = None
    k: int = 0
    r_prev_norm: float = math.inf


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
    time_cap: float | None = None  # wall seconds; None runs uncapped

    def __post_init__(self):
        capped = () if self.time_cap is None else ("time_cap",)
        for name in ("eps", "eta_max", "tau", *capped):
            positive_finite(name, getattr(self, name))
        for name, least in (("m_max", 2), ("check_interval", 1), ("adapt_interval", 1),
                            ("max_iter", 1)):
            value = getattr(self, name)
            if not is_integer_at_least(value, least):
                raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")
        if not self.tau <= 2.0:
            raise ValueError("tau must lie in (0, 2]")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")


@dataclass
class Hooks:
    """Optional solve-specific behavior plugged into the loop.

    converged(state, op) -> bool replaces the default test ``state.r_norm <= eps``.
    operator_update(op, state) -> start-or-None runs the scheduled parameter
    update at the start of every step whose ``state.k`` is a positive
    multiple of ``adapt_interval``, accelerated or not; a change must bump
    ``op.epoch``.  It returns None, or, with a change, the point the step's
    plain step starts from in place of ``state.f``, a new array the driver
    takes over; hooks never write ``state`` themselves.
    infeasibility(op, dv) -> certificate-or-None inspects a pure-step
    difference; a returned object must expose ``kind`` (used as status).
    metrics(op, state) -> (r_prim, r_dual) fills the trace columns; the
    columns estimate what ``converged`` tests, and a step with both within
    ``eps`` is tested for convergence off the ``check_interval`` cadence.
    """

    converged: object = None
    operator_update: object = None
    infeasibility: object = None
    metrics: object = None


@dataclass(slots=True)
class TraceEntry:
    k: int
    r_norm: float
    accepted: bool
    j: int
    epoch: int
    elapsed: float
    accel_seconds: float
    cum_evals: int
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
    strict_checks: int = 0  # always 0; kept because the acceptance tests read it
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
    ):
        self.op = op
        self.cfg = cfg if cfg is not None else DriverConfig()
        self.hooks = hooks if hooks is not None else Hooks()

        v0 = np.asarray(v0, dtype=float)
        self._start = perf_counter()
        self._status = None
        try:
            self.state = FixedPointState(*self._evaluate(v0.copy()))
        except NonFiniteOutput:
            # run() ends before the first iteration; info keeps the operator's
            # record of the failed evaluation.
            f0 = np.full(op.dim, math.nan)
            self.state = FixedPointState(v0.copy(), f0, v0 - f0, math.nan, op.info)
            self._status = DIVERGED
        self.record = RunRecord(final_state=self.state)
        self.mem = (
            AccelMemory(op.dim, self.cfg.m_max, epoch=op.epoch)
            if self.cfg.mode != VANILLA
            else None
        )
        self._pending_infeas = False
        # Loop evaluations only: the setup evaluation above is excluded so
        # that evaluations == iterations + rejections.
        self._evals0 = op.eval_count

    # -- internals ---------------------------------------------------------

    def _converged(self) -> bool:
        self.record.convergence_checks += 1
        if self.hooks.converged is not None:
            return bool(self.hooks.converged(self.state, self.op))
        return self.state.r_norm <= self.cfg.eps

    def _evaluate(self, v: np.ndarray) -> tuple:
        """(v, F(v), v - F(v), its norm, the operator's record of this evaluation)."""
        f = self.op.apply(v)
        r = v - f
        return v, f, r, math.sqrt(ddot(r, r)), self.op.info

    # -- one iteration -----------------------------------------------------

    def step(self) -> TraceEntry:
        cfg, op, st, rec, mem = self.cfg, self.op, self.state, self.record, self.mem
        epoch0 = op.epoch
        start = None  # the point an operator update hands over for this step's plain step
        if self.hooks.operator_update is not None and st.k > 0 and st.k % cfg.adapt_interval == 0:
            start = self.hooks.operator_update(op, st)
            if start is not None:
                if op.epoch == epoch0:
                    # The memory would keep its history and could propose a
                    # candidate, so the start would silently go unused.
                    raise ValueError("an update returned a start without changing the epoch")
                start = np.asarray(start, dtype=float)
        accel_t = 0.0
        accepted = False
        new = None

        j_decision = 1
        if mem is not None:
            t0 = perf_counter()
            v_acc = mem.propose(st.v, st.r, st.f, op.epoch, cfg.eta_max, st.r_norm)
            accel_t = perf_counter() - t0
            j_decision = mem.j

            if v_acc is not None:
                candidate = self._evaluate(v_acc)
                if cfg.mode == UNSAFE or candidate[3] <= cfg.tau * st.r_prev_norm:
                    accepted = True
                    new = candidate
                else:
                    rec.rejected_candidates += 1

        if new is None:  # no candidate, or it was rejected: a plain step
            # st.f needs no copy: nothing writes it, or the v it becomes, in place.
            new = self._evaluate(st.f if start is None else start)

        old_v = st.v
        st.r_prev_norm = st.r_norm
        st.v, st.f, st.r, st.r_norm, st.info = new
        st.k += 1

        infeas_checked = False
        # A checkpoint needs a pure step under one operator: no parameter
        # change in this step and, with a history, a fresh one (j == 2).
        if self._pending_infeas and op.epoch == epoch0 and (mem is None or mem.j == 2):
            self._pending_infeas = False
            infeas_checked = True
            cert = self.hooks.infeasibility(op, st.v - old_v)
            if cert is not None:
                rec.certificate = cert

        if self.hooks.infeasibility is not None and st.k % cfg.check_interval == 0:
            self._pending_infeas = True

        r_prim = r_dual = math.nan
        if self.hooks.metrics is not None:
            r_prim, r_dual = self.hooks.metrics(op, st)
        # Positional, in field order: keyword parsing would add about 0.5 us per step.
        entry = TraceEntry(st.k, st.r_norm, accepted, j_decision, op.epoch,
                           perf_counter() - self._start, accel_t,
                           op.eval_count - self._evals0, r_prim, r_dual, infeas_checked)
        rec.accel_seconds += accel_t
        rec.entries.append(entry)
        return entry

    # -- full solve --------------------------------------------------------

    def run(self) -> RunRecord:
        cfg, rec = self.cfg, self.record
        status = self._status
        if status is None and self._converged():
            status = CONVERGED
        while status is None:
            if self.state.k >= cfg.max_iter:
                status = MAX_ITER
                break
            try:
                entry = self.step()
            except NonFiniteOutput:
                status = DIVERGED
                break
            if rec.certificate is not None:
                status = rec.certificate.kind
                break
            # NaN columns (no metrics hook) compare False, leaving the cadence alone.
            near = entry.r_prim <= cfg.eps and entry.r_dual <= cfg.eps
            if (near or self.state.k % cfg.check_interval == 0) and self._converged():
                status = CONVERGED
                break
            if cfg.time_cap is not None and entry.elapsed > cfg.time_cap:
                status = TIME_LIMIT
                break
        rec.status = status
        rec.iterations = self.state.k
        rec.operator_evaluations = self.op.eval_count - self._evals0
        rec.total_seconds = perf_counter() - self._start
        return rec


def run(op, v0, cfg=None, hooks=None) -> RunRecord:
    """Solve in ``cfg.mode`` (the loop described above)."""
    return Driver(op, v0, cfg, hooks).run()


def run_vanilla(op, v0, cfg=None, hooks=None) -> RunRecord:
    """``run`` in vanilla mode."""
    return run(op, v0, replace(cfg or DriverConfig(), mode=VANILLA), hooks)


def run_unsafe(op, v0, cfg=None, hooks=None) -> RunRecord:
    """``run`` in unsafe mode."""
    return run(op, v0, replace(cfg or DriverConfig(), mode=UNSAFE), hooks)
