"""Douglas-Rachford splitting operator for conic quadratic programs.

Problems have the form

    minimize    0.5 x' P x + q' x
    subject to  A x + s = b,   s in K,

with P positive semidefinite and K a product of cone blocks.  The iterate
v stacks (x-part, s-part) in R^{n+m}.  One operator application is

    (x, lam) = one KKT solve at v,
    v+ = (x, project(v_s - 2 gamma lam) + gamma lam),

the Douglas-Rachford step v + (project(2 z - v) - z) around the prox point
z = (x, v_s - gamma lam), with the x-part and the v_s terms cancelled.  It
is firmly nonexpansive, its fixed points encode primal-dual optima, and the
projection onto K is taken block by block.  The KKT system is

    [[P + (1/gamma) I, A'], [A, -gamma I]] (x, lam) = (r1, r2),
    r1 = (1/gamma) v_x - q,   r2 = b - v_s.

Eliminating lam = (A x - r2) / gamma leaves the reduced system

    (P + (I + A'A) / gamma) x = r1 + A' r2 / gamma,

whose matrix is symmetric positive definite (P is PSD and gamma > 0), so
one Cholesky factorization (LAPACK ``dpotrf``, run once per gamma)
serves every solve at that gamma.  Each solve runs the two triangular solves
U'y = rhs and U x = y on the upper factor U as BLAS-2 ``dtrsv`` calls: LAPACK
``dpotrs`` (what ``cho_solve`` calls) takes the slower BLAS-3 ``dtrsm`` path
even for one right-hand side.

Each application forms the right-hand side, lam and the slack in arrays it
already holds and writes its output once, into one new array.  It also
reads off the primal-dual point x, s = project(v_s - 2 gamma lam), y = lam
and keeps it, with the product A x the KKT solve already formed, as one
immutable ``DrsStep`` NamedTuple; it forms no residual norm.
``DrsOperator.residuals`` is the one place that forms
the primal and dual residual norms of a step from the data, together with
the products P x and A'y it needs for them, and only the decisions that read
them call it: the convergence test, step-size adaptation every
``adapt_interval`` steps and ``solve``'s return.  The convergence test runs
every ``check_interval`` steps and at every step whose trace columns, which
are read off the fixed-point residual at no extra product, are both within
``eps``.
The driver carries the record of the iterate it holds in
``FixedPointState.info``, so no operator evaluation happens outside the
counted ones.  The step size gamma is the single operator parameter;
changing it (``DrsOperator.set_params``) refactors the reduced matrix and
bumps the operator epoch.  Every ``adapt_interval`` steps, ``solve``
rebalances gamma by the square root of the scaled primal/dual residual
ratio when that factor leaves the deadband [0.2, 5], in one jump clipped
only to [GAMMA_MIN, GAMMA_MAX], as OSQP (Stellato et al. 2020) and COSMO
(Garstka, Cannon & Goulart 2021) adapt their penalty.  The fixed point
moves with gamma, v*(gamma) = (x*, s* + gamma y*), so a change from gamma0
to gamma1 carries the primal-dual point across rather than the iterate: the
driver's next plain step starts from the current value f with its s-part
moved by (gamma1 - gamma0) y (``DrsOperator.adapt_gamma``, ``solve``'s
scheduled update).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.blas import dtrsv
from scipy.linalg.lapack import dpotrf

from . import driver as _driver
from .cones import ConeBlock, cone_support, in_recession_of_negation, project_cone
from .operators import FixedPointOperator

PRIMAL_INFEASIBLE = "primal_infeasible"
DUAL_INFEASIBLE = "dual_infeasible"

GAMMA_MIN = 1e-6
GAMMA_MAX = 1e6


class Certificate:
    """Infeasibility witness, normalized to unit infinity-norm."""

    def __init__(self, kind: str, witness: np.ndarray):
        if kind not in (PRIMAL_INFEASIBLE, DUAL_INFEASIBLE):
            raise ValueError(f"unknown certificate kind {kind!r}")
        self.kind = kind
        self.witness = witness

    def __repr__(self) -> str:
        return f"Certificate({self.kind!r})"


class ConicProblem:
    """Dense problem data P, q, A, b plus an ordered list of cone blocks."""

    def __init__(self, P, q, A, b, cones):
        q = np.asarray(q, dtype=float)
        b = np.asarray(b, dtype=float)
        if q.ndim != 1 or b.ndim != 1:
            raise ValueError("q and b must be vectors")
        n = q.size
        if n < 1:
            raise ValueError("problem needs at least one variable")
        P = np.zeros((n, n)) if P is None else np.asarray(P, dtype=float)
        if P.shape != (n, n):
            raise ValueError("P must be n-by-n")
        if np.abs(P - P.T).max(initial=0.0) > 1e-12 * (1.0 + np.abs(P).max(initial=0.0)):
            raise ValueError("P must be symmetric")
        m = b.size
        A = np.zeros((m, n)) if A is None else np.asarray(A, dtype=float)
        if A.shape != (m, n):
            raise ValueError("A must be m-by-n")
        cones = list(cones)
        if sum(block.dim for block in cones) != m:
            raise ValueError("cone dimensions must sum to m")
        for arr in (P, q, A, b):
            if arr.size and not np.all(np.isfinite(arr)):
                raise ValueError("problem data must be finite")
        self.n = n
        self.m = m
        self.P = 0.5 * (P + P.T)
        self.q = q
        self.A = A
        self.b = b
        self.cones = cones

    def cone_slices(self) -> list[slice]:
        out, start = [], 0
        for block in self.cones:
            out.append(slice(start, start + block.dim))
            start += block.dim
        return out

    def objective(self, x: np.ndarray) -> float:
        return float(0.5 * x @ self.P @ x + self.q @ x)


class DrsStep(NamedTuple):
    """One operator evaluation read as a primal-dual point.

    x is the prox output, s the projected slack and y the KKT multiplier
    lam; ax is the product A x that the KKT solve formed.
    """

    x: np.ndarray
    s: np.ndarray
    y: np.ndarray
    ax: np.ndarray


class DrsOperator(FixedPointOperator):
    """The parametric Douglas-Rachford operator for one ConicProblem.

    Every application leaves its ``DrsStep`` in ``info``.
    """

    def __init__(self, problem: ConicProblem, gamma: float = 1.0):
        super().__init__(problem.n + problem.m)
        self.problem = problem
        self._slices = problem.cone_slices()
        self.gamma = _step_size(gamma)
        self._factor = self._cholesky(self.gamma)

    # -- parameter handling --------------------------------------------

    def set_params(self, gamma) -> None:
        """Move the step size to ``gamma``, a scalar checked and clipped as the constructor does."""
        gamma = _step_size(gamma)
        if gamma == self.gamma:
            return
        # Factor first: a failed factorization leaves gamma, the factor and
        # the epoch as they were.
        factor = self._cholesky(gamma)
        self.gamma, self._factor = gamma, factor
        self.epoch += 1

    def _cholesky(self, gamma: float) -> np.ndarray:
        """Cholesky factor of the reduced matrix P + (I + A'A) / gamma.

        Raises scipy's LinAlgError when it is not positive definite, which
        can happen only when P is not positive semidefinite.  LAPACK
        ``dpotrf`` is called as ``cho_factor`` would call it, without its
        finiteness scan (the data are finite and gamma is clipped); the upper
        factor is kept in the Fortran order it returns, so dtrsv reads it
        without a copy; dtrsv reads only the upper triangle, so the lower one
        is left uncleaned.
        """
        prob = self.problem
        reduced = prob.P + (np.eye(prob.n) + prob.A.T @ prob.A) / gamma
        factor, info = dpotrf(reduced, lower=0, clean=0)
        if info != 0:
            raise LinAlgError(f"KKT reduced matrix not positive definite (potrf info {info})")
        return factor

    # -- the operator -------------------------------------------------------

    def solve_kkt(self, r1: np.ndarray, r2: np.ndarray):
        """(x, lam, A x) solving the KKT system through the reduced one."""
        prob, gamma = self.problem, self.gamma
        # rhs = r1 + A'r2 / gamma and lam = (A x - r2) / gamma, formed in place
        # in the same order of operations, so bit for bit the one-line forms.
        rhs = prob.A.T @ r2
        rhs /= gamma
        rhs += r1
        # Positional f2py arguments (incx, offx, lower, trans, diag, overwrite_x):
        # parsing keywords adds about 0.4 us per call, a large share of a small solve.
        y = dtrsv(self._factor, rhs, 1, 0, 0, 1, 0, 1)
        x = dtrsv(self._factor, y, 1, 0, 0, 0, 0, 1)
        ax = prob.A @ x
        lam = ax - r2
        lam /= gamma
        return x, lam, ax

    def residuals(self, step: DrsStep) -> tuple[float, float, np.ndarray, np.ndarray]:
        """(r_prim, r_dual, P x, A'y): the infinity norms of A x + s - b and
        P x + q + A'y at a step's point, formed from the data, with the two
        products they formed."""
        prob = self.problem
        px, aty = prob.P @ step.x, prob.A.T @ step.y
        return _inf_norm(step.ax + step.s - prob.b), _inf_norm(px + prob.q + aty), px, aty

    def _apply(self, v: np.ndarray) -> np.ndarray:
        """The DRS step in reduced form, v+ = (x, project(v_s - 2 gamma lam) + gamma lam)."""
        prob, gamma, n = self.problem, self.gamma, self.problem.n
        # v_x / gamma - q, v_s - 2 gamma lam and s + gamma lam in place, each in
        # its one-line form's order of operations, as solve_kkt does.
        r1 = v[:n] / gamma
        r1 -= prob.q
        x, lam, ax = self.solve_kkt(r1, prob.b - v[n:])
        s = lam * (2.0 * gamma)
        np.subtract(v[n:], s, out=s)
        for block, sl in zip(prob.cones, self._slices):
            s[sl] = project_cone(block, s[sl])
        self.info = DrsStep(x, s, lam, ax)
        out = np.empty(self.dim)
        out[:n] = x
        glam = np.multiply(lam, gamma, out=out[n:])
        glam += s
        return out

    # -- parameter adaptation -------------------------------------------------

    def adapt_gamma(self, step: DrsStep, f: np.ndarray, tol: float = 1e-6) -> np.ndarray | None:
        """Rebalance gamma from the scaled primal/dual residual ratio of a step,
        and return the point to restart from, or None when gamma stays.

        The residual norms and the dual scale's products P x and A'y come
        from one ``residuals`` call, so each product is formed once.

        The factor sqrt(r_prim_scaled / r_dual_scaled) is applied only when
        it leaves the deadband [0.2, 5], and then in one jump: the new gamma
        is gamma0 / factor clipped to [GAMMA_MIN, GAMMA_MAX], with no cap on
        the factor itself, the rule of OSQP (Stellato et al. 2020, sec. 5.2)
        and COSMO (Garstka, Cannon & Goulart 2021).  A ratio of 0 sends gamma
        to GAMMA_MAX and an infinite one to GAMMA_MIN.  An already-converged
        step (both residuals <= tol) is left alone.  When the reduced matrix
        fails to factor at the new gamma, the old gamma stays
        (``set_params`` commits nothing then).

        ``f`` is the value (x, s + gamma0 y) of the evaluation that produced
        ``step``.  When gamma moves from gamma0 to gamma1, the step's
        primal-dual point is carried across: the returned start is f with its
        s-part moved by (gamma1 - gamma0) y, the point (x, s + gamma1 y), at
        no operator evaluation.  A fixed point v*(gamma) = (x*, s* + gamma y*)
        of the old operator goes to the fixed point of the new one, where
        keeping f would scale the dual it encodes by gamma0 / gamma1.
        """
        prob = self.problem
        if prob.m == 0:
            return None
        r_prim, r_dual, px, aty = self.residuals(step)
        if not (np.isfinite(r_prim) and np.isfinite(r_dual)):
            return None
        if r_prim <= tol and r_dual <= tol:
            return None
        prim_scale = max(_inf_norm(step.ax), _inf_norm(step.s), _inf_norm(prob.b), 1.0)
        dual_scale = max(_inf_norm(px), _inf_norm(prob.q), _inf_norm(aty), 1.0)
        ratio = (r_prim / prim_scale) / max(r_dual / dual_scale, 1e-300)
        # Wide enough that gamma0 / factor reaches either end of the step-size
        # range from anywhere in it, and finite and nonzero at a ratio of 0 or inf.
        factor = _clip(math.sqrt(ratio), GAMMA_MIN / GAMMA_MAX, GAMMA_MAX / GAMMA_MIN)
        if 0.2 <= factor <= 5.0:
            return None
        gamma0, epoch0 = self.gamma, self.epoch
        try:
            self.set_params(gamma0 / factor)
        except LinAlgError:
            return None
        if self.epoch == epoch0:
            return None
        return np.concatenate([f[:prob.n], f[prob.n:] + (self.gamma - gamma0) * step.y])

    # -- infeasibility detection ------------------------------------------------

    def infeasibility_check(self, dv: np.ndarray, eps_inf: float = 1e-6) -> Certificate | None:
        """Inspect a pure-step difference dv = v_{k+1} - v_k for certificates.

        The x-part change through the prox map witnesses unboundedness
        (dual infeasibility); the scaled s-part change witnesses primal
        infeasibility.  Witnesses are normalized to unit infinity-norm
        before the separating-hyperplane conditions are tested.
        """
        prob, gamma = self.problem, self.gamma
        n = prob.n
        dv = np.asarray(dv, dtype=float)

        dx = self.solve_kkt(dv[:n] / gamma, -dv[n:])[0]
        dx_norm = _inf_norm(dx)
        if dx_norm > 1e-10:
            d = dx / dx_norm
            if _inf_norm(prob.P @ d) <= eps_inf and prob.q @ d < -eps_inf:
                ad = prob.A @ d
                if all(
                    in_recession_of_negation(block, ad[sl], eps_inf)
                    for block, sl in zip(prob.cones, self._slices)
                ):
                    return Certificate(DUAL_INFEASIBLE, d)

        dy = dv[n:] / gamma
        dy_norm = _inf_norm(dy)
        if dy_norm > 1e-10:
            w = dy / dy_norm
            if _inf_norm(prob.A.T @ w) <= eps_inf:
                support = sum(
                    cone_support(block, -w[sl], eps_inf)
                    for block, sl in zip(prob.cones, self._slices)
                )
                if prob.b @ w + support < -eps_inf:
                    return Certificate(PRIMAL_INFEASIBLE, w)
        return None


def _inf_norm(arr: np.ndarray) -> float:
    return float(np.abs(arr).max(initial=0.0))


def _trace_norms(op: DrsOperator, state) -> tuple[float, float]:
    """The trace columns (||r_s||_inf, ||r_x||_inf / gamma) of the fixed-point
    residual r, from one pass over |r|."""
    n = op.problem.n
    if op.problem.m == 0:
        return 0.0, _inf_norm(state.r) / op.gamma
    r_x, r_s = np.maximum.reduceat(np.abs(state.r), (0, n)).tolist()
    return r_s, r_x / op.gamma


def _clip(x: float, lo: float, hi: float) -> float:
    """A float x clipped to [lo, hi]: ``np.clip`` bit for bit on a non-NaN scalar, at a
    fraction of its per-call cost."""
    return min(max(x, lo), hi)


def _step_size(gamma) -> float:
    """A requested step size, checked positive and finite, clipped to [GAMMA_MIN, GAMMA_MAX]."""
    return _clip(_driver.positive_finite("gamma", gamma), GAMMA_MIN, GAMMA_MAX)


def solve_config(
    mode: str = _driver.SAFEGUARDED, *, gamma: float = 1.0, eps_infeas: float = 1e-6, **settings
) -> _driver.DriverConfig:
    """Check a solve's settings and return its ``DriverConfig``, before any work.

    ``gamma`` and ``eps_infeas`` must be positive and finite; ``DriverConfig``
    checks the mode and the ``settings``, and refuses an unknown name.
    """
    _driver.positive_finite("gamma", gamma)  # the check of _step_size, without its clip
    _driver.positive_finite("eps_infeas", eps_infeas)
    return _driver.DriverConfig(mode=mode, **settings)


def _hooks(eps: float, eps_infeas: float) -> _driver.Hooks:
    """The driver hooks of a solve to tolerances ``eps`` and ``eps_infeas``."""
    return _driver.Hooks(
        converged=lambda state, op: all(r <= eps for r in op.residuals(state.info)[:2]),
        operator_update=lambda op, state: op.adapt_gamma(state.info, state.f, tol=eps),
        infeasibility=lambda op, dv: op.infeasibility_check(dv, eps_infeas),
        metrics=_trace_norms,
    )


class ConicSolution:
    """Solve outcome: status, primal-dual point, and the full run record."""

    def __init__(self, status, x, s, y, objective, r_prim, r_dual, record, certificate):
        self.status = status
        self.x = x
        self.s = s
        self.y = y
        self.objective = objective
        self.r_prim = r_prim
        self.r_dual = r_dual
        self.record = record
        self.certificate = certificate


def solve(
    problem: ConicProblem,
    mode: str = _driver.SAFEGUARDED,
    *,
    gamma: float = 1.0,
    eps_infeas: float = 1e-6,
    v0: np.ndarray | None = None,
    **settings,
) -> ConicSolution:
    """Solve a conic QP in any driver mode.

    ``mode`` selects vanilla (plain splitting iterations), unsafe
    (acceleration without the residual safeguard), safeguarded acceleration
    or strict safeguarding (which needs ``tau < 1``); ``settings`` are
    ``DriverConfig`` fields by name.  ``solve_config`` checks them all.
    Termination tests the absolute infinity-norm primal and dual residuals
    against ``eps`` every ``check_interval`` iterations and at every
    iteration whose trace columns (below) are both within ``eps``, so a
    solve stops at the first tested iteration that passes.  An
    ``adapt_interval`` beyond ``max_iter`` freezes the step size ``gamma``.

    Every decision reads the residuals formed from the data
    (``DrsOperator.residuals``): the convergence test, step-size adaptation
    and the returned ``r_prim`` and ``r_dual``.  The per-iteration trace
    columns are read off the fixed-point residual r = v - F(v) that the
    driver already holds: r_s = -(A x + s - b) up to rounding gives
    ``r_prim = ||r_s||``, and the first KKT row, r_x = gamma (P x + q + A'y)
    up to the KKT solve's residual, gives ``r_dual = ||r_x|| / gamma``.  This
    second formula is kept for cost alone: the data's r_dual would put the
    two mat-vecs P x and A'y back into every iteration.  The columns only
    choose when to test; the data's residuals decide.
    """
    cfg = solve_config(mode, gamma=gamma, eps_infeas=eps_infeas, **settings)
    op = DrsOperator(problem, gamma=gamma)
    if v0 is None:
        v0 = np.zeros(op.dim)
    record = _driver.run(op, v0, cfg, _hooks(cfg.eps, eps_infeas))
    step = record.final_state.info
    r_prim, r_dual = op.residuals(step)[:2]
    return ConicSolution(
        status=record.status,
        x=step.x,
        s=step.s,
        y=step.y,
        objective=problem.objective(step.x),
        r_prim=r_prim,
        r_dual=r_dual,
        record=record,
        certificate=record.certificate,
    )
