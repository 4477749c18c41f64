"""Douglas-Rachford splitting operator for conic quadratic programs.

Problems have the form

    minimize    0.5 x' P x + q' x
    subject to  A x + s = b,   s in K,

with P positive semidefinite and K a product of cone blocks.  The iterate
v stacks (x-part, s-part) in R^{n+m}.  One operator application is

    z = prox(v)             -- one KKT solve,
    w = project(2 z - v)    -- identity on the x-part, cone blocks on s,
    v+ = v + (w - z),

a firmly nonexpansive map whose fixed points encode primal-dual optima.
The prox step solves the KKT system

    [[P + (1/gamma) I, A'], [A, -gamma I]] (x, lam) = (r1, r2),
    r1 = (1/gamma) v_x - q,   r2 = b - v_s,

and returns z = (x, v_s - gamma lam).  Eliminating lam = (A x - r2) / gamma
leaves the reduced system

    (P + (I + A'A) / gamma) x = r1 + A' r2 / gamma,

whose matrix is symmetric positive definite (P is PSD and gamma > 0), so
one Cholesky factorization (scipy's ``cho_factor``, run once per gamma)
serves every solve at that gamma.  Each solve calls LAPACK ``dpotrs`` on the
factor directly, as ``cho_solve`` would, without its per-call wrapper.

Each application also reads off the primal-dual point x = z_x, s = w_s,
y = (v_s - z_s) / gamma and keeps it, with its residual norms, as one
immutable ``DrsStep`` record.  The KKT solve already forms A x for lam, so
the primal residual A x + s - b needs no further mat-vec; P x and A'y are
formed once per application and reused when gamma is rebalanced.  The
driver carries the record of the iterate it holds in
``FixedPointState.info``; convergence, trace metrics, step-size adaptation
and the returned solution all read it there, so no operator evaluation
happens outside the counted ones.  The step size gamma is the single
operator parameter; adapting it refactors the reduced matrix and bumps the
operator epoch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor
from scipy.linalg.lapack import dpotrs

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
        n = q.size
        if n < 1:
            raise ValueError("problem needs at least one variable")
        P = np.zeros((n, n)) if P is None else np.asarray(P, dtype=float)
        if P.shape != (n, n):
            raise ValueError("P must be n-by-n")
        if np.abs(P - P.T).max(initial=0.0) > 1e-12 * (1.0 + np.abs(P).max(initial=0.0)):
            raise ValueError("P must be symmetric")
        b = np.asarray(b, dtype=float)
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


@dataclass(frozen=True)
class DrsStep:
    """One operator evaluation read as a primal-dual point.

    x is the prox output, s the projected slack and y the scaled slack
    correction; ax, px and aty are the products A x, P x and A'y behind the
    residual norms, kept for the step-size rebalancing.
    """

    x: np.ndarray
    s: np.ndarray
    y: np.ndarray
    ax: np.ndarray
    px: np.ndarray
    aty: np.ndarray
    r_prim: float
    r_dual: float


class DrsOperator(FixedPointOperator):
    """The parametric Douglas-Rachford operator for one ConicProblem.

    Every application leaves its ``DrsStep`` in ``info``.
    """

    def __init__(self, problem: ConicProblem, gamma: float = 1.0):
        super().__init__(problem.n + problem.m)
        self.problem = problem
        self._slices = problem.cone_slices()
        self.gamma = float(np.clip(gamma, GAMMA_MIN, GAMMA_MAX))
        self._refactor()

    # -- parameter handling --------------------------------------------

    @property
    def params(self) -> np.ndarray:
        return np.array([self.gamma])

    def set_params(self, rho) -> None:
        rho = np.asarray(rho, dtype=float)
        if rho.shape != (1,):
            raise ValueError("expected a single step-size parameter")
        gamma = float(np.clip(rho[0], GAMMA_MIN, GAMMA_MAX))
        if gamma == self.gamma:
            return
        self.gamma = gamma
        self._refactor()
        self.epoch += 1

    def _refactor(self) -> None:
        """Cholesky-factor the reduced matrix P + (I + A'A) / gamma.

        Raises scipy's LinAlgError when it is not positive definite, which
        can happen only when P is not positive semidefinite.  The upper
        factor is kept in the Fortran order cho_factor returns, so dpotrs
        reads it without a copy.
        """
        prob = self.problem
        reduced = prob.P + (np.eye(prob.n) + prob.A.T @ prob.A) / self.gamma
        self._factor = cho_factor(reduced)[0]

    # -- the operator -------------------------------------------------------

    def solve_kkt(self, r1: np.ndarray, r2: np.ndarray):
        """(x, lam, A x) solving the KKT system through the reduced one."""
        prob, gamma = self.problem, self.gamma
        x, info = dpotrs(self._factor, r1 + prob.A.T @ r2 / gamma, overwrite_b=1)
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of LAPACK potrs")
        ax = prob.A @ x
        return x, (ax - r2) / gamma, ax

    def residuals(self, x, s, y, ax) -> DrsStep:
        """The step record of (x, s, y), with its primal and dual residual norms."""
        prob = self.problem
        px, aty = prob.P @ x, prob.A.T @ y
        r_prim = _inf_norm(ax + s - prob.b) if prob.m else 0.0
        r_dual = _inf_norm(px + prob.q + aty)
        return DrsStep(x, s, y, ax, px, aty, r_prim, r_dual)

    def _apply(self, v: np.ndarray) -> np.ndarray:
        prob, gamma, n = self.problem, self.gamma, self.problem.n
        x, lam, ax = self.solve_kkt(v[:n] / gamma - prob.q, prob.b - v[n:])
        # z = prox(v); w = 2 z - v, whose s-part is then projected onto K.
        z = np.concatenate([x, v[n:] - gamma * lam])
        w = 2.0 * z - v
        s = w[n:]
        for block, sl in zip(prob.cones, self._slices):
            s[sl] = project_cone(block, s[sl])
        self.info = self.residuals(x, s, (v[n:] - z[n:]) / gamma, ax)
        return v + (w - z)

    # -- parameter adaptation -------------------------------------------------

    def adapt_gamma(self, step: DrsStep, tol: float = 1e-6) -> bool:
        """Rebalance gamma from the scaled primal/dual residual ratio of a step.

        The proposed factor sqrt(r_prim_scaled / r_dual_scaled) is clipped
        to [0.1, 10] and only applied when it leaves the deadband [0.2, 5];
        an already-converged step (both residuals <= tol) is left alone.
        Returns True when gamma changed (epoch bumped, KKT refactored).
        """
        r_prim, r_dual = step.r_prim, step.r_dual
        if not (np.isfinite(r_prim) and np.isfinite(r_dual)):
            return False
        if r_prim <= tol and r_dual <= tol:
            return False
        prob = self.problem
        if prob.m == 0:
            return False
        prim_scale = max(_inf_norm(step.ax), _inf_norm(step.s), _inf_norm(prob.b), 1.0)
        dual_scale = max(_inf_norm(step.px), _inf_norm(prob.q), _inf_norm(step.aty), 1.0)
        ratio = (r_prim / prim_scale) / max(r_dual / dual_scale, 1e-300)
        factor = float(np.clip(math.sqrt(ratio), 0.1, 10.0))
        if 0.2 <= factor <= 5.0:
            return False
        old_epoch = self.epoch
        self.set_params([self.gamma / factor])
        return self.epoch != old_epoch

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
            if (
                _inf_norm(prob.P @ d) <= eps_inf
                and prob.q @ d < -eps_inf
                and self._direction_in_neg_recession(prob.A @ d, eps_inf)
            ):
                return Certificate(DUAL_INFEASIBLE, d)

        if prob.m > 0:
            dy = dv[n:] / gamma
            dy_norm = _inf_norm(dy)
            if dy_norm > 1e-10:
                w = dy / dy_norm
                if _inf_norm(prob.A.T @ w) <= eps_inf:
                    support = 0.0
                    for block, sl in zip(prob.cones, self._slices):
                        support += cone_support(block, -w[sl], eps_inf)
                        if not np.isfinite(support):
                            break
                    if np.isfinite(support) and prob.b @ w + support < -eps_inf:
                        return Certificate(PRIMAL_INFEASIBLE, w)
        return None

    def _direction_in_neg_recession(self, d: np.ndarray, tol: float) -> bool:
        return all(
            in_recession_of_negation(block, d[sl], tol)
            for block, sl in zip(self.problem.cones, self._slices)
        )


def _inf_norm(arr: np.ndarray) -> float:
    return float(np.abs(arr).max(initial=0.0))


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


MODES = (_driver.VANILLA, _driver.UNSAFE, _driver.SAFEGUARDED)


def solve(
    problem: ConicProblem,
    mode: str = _driver.SAFEGUARDED,
    *,
    gamma: float = 1.0,
    eps_infeas: float = 1e-6,
    time_cap: float | None = None,
    v0: np.ndarray | None = None,
    **settings,
) -> ConicSolution:
    """Solve a conic QP with one of the three driver configurations.

    ``mode`` selects vanilla (plain splitting iterations), unsafe
    (acceleration without the residual safeguard), or safeguarded
    acceleration; ``settings`` are ``DriverConfig`` fields by name.
    Termination tests the absolute infinity-norm primal and dual residuals
    against ``eps`` every ``check_interval`` iterations.  An
    ``adapt_interval`` beyond ``max_iter`` freezes the step size ``gamma``.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    cfg = _driver.DriverConfig(mode=mode, **settings)
    eps = cfg.eps
    op = DrsOperator(problem, gamma=gamma)
    hooks = _driver.Hooks(
        converged=lambda state, _op: state.info.r_prim <= eps and state.info.r_dual <= eps,
        operator_update=lambda operator, state: operator.adapt_gamma(state.info, tol=eps),
        infeasibility=lambda operator, dv: operator.infeasibility_check(dv, eps_infeas),
        metrics=lambda _op, state: (state.info.r_prim, state.info.r_dual),
    )

    if v0 is None:
        v0 = np.zeros(op.dim)
    record = _driver.run(op, v0, cfg, hooks, time_cap)
    step = record.final_state.info
    return ConicSolution(
        status=record.status,
        x=step.x,
        s=step.s,
        y=step.y,
        objective=problem.objective(step.x),
        r_prim=step.r_prim,
        r_dual=step.r_dual,
        record=record,
        certificate=record.certificate,
    )
