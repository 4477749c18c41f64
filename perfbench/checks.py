"""Correctness gate: every solve is checked against the problem data.

The checks recompute everything from (P, q, A, b, K) with this module's own
cone tests; nothing here calls the solver's residual, projection or
certificate code.  Each check returns a failure reason, or None.
"""

from __future__ import annotations

import math

import numpy as np

from workloads import CONVERGED, DUAL_INFEASIBLE, PRIMAL_INFEASIBLE

# s in K and y in K* may miss by CONE_TOL_FACTOR * eps * max(1, ||.||_inf).
CONE_TOL_FACTOR = 10.0
# The three configurations' objectives agree within OBJ_TOL_FACTOR * eps * max(1, |obj|).
OBJ_TOL_FACTOR = 100.0
# Certificate conditions are tested at the solver's default eps_infeas.
CERT_TOL = 1e-6


def _inf(arr) -> float:
    return float(np.abs(arr).max(initial=0.0))


def _smat(vec: np.ndarray) -> np.ndarray:
    """Symmetric matrix of a scaled lower-triangle (column-major) vector."""
    side = (math.isqrt(8 * vec.size + 1) - 1) // 2
    S = np.empty((side, side))
    k = 0
    for j in range(side):
        S[j, j] = vec[k]
        S[j + 1 :, j] = S[j, j + 1 :] = vec[k + 1 : k + side - j] / math.sqrt(2.0)
        k += side - j
    return S


def cone_violation(kind: str, v: np.ndarray, dual: bool = False) -> float:
    """How far v lies outside the cone K (or K* when ``dual``), >= 0."""
    if kind == "zero":
        return 0.0 if dual else _inf(v)
    if kind == "nonneg":
        return max(0.0, -float(v.min()))
    if kind == "psd":
        return max(0.0, -float(np.linalg.eigvalsh(_smat(v)).min()))
    raise ValueError(f"no membership test for {kind!r} blocks")


def _blocks(problem):
    return zip(problem.cones, problem.cone_slices())


def check_solution(case, sol) -> str | None:
    """Status, residuals and cone membership of one solve."""
    if sol.status != case.expected:
        return f"status {sol.status}, expected {case.expected}"
    prob = case.problem
    if case.expected == CONVERGED:
        r_prim = _inf(prob.A @ sol.x + sol.s - prob.b)
        r_dual = _inf(prob.P @ sol.x + prob.q + prob.A.T @ sol.y)
        if not (r_prim <= case.eps and r_dual <= case.eps):
            return f"residuals {r_prim:.3e}, {r_dual:.3e} above eps {case.eps:.0e}"
        for vec, dual in ((sol.s, False), (sol.y, True)):
            tol = CONE_TOL_FACTOR * case.eps * max(1.0, _inf(vec))
            for block, sl in _blocks(prob):
                miss = cone_violation(block.kind, vec[sl], dual)
                if miss > tol:
                    return f"{'y' if dual else 's'} misses its {block.kind} cone by {miss:.3e}"
        return None
    return check_certificate(prob, case.expected, sol.certificate)


def check_certificate(prob, kind: str, cert) -> str | None:
    """Separating-hyperplane conditions of an infeasibility witness."""
    if cert is None or cert.kind != kind:
        return f"no {kind} certificate"
    w = np.asarray(cert.witness, dtype=float)
    if abs(_inf(w) - 1.0) > 1e-12:
        return "witness is not normalized"
    if kind == PRIMAL_INFEASIBLE:
        # A'w = 0, w in K*, b'w < 0: no x, s in K satisfy Ax + s = b.
        if _inf(prob.A.T @ w) > CERT_TOL:
            return "primal certificate: A'w is not zero"
        if float(prob.b @ w) >= -CERT_TOL:
            return "primal certificate: b'w is not negative"
        for block, sl in _blocks(prob):
            if cone_violation(block.kind, w[sl], dual=True) > CERT_TOL:
                return f"primal certificate: w leaves the dual of its {block.kind} cone"
        return None
    if kind == DUAL_INFEASIBLE:
        # Pd = 0, q'd < 0, -Ad in K: the objective falls without bound along d.
        if _inf(prob.P @ w) > CERT_TOL:
            return "dual certificate: Pd is not zero"
        if float(prob.q @ w) >= -CERT_TOL:
            return "dual certificate: q'd is not negative"
        ad = prob.A @ w
        for block, sl in _blocks(prob):
            if cone_violation(block.kind, -ad[sl]) > CERT_TOL:
                return f"dual certificate: -Ad leaves its {block.kind} cone"
        return None
    return f"unknown certificate kind {kind!r}"


def objectives_disagree(case, objectives: list[float]) -> str | None:
    """Objectives of one case's converged solves must agree."""
    if case.expected != CONVERGED or len(objectives) < 2:
        return None
    spread = max(objectives) - min(objectives)
    tol = OBJ_TOL_FACTOR * case.eps * max(1.0, max(abs(o) for o in objectives))
    if spread > tol:
        return f"objectives differ by {spread:.3e} (tolerance {tol:.3e})"
    return None
