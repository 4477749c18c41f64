"""The benchmark's workloads: which problems each one solves, and how.

Every workload is a fixed list of instances from ``fpaccel.problems.generate``
(the instance seeds below), each solved in all three configurations.  The
benchmark seed does not select other instances.  It reformulates each
instance with a seeded signed permutation of the variables and a
permutation of the constraint rows inside every cone block (for a PSD block,
a congruence by a signed permutation matrix).  Every input array changes,
while the problem and its difficulty stay those of the listed instance, so
end-to-end figures from different seeds stay comparable.  Iteration counts
change only where rounding flips a step-size or safeguard decision.  Seed 0
applies the identity and gives the listed instances bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fpaccel.cones import NONNEG, PSD_TRIANGLE, ZERO, ConeBlock
from fpaccel.conic import ConicProblem
from fpaccel.problems import generate

MODES = ("vanilla", "unsafe", "safeguarded")

CONVERGED = "converged"
PRIMAL_INFEASIBLE = "primal_infeasible"
DUAL_INFEASIBLE = "dual_infeasible"

DEFAULT_SEED = 0


@dataclass
class Case:
    """One problem instance with the solve settings and expected status."""

    name: str
    problem: ConicProblem
    expected: str
    eps: float
    gamma: float = 1.0


def _adapt_infeas():
    specs = [
        ("RandomQP", dict(n=30, m=60), s, gamma, 1e-6, CONVERGED)
        for s in (*range(1, 7), 17)
        for gamma in (1e2, 1e-3)
    ]
    for s in range(1, 4):
        specs.append(("InfeasibleLP", {}, s, 1.0, 1e-6, PRIMAL_INFEASIBLE))
        specs.append(("UnboundedLP", {}, s, 1.0, 1e-6, DUAL_INFEASIBLE))
    return specs


# name -> (why the workload exists, instance specs
#          (kind, generator params, instance seed, start gamma, eps, expected status))
WORKLOADS = {
    "qp_small": (
        "20 RandomQP n=50 m=100 (the acceptance suite): many cheap iterations, so "
        "acceleration, residual hooks and the driver loop carry visible shares",
        [("RandomQP", dict(n=50, m=100), s, 1.0, 1e-6, CONVERGED) for s in range(1, 21)],
    ),
    "qp_large": (
        "RandomQP n=420 m=620 (criterion 9): the dense 1040x1040 KKT factor and solves "
        "dominate and acceleration is ~1%; KKT changes show here, acceleration-only ones should not",
        [("RandomQP", dict(n=420, m=620), 11, 1.0, 1e-6, CONVERGED)],
    ),
    "sdp": (
        "4 RandomSDP side=10: the only PSD cone block, where the PSD projection's "
        "eigensolver takes ~90% of the time and which the other workloads bypass",
        [("RandomSDP", dict(side=10), s, 1.0, 1e-5, CONVERGED) for s in range(4, 8)],
    ),
    "adapt_infeas": (
        "RandomQP n=30 m=60 from gamma 1e2 and 1e-3 plus infeasible and unbounded LPs: "
        "in-loop refactors, epoch restarts, safeguard rejections and certificates",
        _adapt_infeas(),
    ),
}

# The hostspeed kernel each workload's timings are scaled by: small steps take
# most of the time of three workloads; qp_large splits its time between the dense
# 1040x1040 KKT factor and iterations.
HOST_KERNEL = {"qp_small": "small", "qp_large": "mixed", "sdp": "small", "adapt_infeas": "small"}


def build(workload: str, seed: int = DEFAULT_SEED) -> list[Case]:
    """The workload's cases, reformulated by ``seed``."""
    _why, specs = WORKLOADS[workload]
    rng = np.random.default_rng(seed)
    cases = []
    for kind, params, inst, gamma, eps, expected in specs:
        problem = generate(kind, seed=inst, **params)
        if seed != DEFAULT_SEED:
            problem = reformulate(problem, rng)
        tag = ",".join(f"{k}={v}" for k, v in params.items())
        name = f"{kind}[{tag}]#{inst}@gamma={gamma:g}"
        cases.append(Case(name, problem, expected, eps, gamma))
    return cases


def _svec_index(side: int) -> np.ndarray:
    """idx[i, j] = position of entry (i, j) in the scaled lower-triangle vector."""
    idx = np.empty((side, side), dtype=int)
    k = 0
    for j in range(side):
        for i in range(j, side):
            idx[i, j] = idx[j, i] = k
            k += 1
    return idx


def _psd_congruence(side: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Row map and signs of svec(S) -> svec(V S V') for a signed permutation V.

    With V[i, pi[i]] = sigma[i], (V S V')[i, j] = sigma[i] sigma[j] S[pi[i], pi[j]];
    off-diagonal entries keep their sqrt(2) scaling, so the map is an exact
    signed permutation of the vector.
    """
    pi = rng.permutation(side)
    sigma = rng.choice([-1.0, 1.0], size=side)
    idx = _svec_index(side)
    src = np.empty(side * (side + 1) // 2, dtype=int)
    sign = np.empty(src.size)
    for j in range(side):
        for i in range(j, side):
            src[idx[i, j]] = idx[pi[i], pi[j]]
            sign[idx[i, j]] = sigma[i] * sigma[j]
    return src, sign


def reformulate(problem: ConicProblem, rng) -> ConicProblem:
    """An equivalent problem in permuted and sign-flipped coordinates.

    x = U x' with U a signed permutation, so P' = U'PU, q' = U'q and
    A' = AU.  Rows are permuted inside zero and nonnegative blocks and
    transformed by a signed-permutation congruence inside PSD blocks.  All
    maps only move and negate entries, so the new data are exact.
    """
    n = problem.n
    perm = rng.permutation(n)
    sign = rng.choice([-1.0, 1.0], size=n)
    P = problem.P[np.ix_(perm, perm)] * np.outer(sign, sign)
    q = problem.q[perm] * sign
    A = problem.A[:, perm] * sign
    b = problem.b.copy()
    for block, sl in zip(problem.cones, problem.cone_slices()):
        if block.kind in (ZERO, NONNEG):
            rows = sl.start + rng.permutation(block.dim)
            A[sl], b[sl] = A[rows], b[rows]
        elif block.kind == PSD_TRIANGLE:
            src, flip = _psd_congruence(block.side, rng)
            A[sl] = A[sl][src] * flip[:, None]
            b[sl] = b[sl][src] * flip
        else:
            raise ValueError(f"no reformulation for {block.kind!r} blocks")
    cones = [ConeBlock(block.kind, block.dim) for block in problem.cones]
    return ConicProblem(P, q, A, b, cones)


def warmup_cases() -> list[Case]:
    """Tiny problems touching every code path the workloads use."""
    return [
        Case("warm-qp", generate("RandomQP", seed=0, n=5, m=10), CONVERGED, 1e-6),
        Case("warm-adapt", generate("RandomQP", seed=0, n=5, m=10), CONVERGED, 1e-6, 1e2),
        Case("warm-sdp", generate("RandomSDP", seed=0, side=3), CONVERGED, 1e-5),
        Case("warm-inf", generate("InfeasibleLP", seed=0), PRIMAL_INFEASIBLE, 1e-6),
        Case("warm-unb", generate("UnboundedLP", seed=0), DUAL_INFEASIBLE, 1e-6),
    ]
