"""Seeded problem generators and the JSON problem-file format.

Files hold one problem as a single JSON document: dimensions, P as
upper-triangle triplets, A as triplets, dense q and b, and the cone list.
Duplicate triplets are summed on load.  Box bounds use ``null`` for an
absent (infinite) bound.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.linalg.lapack import dpotrf

from .cones import BOX, KINDS, NONNEG, PSD_TRIANGLE, ZERO, ConeBlock, svec
from .conic import GAMMA_MAX, ConicProblem


class InvalidParams(Exception):
    """Generator received an unknown kind or bad size parameters."""


class ParseError(Exception):
    """Problem file is not valid JSON."""


class SchemaError(Exception):
    """Problem file parses but violates the schema."""


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def generate_random_qp(n: int = 50, m: int = 100, seed: int = 0) -> ConicProblem:
    """Feasible inequality-constrained QP: b = A x0 + s0 with s0 >= 0."""
    if n < 1 or m < 1:
        raise InvalidParams("RandomQP needs n >= 1 and m >= 1")
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n)) / math.sqrt(n)
    P = M.T @ M + 1e-2 * np.eye(n)
    q = rng.standard_normal(n)
    A = rng.standard_normal((m, n)) / math.sqrt(n)
    x0 = rng.standard_normal(n)
    s0 = np.abs(rng.standard_normal(m))
    b = A @ x0 + s0
    return ConicProblem(P, q, A, b, [ConeBlock(NONNEG, m)])


def generate_portfolio(assets: int = 100, factors: int = 10, seed: int = 0) -> ConicProblem:
    """Long-only portfolio selection with a factor risk model.

    P = F'F + diag(d) is positive definite by construction; the budget
    constraint is a zero cone row and the long-only bounds use nonnegative
    slacks.
    """
    if assets < 2 or factors < 1:
        raise InvalidParams("Portfolio needs assets >= 2 and factors >= 1")
    rng = np.random.default_rng(seed)
    F = rng.standard_normal((factors, assets)) / math.sqrt(factors)
    d = rng.uniform(0.05, 0.3, assets)
    P = F.T @ F + np.diag(d)
    q = -rng.uniform(0.0, 0.05, assets)
    A = np.vstack([np.ones((1, assets)), -np.eye(assets)])
    b = np.concatenate([[1.0], np.zeros(assets)])
    return ConicProblem(P, q, A, b, [ConeBlock(ZERO, 1), ConeBlock(NONNEG, assets)])


def generate_lasso(features: int = 30, samples: int = 60, seed: int = 0) -> ConicProblem:
    """l1-regularized least squares in QP form over (x, fit residual, |x| bound)."""
    if features < 1 or samples < 1:
        raise InvalidParams("Lasso needs features >= 1 and samples >= 1")
    rng = np.random.default_rng(seed)
    p, N = features, samples
    D = rng.standard_normal((N, p)) / math.sqrt(N)
    x_true = np.zeros(p)
    support = rng.choice(p, size=max(1, p // 5), replace=False)
    x_true[support] = rng.standard_normal(support.size)
    d = D @ x_true + 0.05 * rng.standard_normal(N)
    lam = 0.1 * float(np.abs(D.T @ d).max())

    n = p + N + p
    P = np.diag(np.concatenate([np.zeros(p), np.ones(N), np.zeros(p)]))
    q = np.concatenate([np.zeros(p), np.zeros(N), lam * np.ones(p)])
    A = np.zeros((N + 2 * p, n))
    b = np.zeros(N + 2 * p)
    A[:N, :p] = D
    A[:N, p : p + N] = -np.eye(N)
    b[:N] = d
    A[N : N + p, :p] = np.eye(p)
    A[N : N + p, p + N :] = -np.eye(p)
    A[N + p :, :p] = -np.eye(p)
    A[N + p :, p + N :] = -np.eye(p)
    cones = [ConeBlock(ZERO, N), ConeBlock(NONNEG, p), ConeBlock(NONNEG, p)]
    return ConicProblem(P, q, A, b, cones)


def generate_random_sdp(side: int = 10, nvars: int | None = None, seed: int = 0) -> ConicProblem:
    """QP with one PSD block constraint, feasible by construction."""
    if side < 1:
        raise InvalidParams("RandomSDP needs side >= 1")
    if nvars is None:
        nvars = side
    if nvars < 1:
        raise InvalidParams("RandomSDP needs nvars >= 1")
    rng = np.random.default_rng(seed)
    m = side * (side + 1) // 2
    A = np.empty((m, nvars))
    for i in range(nvars):
        G = rng.standard_normal((side, side))
        A[:, i] = svec(0.5 * (G + G.T))
    M = rng.standard_normal((nvars, nvars)) / math.sqrt(nvars)
    P = M.T @ M + 0.1 * np.eye(nvars)
    q = rng.standard_normal(nvars)
    x0 = rng.standard_normal(nvars)
    H = rng.standard_normal((side, side))
    W = H @ H.T / side + 0.1 * np.eye(side)
    b = A @ x0 + svec(W)
    return ConicProblem(P, q, A, b, [ConeBlock(PSD_TRIANGLE, m)])


def generate_infeasible_lp(seed: int = 0) -> ConicProblem:
    """Primal infeasible by construction: x <= c_lo and x >= c_hi with c_lo < c_hi."""
    rng = np.random.default_rng(seed)
    c_lo = -1.0 - rng.uniform(0.0, 1.0)
    c_hi = 1.0 + rng.uniform(0.0, 1.0)
    A = np.array([[1.0], [-1.0]])
    b = np.array([c_lo, -c_hi])
    return ConicProblem(None, np.zeros(1), A, b, [ConeBlock(NONNEG, 2)])


def generate_unbounded_lp(seed: int = 0) -> ConicProblem:
    """Dual infeasible by construction: minimize -c x over x >= 0."""
    rng = np.random.default_rng(seed)
    c = 1.0 + rng.uniform(0.0, 1.0)
    A = np.array([[-1.0]])
    b = np.zeros(1)
    return ConicProblem(None, np.array([-c]), A, b, [ConeBlock(NONNEG, 1)])


def generate_infeasible_qp(n: int = 30, m: int = 40, seed: int = 0) -> ConicProblem:
    """Primal infeasible by construction: a QP whose last two rows ask a'x <= -1 and -a'x <= -1.

    Draws, in order: B (n x n), P = B B' / n, A (m x n), b = N + 2, a (n),
    then q (n); the rows a' and -a' are appended to A and -1, -1 to b.
    """
    if n < 1 or m < 1:
        raise InvalidParams("InfeasibleQP needs n >= 1 and m >= 1")
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n))
    P = B @ B.T / n
    A = rng.standard_normal((m, n))
    b = rng.standard_normal(m) + 2.0
    a = rng.standard_normal(n)
    q = rng.standard_normal(n)
    A = np.vstack([A, a, -a])
    b = np.concatenate([b, [-1.0, -1.0]])
    return ConicProblem(P, q, A, b, [ConeBlock(NONNEG, m + 2)])


def generate_unbounded_qp(n: int = 30, m: int = 40, rank: int = 5, scale: float = 1.0,
                          seed: int = 0) -> ConicProblem:
    """A QP whose cost has a large null space, dual infeasible for most seeds.

    Draws, in order: B (n x rank), P = (scale B) B', A (m x n), b = N + 2
    and q (n).  It is unbounded when some d with B'd = 0 and A d <= 0 has
    q'd < 0; with n - rank well above m / 2 such a d is likely, not certain.
    A large ``scale`` makes the certificate hard to read off the iterates.
    """
    if n < 1 or m < 1 or not 1 <= rank <= n:
        raise InvalidParams("UnboundedQP needs n >= 1, m >= 1 and 1 <= rank <= n")
    if not 0.0 <= scale < math.inf:
        raise InvalidParams("UnboundedQP needs a finite scale >= 0")
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, rank))
    P = scale * B @ B.T
    A = rng.standard_normal((m, n))
    b = rng.standard_normal(m) + 2.0
    q = rng.standard_normal(n)
    return ConicProblem(P, q, A, b, [ConeBlock(NONNEG, m)])


_GENERATORS = {
    "RandomQP": generate_random_qp,
    "Portfolio": generate_portfolio,
    "Lasso": generate_lasso,
    "RandomSDP": generate_random_sdp,
    "InfeasibleLP": generate_infeasible_lp,
    "UnboundedLP": generate_unbounded_lp,
    "InfeasibleQP": generate_infeasible_qp,
    "UnboundedQP": generate_unbounded_qp,
}

GENERATOR_KINDS = tuple(_GENERATORS)


def generate(kind: str, seed: int = 0, **params) -> ConicProblem:
    """Build a seeded problem; identical arguments give bit-identical data
    under a fixed BLAS thread count.

    The dense products that form the data (RandomQP's ``M.T @ M``, for one)
    run on threaded BLAS, which can sum in an order that depends on the
    thread count: ``RandomQP`` with n=420, m=620 gets a different ``P``
    under ``OPENBLAS_NUM_THREADS=1`` and ``=2``.

    ``kind`` is one of ``GENERATOR_KINDS`` in any letter case.
    """
    gen = {k.lower(): g for k, g in _GENERATORS.items()}.get(kind.lower())
    if gen is None:
        raise InvalidParams(f"unknown problem kind {kind!r}; choose from {GENERATOR_KINDS}")
    try:
        return gen(seed=seed, **params)
    except TypeError as exc:
        raise InvalidParams(f"bad parameters for {kind}: {exc}") from exc


# ---------------------------------------------------------------------------
# Problem files
# ---------------------------------------------------------------------------

def _triplets(mat: np.ndarray, upper_only: bool) -> list[dict]:
    rows, cols = np.nonzero(mat)
    out = []
    for i, j in zip(rows.tolist(), cols.tolist()):
        if upper_only and i > j:
            continue
        out.append({"row": i, "col": j, "value": float(mat[i, j])})
    return out


def _bound_list(arr: np.ndarray) -> list:
    return [None if not np.isfinite(x) else float(x) for x in arr]


def save_problem(problem: ConicProblem, path) -> None:
    """Write a problem to a JSON file (exact float round trip)."""
    cones = []
    for block in problem.cones:
        entry = {"kind": block.kind, "dim": block.dim}
        if block.kind == BOX:
            entry["l"] = _bound_list(block.l)
            entry["u"] = _bound_list(block.u)
        cones.append(entry)
    doc = {
        "n": problem.n,
        "m": problem.m,
        "P": _triplets(problem.P, upper_only=True),
        "q": [float(x) for x in problem.q],
        "A": _triplets(problem.A, upper_only=False),
        "b": [float(x) for x in problem.b],
        "cones": cones,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise SchemaError(msg)


def _integer(value, field: str) -> int:
    """A JSON integer; true, 0.7 or 1e400 are rejected rather than truncated."""
    _require(type(value) is int, f"{field} must be an integer")
    return value


def _number(value, field: str, what: str = "a number") -> float:
    """A JSON number; strings such as "1.5" and booleans are rejected, not converted."""
    _require(type(value) in (int, float), f"{field} must be {what}")
    try:
        out = float(value)
    except OverflowError as exc:  # an integer literal beyond the float range
        raise SchemaError(f"{field} is out of range") from exc
    _require(math.isfinite(out), f"{field} is out of range")  # a float literal such as 1e400
    return out


def _dense_from_triplets(entries, rows, cols, field, symmetric) -> np.ndarray:
    mat = np.zeros((rows, cols))
    _require(isinstance(entries, list), f"{field} must be a list of triplets")
    for idx, t in enumerate(entries):
        _require(isinstance(t, dict), f"{field}[{idx}] must be an object")
        val = _number(t.get("value"), f"{field}[{idx}].value")
        i = _integer(t.get("row"), f"{field}[{idx}].row")
        j = _integer(t.get("col"), f"{field}[{idx}].col")
        _require(0 <= i < rows and 0 <= j < cols, f"{field}[{idx}] index ({i},{j}) out of range")
        if symmetric:
            _require(i <= j, f"{field}[{idx}] must lie in the upper triangle")
        mat[i, j] += val
    if symmetric:
        mat = mat + np.triu(mat, 1).T
    return mat


def _vector(entries, size, field) -> np.ndarray:
    _require(isinstance(entries, list) and len(entries) == size, f"{field} must have {size} entries")
    return np.array([_number(x, f"{field}[{i}]") for i, x in enumerate(entries)])


def _bounds(entries, size, field, absent: float) -> np.ndarray | None:
    """A box bound list; ``null`` entries become ``absent`` (-inf or +inf)."""
    if entries is None:
        return None
    _require(isinstance(entries, list) and len(entries) == size, f"{field} must have {size} entries")
    out = np.empty(size)
    for i, x in enumerate(entries):
        if x is None:
            out[i] = absent
        else:
            out[i] = _number(x, f"{field}[{i}]", "a number or null")
    return out


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def load_problem(path) -> ConicProblem:
    """Read a problem from a JSON file, validating the schema."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        # Not UTF-8, nested too deep, an integer literal too long to convert,
        # or NaN/Infinity.
        raise ParseError(f"{path}: {exc}") from exc
    _require(isinstance(doc, dict), "top level must be an object")
    for key in ("n", "m", "P", "q", "A", "b", "cones"):
        _require(key in doc, f"missing field {key!r}")
    n, m = _integer(doc["n"], "n"), _integer(doc["m"], "m")
    _require(n >= 1 and m >= 0, "need n >= 1 and m >= 0")

    # The vectors first: their lengths bound n and m before any n-by-n buffer.
    q = _vector(doc["q"], n, "q")
    b = _vector(doc["b"], m, "b")
    P = _dense_from_triplets(doc["P"], n, n, "P", symmetric=True)
    A = _dense_from_triplets(doc["A"], m, n, "A", symmetric=False)

    cones = []
    total = 0
    _require(isinstance(doc["cones"], list), "cones must be a list")
    for idx, entry in enumerate(doc["cones"]):
        field = f"cones[{idx}]"
        _require(isinstance(entry, dict), f"{field} must be an object")
        kind = entry.get("kind")
        _require(kind in KINDS, f"{field}.kind must be one of {sorted(KINDS)}")
        dim = _integer(entry.get("dim"), f"{field}.dim")
        # Before the block is built: a PSD block lays out its dim entries.
        _require(total + dim <= m, f"cone dims exceed m = {m} at {field}")
        try:
            if kind == BOX:
                block = ConeBlock(
                    kind,
                    dim,
                    l=_bounds(entry.get("l"), dim, f"{field}.l", -np.inf),
                    u=_bounds(entry.get("u"), dim, f"{field}.u", np.inf),
                )
            else:
                block = ConeBlock(kind, dim)
        except ValueError as exc:
            raise SchemaError(f"{field}: {exc}") from exc
        cones.append(block)
        total += dim
    _require(total == m, f"cone dims sum to {total}, expected m = {m}")
    try:
        problem = ConicProblem(P, q, A, b, cones)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    # The solver's rule: every reduced matrix P + (I + A'A)/gamma with gamma
    # <= GAMMA_MAX dominates P + I/GAMMA_MAX, so P is accepted when that factors.
    info = dpotrf(problem.P + np.eye(n) / GAMMA_MAX, lower=0, clean=0)[1]
    _require(
        info == 0,
        f"P must be positive semidefinite (P + I/{GAMMA_MAX:g} does not factor, potrf info {info})",
    )
    return problem
