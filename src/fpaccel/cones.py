"""Cone blocks: Euclidean projections plus the membership and support
tests used by the infeasibility certificates.

Supported kinds: zero, nonneg, box (interval, not a cone but handled like
one), second-order cone (leading entry is t), and PSD matrices stored as
scaled lower-triangle vectors.  PSD blocks use the convention that
off-diagonal entries are multiplied by sqrt(2), so the vector 2-norm
matches the matrix Frobenius norm.

``project_cone`` is the only code that knows each cone's geometry.  For a
closed convex cone K the certificate tests read membership off it, as the
infinity norm of a vector's offset from its projection: d - P_{-K}(d) =
d + P_K(-d) for -K, and w - P_{K polar}(w) = P_K(w) for the polar cone by
Moreau's decomposition.  A box is the exception, because it is not a cone:
its recession cone and its support function depend on which bounds are
finite, not on the projection at one point.

A PSD block is projected by clamping the negative eigenvalues of its matrix.
The block holds its svec layout, computed once when it is built: each
entry's scale and its flat offsets in a side-by-side buffer.  The
eigendecomposition is one direct LAPACK ``dsyevd`` call on a column-major
buffer in which only the lower triangle is filled, which skips the per-call
wrapping of ``np.linalg.eigh``.  That function calls the same routine on the
same triangle (``UPLO='L'``).  The reconstruction runs on a row-major copy of
the eigenvectors, the layout ``eigh`` returns, because OpenBLAS's
small-matrix products can sum in a layout-dependent order.  So the
projection is bit for bit the one ``eigh`` gives.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.lapack import dsyevd

from .driver import is_integer_at_least

ZERO = "zero"
NONNEG = "nonneg"
BOX = "box"
SECOND_ORDER = "soc"
PSD_TRIANGLE = "psd"

KINDS = (ZERO, NONNEG, BOX, SECOND_ORDER, PSD_TRIANGLE)

_SQRT2 = math.sqrt(2.0)


def triangle_side(dim: int) -> int:
    """Side s of a symmetric matrix stored as an s(s+1)/2 triangle vector."""
    side = (math.isqrt(8 * dim + 1) - 1) // 2
    if side * (side + 1) // 2 != dim:
        raise ValueError(f"{dim} is not a triangular number")
    return side


class ConeBlock:
    """One block of the product cone, with bounds for box blocks."""

    def __init__(self, kind: str, dim: int, l=None, u=None):
        if kind not in KINDS:
            raise ValueError(f"unknown cone kind {kind!r}")
        if not is_integer_at_least(dim, 1):
            raise ValueError(f"cone dimension must be an integer of at least 1, got {dim!r}")
        self.kind = kind
        self.dim = dim
        self.l = None
        self.u = None
        if kind == BOX:
            self.l = np.full(dim, -np.inf) if l is None else np.asarray(l, dtype=float)
            self.u = np.full(dim, np.inf) if u is None else np.asarray(u, dtype=float)
            if self.l.shape != (dim,) or self.u.shape != (dim,):
                raise ValueError("box bounds must match the block dimension")
            # Comparisons with NaN are False, so a NaN bound fails too; l = inf
            # or u = -inf admits no point.
            if not (
                np.all(self.l <= self.u) and np.all(self.l < np.inf) and np.all(self.u > -np.inf)
            ):
                raise ValueError("box bounds need l <= u, l < inf and u > -inf, and no NaN")
        elif l is not None or u is not None:
            raise ValueError(f"bounds only apply to box blocks, not {kind!r}")
        if kind == PSD_TRIANGLE:
            # The svec layout project_cone reads: each entry's scale and its
            # column-major (fill) and row-major (read) flat offsets.
            self.side = triangle_side(dim)
            col, row, self.scale = _triangle_index(self.side)
            self.fill = col * self.side + row
            self.read = row * self.side + col

    def __repr__(self) -> str:
        return f"ConeBlock({self.kind!r}, dim={self.dim})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConeBlock):
            return NotImplemented
        if (self.kind, self.dim) != (other.kind, other.dim):
            return False
        if self.kind == BOX:
            return np.array_equal(self.l, other.l) and np.array_equal(self.u, other.u)
        return True


def _triangle_index(side: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(col, row, scale) of each svec entry, in svec order.

    Column-major lower triangle is row-major upper triangle read transposed,
    so ``np.triu_indices`` yields the columns and rows directly.
    """
    col, row = np.triu_indices(side)
    return col, row, np.where(row == col, 1.0, _SQRT2)


def svec(S: np.ndarray) -> np.ndarray:
    """Scaled lower-triangle vector of a symmetric matrix (column-major)."""
    col, row, scale = _triangle_index(S.shape[0])
    return S[row, col] * scale


def smat(vec: np.ndarray) -> np.ndarray:
    """Inverse of :func:`svec`."""
    vec = np.asarray(vec, dtype=float)
    side = triangle_side(vec.size)
    col, row, scale = _triangle_index(side)
    S = np.empty((side, side))
    S[row, col] = S[col, row] = vec / scale
    return S


def project_cone(block: ConeBlock, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Euclidean projection of v onto the block, written into ``out`` when it is
    given (it may be v itself) and into a new array otherwise."""
    v = np.asarray(v, dtype=float)
    if v.shape != (block.dim,):
        raise ValueError(f"vector has shape {v.shape}, expected ({block.dim},)")
    if block.kind == NONNEG:
        return np.maximum(v, 0.0, out=out)
    proj = _projection(block, v)
    if out is None:
        return proj
    out[...] = proj
    return out


def _projection(block: ConeBlock, v: np.ndarray) -> np.ndarray:
    """The projection of a checked v onto a block other than nonneg, as a new array."""
    if block.kind == ZERO:
        return np.zeros(block.dim)
    if block.kind == BOX:
        return np.clip(v, block.l, block.u)
    if block.kind == SECOND_ORDER:
        t, x = v[0], v[1:]
        xn = math.sqrt(x @ x)
        if xn <= t:
            return v.copy()
        if xn <= -t:
            return np.zeros(block.dim)
        scale = 0.5 * (1.0 + t / xn)
        out = np.empty_like(v)
        out[0] = scale * xn
        out[1:] = scale * x
        return out
    # PSD: clamp negative eigenvalues.  dsyevd reads only the lower triangle.
    side, scale = block.side, block.scale
    lower = np.empty(side * side)
    lower[block.fill] = v / scale
    # Positional f2py arguments (compute_v, lower): keywords cost parsing time.
    vals, vecs, info = dsyevd(lower.reshape(side, side).T, 1, 1)
    if info > 0:
        # No convergence, which a non-finite v causes: a non-finite block
        # makes the operator report divergence.
        return np.full(block.dim, np.nan)
    if info < 0:
        raise ValueError(f"dsyevd rejected argument {-info}")
    vecs = np.ascontiguousarray(vecs)
    return ((vecs * np.maximum(vals, 0.0)) @ vecs.T).ravel()[block.read] * scale


def in_recession_of_negation(block: ConeBlock, d: np.ndarray, tol: float) -> bool:
    """Whether d lies in the recession cone of -K, within absolute tol.

    This is the direction test for unboundedness certificates: moving the
    slack along -d forever must stay inside the block.  For a cone the
    recession cone of -K is -K itself, and since P_{-K}(d) = -P_K(-d) the
    test is ||d + P_K(-d)||_inf <= tol.
    """
    d = np.asarray(d, dtype=float)
    if block.kind == BOX:
        lo_finite = np.isfinite(block.l)
        hi_finite = np.isfinite(block.u)
        # d_i >= 0 needs l_i = -inf; d_i <= 0 needs u_i = +inf.
        ok_pos = np.all(d[lo_finite] <= tol)
        ok_neg = np.all(d[hi_finite] >= -tol)
        return bool(ok_pos and ok_neg)
    return bool(np.abs(d + project_cone(block, -d)).max() <= tol)


def cone_support(block: ConeBlock, w: np.ndarray, tol: float) -> float:
    """Support function sup_{s in K} <w, s>, with absolute tolerance.

    Returns 0.0 when the supremum vanishes (w in the polar cone, within
    tol), a finite value for box blocks, and inf when unbounded.  For a cone
    w is polar exactly when P_K(w) = 0 (Moreau), so the test is
    ||P_K(w)||_inf <= tol.
    """
    w = np.asarray(w, dtype=float)
    if block.kind == BOX:
        total = 0.0
        for wi, lo, hi in zip(w, block.l, block.u):
            if wi > tol:
                if not np.isfinite(hi):
                    return math.inf
                total += wi * hi
            elif wi < -tol:
                if not np.isfinite(lo):
                    return math.inf
                total += wi * lo
        return total
    return 0.0 if np.abs(project_cone(block, w)).max() <= tol else math.inf
