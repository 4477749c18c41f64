"""Incremental thin QR for the acceleration least-squares problem.

A QR factorization that grows one column at a time: each append
orthogonalizes the new column by classical Gram-Schmidt applied twice
(CGS2), two pairs of BLAS matrix-vector products, O(n*j) per append.
Least-squares solves back-substitute on the triangular factor.

The per-iteration triangular solves, here and in the KKT solve (conic.py),
call BLAS-2 ``scipy.linalg.blas.dtrsv`` directly, without the scipy.linalg
helpers' per-call validation, which costs more than these small solves.
Here the result is bit for bit that of ``solve_triangular``; its finite-input
check is kept, and the zero pivot that LAPACK ``trtrs`` would report is
tested on the diagonal.

Vector norms are ``math.sqrt(x @ x)``: the dot product and square root that
``np.linalg.norm`` computes for a 1-D float array, so the same bits, without
its dispatch cost.

Everything is dense float64; matrices are plain numpy arrays.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.blas import dtrsv


class ColumnRankDeficient(Exception):
    """New column lies (numerically) in the span of the existing basis."""


class SingularTriangular(Exception):
    """Triangular factor has a negligible diagonal pivot."""


class QrState:
    """Thin QR factors of a tall matrix assembled column by column.

    ``q`` is n-by-j with orthonormal columns and ``r`` is j-by-j upper
    triangular with a positive diagonal.  Buffers are preallocated for
    ``capacity`` columns so appends never reallocate.
    """

    def __init__(self, dim: int, capacity: int):
        if dim < 1 or capacity < 1:
            raise ValueError("dim and capacity must be positive")
        self.dim = dim
        self.capacity = capacity
        self.ncols = 0
        self._q = np.zeros((dim, capacity))
        self._r = np.zeros((capacity, capacity))

    @property
    def q(self) -> np.ndarray:
        return self._q[:, : self.ncols]

    @property
    def r(self) -> np.ndarray:
        return self._r[: self.ncols, : self.ncols]

    def reset(self) -> None:
        # Appends overwrite every entry that q and r expose, and nothing
        # writes below the diagonal of r, so the buffers need no clearing.
        self.ncols = 0


def qr_append_column(state: QrState, col: np.ndarray, rank_tol: float = 1e-14) -> QrState:
    """Append one column to the factorization in place.

    Orthogonalizes ``col`` against the current basis by classical
    Gram-Schmidt, c = q'w then w -= q c, run twice so that q'q = I holds
    near machine precision.

    Raises ColumnRankDeficient when the orthogonal remainder is below
    ``rank_tol`` times the column norm; the caller must discard the
    factorization (the history is no longer informative).
    """
    k = state.ncols
    if k >= state.capacity:
        raise ValueError("QrState is at capacity")
    col = np.asarray(col, dtype=float)
    if col.shape != (state.dim,):
        raise ValueError(f"column has shape {col.shape}, expected ({state.dim},)")
    col_norm = math.sqrt(col @ col)

    q = state._q[:, :k]
    c = q.T @ col
    w = col - q @ c
    c2 = q.T @ w
    w -= q @ c2
    w_norm = math.sqrt(w @ w)
    if w_norm <= rank_tol * col_norm:
        raise ColumnRankDeficient(
            f"column {k} is collinear with the current basis "
            f"(remainder {w_norm:.3e} vs norm {col_norm:.3e})"
        )
    np.divide(w, w_norm, out=state._q[:, k])
    np.add(c, c2, out=state._r[:k, k])
    state._r[k, k] = w_norm
    state.ncols = k + 1
    return state


def qr_solve_ls(state: QrState, rhs: np.ndarray, pivot_tol: float = 1e-12) -> np.ndarray:
    """Least-squares solve min ||rhs - M eta|| for the factored matrix M.

    Back-substitution on r applied to q' rhs.  Raises SingularTriangular
    when the smallest |r_ii| is zero or not above ``pivot_tol`` times the
    largest, and ValueError when r or q' rhs is not finite.
    """
    k = state.ncols
    if k == 0:
        raise ValueError("factorization holds no columns")
    rhs = np.asarray(rhs, dtype=float)
    # Python's min and max skip a NaN that numpy's would return, and numpy's
    # NaN fails the ratio test; so a NaN diagonal passes it here too.
    diag = state._r.diagonal()[:k].tolist()
    lo, hi = min(map(abs, diag)), max(map(abs, diag))
    if lo <= pivot_tol * hi and not any(map(math.isnan, diag)):
        raise SingularTriangular(
            f"smallest diagonal {lo:.3e} not above {pivot_tol:.0e} times the largest {hi:.3e}"
        )
    r = state._r[:k, :k]
    qtr = state._q[:, :k].T @ rhs
    # A finite sum proves every entry finite; finite entries can also
    # overflow the sum, so only then is the entrywise test needed.
    if not math.isfinite(r.sum() + qtr.sum()) and not (
        np.isfinite(r).all() and np.isfinite(qtr).all()
    ):
        raise ValueError("least-squares data must be finite")
    if lo == 0.0:  # dtrsv reports no zero pivot; the ratio test misses one if pivot_tol < 0
        raise SingularTriangular(f"diagonal {diag.index(0.0)} of the triangular factor is zero")
    # r.T is the lower factor in Fortran order; solving r.T' eta = qtr is the
    # branch scipy.linalg.solve_triangular takes for the C-ordered r.  The
    # f2py arguments are positional: (incx, offx, lower, trans, diag, overwrite_x).
    return dtrsv(r.T, qtr, 1, 0, 1, 1, 0, 1)
