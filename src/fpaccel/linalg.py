"""Incremental thin QR for the acceleration least-squares problem.

A QR factorization that grows one column at a time: each append
orthogonalizes the new column by classical Gram-Schmidt applied twice
(CGS2), two pairs of BLAS matrix-vector products, O(n*j) per append.
Least-squares solves back-substitute on the triangular factor.

The per-iteration BLAS-1/2 work, here, in the memory's candidate
(accel.py), in the driver's norms and in the KKT solve (conic.py), calls
``scipy.linalg.blas`` directly with positional f2py arguments, without
numpy's dispatch or the scipy.linalg helpers' per-call validation, which
cost more than these small products and solves:

* ``q`` is stored column-major, so its leading block ``_q[:, :k]`` is the
  Fortran-contiguous matrix that f2py hands to BLAS without a copy.
* Each CGS pass is two ``dgemv`` calls: c = q'w (``trans=1``) into a
  coefficient buffer that the ``QrState`` preallocates, then the fused
  update w <- w - q c (``alpha=-1, beta=1``).  The first pass copies the
  caller's column (``overwrite_y=0``); the second updates that copy in
  place.  f2py refuses a matrix with no columns, so the first append has
  its own branch, where the remainder is the column itself.
* ``qr_solve_ls`` forms q'rhs with ``dgemv(trans=1)`` and back-substitutes
  with ``dtrsv``, whose result is bit for bit that of ``solve_triangular``
  on the same q'rhs.

Validation: ``qr_append_column`` checks the capacity and the column's shape;
``qr_solve_ls`` checks the right-hand side's shape (BLAS would read a
prefix of a longer one), the pivots and the finiteness of its data, with
the outcomes a full scan of the factors would give, at a fraction of its
cost:

* The pivot test reads the bounds of |r_ii| that each append records on the
  ``QrState`` (``pivot_min``, ``pivot_max``), not the diagonal itself.  The
  ratio test with the fixed ``PIVOT_TOL`` catches a zero and an infinite
  pivot too.  A NaN pivot makes both bounds NaN, so the ratio test passes
  and the finite test rejects the factor.
* The finite test is a screen on eta_0 after the solve.  Past the ratio
  test every pivot is finite and nonzero, or NaN.  Back-substitution forms
  eta_0 from every other eta_i, and each eta_i from its pivot, the entries
  of row i above the diagonal and q'rhs, through products, differences and
  quotients that keep a NaN or an infinity non-finite (inf * 0 and x / NaN
  are NaN).  So a finite eta_0 proves r and q'rhs finite; the strict lower
  triangle, which appends never write, stays zero.  The argument holds
  through the BLAS calls: it is about the q'rhs that ``dtrsv`` reads, which
  the entrywise test checks however it was formed, and ``dgemv`` forms
  every product of q and rhs, so a non-finite entry of rhs reaches q'rhs
  even where q is zero (inf * 0 is NaN).  Only a non-finite eta_0 runs the
  entrywise test, which tells bad data from a solution that overflows.
  Code that writes ``_r`` directly must keep the bounds in step.

Vector norms are ``math.sqrt(ddot(x, x))``: the dot product and square root
that ``np.linalg.norm`` computes for a 1-D float array, so the same bits,
without numpy's dispatch.  ``ddot`` refuses a vector of length 0, so a norm
of a possibly empty vector (the second-order cone's ``x`` in cones.py) stays
``math.sqrt(x @ x)``.

Everything is dense float64; matrices are plain numpy arrays.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.blas import ddot, dgemv, dtrsv

# The fixed tolerances of the rank test (qr_append_column) and the pivot
# test (qr_solve_ls).
RANK_TOL = 1e-14
PIVOT_TOL = 1e-12


class ColumnRankDeficient(Exception):
    """New column lies (numerically) in the span of the existing basis."""


class SingularTriangular(Exception):
    """Triangular factor has a negligible diagonal pivot."""


class QrState:
    """Thin QR factors of a tall matrix assembled column by column.

    ``q`` is n-by-j with orthonormal columns and ``r`` is j-by-j upper
    triangular with a positive diagonal.  Buffers are preallocated for
    ``capacity`` columns so appends never reallocate; ``q`` is column-major.
    ``pivot_min`` and ``pivot_max`` bound |r_ii| over the stored columns;
    both are NaN once a NaN pivot is stored.
    """

    def __init__(self, dim: int, capacity: int):
        if dim < 1 or capacity < 1:
            raise ValueError("dim and capacity must be positive")
        self.dim = dim
        self.capacity = capacity
        self._q = np.zeros((dim, capacity), order="F")
        self._r = np.zeros((capacity, capacity))
        # Workspace: the coefficients of an append's two CGS passes; a
        # solve forms q'rhs in the first.
        self._c = np.zeros(capacity)
        self._c2 = np.zeros(capacity)
        self.reset()

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
        self.pivot_min = math.inf
        self.pivot_max = 0.0


def qr_append_column(state: QrState, col: np.ndarray) -> QrState:
    """Append one column to the factorization in place.

    Orthogonalizes ``col`` against the current basis by classical
    Gram-Schmidt, c = q'w then w -= q c, run twice so that q'q = I holds
    near machine precision.

    Raises ColumnRankDeficient when the orthogonal remainder is below
    ``RANK_TOL`` times the column norm; the caller must discard the
    factorization (the history is no longer informative).
    """
    k = state.ncols
    if k >= state.capacity:
        raise ValueError("QrState is at capacity")
    col = np.asarray(col, dtype=float)
    if col.shape != (state.dim,):
        raise ValueError(f"column has shape {col.shape}, expected ({state.dim},)")
    col_norm = math.sqrt(ddot(col, col))

    c, c2 = state._c[:k], state._c2[:k]
    if k == 0:  # f2py refuses a matrix with no columns; the remainder is col
        w, w_norm = col, col_norm
    else:
        q = state._q[:, :k]
        # Positional f2py arguments: (alpha, a, x, beta, y, offx, incx, offy,
        # incy, trans, overwrite_y).  beta = 0 ignores what c and c2 held.
        dgemv(1.0, q, col, 0.0, c, 0, 1, 0, 1, 1, 1)  # c = q'col
        w = dgemv(-1.0, q, c, 1.0, col, 0, 1, 0, 1, 0, 0)  # w = col - q c, a copy
        dgemv(1.0, q, w, 0.0, c2, 0, 1, 0, 1, 1, 1)  # c2 = q'w
        dgemv(-1.0, q, c2, 1.0, w, 0, 1, 0, 1, 0, 1)  # w -= q c2, in place
        w_norm = math.sqrt(ddot(w, w))
    if w_norm <= RANK_TOL * col_norm:
        raise ColumnRankDeficient(
            f"column {k} is collinear with the current basis "
            f"(remainder {w_norm:.3e} vs norm {col_norm:.3e})"
        )
    np.divide(w, w_norm, out=state._q[:, k])
    np.add(c, c2, out=state._r[:k, k])
    state._r[k, k] = w_norm
    state.ncols = k + 1
    if w_norm != w_norm:  # NaN: the bounds stay NaN until a reset
        state.pivot_min = state.pivot_max = w_norm
    elif w_norm < state.pivot_min:
        state.pivot_min = w_norm
    if w_norm > state.pivot_max:
        state.pivot_max = w_norm
    return state


def qr_solve_ls(state: QrState, rhs: np.ndarray) -> np.ndarray:
    """Least-squares solve min ||rhs - M eta|| for the factored matrix M.

    Back-substitution on r applied to q' rhs.  Raises SingularTriangular
    when the smallest |r_ii| is not above ``PIVOT_TOL`` times the largest,
    and ValueError when rhs does not have length ``dim`` or when r or q' rhs
    is not finite.
    """
    k = state.ncols
    if k == 0:
        raise ValueError("factorization holds no columns")
    lo, hi = state.pivot_min, state.pivot_max
    if lo <= PIVOT_TOL * hi:  # False for NaN bounds, which the finite test rejects
        raise SingularTriangular(
            f"smallest diagonal {lo:.3e} not above {PIVOT_TOL:.0e} times the largest {hi:.3e}"
        )
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (state.dim,):
        raise ValueError(f"rhs has shape {rhs.shape}, expected ({state.dim},)")
    r = state._r[:k, :k]
    qtr = dgemv(1.0, state._q[:, :k], rhs, 0.0, state._c[:k], 0, 1, 0, 1, 1, 1)  # into workspace
    # r.T is the lower factor in Fortran order; solving r.T' eta = qtr is the
    # branch scipy.linalg.solve_triangular takes for the C-ordered r.  The
    # f2py arguments are positional: (incx, offx, lower, trans, diag, overwrite_x).
    eta = dtrsv(r.T, qtr, 1, 0, 1, 1, 0, 0)
    # A finite eta_0 proves r and qtr finite (see the module docstring); a
    # non-finite one can also come from overflow, so only then is the
    # entrywise test needed.
    if not math.isfinite(eta[0]) and not (np.isfinite(r).all() and np.isfinite(qtr).all()):
        raise ValueError("least-squares data must be finite")
    return eta
