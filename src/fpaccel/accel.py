"""Anderson acceleration engine.

Holds the difference histories of iterates and residuals, solves for the
extrapolation coefficients (type-II through an incrementally updated QR,
type-I through a dense solve recomputed each step), assembles candidate
points, and restarts the memory when it fills up, when the operator
changes, or when a new residual difference is rank-deficient.

Column-pointer convention: ``j`` counts 1 + stored columns.  A fresh or
restarted memory has j = 1; the first push moves it to 2; extrapolation is
only attempted once j > 2, i.e. with at least two stored difference pairs.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

from .linalg import ColumnRankDeficient, QrState, qr_append_column, qr_solve_ls

TYPE_I = "type1"
TYPE_II = "type2"


class SingularSystem(Exception):
    """Type-I coefficient matrix V'R is numerically singular."""


class AccelMemory:
    """Difference histories V (iterate diffs) and R (residual diffs).

    Buffers are preallocated for ``m_max`` columns.  For the type-II
    variant a QR factorization of the residual-difference matrix is
    maintained incrementally, one column per push.
    """

    def __init__(self, dim: int, m_max: int, variant: str = TYPE_II, epoch: int = 0):
        if m_max < 1:
            raise ValueError("m_max must be positive")
        if variant not in (TYPE_I, TYPE_II):
            raise ValueError(f"unknown variant {variant!r}")
        self.dim = dim
        self.m_max = m_max
        self.variant = variant
        self.epoch = epoch
        self.j = 1
        self._anchor = None  # (v, r) of the previous observed iterate
        self._v = np.zeros((dim, m_max))
        self._r = np.zeros((dim, m_max))
        self.qr = QrState(dim, m_max) if variant == TYPE_II else None

    @property
    def ncols(self) -> int:
        return self.j - 1

    @property
    def v_diffs(self) -> np.ndarray:
        return self._v[:, : self.ncols]

    @property
    def r_diffs(self) -> np.ndarray:
        return self._r[:, : self.ncols]

    def observe(self, v: np.ndarray, r: np.ndarray, epoch: int) -> "AccelMemory":
        """Take iterate v with residual r, evaluated under operator ``epoch``.

        Restarts on an epoch change or a rank-deficient pair and drops the
        anchor (the previous iterate), so three plain steps (j = 1, 1, 2)
        follow; restarts on a full memory keeping (v, r) as the anchor, so
        two follow (j = 1, 2); otherwise pushes the pair formed against the
        anchor.
        """
        if epoch != self.epoch:
            return self.restart(epoch)
        if self.ncols == self.m_max:
            self.restart()
        elif self._anchor is not None:
            try:
                self.push_pair(v - self._anchor[0], r - self._anchor[1])
            except ColumnRankDeficient:
                return self.restart()
        self._anchor = (v, r)
        return self

    def push_pair(self, dv: np.ndarray, dr: np.ndarray) -> "AccelMemory":
        """Append one (delta v, delta r) column pair and advance j.

        Propagates ColumnRankDeficient from the QR update (type-II) without
        committing the pair; the caller must then restart the memory.
        """
        k = self.ncols
        if k >= self.m_max:
            raise ValueError("memory is full; restart before pushing")
        dv = np.asarray(dv, dtype=float)
        dr = np.asarray(dr, dtype=float)
        if dv.shape != (self.dim,) or dr.shape != (self.dim,):
            raise ValueError("difference vectors have the wrong shape")
        if self.qr is not None:
            qr_append_column(self.qr, dr)  # raises before anything is committed
        self._v[:, k] = dv
        self._r[:, k] = dr
        self.j += 1
        return self

    def compute_eta(self, r_k: np.ndarray) -> np.ndarray:
        if self.variant == TYPE_II:
            return self.compute_eta_type2(r_k)
        return self.compute_eta_type1(r_k)

    def compute_eta_type2(self, r_k: np.ndarray) -> np.ndarray:
        """eta = argmin ||r_k - R eta|| via the maintained QR factors."""
        if self.qr is None:
            raise RuntimeError("type-II coefficients need the QR variant")
        if self.ncols < 1:
            raise ValueError("no stored columns")
        return qr_solve_ls(self.qr, np.asarray(r_k, dtype=float))

    def compute_eta_type1(self, r_k: np.ndarray, pivot_tol: float = 1e-12) -> np.ndarray:
        """eta solves (V'R) eta = V' r_k by dense LU with partial pivoting.

        LAPACK getrf/getrs, called as lu_factor/lu_solve would.  Raises
        SingularSystem when a pivot is below ``pivot_tol`` times the largest
        entry of V'R (an exactly zero pivot included), and ValueError when
        V'R or V' r_k is not finite.
        """
        if self.ncols < 1:
            raise ValueError("no stored columns")
        r_k = np.asarray(r_k, dtype=float)
        v = self.v_diffs
        m = v.T @ self.r_diffs
        if not np.isfinite(m).all():
            raise ValueError("V'R must be finite")
        max_entry = float(np.abs(m).max())
        lu, piv, info = dgetrf(m, overwrite_a=1)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of LAPACK getrf")
        pivots = np.abs(np.diagonal(lu))
        if max_entry == 0.0 or pivots.min() < pivot_tol * max_entry:
            raise SingularSystem(
                f"pivot {pivots.min():.3e} below {pivot_tol:.0e} * max entry {max_entry:.3e}"
            )
        rhs = v.T @ r_k
        if not np.isfinite(rhs).all():
            raise ValueError("V' r_k must be finite")
        eta, info = dgetrs(lu, piv, rhs, overwrite_b=1)
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of LAPACK getrs")
        return eta

    def candidate(self, f_k: np.ndarray, eta: np.ndarray) -> np.ndarray:
        """Accelerated point f_k - (V - R) eta."""
        eta = np.asarray(eta, dtype=float)
        if eta.shape != (self.ncols,):
            raise ValueError("coefficient length does not match stored columns")
        # Forming V - R keeps the V == R case exact: the difference matrix is
        # exactly zero, so the candidate is f_k bit for bit.
        return np.asarray(f_k, dtype=float) - (self.v_diffs - self.r_diffs) @ eta

    def restart(self, epoch: int | None = None) -> "AccelMemory":
        """Drop all columns and the anchor, reset j to 1, and resync the epoch."""
        self.j = 1
        self._anchor = None
        if self.qr is not None:
            self.qr.reset()
        if epoch is not None:
            self.epoch = epoch
        return self


def eta_guard(eta: np.ndarray, eta_max: float) -> bool:
    """True when ||eta|| is small enough for the candidate to be trusted."""
    if eta_max <= 0:
        raise ValueError("eta_max must be positive")
    return float(np.linalg.norm(eta)) <= eta_max


def alpha_from_eta(eta: np.ndarray) -> np.ndarray:
    """Recover the affine-combination weights alpha from eta.

    alpha has one more entry than eta and always sums to 1: the change of
    variables alpha_0 = eta_0, alpha_i = eta_i - eta_{i-1},
    alpha_m = 1 - eta_{m-1} telescopes.
    """
    eta = np.asarray(eta, dtype=float)
    m = eta.size
    alpha = np.empty(m + 1)
    if m == 0:
        alpha[0] = 1.0
        return alpha
    alpha[0] = eta[0]
    alpha[1:m] = eta[1:] - eta[:-1]
    alpha[m] = 1.0 - eta[m - 1]
    return alpha
