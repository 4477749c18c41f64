"""Anderson acceleration engine (type-II).

Holds the QR factorization of the residual-difference matrix R, updated one
column per push, and one buffer of the differences F = V - R of the operator
values (V holds the iterate differences).  It solves for the extrapolation
coefficients eta = argmin ||r_k - R eta|| on the QR factors, assembles the
candidate f_k - F eta, and restarts the memory when it fills up, when the
operator changes, or when a new residual difference is rank-deficient.

Column-pointer convention: ``j`` counts 1 + stored columns.  A fresh or
restarted memory has j = 1; the first push moves it to 2; extrapolation is
only attempted once j > 2, i.e. with at least two stored difference pairs.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import ColumnRankDeficient, QrState, qr_append_column, qr_solve_ls


class AccelMemory:
    """QR factors of the residual differences R plus the F = V - R buffer.

    Buffers are preallocated for ``m_max`` columns; each push appends one
    column to both.
    """

    def __init__(self, dim: int, m_max: int, epoch: int = 0):
        if m_max < 1:
            raise ValueError("m_max must be positive")
        self.dim = dim
        self.m_max = m_max
        self.epoch = epoch
        self.j = 1
        self._anchor = None  # (v, r) of the previous observed iterate
        self._f = np.zeros((dim, m_max))
        self.qr = QrState(dim, m_max)

    @property
    def ncols(self) -> int:
        return self.j - 1

    @property
    def f_diffs(self) -> np.ndarray:
        """The stored columns of F = V - R, one per pushed pair."""
        return self._f[:, : self.ncols]

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
        """Append one (delta v, delta r) pair and advance j.

        Stores dr in the QR factors and dv - dr in F.  Propagates
        ColumnRankDeficient from the QR update without committing the pair;
        the caller must then restart the memory.
        """
        k = self.ncols
        if k >= self.m_max:
            raise ValueError("memory is full; restart before pushing")
        dv = np.asarray(dv, dtype=float)
        dr = np.asarray(dr, dtype=float)
        if dv.shape != (self.dim,) or dr.shape != (self.dim,):
            raise ValueError("difference vectors have the wrong shape")
        qr_append_column(self.qr, dr)  # raises before anything is committed
        np.subtract(dv, dr, out=self._f[:, k])
        self.j += 1
        return self

    def compute_eta(self, r_k: np.ndarray) -> np.ndarray:
        """eta = argmin ||r_k - R eta|| via the maintained QR factors."""
        return qr_solve_ls(self.qr, r_k)

    def candidate(self, f_k: np.ndarray, eta: np.ndarray) -> np.ndarray:
        """Accelerated point f_k - F eta.

        F is exactly zero where V == R, so the candidate is then f_k bit for
        bit.
        """
        k = self.ncols
        eta = np.asarray(eta, dtype=float)
        if eta.shape != (k,):
            raise ValueError("coefficient length does not match stored columns")
        return np.asarray(f_k, dtype=float) - self._f[:, :k] @ eta

    def restart(self, epoch: int | None = None) -> "AccelMemory":
        """Drop all columns and the anchor, reset j to 1, and resync the epoch."""
        self.j = 1
        self._anchor = None
        self.qr.reset()
        if epoch is not None:
            self.epoch = epoch
        return self


def eta_guard(eta: np.ndarray, eta_max: float) -> bool:
    """True when ||eta|| is small enough for the candidate to be trusted."""
    if eta_max <= 0:
        raise ValueError("eta_max must be positive")
    return math.sqrt(eta @ eta) <= eta_max
