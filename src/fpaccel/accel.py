"""Anderson acceleration engine (type-II).

Holds the QR factorization of the residual-difference matrix R, updated one
column per push, and one buffer of the differences F = V - R of the operator
values (V holds the iterate differences).  It solves for the extrapolation
coefficients eta = argmin ||r_k - R eta|| on the QR factors, assembles the
candidate f_k - F eta, and restarts the memory when it fills up, when the
operator changes, or when a new residual difference is rank-deficient.

The memory also decides whether to extrapolate at all: ``propose`` returns
no candidate while the history is too short, when the least-squares solve
is singular, or when the coefficients fail the norm guard.

Column-pointer convention: ``j`` counts 1 + stored columns, read off the QR
factors.  A fresh or restarted memory has j = 1; the first push moves it to
2; extrapolation is only attempted once j > 2, i.e. with at least two
stored difference pairs.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import ColumnRankDeficient, QrState, SingularTriangular, qr_append_column, qr_solve_ls


class AccelMemory:
    """QR factors of the residual differences R plus the F = V - R buffer.

    Buffers are preallocated for ``m_max`` columns; each push appends one
    column to both.
    """

    def __init__(self, dim: int, m_max: int, epoch: int = 0):
        self.qr = QrState(dim, m_max)  # rejects a non-positive dim or m_max
        self.dim = dim
        self.m_max = m_max
        self.epoch = epoch
        self._anchor = None  # (v, r) of the previous observed iterate
        self._f = np.zeros((dim, m_max))

    @property
    def ncols(self) -> int:
        return self.qr.ncols

    @property
    def j(self) -> int:
        return self.qr.ncols + 1

    @property
    def f_diffs(self) -> np.ndarray:
        """The stored columns of F = V - R, one per pushed pair."""
        return self._f[:, : self.qr.ncols]

    def propose(self, v, r, f, epoch: int, eta_max: float) -> np.ndarray | None:
        """``observe`` iterate v (residual r, operator value f), then return its
        accelerated point, or None: with fewer than two stored pairs (j <= 2),
        a singular least-squares solve, or ||eta|| above ``eta_max``.
        """
        if self.observe(v, r, epoch).qr.ncols < 2:
            return None
        try:
            eta = self.compute_eta(r)
        except SingularTriangular:
            return None
        if not eta_guard(eta, eta_max):
            return None
        return self.candidate(f, eta)

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
        if self.qr.ncols == self.m_max:
            self.restart()
        elif self._anchor is not None:
            try:
                self.push_pair(v - self._anchor[0], r - self._anchor[1])
            except ColumnRankDeficient:
                return self.restart()
        self._anchor = (v, r)
        return self

    def push_pair(self, dv: np.ndarray, dr: np.ndarray) -> "AccelMemory":
        """Append one (delta v, delta r) pair.

        Stores dr in the QR factors and dv - dr in F.  The QR update checks
        dr's shape and the capacity, and propagates ColumnRankDeficient,
        before anything is committed; the caller must then restart the
        memory.
        """
        k = self.qr.ncols
        dv = np.asarray(dv, dtype=float)
        if dv.shape != (self.dim,):  # checked first: F is written after the QR commit
            raise ValueError(f"dv has shape {dv.shape}, expected ({self.dim},)")
        qr_append_column(self.qr, dr)
        np.subtract(dv, dr, out=self._f[:, k])
        return self

    def compute_eta(self, r_k: np.ndarray) -> np.ndarray:
        """eta = argmin ||r_k - R eta|| via the maintained QR factors."""
        return qr_solve_ls(self.qr, r_k)

    def candidate(self, f_k: np.ndarray, eta: np.ndarray) -> np.ndarray:
        """Accelerated point f_k - F eta.

        F is exactly zero where V == R, so the candidate is then f_k bit for
        bit.
        """
        k = self.qr.ncols
        eta = np.asarray(eta, dtype=float)
        if eta.shape != (k,):
            raise ValueError("coefficient length does not match stored columns")
        return np.asarray(f_k, dtype=float) - self._f[:, :k] @ eta

    def restart(self, epoch: int | None = None) -> "AccelMemory":
        """Drop all columns and the anchor, and resync the epoch."""
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
