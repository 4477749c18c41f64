"""Fixed-point operator contract and synthetic test operators.

A fixed-point operator maps R^n -> R^n; its parameters may change during a
solve, and an operator bumps its epoch counter on every change so downstream
consumers (the acceleration memory in particular) can tell that cached
history is stale.  Applications are counted so benchmark reports can account
for the extra evaluations spent on rejected candidate points.
"""

from __future__ import annotations

import math

import numpy as np


class NonFiniteOutput(Exception):
    """Operator produced inf/nan entries; the iteration has diverged."""


class FixedPointOperator:
    """Base class for operators v -> F_rho(v).

    Subclasses implement ``_apply``; one whose parameters change bumps
    ``epoch`` on every change.  ``apply`` validates shapes, rejects
    non-finite output, and counts evaluations.  An ``_apply`` may leave a
    record of its evaluation in ``info``, which the driver keeps next to the
    iterate it adopts.
    """

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("dim must be positive")
        self.dim = dim
        self.epoch = 0
        self.eval_count = 0
        self.info = None

    def apply(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.dim,):
            raise ValueError(f"input has shape {v.shape}, expected ({self.dim},)")
        out = self._apply(v)
        if out.shape != (self.dim,):
            raise AssertionError("operator changed the vector dimension")
        # A finite sum proves every entry finite; finite entries can also
        # overflow the sum, so only then is the entrywise test needed.
        if not math.isfinite(out.sum()) and not np.isfinite(out).all():
            raise NonFiniteOutput("operator output contains inf/nan entries")
        self.eval_count += 1
        return out

    def _apply(self, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class AffineTestOperator(FixedPointOperator):
    """F(v) = A v + b.  Fixed point v* = (I - A)^{-1} b when I - A is regular."""

    def __init__(self, a: np.ndarray, b: np.ndarray):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or b.shape != (a.shape[0],):
            raise ValueError("need square A and matching b")
        super().__init__(a.shape[0])
        self.a = a
        self.b = b

    def _apply(self, v: np.ndarray) -> np.ndarray:
        return self.a @ v + self.b

