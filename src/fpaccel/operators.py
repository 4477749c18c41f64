"""Parametric fixed-point operator contract and synthetic test operators.

A fixed-point operator maps R^n -> R^n; its parameters may change during a
solve, and every change bumps an epoch counter so downstream consumers
(the acceleration memory in particular) can tell that cached history is
stale.  Applications are counted so benchmark reports can account for the
extra evaluations spent on rejected candidate points.
"""

from __future__ import annotations

import numpy as np


class NonFiniteOutput(Exception):
    """Operator produced inf/nan entries; the iteration has diverged."""


class FixedPointOperator:
    """Base class for operators v -> F_rho(v).

    Subclasses implement ``_apply`` and, when they carry parameters,
    override ``params`` and ``set_params``.  ``apply`` validates shapes,
    rejects non-finite output, and counts evaluations.  An ``_apply`` may
    leave a record of its evaluation in ``info``, which the driver keeps
    next to the iterate it adopts.
    """

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("dim must be positive")
        self.dim = dim
        self.epoch = 0
        self.eval_count = 0
        self.info = None

    @property
    def params(self) -> np.ndarray:
        return np.zeros(0)

    def set_params(self, rho) -> None:
        rho = np.asarray(rho, dtype=float)
        if rho.size != self.params.size:
            raise ValueError("parameter vector has the wrong length")
        # No tunable parameters at the base level: nothing to do, epoch
        # stays put.

    def apply(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.dim,):
            raise ValueError(f"input has shape {v.shape}, expected ({self.dim},)")
        out = self._apply(v)
        if out.shape != (self.dim,):
            raise AssertionError("operator changed the vector dimension")
        if not np.all(np.isfinite(out)):
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


def update_params(op: FixedPointOperator, rule, state) -> int:
    """Run an update rule rho* = u(F, v, f, r, rho) and apply the result.

    The operator's epoch increments only when the returned parameters
    differ from the current ones (the rule may legally return rho
    unchanged).  Returns the epoch after the update.
    """
    rho = np.asarray(op.params, dtype=float)
    rho_new = np.asarray(rule(op, state.v, state.f, state.r, rho), dtype=float)
    if not np.all(np.isfinite(rho_new)):
        raise ValueError("update rule returned non-finite parameters")
    if rho_new.shape == rho.shape and np.array_equal(rho_new, rho):
        return op.epoch
    op.set_params(rho_new)
    return op.epoch
