import numpy as np
import pytest
from numpy.testing import assert_allclose

from fpaccel.driver import FixedPointState
from fpaccel.operators import (
    AffineTestOperator,
    FixedPointOperator,
    NonFiniteOutput,
    update_params,
)


class ScaledOffsetOperator(FixedPointOperator):
    """F(v) = A v + beta * b with beta as a tunable parameter."""

    def __init__(self, a, b, beta=1.0):
        super().__init__(len(b))
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.beta = float(beta)

    @property
    def params(self):
        return np.array([self.beta])

    def set_params(self, rho):
        rho = np.asarray(rho, dtype=float)
        if rho[0] != self.beta:
            self.beta = float(rho[0])
            self.epoch += 1

    def _apply(self, v):
        return self.a @ v + self.beta * self.b


def _state(op, v):
    f = op.apply(v)
    return FixedPointState(v=v, f=f, r=v - f)


def test_identity_apply():
    op = AffineTestOperator(np.eye(2), np.zeros(2))
    assert_allclose(op.apply(np.array([1.0, 2.0])), [1.0, 2.0])


def test_affine_contraction_apply():
    op = AffineTestOperator(0.5 * np.eye(2), np.zeros(2))
    assert_allclose(op.apply(np.array([2.0, 2.0])), [1.0, 1.0])


def test_apply_counts_evaluations():
    op = AffineTestOperator(np.eye(3), np.zeros(3))
    v = np.ones(3)
    op.apply(v)
    op.apply(v)
    assert op.eval_count == 2


def test_apply_is_deterministic_bitwise():
    rng = np.random.default_rng(0)
    op = AffineTestOperator(rng.standard_normal((6, 6)), rng.standard_normal(6))
    v = rng.standard_normal(6)
    out1 = op.apply(v)
    out2 = op.apply(v)
    assert np.array_equal(out1, out2)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_apply_rejects_nonfinite_output():
    op = AffineTestOperator(np.array([[np.finfo(float).max]]), np.zeros(1))
    with pytest.raises(NonFiniteOutput):
        op.apply(np.array([np.finfo(float).max]))


class ConstantOperator(FixedPointOperator):
    """Returns a fixed vector whatever the input."""

    def __init__(self, out):
        super().__init__(len(out))
        self.out = np.asarray(out, dtype=float)

    def _apply(self, v):
        return self.out.copy()


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_apply_finite_check_is_entrywise():
    # Finite entries whose sum overflows are accepted; any inf or nan entry
    # is rejected, also where the entries' sum is nan.
    op = ConstantOperator([1e308, 1e308])
    assert op.apply(np.zeros(2)).tolist() == [1e308, 1e308] and op.eval_count == 1
    for out in ([1.0, np.nan], [np.inf, 1.0], [1.0, -np.inf], [np.inf, -np.inf]):
        op = ConstantOperator(out)
        with pytest.raises(NonFiniteOutput):
            op.apply(np.zeros(2))
        assert op.eval_count == 0


def test_apply_rejects_wrong_dim():
    op = AffineTestOperator(np.eye(2), np.zeros(2))
    with pytest.raises(ValueError):
        op.apply(np.ones(3))


def test_picard_linear_convergence_rate():
    rng = np.random.default_rng(1)
    n = 8
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    vals = rng.uniform(-1.0, 1.0, n)
    vals = 0.8 * vals / np.abs(vals).max()
    a = q @ np.diag(vals) @ q.T  # symmetric, spectral radius 0.8
    op = AffineTestOperator(a, rng.standard_normal(n))
    v = rng.standard_normal(n)
    rate = 0.8
    for k in range(60):
        f = op.apply(v)
        r = v - f
        if k > 10:
            assert np.linalg.norm(a @ r) <= rate * np.linalg.norm(r) + 1e-12
        v = f


def test_update_params_identity_rule_keeps_epoch():
    op = ScaledOffsetOperator(0.5 * np.eye(2), np.ones(2))
    state = _state(op, np.zeros(2))
    epoch = update_params(op, lambda o, v, f, r, rho: rho, state)
    assert epoch == 0 and op.epoch == 0


def test_update_params_change_bumps_epoch():
    op = ScaledOffsetOperator(0.5 * np.eye(2), np.ones(2))
    state = _state(op, np.zeros(2))
    epoch = update_params(op, lambda o, v, f, r, rho: rho * 2.0, state)
    assert epoch == 1 and op.beta == 2.0


def test_update_params_rejects_nonfinite():
    op = ScaledOffsetOperator(0.5 * np.eye(2), np.ones(2))
    state = _state(op, np.zeros(2))
    with pytest.raises(ValueError):
        update_params(op, lambda o, v, f, r, rho: rho * np.nan, state)
