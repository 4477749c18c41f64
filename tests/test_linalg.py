import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import solve_triangular
from scipy.linalg.blas import ddot, dgemv

from fpaccel.linalg import (
    ColumnRankDeficient,
    QrState,
    SingularTriangular,
    qr_append_column,
    qr_solve_ls,
)


def householder_qr(mat):
    """From-scratch oracle, sign-fixed to a positive R diagonal."""
    q, r = np.linalg.qr(mat)
    signs = np.sign(np.diagonal(r))
    signs[signs == 0] = 1.0
    return q * signs, signs[:, None] * r


# -- incremental QR ----------------------------------------------------------


def test_qr_single_column():
    state = QrState(2, 4)
    qr_append_column(state, np.array([1.0, 0.0]))
    assert_allclose(state.q, [[1.0], [0.0]])
    assert_allclose(state.r, [[1.0]])


def test_qr_two_columns_forced_by_gram_schmidt():
    state = QrState(2, 4)
    qr_append_column(state, np.array([1.0, 0.0]))
    qr_append_column(state, np.array([1.0, 1.0]))
    assert_allclose(state.q, [[1.0, 0.0], [0.0, 1.0]])
    assert_allclose(state.r, [[1.0, 1.0], [0.0, 1.0]])


def test_qr_matches_householder_oracle():
    rng = np.random.default_rng(0)
    cols = [rng.standard_normal(50) for _ in range(20)]
    state = QrState(50, 20)
    for col in cols:
        qr_append_column(state, col)
    mat = np.column_stack(cols)
    q_ref, r_ref = householder_qr(mat)
    assert np.linalg.norm(state.q - q_ref) <= 1e-10 * np.linalg.norm(q_ref)
    assert np.linalg.norm(state.r - r_ref) <= 1e-10 * np.linalg.norm(r_ref)


def test_qr_invariants_on_random_appends():
    rng = np.random.default_rng(1)
    state = QrState(30, 10)
    # the second round refills the buffers the first one left behind
    for _ in range(2):
        state.reset()
        cols = []
        for _ in range(10):
            col = rng.standard_normal(30)
            cols.append(col)
            qr_append_column(state, col)
            k = state.ncols
            assert np.abs(state.q.T @ state.q - np.eye(k)).max() < 1e-10
            assert np.all(np.tril(state.r, -1) == 0.0)
            mat = np.column_stack(cols)
            assert np.linalg.norm(state.q @ state.r - mat) < 1e-10 * np.linalg.norm(mat)


def reference_cgs2_append(q_buf, r_buf, k, col):
    """The append as a plain loop over its BLAS calls: CGS2 on a copy,
    coefficients from zeros."""
    q = q_buf[:, :k]
    w = col.copy()
    coeffs = np.zeros(k)
    for _ in range(2 if k else 0):  # f2py refuses a matrix with no columns
        c = dgemv(1.0, q, w, trans=1)
        w = dgemv(-1.0, q, c, 1.0, w)
        coeffs += c
    w_norm = float(np.linalg.norm(w))
    q_buf[:, k] = w / w_norm
    r_buf[:k, k] = coeffs
    r_buf[k, k] = w_norm


def test_qr_append_bit_identical_to_reference_cgs2():
    rng = np.random.default_rng(6)
    n, capacity = 150, 15
    state = QrState(n, capacity)
    q_buf, r_buf = np.zeros((n, capacity), order="F"), np.zeros((capacity, capacity))
    for k in range(capacity):
        col = rng.standard_normal(n) * 10.0 ** rng.integers(-6, 7)
        qr_append_column(state, col)
        reference_cgs2_append(q_buf, r_buf, k, col)
        assert state.q.tobytes() == q_buf[:, : k + 1].tobytes()
        assert state.r.tobytes() == r_buf[: k + 1, : k + 1].tobytes()
    assert state.ncols == state.capacity


@pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
@pytest.mark.parametrize("size", [1, 2, 7, 15, 150, 1040])
def test_dot_norm_bit_identical_to_numpy_norm(scale, size):
    # The norms on the iteration path are math.sqrt(ddot(x, x)), and
    # math.sqrt(x @ x) where x may be empty; both must be the bits of
    # np.linalg.norm(x) for 1-D float vectors.
    rng = np.random.default_rng(size)
    for _ in range(20):
        x = rng.standard_normal(size) * scale
        want = np.float64(np.linalg.norm(x)).tobytes()
        assert np.float64(math.sqrt(x @ x)).tobytes() == want
        assert np.float64(math.sqrt(ddot(x, x))).tobytes() == want


def test_qr_collinear_column_rejected():
    state = QrState(3, 4)
    col = np.array([1.0, 2.0, -1.0])
    qr_append_column(state, col)
    with pytest.raises(ColumnRankDeficient):
        qr_append_column(state, 3.0 * col)
    assert state.ncols == 1  # failed append commits nothing


def test_rank_deficient_append_commits_nothing():
    # The append writes its coefficient workspace before the rank test; a
    # rejected column must leave every exposed factor and bound as it was,
    # and the next append must give the factors of a state that never saw it.
    rng = np.random.default_rng(8)
    cols = [rng.standard_normal(30) for _ in range(3)]
    state, clean = QrState(30, 6), QrState(30, 6)
    for col in cols:
        qr_append_column(state, col)
        qr_append_column(clean, col)

    def snapshot(s):
        return s.q.tobytes(), s.r.tobytes(), s.ncols, s.pivot_min, s.pivot_max

    before = snapshot(state)
    with pytest.raises(ColumnRankDeficient):
        qr_append_column(state, cols[0] - 2.0 * cols[2])
    assert snapshot(state) == before
    good = rng.standard_normal(30)
    qr_append_column(state, good)
    qr_append_column(clean, good)
    assert snapshot(state) == snapshot(clean)


def test_appends_after_a_nan_column_and_reset_match_a_fresh_state():
    # A NaN column leaves NaN in the workspace; the products that refill it
    # (beta = 0) must not read it back.
    rng = np.random.default_rng(9)
    state, fresh = QrState(12, 4), QrState(12, 4)
    for _ in range(2):
        qr_append_column(state, rng.standard_normal(12))
    with np.errstate(invalid="ignore"):
        qr_append_column(state, np.full(12, np.nan))
    state.reset()
    for _ in range(4):
        col = rng.standard_normal(12)
        qr_append_column(state, col)
        qr_append_column(fresh, col)
        assert (state.q.tobytes(), state.r.tobytes()) == (fresh.q.tobytes(), fresh.r.tobytes())


def test_kernels_leave_their_inputs_untouched():
    # The fused updates overwrite their y argument in place where told to;
    # on a caller's array that would corrupt the caller's iterate.
    rng = np.random.default_rng(7)
    state = QrState(20, 4)
    for _ in range(3):  # k = 0 takes its own branch, k > 0 the fused updates
        col = rng.standard_normal(20)
        saved = col.tobytes()
        qr_append_column(state, col)
        assert col.tobytes() == saved
    rhs = rng.standard_normal(20)
    saved = rhs.tobytes()
    eta = qr_solve_ls(state, rhs)
    assert rhs.tobytes() == saved
    # The returned coefficients are the caller's: the next append, which
    # rewrites the workspace, leaves them alone.
    saved = eta.tobytes()
    qr_append_column(state, rng.standard_normal(20))
    assert eta.tobytes() == saved


def test_qr_zero_column_rejected():
    state = QrState(3, 4)
    with pytest.raises(ColumnRankDeficient):
        qr_append_column(state, np.zeros(3))


def test_qr_capacity_enforced():
    state = QrState(2, 1)
    qr_append_column(state, np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        qr_append_column(state, np.array([1.0, -1.0]))


def test_solve_ls_scalar_ratio():
    state = QrState(2, 2)
    qr_append_column(state, np.array([2.0, 0.0]))
    assert_allclose(qr_solve_ls(state, np.array([1.0, 0.0])), [0.5])


def test_solve_ls_orthonormal_square():
    rng = np.random.default_rng(2)
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    state = QrState(5, 5)
    for j in range(5):
        qr_append_column(state, q[:, j])
    rhs = rng.standard_normal(5)
    # R is the identity here, so the solution is just M' rhs.
    assert_allclose(qr_solve_ls(state, rhs), q.T @ rhs, atol=1e-12)


def test_solve_ls_matches_normal_equations():
    rng = np.random.default_rng(3)
    mat = rng.standard_normal((30, 5))
    rhs = rng.standard_normal(30)
    state = QrState(30, 5)
    for j in range(5):
        qr_append_column(state, mat[:, j])
    oracle = np.linalg.solve(mat.T @ mat, mat.T @ rhs)
    got = qr_solve_ls(state, rhs)
    assert np.linalg.norm(got - oracle) <= 1e-8 * max(1.0, np.linalg.norm(oracle))


def test_solve_ls_singular_triangular():
    state = QrState(3, 3)
    qr_append_column(state, np.array([1.0, 0.0, 0.0]))
    qr_append_column(state, np.array([1.0, 1e-13, 0.0]))
    with pytest.raises(SingularTriangular):
        qr_solve_ls(state, np.array([1.0, 1.0, 0.0]))


def test_solve_ls_empty_state():
    with pytest.raises(ValueError):
        qr_solve_ls(QrState(3, 3), np.zeros(3))


@pytest.mark.parametrize("size", [2, 4])
def test_solve_ls_rejects_a_rhs_of_the_wrong_length(size):
    # BLAS reads a prefix of a longer rhs without complaint, and f2py
    # refuses a shorter one with its own exception type.
    state = QrState(3, 3)
    qr_append_column(state, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="shape"):
        qr_solve_ls(state, np.ones(size))


def test_solve_ls_bit_identical_to_solve_triangular():
    # qr_solve_ls calls BLAS dtrsv itself; fed the same q'rhs, its dgemv
    # product, it must give scipy's bits for every column count, the full
    # buffer (a C-contiguous r) included.
    rng = np.random.default_rng(4)
    state = QrState(30, 8)
    for k in range(1, 9):
        qr_append_column(state, rng.standard_normal(30))
        for _ in range(3):
            rhs = rng.standard_normal(30)
            want = solve_triangular(state.r, dgemv(1.0, state.q, rhs, trans=1), lower=False)
            assert qr_solve_ls(state, rhs).tobytes() == want.tobytes()
    assert state.ncols == state.capacity


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solve_ls_rejects_non_finite(bad):
    rng = np.random.default_rng(5)
    state = QrState(6, 3)
    for _ in range(2):
        qr_append_column(state, rng.standard_normal(6))
    rhs = rng.standard_normal(6)
    rhs[3] = bad
    with pytest.raises(ValueError, match="finite"):
        qr_solve_ls(state, rhs)
    # A non-finite column reaches the factor; its NaN pivot passes the ratio test.
    col = rng.standard_normal(6)
    col[0] = bad
    with np.errstate(invalid="ignore"):
        qr_append_column(state, col)
    with pytest.raises(ValueError, match="finite"):
        qr_solve_ls(state, rng.standard_normal(6))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solve_ls_screen_sees_every_entry_of_the_triangle(bad):
    # The finite test screens eta_0; a non-finite entry anywhere above the
    # diagonal or in q'rhs must reach it, even where it multiplies an exact zero.
    def identity_state():
        state = QrState(4, 4)
        for col in np.eye(4):
            qr_append_column(state, col)
        return state

    for i in range(4):
        rhs = np.zeros(4)
        rhs[i] = bad
        with pytest.raises(ValueError, match="finite"), np.errstate(invalid="ignore"):
            qr_solve_ls(identity_state(), rhs)  # q'rhs forms inf * 0
        for j in range(i + 1, 4):
            state = identity_state()
            state._r[i, j] = bad
            for rhs in (np.zeros(4), np.eye(4)[j]):
                with pytest.raises(ValueError, match="finite"):
                    qr_solve_ls(state, rhs)
    # A row that no column of q touches: only inf * 0 brings it into q'rhs.
    state = QrState(5, 4)
    for col in np.eye(5)[:4]:
        qr_append_column(state, col)
    with pytest.raises(ValueError, match="finite"), np.errstate(invalid="ignore"):
        qr_solve_ls(state, np.array([0.0, 0.0, 0.0, 0.0, bad]))


def test_solve_ls_overflowing_eta_is_returned():
    # Finite data whose solution overflows passes the finite test, as the
    # entrywise test decides once the screen trips.
    state = QrState(2, 2)
    qr_append_column(state, np.array([1.0, 0.0]))
    qr_append_column(state, np.array([1.0, 1e-10]))
    with np.errstate(over="ignore"):
        eta = qr_solve_ls(state, np.array([0.0, 1e300]))
    assert not np.isfinite(eta).all()


def test_reset_clears_the_pivot_bounds():
    # A negligible or a NaN pivot decides the solve only until a reset.
    state = QrState(3, 3)
    qr_append_column(state, np.array([1.0, 0.0, 0.0]))
    qr_append_column(state, np.array([1.0, 1e-13, 0.0]))
    with pytest.raises(SingularTriangular):
        qr_solve_ls(state, np.ones(3))
    with np.errstate(invalid="ignore"):
        qr_append_column(state, np.array([np.nan, 0.0, 1.0]))
    with pytest.raises(ValueError, match="finite"):
        qr_solve_ls(state, np.ones(3))
    state.reset()
    qr_append_column(state, np.array([0.0, 2.0, 0.0]))
    qr_append_column(state, np.array([0.0, 0.0, 4.0]))
    assert (state.pivot_min, state.pivot_max) == (2.0, 4.0)
    assert_allclose(qr_solve_ls(state, np.array([1.0, 2.0, 3.0])), [1.0, 0.75])


@pytest.mark.parametrize("nan_at", [0, 2])
def test_solve_ls_nan_pivot_passes_ratio_test(nan_at):
    # A NaN anywhere on the diagonal passes the ratio test, as it does with
    # numpy's NaN-propagating min and max, even beside a negligible pivot;
    # the finite check then raises.  The append records NaN pivot bounds,
    # so where the NaN sits on the diagonal does not matter.
    state = QrState(4, 3)
    qr_append_column(state, np.array([1.0, 0.0, 0.0, 0.0]))
    qr_append_column(state, np.array([1.0, 1e-13, 0.0, 0.0]))
    with pytest.raises(SingularTriangular):
        qr_solve_ls(state, np.ones(4))
    with np.errstate(invalid="ignore"):
        qr_append_column(state, np.array([0.0, 0.0, np.nan, 1.0]))
    if nan_at == 0:
        state._r[0, 0], state._r[2, 2] = state._r[2, 2], state._r[0, 0]
    assert np.isnan(state._r[nan_at, nan_at])
    with pytest.raises(ValueError, match="finite"):
        qr_solve_ls(state, np.ones(4))


def test_solve_ls_exact_zero_diagonal():
    # The ratio test raises on a zero pivot.  Writing the diagonal by hand
    # means writing the pivot bound an append of that column would have
    # recorded.
    state = QrState(3, 3)
    qr_append_column(state, np.array([1.0, 0.0, 0.0]))
    qr_append_column(state, np.array([1.0, 1.0, 0.0]))
    state._r[1, 1] = 0.0
    state.pivot_min = 0.0
    with pytest.raises(SingularTriangular):
        qr_solve_ls(state, np.array([1.0, 1.0, 0.0]))


def test_solve_ls_nan_diagonal_is_caught_by_the_eta0_screen():
    # NaN pivot bounds pass the ratio test, so the screen on eta_0 alone must
    # reject a NaN at any diagonal position, for every stored column count,
    # a zero rhs included.
    rng = np.random.default_rng(6)
    for k in range(1, 16):
        for i in range(k):
            for rhs in (rng.standard_normal(20), np.zeros(20)):
                state = QrState(20, 15)
                for _ in range(k):
                    qr_append_column(state, rng.standard_normal(20))
                state._r[i, i] = np.nan
                state.pivot_min = state.pivot_max = np.nan
                with pytest.raises(ValueError, match="finite"):
                    qr_solve_ls(state, rhs)
