import math
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from fpaccel.cones import (
    BOX,
    KINDS,
    NONNEG,
    PSD_TRIANGLE,
    SECOND_ORDER,
    ZERO,
    ConeBlock,
    cone_support,
    in_recession_of_negation,
    project_cone,
    smat,
    svec,
    triangle_side,
)


def random_block(kind, rng):
    if kind == ZERO:
        return ConeBlock(ZERO, 4)
    if kind == NONNEG:
        return ConeBlock(NONNEG, 6)
    if kind == BOX:
        lo = np.sort(rng.standard_normal(5))
        hi = lo + rng.uniform(0.1, 2.0, 5)
        lo[0], hi[-1] = -np.inf, np.inf
        return ConeBlock(BOX, 5, l=lo, u=hi)
    if kind == SECOND_ORDER:
        return ConeBlock(SECOND_ORDER, 5)
    return ConeBlock(PSD_TRIANGLE, 10)  # 4x4 matrices


def test_block_validation():
    with pytest.raises(ValueError):
        ConeBlock("simplex", 3)
    with pytest.raises(ValueError):
        ConeBlock(PSD_TRIANGLE, 4)  # not triangular
    # l > u, a NaN bound, l = inf and u = -inf: no point meets the bounds.
    for l, u in (([1.0, 0.0], [0.0, 1.0]), ([0.0, np.nan], [1.0, 1.0]),
                 ([np.nan, 0.0], [np.nan, 1.0]), ([np.inf, 0.0], [np.inf, 1.0]),
                 ([0.0, -np.inf], [1.0, -np.inf])):
        with pytest.raises(ValueError, match="box bounds need"):
            ConeBlock(BOX, 2, l=l, u=u)
    assert ConeBlock(BOX, 2, l=[-np.inf, 0.0], u=[np.inf, 0.0]).u[1] == 0.0
    with pytest.raises(ValueError):
        ConeBlock(NONNEG, 2, l=[0.0, 0.0])
    for kind, dim in ((PSD_TRIANGLE, 3.0), (NONNEG, 2.5), (NONNEG, True), (NONNEG, "2"),
                      (NONNEG, 0), (ZERO, -1), (NONNEG, None)):
        with pytest.raises(ValueError, match="cone dimension must be an integer of at least 1"):
            ConeBlock(kind, dim)
    assert ConeBlock(PSD_TRIANGLE, 6).side == 3
    assert ConeBlock(NONNEG, np.int64(2)).dim == 2


def test_svec_smat_round_trip():
    rng = np.random.default_rng(0)
    G = rng.standard_normal((5, 5))
    S = 0.5 * (G + G.T)
    vec = svec(S)
    assert vec.size == 15
    assert_allclose(smat(vec), S)
    # scaled triangle keeps the Frobenius norm
    assert abs(np.linalg.norm(vec) - np.linalg.norm(S)) < 1e-12
    assert triangle_side(15) == 5
    # column-major lower triangle, off-diagonals scaled by sqrt(2)
    S3 = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [3.0, 5.0, 6.0]])
    r2 = math.sqrt(2.0)
    assert_allclose(svec(S3), [1.0, 2.0 * r2, 3.0 * r2, 4.0, 5.0 * r2, 6.0], rtol=1e-15)
    assert_allclose(smat(svec(S3)), S3, rtol=1e-15)
    assert_allclose(smat(svec(np.array([[7.0]]))), [[7.0]])


def test_projection_values():
    assert_allclose(project_cone(ConeBlock(NONNEG, 2), np.array([1.0, -2.0])), [1.0, 0.0])
    assert_allclose(project_cone(ConeBlock(ZERO, 3), np.ones(3)), np.zeros(3))
    box = ConeBlock(BOX, 2, l=[0.0, -1.0], u=[1.0, 1.0])
    assert_allclose(project_cone(box, np.array([2.0, -5.0])), [1.0, -1.0])
    # t = 0, x = (2, 0): scale (t + |x|)/2 = 1 along (1, x/|x|)
    assert_allclose(project_cone(ConeBlock(SECOND_ORDER, 3), np.array([0.0, 2.0, 0.0])), [1.0, 1.0, 0.0])
    got = project_cone(ConeBlock(PSD_TRIANGLE, 3), svec(np.diag([1.0, -1.0])))
    assert_allclose(smat(got), np.diag([1.0, 0.0]), atol=1e-13)


def test_soc_interior_and_polar():
    soc = ConeBlock(SECOND_ORDER, 3)
    inside = np.array([2.0, 1.0, 0.5])
    assert_allclose(project_cone(soc, inside), inside)
    polar = np.array([-2.0, 1.0, 0.5])  # in -K, projects to the origin
    assert_allclose(project_cone(soc, polar), np.zeros(3))


@pytest.mark.parametrize("kind", [ZERO, NONNEG, BOX, SECOND_ORDER, PSD_TRIANGLE])
def test_projection_idempotent_and_nonexpansive(kind):
    rng = np.random.default_rng(zlib.crc32(kind.encode()))
    block = random_block(kind, rng)
    for _ in range(1000):
        u = 3.0 * rng.standard_normal(block.dim)
        w = 3.0 * rng.standard_normal(block.dim)
        pu = project_cone(block, u)
        pw = project_cone(block, w)
        assert np.linalg.norm(project_cone(block, pu) - pu) <= 1e-12 * (1 + np.linalg.norm(pu))
        assert np.linalg.norm(pu - pw) <= np.linalg.norm(u - w) + 1e-12


# Rounding allowance of the projection identities, relative to ||v||
# (||v||^2 for the inner product).
PROJECTION_RTOL = 1e-12


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    block=st.one_of(
        st.builds(ConeBlock, st.just(NONNEG), st.integers(1, 8)),
        st.builds(ConeBlock, st.just(SECOND_ORDER), st.integers(2, 8)),
        st.builds(ConeBlock, st.just(PSD_TRIANGLE), st.sampled_from([1, 3, 6, 10])),
    ),
    scale=st.floats(-3.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_self_dual_projection_identities(block, scale, seed):
    # Idempotence, and Moreau's decomposition for a self-dual cone:
    # v = P(v) - P(-v) with P(v) orthogonal to P(-v).
    v = 10.0**scale * np.random.default_rng(seed).standard_normal(block.dim)
    pos, neg = project_cone(block, v), project_cone(block, -v)
    norm = np.linalg.norm(v)
    assert np.linalg.norm(project_cone(block, pos) - pos) <= PROJECTION_RTOL * norm
    assert np.linalg.norm(v - (pos - neg)) <= PROJECTION_RTOL * norm
    assert abs(pos @ neg) <= PROJECTION_RTOL * norm**2


# The projection calls LAPACK dsyevd through scipy and the reference calls it
# through numpy's eigh; numpy and scipy may ship different OpenBLAS builds, so
# agreement is required up to rounding, relative to 1 + ||v||.
PSD_REFERENCE_RTOL = 1e-14


@settings(derandomize=True, max_examples=150, deadline=None)
@given(side=st.integers(1, 30), scale=st.floats(-8.0, 8.0), seed=st.integers(0, 2**32 - 1))
@example(side=26, scale=8.0, seed=0)
@example(side=30, scale=-8.0, seed=1)
def test_psd_projection_matches_the_eigh_reference(side, scale, seed):
    block = ConeBlock(PSD_TRIANGLE, side * (side + 1) // 2)
    v = 10.0**scale * np.random.default_rng(seed).standard_normal(block.dim)
    vals, vecs = np.linalg.eigh(smat(v))
    reference = svec((vecs * np.maximum(vals, 0.0)) @ vecs.T)
    err = np.abs(project_cone(block, v) - reference).max()
    assert err <= PSD_REFERENCE_RTOL * (1.0 + np.linalg.norm(v))


@pytest.mark.parametrize("kind", KINDS)
def test_projection_leaves_its_input_unchanged(kind):
    rng = np.random.default_rng(zlib.crc32(kind.encode()))
    blocks = [random_block(kind, rng)]
    if kind == PSD_TRIANGLE:
        blocks.append(ConeBlock(PSD_TRIANGLE, 78))  # 12x12 matrices
    for block in blocks:
        v = 3.0 * rng.standard_normal(block.dim)
        before = v.copy()
        v.flags.writeable = False  # an in-place write raises
        project_cone(block, v)
        assert np.array_equal(v, before)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("side", [1, 2, 3, 10])
def test_psd_projection_of_a_non_finite_block_is_non_finite(side, bad):
    # Where the eigensolver does not converge the block comes back as NaN, so
    # the operator reports divergence instead of raising from LAPACK.
    block = ConeBlock(PSD_TRIANGLE, side * (side + 1) // 2)
    one_bad = np.ones(block.dim)
    one_bad[block.dim // 2] = bad
    for v in (np.full(block.dim, bad), one_bad):
        if side == 1 and bad == -np.inf:
            # A 1x1 block is the nonneg ray, onto which -inf projects to 0.
            assert np.array_equal(project_cone(block, v), [0.0])
        else:
            assert not np.isfinite(project_cone(block, v)).all()


def test_recession_of_negation():
    tol = 1e-9
    assert in_recession_of_negation(ConeBlock(ZERO, 2), np.zeros(2), tol)
    assert not in_recession_of_negation(ConeBlock(ZERO, 2), np.array([1e-3, 0.0]), tol)
    assert in_recession_of_negation(ConeBlock(NONNEG, 2), np.array([-1.0, 0.0]), tol)
    assert not in_recession_of_negation(ConeBlock(NONNEG, 2), np.array([1.0, -1.0]), tol)

    box = ConeBlock(BOX, 2, l=[0.0, -np.inf], u=[1.0, 1.0])
    # first coord has finite bounds -> must vanish; second has a finite
    # upper bound only, so the slack may only grow downward (d >= 0)
    assert in_recession_of_negation(box, np.array([0.0, 2.0]), tol)
    assert not in_recession_of_negation(box, np.array([0.5, 2.0]), tol)
    assert not in_recession_of_negation(box, np.array([0.0, -2.0]), tol)

    soc = ConeBlock(SECOND_ORDER, 3)
    assert in_recession_of_negation(soc, np.array([-2.0, 1.0, 0.0]), tol)
    assert not in_recession_of_negation(soc, np.array([2.0, 1.0, 0.0]), tol)

    psd = ConeBlock(PSD_TRIANGLE, 3)
    assert in_recession_of_negation(psd, svec(-np.eye(2)), tol)
    assert not in_recession_of_negation(psd, svec(np.diag([1.0, -1.0])), tol)


def test_cone_support():
    tol = 1e-9
    assert cone_support(ConeBlock(ZERO, 2), np.array([5.0, -3.0]), tol) == 0.0
    assert cone_support(ConeBlock(NONNEG, 2), np.array([-1.0, 0.0]), tol) == 0.0
    assert cone_support(ConeBlock(NONNEG, 2), np.array([0.1, -1.0]), tol) == math.inf

    box = ConeBlock(BOX, 2, l=[-1.0, 0.0], u=[2.0, 3.0])
    assert cone_support(box, np.array([1.0, -1.0]), tol) == pytest.approx(2.0 + 0.0)
    unbounded = ConeBlock(BOX, 1, l=[0.0], u=[np.inf])
    assert cone_support(unbounded, np.array([1.0]), tol) == math.inf

    soc = ConeBlock(SECOND_ORDER, 3)
    assert cone_support(soc, np.array([-2.0, 1.0, 0.0]), tol) == 0.0
    assert cone_support(soc, np.array([1.0, 2.0, 0.0]), tol) == math.inf

    psd = ConeBlock(PSD_TRIANGLE, 3)
    assert cone_support(psd, svec(-np.eye(2)), tol) == 0.0
    assert cone_support(psd, svec(np.diag([1.0, -3.0])), tol) == math.inf


# The certificate predicates read cone membership off project_cone.  Their
# properties are checked at the solver's default eps_infeas, on vectors whose
# magnitudes run from rounding level to ten.
CERT_TOL = 1e-6


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    d=st.lists(
        st.one_of(
            st.floats(-10.0, 10.0),
            st.floats(-3 * CERT_TOL, 3 * CERT_TOL),
            st.sampled_from([CERT_TOL, -CERT_TOL, 0.0, -0.0]),
        ),
        min_size=1,
        max_size=8,
    ).map(np.array)
)
def test_polyhedral_certificate_predicates_match_closed_forms(d):
    # Exact on every vector: x + (-x) is exactly 0 in floating point.
    zero, nonneg = ConeBlock(ZERO, d.size), ConeBlock(NONNEG, d.size)
    assert in_recession_of_negation(zero, d, CERT_TOL) == (np.abs(d).max() <= CERT_TOL)
    assert in_recession_of_negation(nonneg, d, CERT_TOL) == (d.max() <= CERT_TOL)
    assert cone_support(zero, d, CERT_TOL) == 0.0
    assert cone_support(nonneg, d, CERT_TOL) == (0.0 if d.max() <= CERT_TOL else math.inf)


def _closed_form_margin(block, v):
    """||v[1:]|| + v[0] for a second-order cone, the largest eigenvalue for PSD.

    v lies in -K within tol (the direction test) and in the polar cone within
    tol (the support test) when this margin is at most tol.
    """
    if block.kind == SECOND_ORDER:
        return float(np.linalg.norm(v[1:]) + v[0])
    return float(np.linalg.eigvalsh(smat(v)).max())


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    block=st.one_of(
        st.builds(ConeBlock, st.just(SECOND_ORDER), st.integers(2, 8)),
        st.builds(ConeBlock, st.just(PSD_TRIANGLE), st.sampled_from([1, 3, 6, 10, 15])),
    ),
    scale=st.floats(-8.0, 1.0),
    margin=st.one_of(st.none(), st.floats(-20.0, 20.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_conic_certificate_predicates_match_closed_forms(block, scale, margin, seed):
    # The infinity norm the predicates test lies in [margin/2, margin] (soc)
    # or [margin/side, margin] (psd) for a positive closed-form margin and is
    # 0 otherwise, so old and new decisions must agree, up to rounding, when
    # the margin is at most tol/2 or above dim * tol.  `margin` (in units of tol)
    # moves v onto a chosen margin, so that both sides of tol are drawn.
    v = 10.0**scale * np.random.default_rng(seed).standard_normal(block.dim)
    if margin is not None:
        if block.kind == SECOND_ORDER:
            v[0] = margin * CERT_TOL - np.linalg.norm(v[1:])
        else:
            v -= (_closed_form_margin(block, v) - margin * CERT_TOL) * svec(np.eye(block.side))
    closed = _closed_form_margin(block, v)
    support = cone_support(block, v, CERT_TOL)
    assert support in (0.0, math.inf)
    if closed <= CERT_TOL / 2 or closed > block.dim * CERT_TOL:
        assert in_recession_of_negation(block, v, CERT_TOL) == (closed <= CERT_TOL)
        assert (support == 0.0) == (closed <= CERT_TOL)
