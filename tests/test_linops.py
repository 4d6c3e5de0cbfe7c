import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from splitbreg import linops
from splitbreg._checks import NonFiniteData
from splitbreg.linops import (
    BlockRow,
    DenseMatrix,
    Grad2D,
    PartialDCT,
    ScaledIdentity,
    SparseOperator,
    ZeroOperator,
    build_parallel_projector,
    dct_row,
    operator_norm,
)


def _check_adjoint(op, rng, trials=10):
    m, n = op.shape
    for _ in range(trials):
        x = rng.standard_normal(n)
        y = rng.standard_normal(m)
        lhs = np.dot(op.apply(x), y)
        rhs = np.dot(x, op.apply_adjoint(y))
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_dense_matrix_basics():
    a = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    op = DenseMatrix(a)
    assert op.shape == (3, 2)
    np.testing.assert_allclose(op.apply(np.array([1.0, 1.0])), [3.0, 7.0, 11.0])
    np.testing.assert_allclose(op.row(1), [3.0, 4.0])
    np.testing.assert_allclose(op.to_dense(), a)
    _check_adjoint(op, np.random.default_rng(0))
    with pytest.raises(ValueError):
        DenseMatrix(np.zeros(3))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 30),
    st.integers(32, 320),
    st.integers(0, 10),
    st.integers(0, 10),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
@example(m=3, n=64, k=0, neg_zeros=0, nan=False, seed=0)  # empty support
@example(m=3, n=64, k=0, neg_zeros=5, nan=False, seed=0)  # only -0.0 entries
@example(m=3, n=64, k=1, neg_zeros=0, nan=True, seed=0)
def test_dense_gathered_product_matches_the_full_one(m, n, k, neg_zeros, nan, seed):
    # x has at most n/32 nonzeros, so apply gathers their columns. Each
    # summation order is within gamma_n ~ n eps / 2 of the exact sum of the
    # products (Higham, Accuracy and Stability of Numerical Algorithms, 3.1),
    # so the two differ by about n eps |a| @ |x| at most; 2 n eps leaves room
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n))
    a[rng.random((m, n)) < 0.1] = 0.0
    x = np.zeros(n)
    where = rng.permutation(n)
    k = min(k, n // 32)
    x[where[:k]] = rng.standard_normal(k) * 10.0 ** rng.uniform(-5, 5, k)
    x[where[k:k + neg_zeros]] = -0.0
    if nan and k:
        x[where[0]] = np.nan
    got, want = DenseMatrix(a).apply(x), a @ x
    assert got.shape == (m,)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    finite = ~np.isnan(want)
    bound = 2 * n * np.finfo(float).eps * (np.abs(a) @ np.abs(np.nan_to_num(x)))
    assert np.all(np.abs(got - want)[finite] <= bound[finite])


def test_dense_product_keeps_the_nan_of_an_inf_times_zero():
    # x_1 = 0 meets an inf in column 1: the full product is NaN there, and the
    # gather, which would skip column 1, is not taken for a non-finite matrix
    a = np.ones((2, 64))
    a[0, 1] = np.inf
    x = np.zeros(64)
    x[0] = 1.0
    with np.errstate(invalid="ignore"):
        got, want = DenseMatrix(a).apply(x), a @ x
    assert np.isnan(got[0]) and got[1] == 1.0
    np.testing.assert_array_equal(got, want)
    a[0, 1] = 1.0
    np.testing.assert_array_equal(DenseMatrix(a).apply(x), [1.0, 1.0])
    for bad in (-np.inf, np.nan):
        a[1, 2] = bad
        with np.errstate(invalid="ignore"):
            got = DenseMatrix(a).apply(x)
        assert got[0] == 1.0 and np.isnan(got[1])


def test_dense_product_checks_the_length_of_x():
    op = DenseMatrix(np.ones((2, 64)))
    with pytest.raises(ValueError):
        op.apply(np.zeros(63))


@pytest.mark.parametrize(
    "call, name, want, given",
    [
        (lambda: BlockRow([DenseMatrix(np.eye(2))] * 2).apply(np.ones(5)), "x", 4, 5),
        (lambda: BlockRow([ZeroOperator(2, 3)]).apply_adjoint(np.ones(3)), "y", 2, 3),
        (lambda: ScaledIdentity(3, 2.0).apply(np.ones(5)), "x", 3, 5),
        (lambda: ZeroOperator(2, 3).apply(np.ones(7)), "x", 3, 7),
        (lambda: ZeroOperator(2, 3).apply_adjoint(np.ones(9)), "y", 2, 9),
        (lambda: Grad2D(2, 2).apply_adjoint(np.ones(12)), "y", 8, 12),
        (lambda: Grad2D(2, 2).apply(np.ones((3, 2))), "x", 4, 6),
    ],
)
def test_matrix_free_products_check_the_input_length(call, name, want, given):
    # ``name`` is the argument the product was handed
    message = rf"^{name} must be a vector of length {want}, not of shape \({given},\)$"
    with pytest.raises(ValueError, match=message):
        call()


def test_grad2d_takes_an_image_or_its_flat_rows():
    g, image = Grad2D(2, 3), np.arange(6.0).reshape(2, 3)
    assert g.apply(image).tobytes() == g.apply(image.ravel()).tobytes()


def test_operator_norm_diagonal():
    op = DenseMatrix(np.diag([3.0, 1.0]))
    assert op.norm_estimate() == pytest.approx(3.0, rel=1e-6)


def test_operator_norm_matches_svd():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((7, 5))
    op = DenseMatrix(a)
    want = np.linalg.svd(a, compute_uv=False)[0]
    assert op.norm_estimate() == pytest.approx(want, rel=1e-4)


def test_operator_norm_cached():
    op = DenseMatrix(np.eye(3))
    first = op.norm_estimate()
    assert op.norm_estimate() is first or op.norm_estimate() == first
    assert op._norm is not None
    with pytest.raises(TypeError):
        op.norm_estimate(tol=0.1)  # no per-call settings a cached value would ignore


def test_operator_norm_warns_on_cap():
    op = DenseMatrix(np.diag([2.0, 1.0]))
    with pytest.warns(UserWarning):
        operator_norm(op, tol=1e-16, max_iter=1)


def test_operator_norm_stops_at_the_first_non_finite_product():
    # one NaN entry: the first product's norm is NaN, and the estimate stops
    # there instead of running to its cap and returning NaN
    from splitbreg import comparator
    from splitbreg.experiments import certify_lambda

    a = np.arange(12.0).reshape(3, 4)
    a[1, 2] = np.nan

    class Counted(DenseMatrix):
        products = 0

        def apply(self, x):
            Counted.products += 1
            return super().apply(x)

    with pytest.raises(NonFiniteData, match="^operator norm estimate"):
        operator_norm(Counted(a))
    assert Counted.products == 1
    with pytest.raises(NonFiniteData, match="^operator norm estimate"):
        DenseMatrix(a).norm_estimate()
    cfg = comparator.PDConfig(lam=1.0, op=DenseMatrix(a), b=np.ones(3), delta=0.0)
    with pytest.raises(NonFiniteData):
        comparator.run_pd(cfg)
    with pytest.raises(NonFiniteData):
        certify_lambda(DenseMatrix(a), np.ones(4), np.ones(3))


def test_scaled_identity_and_zero():
    s = ScaledIdentity(3, -2.0)
    np.testing.assert_allclose(s.apply(np.array([1.0, 2.0, 3.0])), [-2.0, -4.0, -6.0])
    np.testing.assert_allclose(s.row(1), [0.0, -2.0, 0.0])
    assert s.norm_estimate() == 2.0
    z = ZeroOperator(2, 4)
    np.testing.assert_allclose(z.apply(np.ones(4)), np.zeros(2))
    np.testing.assert_allclose(z.apply_adjoint(np.ones(2)), np.zeros(4))
    assert z.norm_estimate() == 0.0
    # power iteration meets A^T A v = 0 at its start: 0, not 0 / 0
    assert operator_norm(z) == 0.0
    np.testing.assert_array_equal(z.row(1), np.zeros(4))
    _check_adjoint(s, np.random.default_rng(2))
    _check_adjoint(z, np.random.default_rng(3))


def test_sparse_operator_rows_and_adjoint():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((4, 6))
    a[a < 0.5] = 0.0
    op = SparseOperator(a)
    np.testing.assert_allclose(op.to_dense(), a)
    np.testing.assert_allclose(op.row(2), a[2])
    _check_adjoint(op, rng)


@pytest.mark.parametrize("cls, key", [(DenseMatrix, "a"), (SparseOperator, "mat")])
@pytest.mark.parametrize(
    "entries, shown",
    [
        (np.ones((2, 2), dtype=bool), "bools"),
        ([[0.5, True]], "bools"),
        ([[np.bool_(False), 1]], "bools"),
        # np.asarray reads a string as the number it spells and None as NaN
        ([["1", "0"]], "'1'"),
        (np.array([["1", "0"]]), "'1'"),
        ([[0.5, None]], "None"),
    ],
    ids=[
        "bool-array", "bool-in-floats", "numpy-bool-in-ints",
        "strings", "string-array", "none-in-floats",
    ],
)
def test_matrix_entries_must_be_real_numbers_not_bools(cls, key, entries, shown):
    with pytest.raises(ValueError, match=f"^{key} must hold real numbers, not {shown}$"):
        cls(entries)


def test_matrix_entries_keep_their_float64_array_and_reject_a_bool_sparse_matrix():
    import scipy.sparse as sp

    a = np.eye(3)
    assert DenseMatrix(a).a is a
    # a 0-d array inside a list is the number it holds
    assert DenseMatrix([[np.array(2.0), 1]]).a.tolist() == [[2.0, 1.0]]
    assert SparseOperator(a).mat.dtype == np.float64
    with pytest.raises(ValueError, match="^mat must hold real numbers, not bools$"):
        SparseOperator(sp.csr_matrix(np.eye(2, dtype=bool)))


def test_block_row_sum():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    c = np.array([[10.0], [20.0]])
    op = BlockRow([DenseMatrix(a), DenseMatrix(c)])
    assert op.shape == (2, 3)
    np.testing.assert_allclose(op.to_dense(), np.hstack([a, c]))
    np.testing.assert_allclose(op.row(0), [1.0, 2.0, 10.0])
    _check_adjoint(op, np.random.default_rng(5))


def test_block_row_validation():
    with pytest.raises(ValueError):
        BlockRow([])
    with pytest.raises(ValueError):
        BlockRow([DenseMatrix(np.eye(2)), DenseMatrix(np.eye(3))])


def test_grad2d_constant_image():
    g = Grad2D(4, 5)
    np.testing.assert_allclose(g.apply(np.full(20, 3.7)), np.zeros(40))


def test_grad2d_matches_dense_and_adjoint():
    g = Grad2D(3, 4)
    dense = g.to_dense()
    rng = np.random.default_rng(7)
    x = rng.standard_normal(12)
    np.testing.assert_allclose(g.apply(x), dense @ x)
    _check_adjoint(g, rng)


def test_grad2d_norm_bound():
    g = Grad2D(6, 7)
    dense = g.to_dense()
    top = np.linalg.svd(dense, compute_uv=False)[0]
    assert g.norm_estimate() == pytest.approx(top, rel=1e-4)
    assert top <= np.sqrt(8.0)


def test_grad2d_pair_groups():
    g = Grad2D(2, 3)
    groups = g.pair_groups()
    assert len(groups) == 6
    np.testing.assert_array_equal(groups[0], [0, 6])
    np.testing.assert_array_equal(groups[5], [5, 11])


def test_grad2d_known_values():
    # 2x2 image [[0, 1], [2, 4]]: x-differences then y-differences
    g = Grad2D(2, 2)
    out = g.apply(np.array([0.0, 1.0, 2.0, 4.0]))
    np.testing.assert_allclose(out, [1.0, 0.0, 2.0, 0.0, 2.0, 3.0, 0.0, 0.0])


def test_dct_rows_orthonormal():
    n = 16
    full = np.stack([dct_row(n, j) for j in range(n)])
    np.testing.assert_allclose(full @ full.T, np.eye(n), atol=1e-12)
    with pytest.raises(ValueError):
        dct_row(4, 4)


def test_partial_dct():
    op = PartialDCT(16, np.array([0, 3, 7]))
    assert op.shape == (3, 16)
    np.testing.assert_allclose(op.to_dense() @ op.to_dense().T, np.eye(3), atol=1e-12)
    assert op.norm_estimate() == 1.0
    with pytest.raises(ValueError):
        PartialDCT(16, np.array([1, 1]))
    _check_adjoint(op, np.random.default_rng(8))


# ---------------------------------------------------------------------------
# parallel-beam projector
# ---------------------------------------------------------------------------


def _sampled_chord(height, width, ang_deg, offset, step=1e-3):
    """Chord length of the ray through the image rectangle, by point sampling."""
    theta = np.deg2rad(ang_deg)
    dx, dy = np.cos(theta), np.sin(theta)
    cx, cy = width / 2.0, height / 2.0
    p0x, p0y = cx - offset * dy, cy + offset * dx
    span = float(np.hypot(height, width))
    ss = np.arange(-span, span, step)
    xs = p0x + ss * dx
    ys = p0y + ss * dy
    inside = (xs >= 0) & (xs <= width) & (ys >= 0) & (ys <= height)
    return float(inside.sum() * step)


def test_projector_axis_aligned_rows():
    # angle 0 with unit-spaced offsets: each ray integrates one pixel row
    proj = build_parallel_projector(4, 4, [0.0], offsets=np.array([-1.5, -0.5, 0.5, 1.5]))
    assert proj.shape == (4, 16)
    img = np.arange(16.0)
    sums = img.reshape(4, 4).sum(axis=1)
    np.testing.assert_allclose(np.sort(proj.apply(img)), np.sort(sums))
    np.testing.assert_allclose(proj.apply(np.ones(16)), np.full(4, 4.0))


def test_projector_diagonal_unit_pixel():
    proj = build_parallel_projector(1, 1, [45.0], offsets=np.array([0.0]))
    np.testing.assert_allclose(proj.apply(np.ones(1)), [np.sqrt(2.0)], atol=1e-12)


def test_projector_chord_lengths():
    rng = np.random.default_rng(9)
    h, w = 5, 7
    angles = [0.0, 30.0, 45.0, 90.0, 137.0]
    proj = build_parallel_projector(h, w, angles, rays_per_angle=9)
    lengths = proj.apply(np.ones(h * w))
    diag = float(np.hypot(h, w))
    offsets = np.linspace(-diag / 2.0, diag / 2.0, 9)
    k = 0
    for a_idx, ang in enumerate(angles):
        for t in offsets:
            want = _sampled_chord(h, w, ang, t)
            if want == 0.0:
                continue  # dropped row
            assert proj.row_angle[k] == a_idx
            assert lengths[k] == pytest.approx(want, abs=5e-3)
            k += 1
    assert k == proj.shape[0]


def test_projector_drops_missing_rays():
    # offsets beyond the diagonal never intersect
    proj = build_parallel_projector(2, 2, [10.0], offsets=np.array([0.0, 50.0]))
    assert proj.shape[0] == 1
    with pytest.raises(ValueError):
        build_parallel_projector(2, 2, [0.0], offsets=np.array([50.0]))


def test_projector_spacing_recorded():
    proj = build_parallel_projector(4, 4, [0.0, 90.0], rays_per_angle=5)
    diag = float(np.hypot(4, 4))
    assert proj.ray_spacing == pytest.approx(diag / 4.0)
    np.testing.assert_allclose(proj.angles_deg, [0.0, 90.0])


_ANGLES5 = [0.0, 30.0, 45.0, 90.0, 180.0]


@pytest.mark.parametrize(
    "height,width,angles,kwargs,digest",
    [
        (64, 64, np.arange(60) * 3.0, dict(rays_per_angle=92),
         "c0bb89e5d02a119eee496f3c15249c000e8f985f40bbe57500133395f528e1f4"),
        (32, 32, np.arange(17) * (180.0 / 17), dict(rays_per_angle=50),
         "d830779b74313b6a3cacf7e7960c591ace85169509e341370adfaa6f0c457223"),
        (16, 16, np.arange(8) * 22.5, dict(rays_per_angle=30),
         "307a1e9bce0e51db1c92797e42fdf527f6b823f8d2e68ad54150d2b4fa7c4194"),
        (20, 33, np.arange(12) * 15.0, dict(rays_per_angle=41),
         "70843a5dab2208afc4d98fc979aeeaa73716d452e8afcd841b00c79edaf0c3f1"),
        (16, 12, _ANGLES5, dict(offsets=[-3.0, 0.0, 0.5, 2.0, 5.0, 40.0]),
         "8556dbb4ec21fcbe0a0debe41848b10902c56a073700c27e22bc1a70345b3b8f"),
        (16, 12, _ANGLES5, dict(offsets=np.linspace(-8.0, 8.0, 33)),
         "9f88c46451aceb24641727ff93eb86e9a058d85a6368f73652a1d58934fe2aac"),
    ],
    ids=["64x64", "32x32", "16x16", "20x33", "explicit-offsets", "grid-offsets"],
)
def test_projector_csr_pinned(height, width, angles, kwargs, digest):
    # SHA-256 of the CSR arrays and the row angles, recorded from a per-ray
    # tracer doing the same float operations: they must not change, bit for bit
    proj = build_parallel_projector(height, width, angles, **kwargs)
    h = hashlib.sha256()
    for a, dtype in (
        (proj.mat.indptr, "<i8"),
        (proj.mat.indices, "<i8"),
        (proj.mat.data, "<f8"),
        (proj.row_angle, "<i8"),
    ):
        h.update(np.ascontiguousarray(a, dtype=dtype).tobytes())
    assert h.hexdigest() == digest


def _pixel_clip_lengths(height, width, p0x, p0y, dx, dy):
    """Length of the line p0 + s*d (|d| = 1) inside each unit pixel, row-major,
    by clipping it against the pixel's x and y slabs."""
    iy, ix = np.divmod(np.arange(height * width), width)
    s_lo = np.full(ix.size, -np.inf)
    s_hi = np.full(ix.size, np.inf)
    inside = np.ones(ix.size, dtype=bool)
    for p, d, lo in ((p0x, dx, ix), (p0y, dy, iy)):
        if abs(d) < 1e-12:  # parallel to the slab, as the projector decides it
            inside &= (lo <= p) & (p <= lo + 1)
        else:
            sa, sb = (lo - p) / d, (lo + 1 - p) / d
            s_lo = np.maximum(s_lo, np.minimum(sa, sb))
            s_hi = np.minimum(s_hi, np.maximum(sa, sb))
    return np.where(inside, np.maximum(s_hi - s_lo, 0.0), 0.0)


@pytest.mark.parametrize("height,width,seed", [(7, 11, 0), (12, 5, 1), (9, 9, 2)])
def test_projector_matches_pixel_clipping(height, width, seed):
    rng = np.random.default_rng(seed)
    angles = np.concatenate([[0.0, 90.0, 180.0, 270.0], rng.uniform(0.0, 360.0, 6)])
    half = float(np.hypot(height, width)) / 2.0
    offsets = np.concatenate([np.arange(-np.floor(half), half, 0.5), rng.uniform(-half, half, 25)])
    proj = build_parallel_projector(height, width, angles, offsets=offsets)
    dense = proj.to_dense()
    cx, cy = width / 2.0, height / 2.0
    on_line = 0
    for a_idx, ang in enumerate(angles):
        theta = np.deg2rad(ang)
        dx, dy = np.cos(theta), np.sin(theta)
        p0x, p0y = cx - offsets * dy, cy + offsets * dx
        want = np.stack(
            [_pixel_clip_lengths(height, width, x, y, dx, dy) for x, y in zip(p0x, p0y)]
        )
        hit = want.max(axis=1) > 1e-12
        got = dense[proj.row_angle == a_idx]
        assert got.shape[0] == hit.sum()
        for row, clip, x, y in zip(got, want[hit], p0x[hit], p0y[hit]):
            # a ray along a grid line touches two pixel rows (or columns); the
            # projector charges the one its midpoints floor to, so only the
            # row sum is defined there
            if abs(dy) < 1e-12 and y == np.round(y):
                on_line += 1
                assert row.sum() == pytest.approx(width, abs=1e-12)
            elif abs(dx) < 1e-12 and x == np.round(x):
                on_line += 1
                assert row.sum() == pytest.approx(height, abs=1e-12)
            else:
                np.testing.assert_allclose(row, clip, rtol=0.0, atol=1e-12)
    assert on_line > 0


def _coo_reference(height, width, angles, offsets):
    """The projector as COO triplets converted with tocsr, tracing one ray at a
    time with the builder's float operations, and each kept row's angle."""
    import scipy.sparse as sp

    rows, cols, vals, row_angle = [], [], [], []
    cx, cy = width / 2.0, height / 2.0
    for a_idx, ang in enumerate(np.asarray(angles, dtype=float)):
        theta = np.deg2rad(ang)
        dx, dy = np.cos(theta), np.sin(theta)
        for t in offsets:
            px, py = cx + t * -dy, cy + t * dx
            s_lo, s_hi, inside, cuts = -np.inf, np.inf, True, []
            for p, d, size in ((px, dx, width), (py, dy, height)):
                if abs(d) < 1e-12:
                    inside &= bool(0.0 <= p <= size)
                else:
                    sa, sb = (0.0 - p) / d, (size - p) / d
                    s_lo = np.maximum(s_lo, np.minimum(sa, sb))
                    s_hi = np.minimum(s_hi, np.maximum(sa, sb))
                    cuts.append((np.arange(size + 1) - p) / d)
            if not (inside and s_hi > s_lo):
                continue
            s = np.sort(np.clip(np.concatenate([[s_lo, s_hi], *cuts]), s_lo, s_hi))
            seg = np.diff(s)
            mids = 0.5 * (s[:-1] + s[1:])
            ix = np.clip(np.floor(px + mids * dx).astype(int), 0, width - 1)
            iy = np.clip(np.floor(py + mids * dy).astype(int), 0, height - 1)
            keep = seg > 1e-12
            if keep.any():
                rows += [len(row_angle)] * int(keep.sum())
                cols += list(iy[keep] * width + ix[keep])
                vals += list(seg[keep])
                row_angle.append(a_idx)
    if not row_angle:
        return None, None
    coo = sp.coo_matrix(
        (np.array(vals), (np.array(rows), np.array(cols))),
        shape=(len(row_angle), height * width),
    )
    return coo.tocsr(), np.array(row_angle)


# angles on the axes and diagonals, where rays run along grid lines and
# through pixel corners, or a hair off them, where rounding splits a pixel's
# segment in two (duplicate entries); mixed with arbitrary ones
_GRID_ANGLES = st.lists(
    st.tuples(
        st.sampled_from([0.0, 45.0, 90.0, 135.0]),
        st.sampled_from([0.0, 0.0, 1e-12, -1e-10, 1e-7, -1e-5]),
    ).map(lambda ab: ab[0] + ab[1]),
    min_size=1,
    max_size=4,
)
_ANY_ANGLES = st.lists(st.floats(-360.0, 360.0), min_size=1, max_size=4)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 20),
    st.integers(1, 20),
    st.one_of(
        _GRID_ANGLES, _ANY_ANGLES, st.tuples(_GRID_ANGLES, _ANY_ANGLES).map(lambda ab: ab[0] + ab[1])
    ),
    st.one_of(
        st.integers(1, 30),
        # offsets on multiples of 1/2 put rays on pixel edges for odd and even
        # sizes alike, which leaves zero-length and split segments
        st.lists(st.integers(-30, 30).map(lambda k: k / 2.0), min_size=1, max_size=12),
        st.lists(st.floats(-16.0, 16.0), min_size=1, max_size=12),
    ),
)
@example(height=4, width=4, angles=[0.0, 45.0, 90.0, 135.0], rays=[-2.0, -0.5, 0.0, 1.0, 2.0])
@example(height=1, width=20, angles=[90.0, 45.0], rays=[-10.0, 0.0, 0.5, 9.5, 10.0])
@example(height=2, width=3, angles=[90.0000001], rays=[0.5, 1.5])  # a duplicate entry
@example(height=3, width=3, angles=[0.0], rays=[40.0])  # no ray meets the image
def test_projector_csr_equals_the_coo_assembly(height, width, angles, rays):
    if isinstance(rays, int):
        kwargs = dict(rays_per_angle=rays)
        diag = float(np.hypot(height, width))
        offsets = np.linspace(-diag / 2.0, diag / 2.0, rays)
    else:
        kwargs = dict(offsets=rays)
        offsets = np.array(rays)
    want, row_angle = _coo_reference(height, width, angles, offsets)
    if want is None:
        with pytest.raises(ValueError, match="no ray intersects the image"):
            build_parallel_projector(height, width, angles, **kwargs)
        return
    got = build_parallel_projector(height, width, angles, **kwargs)
    assert got.shape == want.shape
    assert got.mat.has_canonical_format
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got.mat, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name
    assert np.array_equal(got.row_angle, row_angle)


def test_projector_build_memory_stays_near_the_matrix():
    # the traced peak of a build against the bytes its CSR arrays keep: 4.1x
    # for a COO assembly converted to CSR, 2.2x for per-angle arrays joined
    # into CSR, about 1.35x written into arrays sized from the per-ray bound
    import tracemalloc

    angles = np.arange(60) * 3.0
    build_parallel_projector(64, 64, angles, rays_per_angle=92)  # imports load here
    tracemalloc.start()
    try:
        proj = build_parallel_projector(64, 64, angles, rays_per_angle=92)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = sum(a.nbytes for a in (proj.mat.data, proj.mat.indices, proj.mat.indptr))
    assert peak <= 1.5 * kept, (peak, kept)


def test_projector_raises_when_a_ray_exceeds_its_bound(monkeypatch):
    # the bound sizes the arrays the rays are written into; with it set too
    # low, the build stops before writing past them
    monkeypatch.setattr(linops, "_ROUNDING_SLACK", -3)
    with pytest.raises(RuntimeError, match="keeps more segments than its bound"):
        build_parallel_projector(16, 16, np.arange(8) * 22.5, rays_per_angle=30)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_projector_rejects_non_finite_geometry(bad):
    angles = np.arange(8) * 22.5
    with pytest.raises(ValueError, match="angles_deg"):
        build_parallel_projector(16, 16, np.where(angles == 45.0, bad, angles), rays_per_angle=30)
    offsets = np.linspace(-11.3, 11.3, 24)
    offsets[5] = bad
    with pytest.raises(ValueError, match="offsets"):
        build_parallel_projector(16, 16, angles, offsets=offsets)


@pytest.mark.parametrize(
    "angles,kwargs,match",
    [
        (0.0, dict(rays_per_angle=5), "angles_deg must be a vector"),
        ([[0.0, 90.0]], dict(rays_per_angle=5), "angles_deg must be a vector"),
        ([0.0], dict(offsets=[[-1.5, 1.5]]), "offsets must be a vector"),
        ([0.0], dict(rays_per_angle=2.7), "rays_per_angle must be positive and whole"),
        ([0.0], dict(rays_per_angle=True), "rays_per_angle must be positive and whole"),
        ([0.0], dict(), "need rays_per_angle when offsets are not given"),
        ([0.0], dict(rays_per_angle=2.7, offsets=[-1.5, -0.5, 0.5, 1.5]),
         "give rays_per_angle or offsets, not both"),
    ],
    ids=["scalar-angle", "2d-angles", "2d-offsets", "fractional-rays", "bool-rays", "no-rays",
         "rays-and-offsets"],
)
def test_projector_rejects_malformed_geometry(angles, kwargs, match):
    # named before any ray is traced: 2.7 rays would be 2, and True 1; with
    # offsets as well, the ray count would be ignored
    with pytest.raises(ValueError, match=match):
        build_parallel_projector(4, 4, angles, **kwargs)


@pytest.mark.parametrize("height,width", [(0, 5), (5, 0), (-3, 5)])
def test_projector_rejects_an_empty_grid(height, width):
    with pytest.raises(ValueError, match="height and width"):
        build_parallel_projector(height, width, [0.0, 90.0], rays_per_angle=5)


def test_projector_spacing_ignores_offset_order():
    from splitbreg.experiments import projection_mass_estimate

    offsets = np.linspace(-11.3, 11.3, 24)
    angles = np.arange(8) * 22.5
    up = build_parallel_projector(16, 16, angles, offsets=offsets)
    down = build_parallel_projector(16, 16, angles, offsets=offsets[::-1])
    assert down.ray_spacing == up.ray_spacing > 0.0
    ones = np.ones(256)
    mass = projection_mass_estimate(down, down.apply(ones))
    assert mass == projection_mass_estimate(up, up.apply(ones))
    assert mass == pytest.approx(256.0, rel=0.01)


def test_block_row_zero_blocks_cost_nothing_and_change_no_bit():
    # the reference is the plain sum and concatenation over every block; a
    # negated identity turns +0.0 inputs into -0.0 outputs, which a zero
    # block's +0.0 turns back into +0.0
    rng = np.random.default_rng(4)
    m = 5
    dense = DenseMatrix(rng.standard_normal((m, 3)))
    neg = ScaledIdentity(m, -1.0)
    layouts = [
        ([dense, ZeroOperator(m, 4)], ((3, 7),)),
        ([ZeroOperator(m, 2), ZeroOperator(m, 1), neg], ((0, 2), (2, 3))),
        ([neg, ZeroOperator(m, 2), neg, ZeroOperator(m, 1)], ((5, 7), (12, 13))),
        ([neg, neg], ()),
        ([ZeroOperator(m, 3)], ((0, 3),)),
    ]
    for ops, zero_columns in layouts:
        op = BlockRow(ops)
        assert op.zero_columns == zero_columns
        bounds = list(zip(op.col_offsets[:-1], op.col_offsets[1:]))
        for _ in range(5):
            x = rng.standard_normal(op.shape[1])
            x[rng.random(x.size) < 0.5] = 0.0
            y = rng.standard_normal(m)
            y[rng.random(m) < 0.5] = -0.0
            outs = [b.apply(x[lo:hi]) for b, (lo, hi) in zip(ops, bounds)]
            assert op.apply(x).tobytes() == sum(outs[1:], outs[0]).tobytes()
            adjoint = np.concatenate([b.apply_adjoint(y) for b in ops])
            assert op.apply_adjoint(y).tobytes() == adjoint.tobytes()


@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (4, 1), (3, 7), (6, 6)])
def test_grad2d_matches_the_2d_formulas_bitwise(shape):
    # the flat products against the differences of the 2-D image, signed
    # zeros included
    h, w = shape
    rng = np.random.default_rng(5)
    g = Grad2D(h, w)
    for _ in range(10):
        u = rng.standard_normal((h, w))
        u[rng.random((h, w)) < 0.3] = 0.0
        gx, gy = np.zeros((h, w)), np.zeros((h, w))
        gx[:, :-1] = u[:, 1:] - u[:, :-1]
        gy[:-1, :] = u[1:, :] - u[:-1, :]
        expected = np.concatenate([gx.ravel(), gy.ravel()])
        assert g.apply(u.ravel()).tobytes() == expected.tobytes()
        y = rng.standard_normal(2 * h * w)
        y[rng.random(y.size) < 0.3] = rng.choice([0.0, -0.0])
        p, q = y[: h * w].reshape(h, w), y[h * w :].reshape(h, w)
        out = np.zeros((h, w))
        out[:, 1:] += p[:, :-1]
        out[:, :-1] -= p[:, :-1]
        out[1:, :] += q[:-1, :]
        out[:-1, :] -= q[:-1, :]
        assert g.apply_adjoint(y).tobytes() == out.ravel().tobytes()
