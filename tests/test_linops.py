import hashlib

import numpy as np
import pytest

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


def test_operator_norm_warns_on_cap():
    op = DenseMatrix(np.diag([2.0, 1.0]))
    with pytest.warns(UserWarning):
        operator_norm(op, tol=1e-16, max_iter=1)


def test_scaled_identity_and_zero():
    s = ScaledIdentity(3, -2.0)
    np.testing.assert_allclose(s.apply(np.array([1.0, 2.0, 3.0])), [-2.0, -4.0, -6.0])
    np.testing.assert_allclose(s.row(1), [0.0, -2.0, 0.0])
    assert s.norm_estimate() == 2.0
    z = ZeroOperator(2, 4)
    np.testing.assert_allclose(z.apply(np.ones(4)), np.zeros(2))
    np.testing.assert_allclose(z.apply_adjoint(np.ones(2)), np.zeros(4))
    assert z.norm_estimate() == 0.0
    _check_adjoint(s, np.random.default_rng(2))
    _check_adjoint(z, np.random.default_rng(3))


def test_sparse_operator_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    a = rng.standard_normal((4, 6))
    a[a < 0.5] = 0.0
    op = SparseOperator(a)
    path = tmp_path / "op.mtx"
    op.save(path)
    back = SparseOperator.load(path)
    np.testing.assert_allclose(back.to_dense(), a)
    np.testing.assert_allclose(op.row(2), a[2])
    _check_adjoint(op, rng)


def test_block_row_sum():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    c = np.array([[10.0], [20.0]])
    op = BlockRow([DenseMatrix(a), DenseMatrix(c)], combine="sum")
    assert op.shape == (2, 3)
    np.testing.assert_allclose(op.to_dense(), np.hstack([a, c]))
    np.testing.assert_allclose(op.row(0), [1.0, 2.0, 10.0])
    _check_adjoint(op, np.random.default_rng(5))


def test_block_row_stack():
    a = np.array([[1.0, 2.0]])
    c = np.array([[5.0], [6.0]])
    op = BlockRow([DenseMatrix(a), DenseMatrix(c)], combine="stack")
    assert op.shape == (3, 3)
    want = np.zeros((3, 3))
    want[0, :2] = [1.0, 2.0]
    want[1:, 2] = [5.0, 6.0]
    np.testing.assert_allclose(op.to_dense(), want)
    np.testing.assert_allclose(op.row(1), [0.0, 0.0, 5.0])
    _check_adjoint(op, np.random.default_rng(6))


def test_block_row_validation():
    with pytest.raises(ValueError):
        BlockRow([], combine="sum")
    with pytest.raises(ValueError):
        BlockRow([DenseMatrix(np.eye(2))], combine="glue")
    with pytest.raises(ValueError):
        BlockRow([DenseMatrix(np.eye(2)), DenseMatrix(np.eye(3))], combine="sum")


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
