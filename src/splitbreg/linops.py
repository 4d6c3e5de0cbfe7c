"""Linear operators with explicit adjoints.

The solver only needs matrix-vector products, adjoint products, optional row
access (for Kaczmarz-style row constraints) and a cached operator-norm
estimate, so operators implement exactly that contract. Dense and sparse
matrices wrap numpy/scipy storage; the discrete gradient and the parallel-beam
projector are assembled here. Every product checks its input as a vector of
the operator's width (named x) or height (named y); Grad2D's forward product
also takes the h x w image itself.
"""

import warnings

import numpy as np

from ._checks import (
    NonFiniteData, _check_distinct, _check_indices, _check_whole, _matrix, _nonnegative, _real,
    _reals, _vector,
)


class LinearOperator:
    """A linear map with an explicit adjoint. Subclasses set ``shape = (m, n)``."""

    shape = (0, 0)

    def apply(self, x):
        raise NotImplementedError

    def apply_adjoint(self, y):
        raise NotImplementedError

    def row(self, i):
        raise NotImplementedError(f"{type(self).__name__} has no row access")

    def norm_estimate(self):
        """Largest singular value by power iteration (operator_norm's defaults),
        cached after the first call."""
        if getattr(self, "_norm", None) is None:
            self._norm = operator_norm(self)
        return self._norm

    def to_dense(self):
        eye = np.eye(self.shape[1])
        return np.stack([self.apply(eye[:, j]) for j in range(self.shape[1])], axis=1)


def operator_norm(op, tol=1e-6, max_iter=1000):
    """Estimate ||A||_2 by power iteration on A^T A.

    Deterministic start vector; stops when the Rayleigh quotient changes by
    less than ``tol`` relatively. Warns and returns the best estimate if the
    cap is hit. ``tol`` must be a real number >= 0 (+inf stops after one
    step) and ``max_iter`` a whole number >= 1. Raises NonFiniteData at the
    first product A^T A v whose norm is not finite (an operator holding a
    NaN or an infinity): no estimate can follow from it.
    """
    tol = _nonnegative("tol", tol, bound=True)
    max_iter = _check_whole("max_iter", max_iter)
    m, n = op.shape
    if m == 0 or n == 0:
        return 0.0
    rng = np.random.default_rng(0)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(max_iter):
        z = op.apply_adjoint(op.apply(v))
        zn = np.linalg.norm(z)
        if not np.isfinite(zn):
            raise NonFiniteData(f"operator norm estimate: a product A^T A v has norm {zn}")
        lam_new = float(np.dot(v, z))
        if zn == 0.0:
            return 0.0
        v = z / zn
        if abs(lam_new - lam) <= tol * abs(lam_new):
            return float(np.sqrt(lam_new))
        lam = lam_new
    warnings.warn("power iteration hit its cap; returning the best estimate")
    return float(np.sqrt(lam))


# A x gathers the columns of x's nonzeros when at most 1/_GATHER_FACTOR of x
# is nonzero. Measured on a 2-vCPU Xeon with one BLAS thread, x with k
# nonzeros: at 400 x 1600 the gather costs 17 us at k = 10, 50 us at k = 50
# (n/32) and 196 us at k = 100 against about 250 us for the full product; at
# 200 x 1000 it wins up to about n/10. Below about 100 x 200 both take a few us.
_GATHER_FACTOR = 32


class DenseMatrix(LinearOperator):
    """Operator backed by a dense numpy array.

    A forward product with a vector whose nonzeros are few (at most n/32)
    reads only their columns, so its cost scales with the support of x; the
    linearized Bregman primal is sparse, so its products are mostly gathered.
    The gather sums in another order than ``a @ x``, so the two differ by
    rounding (at most about n eps |a| @ |x|). It is taken only when ``a`` is
    all finite, a verdict taken at construction (``a`` must not change
    afterwards): a zero x_j times an inf in column j is NaN in the full
    product, which the gather would skip."""

    def __init__(self, a):
        self.a = _matrix("a", a)
        self.shape = self.a.shape
        # min and max are finite exactly when every entry is (NaN propagates
        # through both); unlike np.isfinite(a) they allocate no m x n temporary
        a = self.a
        self._finite = a.size == 0 or bool(np.isfinite(a.min()) and np.isfinite(a.max()))

    def apply(self, x):
        x = _vector("x", x, self.shape[1])
        if self._finite:
            nz = (x != 0.0).nonzero()[0]  # NaN entries count, -0.0 ones do not
            if _GATHER_FACTOR * nz.size <= x.size:
                return self.a[:, nz] @ x[nz]
        return self.a @ x

    def apply_adjoint(self, y):
        return self.a.T @ _vector("y", y, self.shape[0])

    def row(self, i):
        return self.a[i]

    def to_dense(self):
        return self.a


def as_operator(a):
    """``a`` itself when it is a LinearOperator, else a DenseMatrix around it."""
    return a if isinstance(a, LinearOperator) else DenseMatrix(a)


class SparseOperator(LinearOperator):
    """Operator backed by a scipy CSR matrix."""

    def __init__(self, mat):
        import scipy.sparse as sp  # deferred: dense-only runs never load it

        # a sparse input is read through its stored entries
        self.mat = sp.csr_matrix(mat if sp.issparse(mat) else _matrix("mat", mat))
        _reals("mat", self.mat.data)
        self._mat_t = self.mat.T  # a CSC view over the same arrays, built once
        self.shape = self.mat.shape

    def apply(self, x):
        return self.mat @ _vector("x", x, self.shape[1])

    def apply_adjoint(self, y):
        return self._mat_t @ _vector("y", y, self.shape[0])

    def row(self, i):
        return self.mat.getrow(i).toarray().ravel()

    def to_dense(self):
        return self.mat.toarray()


class ScaledIdentity(LinearOperator):
    """c * I on n coordinates."""

    def __init__(self, n, scale=1.0):
        n = _check_whole("n", n, low=0)
        self.shape = (n, n)
        self.scale = _real("scale", scale)
        self._norm = abs(self.scale)

    def apply(self, x):
        return self.scale * _vector("x", x, self.shape[1])

    apply_adjoint = apply  # c * I is self-adjoint

    def row(self, i):
        r = np.zeros(self.shape[1])
        r[i] = self.scale
        return r


class ZeroOperator(LinearOperator):
    """The zero map R^n -> R^m."""

    def __init__(self, m, n):
        self.shape = (_check_whole("m", m, low=0), _check_whole("n", n, low=0))
        self._norm = 0.0

    def apply(self, x):
        _vector("x", x, self.shape[1])
        return np.zeros(self.shape[0])

    def apply_adjoint(self, y):
        _vector("y", y, self.shape[0])
        return np.zeros(self.shape[1])

    def row(self, i):
        return np.zeros(self.shape[1])


class BlockRow(LinearOperator):
    """The block row [B_1 B_2 ...]: operators with one output length acting on
    consecutive disjoint blocks of the input, their outputs added up.

    ``zero_columns`` lists, as (start, stop) pairs, the column ranges of the
    ``ZeroOperator`` blocks, each zero block as built: A^T w is +0.0 there for
    every w, and a forward product never reads x there."""

    def __init__(self, ops):
        self.ops = list(ops)
        if not self.ops:
            raise ValueError("need at least one block")
        m = self.ops[0].shape[0]
        if any(op.shape[0] != m for op in self.ops):
            raise ValueError("summed blocks must share their output length")
        self.col_offsets = np.cumsum([0] + [op.shape[1] for op in self.ops])
        self.shape = (m, int(self.col_offsets[-1]))
        self._blocks = [
            (op, int(a), int(b), isinstance(op, ZeroOperator))
            for op, a, b in zip(self.ops, self.col_offsets[:-1], self.col_offsets[1:])
        ]
        self.zero_columns = tuple((a, b) for _, a, b, z in self._blocks if z)

    def apply(self, x):
        x = _vector("x", x, self.shape[1])
        # a zero block adds the scalar 0.0 where it would add its zeros: the
        # same sums bit for bit, -0.0 + 0.0 = +0.0 included
        outs = [0.0 if z else op.apply(x[a:b]) for op, a, b, z in self._blocks]
        total = sum(outs[1:], outs[0])
        return total if isinstance(total, np.ndarray) else np.zeros(self.shape[0])

    def apply_adjoint(self, y):
        y = _vector("y", y, self.shape[0])
        out = np.zeros(self.shape[1])  # what the zero blocks give
        for op, a, b, z in self._blocks:
            if not z:
                out[a:b] = op.apply_adjoint(y)
        return out

    def row(self, i):
        return np.concatenate([op.row(i) for op in self.ops])


class Grad2D(LinearOperator):
    """Forward-difference gradient of an height-by-width image (row-major).

    Maps h*w values to 2*h*w stacked differences, the along-width block first
    and the along-height block second; both use a zero difference at the
    trailing column/row, so constant images map to zero and the adjoint is the
    matching negative divergence. The operator norm is below sqrt(8).
    Both products work on the flat image, where a neighbour along the width
    is 1 away and one along the height is w away, in contiguous passes.
    """

    def __init__(self, height, width):
        self.height = _check_whole("height", height, low=0)
        self.width = _check_whole("width", width)  # apply strides by the width
        hw = self.height * self.width
        self.shape = (2 * hw, hw)

    def apply(self, x):
        w, hw = self.width, self.height * self.width
        x = _vector("x", np.ravel(x), hw)  # an h x w image, or its rows in a row
        out = np.empty(2 * hw)
        np.subtract(x[1:], x[:-1], out=out[: hw - 1])
        out[w - 1 : hw : w] = 0.0  # the trailing column, and no wrap to the next row
        np.subtract(x[w:], x[:-w], out=out[hw : 2 * hw - w])
        out[2 * hw - w :] = 0.0  # the trailing row
        return out

    def apply_adjoint(self, y):
        w, hw = self.width, self.height * self.width
        y = _vector("y", y, 2 * hw)
        p = y[:hw].copy()
        p[w - 1 :: w] = 0.0  # the trailing column of p enters no sum
        q = y[hw:]
        out = np.zeros(hw)
        # the sums of the 2-D form, in its order: a zero p_j adds 0.0 to
        # 0.0 or subtracts it, which changes no bit
        out[1:] += p[:-1]
        out -= p
        out[w:] += q[: hw - w]
        out[: hw - w] -= q[: hw - w]
        return out

    def pair_groups(self):
        """One row per pixel: the indices of its two difference components, in
        the coordinates of this operator's output. Pixel j's group holds j and
        h*w + j, the strided layout GroupElasticNet reads without a gather."""
        i = np.arange(self.height * self.width)
        return np.stack([i, i.size + i], axis=1)


def dct_row(n, j):
    """Row j of the orthonormal type-II DCT matrix of size n, a whole number
    >= 1, for a row index j in range(n)."""
    n = _check_whole("n", n)
    _check_indices("row index", [j], n)
    scale = np.sqrt(1.0 / n) if j == 0 else np.sqrt(2.0 / n)
    return scale * np.cos(np.pi * (2 * np.arange(n) + 1) * j / (2 * n))


class PartialDCT(DenseMatrix):
    """A subset of distinct rows of the orthonormal DCT-II matrix of size n."""

    def __init__(self, n, rows):
        n = _check_whole("n", n)
        rows = _check_indices("row index", rows, n).tolist()
        if not rows:
            raise ValueError("need at least one row")
        _check_distinct("rows", rows)
        super().__init__(np.stack([dct_row(n, j) for j in rows]))
        self._norm = 1.0  # orthonormal rows


# ---------------------------------------------------------------------------
# parallel-beam projector
# ---------------------------------------------------------------------------


class ParallelProjector(SparseOperator):
    """Sparse line-integral operator with per-row angle bookkeeping."""

    def __init__(self, mat, row_angle, angles_deg, ray_spacing):
        super().__init__(mat)
        self.row_angle = np.asarray(row_angle, dtype=int)
        self.angles_deg = np.asarray(angles_deg, dtype=float)
        self.ray_spacing = float(ray_spacing)


# entries a ray may keep beyond the grid lines its chord crosses: the floor of
# a rounded chord extent may lose a line, and a crossing rounded across a
# chord end may add a segment
_ROUNDING_SLACK = 3


def build_parallel_projector(height, width, angles_deg, rays_per_angle=None, offsets=None):
    """Parallel-beam projector over a unit pixel grid.

    For each angle, rays travel along (cos, sin) of the angle and are offset
    along the perpendicular through the image center. By default the offsets
    span the image diagonal uniformly (endpoints included); pass ``offsets``
    to position rays explicitly. Rays that miss the image are dropped, and the
    returned operator records which angle produced each kept row. Entries are
    exact intersection lengths with the pixels (Siddon's merge of a ray's
    grid-line crossings), computed for all rays of one angle together. An
    empty grid, angles or offsets that are not 1-d and finite, a
    ``rays_per_angle`` that is not a whole number >= 1 and both
    ``rays_per_angle`` and ``offsets`` given raise a named ``ValueError``; the
    recorded ray spacing is the median gap between the sorted offsets, so
    descending offsets give the same positive spacing as ascending ones.

    Memory: the CSR data and column arrays are allocated once, before any
    ray is traced, at a per-ray upper bound on kept segments, computed for
    all rays at once: a chord of length L at angle theta crosses at most
    floor(L |cos theta|) + 1 vertical and floor(L |sin theta|) + 1
    horizontal grid lines, plus a few entries of rounding slack. Each angle
    writes its kept entries straight into them, and they are shrunk in place
    to the entries kept. So the build's peak is the bound's arrays plus one
    angle's temporaries. The 64x64, 60-angle, 92-ray projector of the tomo-tv
    benchmark (314,428 nonzeros, 3.79 MB of CSR arrays; its bound is 334,461
    entries, 6% more) builds with a tracemalloc peak of 5.1 MB, 1.35x the
    kept arrays, in 20-25 ms (2-vCPU Xeon, one BLAS thread). A ray that
    keeps more segments than its bound raises RuntimeError. The row pointers
    are the running sum of the per-ray counts, and scipy's ``sum_duplicates``
    sorts each row and adds repeated columns: the canonical form, equal bit
    for bit and dtype for dtype to a COO assembly converted with ``tocsr``.
    """
    # a ray through an empty grid would index columns outside the matrix
    height, width = (_check_whole("height and width", v) for v in (height, width))
    angles_deg = _vector("angles_deg", angles_deg, finite=True)
    if offsets is not None and rays_per_angle is not None:
        raise ValueError("give rays_per_angle or offsets, not both")
    if offsets is None:
        if rays_per_angle is None:
            raise ValueError("need rays_per_angle when offsets are not given")
        _check_whole("rays_per_angle", rays_per_angle)
        diag = float(np.hypot(height, width))
        offsets = np.linspace(-diag / 2.0, diag / 2.0, rays_per_angle)
    else:
        offsets = _vector("offsets", offsets, finite=True)
    spacing = float(np.median(np.diff(np.sort(offsets)))) if offsets.size > 1 else 1.0
    cx, cy = width / 2.0, height / 2.0
    ncols = height * width

    def index_dtype(count):
        # the index dtype scipy gives a CSR matrix: int32 while every index fits
        return np.int32 if max(count, ncols) <= np.iinfo(np.int32).max else np.int64

    # every ray at once, one row per angle: clip the line p0 + s*d to the
    # image as s in [s_lo, s_hi]; the direction is taken angle by angle, as
    # numpy's cos of a scalar and of an array may differ in the last bit
    theta = np.deg2rad(angles_deg)
    dx = np.array([np.cos(t) for t in theta])
    dy = np.array([np.sin(t) for t in theta])
    p0x, p0y = cx + offsets * -dy[:, None], cy + offsets * dx[:, None]
    hit = np.ones(p0x.shape, dtype=bool)
    s_lo, s_hi = np.full(p0x.shape, -np.inf), np.full(p0x.shape, np.inf)
    families = []  # per family of grid lines: (p0 coordinate, d, size, angles crossing it)
    for p, d, size in ((p0x, dx, width), (p0y, dy, height)):
        crosses = np.abs(d) >= 1e-12
        families.append((p, d, size, crosses))
        hit[~crosses] &= (p[~crosses] >= 0.0) & (p[~crosses] <= size)
        p, d = p[crosses], d[crosses, None]
        sa, sb = (0.0 - p) / d, (size - p) / d
        s_lo[crosses] = np.maximum(s_lo[crosses], np.minimum(sa, sb))
        s_hi[crosses] = np.minimum(s_hi[crosses], np.maximum(sa, sb))
    hit &= s_hi > s_lo
    length = np.where(hit, s_hi - s_lo, 0.0)
    # a chord of length L crosses at most floor(L |dx|) + 1 vertical and
    # floor(L |dy|) + 1 horizontal grid lines, and keeps no more segments
    lines = np.floor(length * np.abs(dx)[:, None]) + np.floor(length * np.abs(dy)[:, None]) + 2
    bound = np.where(hit, lines + _ROUNDING_SLACK, 0).astype(np.int64)
    capacity = int(bound.sum())
    data = np.empty(capacity)
    indices = np.empty(capacity, dtype=index_dtype(capacity))

    def trace(a, start):
        """Write angle ``a``'s kept segments, lengths and columns, into data
        and indices from ``start`` on; return its kept segments per hit ray.
        Its rays' grid-line crossings go in one row per ray; crossings
        outside the chord collapse onto its ends, and the zero-length
        segments this and repeated crossings leave fail the length test."""
        h = hit[a]
        lo, hi = s_lo[a, h, None], s_hi[a, h, None]
        crossings = [
            (np.arange(size + 1) - p[a, h, None]) / d[a]
            for p, d, size, crosses in families
            if crosses[a]
        ]
        s = np.concatenate([lo, hi] + crossings, axis=1)
        s.clip(lo, hi, out=s)  # in place, as is the sort
        s.sort(axis=1)
        seg = np.diff(s, axis=1)
        keep = seg > 1e-12
        # the pixel of each kept segment, from its midpoint: segment j of ray
        # r is entry r * seg.shape[1] + j of seg and starts at entry that + r of s
        at = np.flatnonzero(keep)
        ray = at // seg.shape[1]
        ends = s.ravel()
        mids = 0.5 * (ends[at + ray] + ends[at + ray + 1])
        ix = np.clip(np.floor(p0x[a, h][ray] + mids * dx[a]).astype(int), 0, width - 1)
        iy = np.clip(np.floor(p0y[a, h][ray] + mids * dy[a]).astype(int), 0, height - 1)
        nseg = np.count_nonzero(keep, axis=1)
        if np.any(nseg > bound[a, h]):
            msg = f"angle {angles_deg[a]:g}: a ray keeps more segments than its bound"
            raise RuntimeError(msg)
        data[start : start + at.size] = seg.ravel()[at]
        indices[start : start + at.size] = iy * width + ix
        return nseg

    counts, end = [], 0
    for a in range(angles_deg.size):
        nseg = trace(a, end)
        end += int(nseg.sum())
        counts.append(nseg[nseg > 0])  # a ray without a segment is dropped
    rays = [c.size for c in counts]
    if sum(rays) == 0:
        raise ValueError("no ray intersects the image")
    # shrink in place to the kept entries: no view of either array is alive
    data.resize(end, refcheck=False)
    indices.resize(end, refcheck=False)
    # CSR straight from the rays, in the index dtype and the canonical form
    # (columns sorted and duplicates summed, by scipy's own routine) that a
    # COO assembly converted with tocsr gives
    nseg = np.concatenate(counts)
    import scipy.sparse as sp  # deferred, as in SparseOperator

    idx_dtype = index_dtype(end)
    indptr = np.zeros(nseg.size + 1, dtype=idx_dtype)
    np.cumsum(nseg, out=indptr[1:])
    mat = sp.csr_matrix(
        (data, indices.astype(idx_dtype, copy=False), indptr), shape=(nseg.size, ncols)
    )
    mat.sum_duplicates()
    row_angle = np.repeat(np.arange(angles_deg.size), rays)
    return ParallelProjector(mat, row_angle, angles_deg, spacing)
