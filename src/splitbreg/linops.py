"""Linear operators with explicit adjoints.

The solver only needs matrix-vector products, adjoint products, optional row
access (for Kaczmarz-style row constraints) and a cached operator-norm
estimate, so operators implement exactly that contract. Dense and sparse
matrices wrap numpy/scipy storage; the discrete gradient and the parallel-beam
projector are assembled here.
"""

import warnings

import numpy as np
import scipy.io
import scipy.sparse as sp


class LinearOperator:
    """A linear map with an explicit adjoint. Subclasses set ``shape = (m, n)``."""

    shape = (0, 0)

    def apply(self, x):
        raise NotImplementedError

    def apply_adjoint(self, y):
        raise NotImplementedError

    def row(self, i):
        raise NotImplementedError(f"{type(self).__name__} has no row access")

    def norm_estimate(self, tol=1e-6, max_iter=1000):
        """Largest singular value by power iteration, cached after the first call."""
        if getattr(self, "_norm", None) is None:
            self._norm = operator_norm(self, tol=tol, max_iter=max_iter)
        return self._norm

    def to_dense(self):
        eye = np.eye(self.shape[1])
        return np.stack([self.apply(eye[:, j]) for j in range(self.shape[1])], axis=1)


def operator_norm(op, tol=1e-6, max_iter=1000):
    """Estimate ||A||_2 by power iteration on A^T A.

    Deterministic start vector; stops when the Rayleigh quotient changes by
    less than ``tol`` relatively. Warns and returns the best estimate if the
    cap is hit.
    """
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
        lam_new = float(np.dot(v, z))
        if zn == 0.0:
            return 0.0
        v = z / zn
        if abs(lam_new - lam) <= tol * abs(lam_new):
            return float(np.sqrt(lam_new))
        lam = lam_new
    warnings.warn("power iteration hit its cap; returning the best estimate")
    return float(np.sqrt(lam))


class DenseMatrix(LinearOperator):
    """Operator backed by a dense numpy array."""

    def __init__(self, a):
        self.a = np.asarray(a, dtype=float)
        if self.a.ndim != 2:
            raise ValueError("expected a 2-d array")
        self.shape = self.a.shape

    def apply(self, x):
        return self.a @ x

    def apply_adjoint(self, y):
        return self.a.T @ y

    def row(self, i):
        return self.a[i]

    def to_dense(self):
        return self.a


def as_operator(a):
    """``a`` itself when it is a LinearOperator, else a DenseMatrix around it."""
    return a if isinstance(a, LinearOperator) else DenseMatrix(a)


class SparseOperator(LinearOperator):
    """Operator backed by a scipy CSR matrix, serializable as matrix market."""

    def __init__(self, mat):
        self.mat = sp.csr_matrix(mat)
        self.shape = self.mat.shape

    def apply(self, x):
        return self.mat @ x

    def apply_adjoint(self, y):
        return self.mat.T @ y

    def row(self, i):
        return self.mat.getrow(i).toarray().ravel()

    def to_dense(self):
        return self.mat.toarray()

    def save(self, path):
        """Write the matrix in matrix-market coordinate (real, general) format."""
        with open(path, "wb") as fh:
            scipy.io.mmwrite(fh, self.mat.tocoo())

    @classmethod
    def load(cls, path):
        return cls(scipy.io.mmread(path))


class ScaledIdentity(LinearOperator):
    """c * I on n coordinates."""

    def __init__(self, n, scale=1.0):
        self.shape = (int(n), int(n))
        self.scale = float(scale)
        self._norm = abs(self.scale)

    def apply(self, x):
        return self.scale * np.asarray(x, dtype=float)

    def apply_adjoint(self, y):
        return self.scale * np.asarray(y, dtype=float)

    def row(self, i):
        r = np.zeros(self.shape[1])
        r[i] = self.scale
        return r


class ZeroOperator(LinearOperator):
    """The zero map R^n -> R^m."""

    def __init__(self, m, n):
        self.shape = (int(m), int(n))
        self._norm = 0.0

    def apply(self, x):
        return np.zeros(self.shape[0])

    def apply_adjoint(self, y):
        return np.zeros(self.shape[1])

    def row(self, i):
        return np.zeros(self.shape[1])


class BlockRow(LinearOperator):
    """Operators acting on consecutive disjoint blocks of the input.

    With ``combine="sum"`` this is the block row [B_1 B_2 ...] (all outputs the
    same length, added up); with ``combine="stack"`` the outputs are
    concatenated, i.e. a block diagonal.
    """

    def __init__(self, ops, combine="sum"):
        if combine not in ("sum", "stack"):
            raise ValueError("combine must be 'sum' or 'stack'")
        self.ops = list(ops)
        if not self.ops:
            raise ValueError("need at least one block")
        self.combine = combine
        widths = [op.shape[1] for op in self.ops]
        self.col_offsets = np.cumsum([0] + widths)
        n = int(self.col_offsets[-1])
        if combine == "sum":
            m = self.ops[0].shape[0]
            if any(op.shape[0] != m for op in self.ops):
                raise ValueError("summed blocks must share their output length")
            self.shape = (m, n)
        else:
            self.row_offsets = np.cumsum([0] + [op.shape[0] for op in self.ops])
            self.shape = (int(self.row_offsets[-1]), n)

    def _split(self, x):
        return [x[a:b] for a, b in zip(self.col_offsets[:-1], self.col_offsets[1:])]

    def apply(self, x):
        x = np.asarray(x, dtype=float)
        parts = self._split(x)
        outs = [op.apply(p) for op, p in zip(self.ops, parts)]
        if self.combine == "sum":
            total = outs[0]
            for o in outs[1:]:
                total = total + o
            return total
        return np.concatenate(outs)

    def apply_adjoint(self, y):
        y = np.asarray(y, dtype=float)
        if self.combine == "sum":
            return np.concatenate([op.apply_adjoint(y) for op in self.ops])
        parts = [y[a:b] for a, b in zip(self.row_offsets[:-1], self.row_offsets[1:])]
        return np.concatenate([op.apply_adjoint(p) for op, p in zip(self.ops, parts)])

    def row(self, i):
        if self.combine == "sum":
            return np.concatenate([op.row(i) for op in self.ops])
        pieces = []
        for op, a, b in zip(self.ops, self.row_offsets[:-1], self.row_offsets[1:]):
            if a <= i < b:
                pieces.append(op.row(i - a))
            else:
                pieces.append(np.zeros(op.shape[1]))
        return np.concatenate(pieces)


class Grad2D(LinearOperator):
    """Forward-difference gradient of an height-by-width image (row-major).

    Maps h*w values to 2*h*w stacked differences, the along-width block first
    and the along-height block second; both use a zero difference at the
    trailing column/row, so constant images map to zero and the adjoint is the
    matching negative divergence. The operator norm is below sqrt(8).
    """

    def __init__(self, height, width):
        self.height = int(height)
        self.width = int(width)
        hw = self.height * self.width
        self.shape = (2 * hw, hw)

    def apply(self, x):
        h, w = self.height, self.width
        u = np.asarray(x, dtype=float).reshape(h, w)
        gx = np.zeros((h, w))
        gy = np.zeros((h, w))
        gx[:, :-1] = u[:, 1:] - u[:, :-1]
        gy[:-1, :] = u[1:, :] - u[:-1, :]
        return np.concatenate([gx.ravel(), gy.ravel()])

    def apply_adjoint(self, y):
        h, w = self.height, self.width
        hw = h * w
        y = np.asarray(y, dtype=float)
        p = y[:hw].reshape(h, w)
        q = y[hw:].reshape(h, w)
        out = np.zeros((h, w))
        out[:, 1:] += p[:, :-1]
        out[:, :-1] -= p[:, :-1]
        out[1:, :] += q[:-1, :]
        out[:-1, :] -= q[:-1, :]
        return out.ravel()

    def pair_groups(self):
        """One row per pixel: the indices of its two difference components, in
        the coordinates of this operator's output."""
        i = np.arange(self.height * self.width)
        return np.stack([i, i.size + i], axis=1)


def dct_row(n, j):
    """Row j of the orthonormal type-II DCT matrix of size n."""
    if not 0 <= j < n:
        raise ValueError("row index out of range")
    scale = np.sqrt(1.0 / n) if j == 0 else np.sqrt(2.0 / n)
    return scale * np.cos(np.pi * (2 * np.arange(n) + 1) * j / (2 * n))


class PartialDCT(DenseMatrix):
    """A subset of distinct rows of the orthonormal DCT-II matrix."""

    def __init__(self, n, rows):
        rows = np.asarray(rows, dtype=int)
        if np.unique(rows).size != rows.size:
            raise ValueError("rows must be distinct")
        super().__init__(np.stack([dct_row(int(n), int(j)) for j in rows]))
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


def build_parallel_projector(height, width, angles_deg, rays_per_angle=None, offsets=None):
    """Parallel-beam projector over a unit pixel grid.

    For each angle, rays travel along (cos, sin) of the angle and are offset
    along the perpendicular through the image center. By default the offsets
    span the image diagonal uniformly (endpoints included); pass ``offsets``
    to position rays explicitly. Rays that miss the image are dropped, and the
    returned operator records which angle produced each kept row. Entries are
    exact intersection lengths with the pixels (Siddon's merge of a ray's
    grid-line crossings), computed for all rays of one angle together.
    """
    height, width = int(height), int(width)
    angles_deg = np.asarray(angles_deg, dtype=float)
    if offsets is None:
        if rays_per_angle is None or rays_per_angle < 1:
            raise ValueError("need rays_per_angle when offsets are not given")
        diag = float(np.hypot(height, width))
        offsets = np.linspace(-diag / 2.0, diag / 2.0, int(rays_per_angle))
    else:
        offsets = np.asarray(offsets, dtype=float)
    spacing = float(np.median(np.diff(offsets))) if offsets.size > 1 else 1.0
    cx, cy = width / 2.0, height / 2.0

    counts, cols, vals = [], [], []
    for ang in angles_deg:
        theta = np.deg2rad(ang)
        dx, dy = np.cos(theta), np.sin(theta)
        nx, ny = -dy, dx
        p0x, p0y = cx + offsets * nx, cy + offsets * ny
        # every ray of this angle at once: clip the line p0 + s*d to the image
        # as s in [s_lo, s_hi], then collect its grid-line crossings in one row
        hit = np.ones(offsets.size, dtype=bool)
        s_lo, s_hi = np.full(offsets.size, -np.inf), np.full(offsets.size, np.inf)
        crossings = []
        for p, d, size in ((p0x, dx, width), (p0y, dy, height)):
            if abs(d) < 1e-12:
                hit &= (p >= 0.0) & (p <= size)
            else:
                sa, sb = (0.0 - p) / d, (size - p) / d
                s_lo = np.maximum(s_lo, np.minimum(sa, sb))
                s_hi = np.minimum(s_hi, np.maximum(sa, sb))
                crossings.append((np.arange(size + 1) - p[:, None]) / d)
        hit &= s_hi > s_lo
        lo, hi = s_lo[hit, None], s_hi[hit, None]
        # crossings outside the chord collapse onto its ends; the zero-length
        # segments this and repeated crossings leave fail the length test
        s = np.concatenate([lo, hi] + [c[hit] for c in crossings], axis=1)
        s = np.sort(np.clip(s, lo, hi), axis=1)
        seg = np.diff(s, axis=1)
        mids = 0.5 * (s[:, :-1] + s[:, 1:])
        ix = np.clip(np.floor(p0x[hit, None] + mids * dx).astype(int), 0, width - 1)
        iy = np.clip(np.floor(p0y[hit, None] + mids * dy).astype(int), 0, height - 1)
        keep = seg > 1e-12
        nseg = np.count_nonzero(keep, axis=1)
        counts.append(nseg[nseg > 0])  # a ray without a segment is dropped
        cols.append(iy[keep] * width + ix[keep])
        vals.append(seg[keep])
    rays = [c.size for c in counts]
    if sum(rays) == 0:
        raise ValueError("no ray intersects the image")
    nseg = np.concatenate(counts)
    mat = sp.coo_matrix(
        (np.concatenate(vals), (np.repeat(np.arange(nseg.size), nseg), np.concatenate(cols))),
        shape=(nseg.size, height * width),
    )
    row_angle = np.repeat(np.arange(angles_deg.size), rays)
    return ParallelProjector(mat, row_angle, angles_deg, spacing)
