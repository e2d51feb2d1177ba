"""Finite-dimensional real inner-product space primitives.

Points are plain 1-d float64 numpy arrays. Convex sets are small immutable
descriptions with closed-form projections; nothing here iterates. Every
``project`` takes one point of shape (d,) or a stack of row points of shape
(m, d) and returns the same shape; row i of a stack's projection is bitwise
equal to the projection of row i alone. Affine subspaces carry an orthonormal
direction basis so their projections are exact to machine precision, which
the downstream identity checks rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from .errors import DimensionMismatchError, RankDeficiencyError

ORTHO_TOL = 1e-12


def as_points(x, dim: int | None = None) -> np.ndarray:
    """Coerce ``x`` to one finite float64 point of shape (d,) or a stack of
    row points of shape (m, d), optionally of dimension ``dim``."""
    p = np.atleast_1d(np.asarray(x, dtype=float))
    if p.ndim > 2:
        raise ValueError(f"expected a point or a stack of row points, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValueError("point has non-finite coordinates")
    if dim is not None and p.shape[-1] != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {p.shape[-1]}")
    return p


def as_point(x, dim: int | None = None) -> np.ndarray:
    """Coerce ``x`` to a finite 1-d float64 vector, optionally of dimension ``dim``."""
    p = as_points(x, dim)
    if p.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {p.shape}")
    return p


def row_norms(x: np.ndarray):
    """Euclidean norm of one point, or of each row of a stack: the one norm rule.

    On one point it is bitwise equal to ``np.linalg.norm``.
    """
    return np.sqrt(np.vecdot(x, x))


# numbers of a whole-trace temporary formed at a time: a loop over row blocks
# of about this many holds one block of each temporary, never the whole
# trace's; the default budget of ``row_blocks`` (the trace writer passes its
# own, ``runner.CSV_BLOCK``)
BLOCK_NUMBERS = 2**17


def row_blocks(n: int, width: int, numbers: int | None = None) -> Iterator[slice]:
    """Consecutive slices that cover rows 0 to n - 1, each of as many rows of
    ``width`` numbers as ``numbers`` (default ``BLOCK_NUMBERS``) holds, at
    least one row: the one rule by which a loop splits rows into blocks."""
    rows = max(1, (BLOCK_NUMBERS if numbers is None else numbers) // width)
    return (slice(first, min(first + rows, n)) for first in range(0, n, rows))


def diameter(points: np.ndarray) -> float:
    """Max pairwise distance via the centered Gram matrix, formed one row block
    of its upper triangle at a time (``row_blocks`` of N-number rows). The
    entries (sq_i + sq_j) - 2 g_ij are symmetric; the value matched the
    full-matrix one bitwise where the blocks held at least 32 rows (N <= 4,096
    points), and blocks of fewer rows can move its last bit.

    Exactly 0.0 when every row equals the first; NaN when the Gram entries
    overflow: such a set has no measured diameter.
    """
    pts = np.asarray(points, dtype=float)
    if pts.shape[0] < 2:
        return 0.0
    # the rounded squares and Gram entries of equal rows need not cancel
    if np.all(np.isfinite(pts[0])) and np.all(pts == pts[0]):
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        centered = pts - pts.mean(axis=0)  # centering keeps the squares cancellation-free
        sq = np.einsum("nd,nd->n", centered, centered)
        block_tops = []
        for rows in row_blocks(len(sq), len(sq)):
            gram = centered[rows] @ centered[rows.start :].T
            gram *= 2.0
            block_tops.append(np.max((sq[rows, None] + sq[None, rows.start :]) - gram))
    top = float(np.max(block_tops))  # np.max keeps a NaN, where max() need not
    if not np.isfinite(top):
        return float("nan")
    return float(np.sqrt(max(0.0, top)))


def orthonormalize(basis: Sequence) -> list[np.ndarray]:
    """Modified Gram-Schmidt with a rank check.

    Raises :class:`RankDeficiencyError` naming the first vector that is
    (numerically) in the span of its predecessors.
    """
    vectors = [as_point(v) for v in basis]
    if not vectors:
        return []
    dim = vectors[0].shape[0]
    out: list[np.ndarray] = []
    for i, v in enumerate(vectors):
        if v.shape[0] != dim:
            raise DimensionMismatchError(f"basis vector {i} has dimension {v.shape[0]}, expected {dim}")
        w = v.copy()
        for q in out:
            w -= np.dot(q, w) * q
        # second pass stabilises near-dependent inputs
        for q in out:
            w -= np.dot(q, w) * q
        nw = np.linalg.norm(w)
        if nw <= 1e-10 * (1.0 + np.linalg.norm(v)):
            raise RankDeficiencyError(i)
        out.append(w / nw)
    return out


@dataclass(frozen=True, eq=False)
class AffineSubspace:
    """offset + span(basis) with ``basis`` rows pairwise orthonormal."""

    offset: np.ndarray
    basis: np.ndarray  # shape (k, dim); k == 0 encodes a single point

    def __post_init__(self):
        offset = as_point(self.offset)
        basis = np.asarray(self.basis, dtype=float)
        if basis.size == 0:
            basis = basis.reshape(0, offset.shape[0])
        if basis.ndim != 2 or basis.shape[1] != offset.shape[0]:
            raise DimensionMismatchError("basis rows must match offset dimension")
        if not np.all(np.isfinite(basis)):
            raise ValueError("basis has non-finite coordinates")
        gram = basis @ basis.T
        if basis.shape[0] and np.max(np.abs(gram - np.eye(basis.shape[0]))) > ORTHO_TOL:
            raise ValueError("direction basis is not orthonormal to 1e-12")
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "_basis_t", basis.T)  # one view, not one per call

    @classmethod
    def from_span(cls, offset, spanning_vectors: Iterable) -> "AffineSubspace":
        """Build from any independent spanning set (orthonormalized here)."""
        # an empty set gives a (0,) basis, which the constructor reshapes
        return cls(offset, np.array(orthonormalize(list(spanning_vectors))))

    @property
    def dim(self) -> int:
        return self.offset.shape[0]

    @property
    def is_linear(self) -> bool:
        """True when the set is a linear subspace (contains the origin)."""
        return float(np.linalg.norm(self.project(np.zeros(self.dim)))) <= 1e-12

    def project(self, x: np.ndarray) -> np.ndarray:
        rel = x - self.offset
        if x.ndim == 1:
            # ndarray.dot is bitwise @ here, with less overhead per call
            return self.offset + self._basis_t.dot(self.basis.dot(rel))
        # a stack of one-row products; one (m, d) gemm would round rows differently
        return self.offset + ((rel[:, None, :] @ self._basis_t) @ self.basis)[:, 0, :]

    def orthogonal_complement_basis(self) -> np.ndarray:
        """Orthonormal basis of the orthogonal complement of the direction space."""
        # the last d - k columns of a complete QR of the (d, k) basis matrix
        q = np.linalg.qr(self.basis.T, mode="complete")[0]
        return q[:, self.basis.shape[0] :].T


@dataclass(frozen=True, eq=False)
class NonnegativeOrthant:
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")

    def project(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(x, 0.0)


@dataclass(frozen=True, eq=False)
class Box:
    """Coordinatewise bounds; +-inf entries are allowed."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lower.shape != upper.shape or lower.ndim != 1:
            raise DimensionMismatchError("lower and upper bounds must be vectors of equal length")
        if np.any(np.isnan(lower)) or np.any(np.isnan(upper)):
            raise ValueError("bounds must not be NaN")
        if np.any(lower > upper):
            raise ValueError("lower bound exceeds upper bound")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def project(self, x: np.ndarray) -> np.ndarray:
        # np.clip can return the other signed zero on a broadcast stack than
        # on one point; maximum then minimum is row-independent and equals
        # np.clip on one point
        return np.minimum(np.maximum(x, self.lower), self.upper)


@dataclass(frozen=True, eq=False)
class Ball:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        center = as_point(self.center)
        if not self.radius > 0:
            raise ValueError("radius must be positive")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", float(self.radius))

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    @np.errstate(over="ignore")  # cheaper per call than a with block
    def project(self, x: np.ndarray) -> np.ndarray:
        # past about 1.3e154 the squared norm overflows; such a point (or row)
        # is divided by its largest |coordinate| first, which leaves every
        # point of finite norm bitwise as it was
        rel = x - self.center
        if x.ndim == 1:
            dist = math.sqrt(rel.dot(rel))  # np.linalg.norm's own steps, minus its overhead
            if dist <= self.radius:
                return x.astype(float, copy=True)
            if dist == math.inf:
                unit = rel / np.max(np.abs(rel))
                return self.center + (self.radius / math.sqrt(unit.dot(unit))) * unit
            return self.center + (self.radius / dist) * rel
        dist = row_norms(rel)[:, None]
        outside = self.center + (self.radius / np.maximum(dist, self.radius)) * rel
        if dist.max() == np.inf:
            far = dist[:, 0] == np.inf
            unit = rel[far] / np.max(np.abs(rel[far]), axis=1, keepdims=True)
            outside[far] = self.center + (self.radius / row_norms(unit)[:, None]) * unit
        return np.where(dist <= self.radius, x, outside)


@dataclass(frozen=True, eq=False)
class Singleton:
    point: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "point", as_point(self.point))

    @property
    def dim(self) -> int:
        return self.point.shape[0]

    def project(self, x: np.ndarray) -> np.ndarray:
        if x.ndim == 1:
            return self.point.copy()  # np.full costs about 3x more on one point
        return np.full(x.shape, self.point)


ConvexSet = Union[AffineSubspace, NonnegativeOrthant, Box, Ball, Singleton]


def project(S: ConvexSet, x) -> np.ndarray:
    """Nearest point of ``S`` to ``x``, one point or a stack of rows (exact, closed form)."""
    xv = as_points(x, S.dim)
    return S.project(xv)


def is_affine(S: ConvexSet) -> bool:
    """Affine-subspace predicate (singletons count as 0-dimensional affine sets)."""
    return isinstance(S, (AffineSubspace, Singleton))


def is_linear_subspace(S: ConvexSet) -> bool:
    """True when ``S`` is a linear subspace of its ambient space."""
    if isinstance(S, AffineSubspace):
        return S.is_linear
    if isinstance(S, Singleton):
        return not np.any(S.point)  # no squares: they overflow or underflow
    return False
