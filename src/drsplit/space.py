"""Finite-dimensional real inner-product space primitives.

Points are plain 1-d float64 numpy arrays. Convex sets are small immutable
descriptions with closed-form projections; nothing here iterates. Affine
subspaces carry an orthonormal direction basis so their projections are exact
to machine precision, which the downstream identity checks rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import DimensionMismatchError, RankDeficiencyError

ORTHO_TOL = 1e-12


def as_point(x, dim: int | None = None) -> np.ndarray:
    """Coerce ``x`` to a finite 1-d float64 vector, optionally of dimension ``dim``."""
    p = np.atleast_1d(np.asarray(x, dtype=float))
    if p.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValueError("point has non-finite coordinates")
    if dim is not None and p.shape[0] != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {p.shape[0]}")
    return p


def inner(x, y) -> float:
    """Euclidean inner product; rejects dimension mismatch."""
    xv = as_point(x)
    yv = as_point(y)
    if xv.shape[0] != yv.shape[0]:
        raise DimensionMismatchError(f"dimensions {xv.shape[0]} and {yv.shape[0]} differ")
    return float(np.dot(xv, yv))


def norm(x) -> float:
    return float(np.linalg.norm(as_point(x)))


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

    @classmethod
    def from_span(cls, offset, spanning_vectors: Iterable) -> "AffineSubspace":
        """Build from any independent spanning set (orthonormalized here)."""
        vecs = orthonormalize(list(spanning_vectors))
        offset = as_point(offset)
        if vecs:
            return cls(offset, np.vstack(vecs))
        return cls(offset, np.zeros((0, offset.shape[0])))

    @property
    def dim(self) -> int:
        return self.offset.shape[0]

    @property
    def is_linear(self) -> bool:
        """True when the set is a linear subspace (contains the origin)."""
        return float(np.linalg.norm(self.project(np.zeros(self.dim)))) <= 1e-12

    def project(self, x: np.ndarray) -> np.ndarray:
        rel = x - self.offset
        return self.offset + self.basis.T @ (self.basis @ rel)

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
        return np.clip(x, self.lower, self.upper)


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

    def project(self, x: np.ndarray) -> np.ndarray:
        rel = x - self.center
        dist = np.linalg.norm(rel)
        if dist <= self.radius:
            return x.astype(float, copy=True)
        return self.center + (self.radius / dist) * rel


@dataclass(frozen=True, eq=False)
class Singleton:
    point: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "point", as_point(self.point))

    @property
    def dim(self) -> int:
        return self.point.shape[0]

    def project(self, x: np.ndarray) -> np.ndarray:
        return self.point.copy()


ConvexSet = Union[AffineSubspace, NonnegativeOrthant, Box, Ball, Singleton]


def project(S: ConvexSet, x) -> np.ndarray:
    """Nearest point of ``S`` to ``x`` (exact, closed form)."""
    xv = as_point(x, S.dim)
    return S.project(xv)


def line(offset, direction) -> AffineSubspace:
    """One-dimensional affine subspace through ``offset`` along ``direction``."""
    return AffineSubspace.from_span(offset, [direction])


def whole_space(dim: int) -> AffineSubspace:
    return AffineSubspace(np.zeros(dim), np.eye(dim))


def is_affine(S: ConvexSet) -> bool:
    """Affine-subspace predicate (singletons count as 0-dimensional affine sets)."""
    return isinstance(S, (AffineSubspace, Singleton))


def is_linear_subspace(S: ConvexSet) -> bool:
    """True when ``S`` is a linear subspace of its ambient space."""
    if isinstance(S, AffineSubspace):
        return S.is_linear
    if isinstance(S, Singleton):
        return float(np.linalg.norm(S.point)) == 0.0
    return False
