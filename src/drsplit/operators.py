"""Maximally monotone operators represented by their resolvents.

An operator A is stored purely through its resolvent J_A = (Id + A)^(-1),
which is single valued, everywhere defined, and firmly nonexpansive. All the
quantities tracked elsewhere (the splitting operator, shadows, solution pairs,
displacement vectors) are resolvent-expressible, so the multivalued map itself
is never materialized. A resolvent map takes one point of shape (d,) or a
stack of row points of shape (m, d) and returns the same shape, so a batch of
independent points costs one call. Having a linear graph cannot be certified
cheaply at run time, so it travels as a flag declared at construction;
combinators propagate it conservatively.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import MonotonicityError, OperatorContractError
from .space import (
    AffineSubspace,
    ConvexSet,
    as_point,
    as_points,
    is_affine,
    is_linear_subspace,
)


@dataclass(frozen=True, eq=False)
class MonotoneOperator:
    """A maximally monotone operator given by its resolvent map.

    ``resolvent_map`` must be total on R^dim, deterministic, and firmly
    nonexpansive; the test suite samples these properties for every
    constructor and combinator below. It takes one point of shape (dim,) or a
    stack of row points of shape (m, dim) and returns an array of the same
    shape, and row i of a stack's image must be bitwise equal to the image of
    row i alone. Every public evaluation checks the shape of its first image
    (``OperatorContractError``) and trusts later ones: ``iterate`` checks it at
    the start point only. ``iterate`` relies on the row contract: it takes a
    translating orbit's records from stacked calls on guessed points, so a map
    whose stacked rows differ from its lone images gives a different trace.
    """

    resolvent_map: Callable[[np.ndarray], np.ndarray]
    dim: int
    is_linear_relation: bool = False
    label: str = ""

    def resolvent(self, x) -> np.ndarray:
        """Evaluate J_A at one point or at each row of a stack (validates
        dimension, finiteness and the shape of the image)."""
        return np.asarray(self._checked_map(as_points(x, self.dim)), dtype=float)

    def _checked_map(self, x: np.ndarray) -> np.ndarray:
        image = self.resolvent_map(x)
        if np.shape(image) != x.shape:
            raise OperatorContractError(
                f"resolvent of {self.label or 'anonymous'} returned shape {np.shape(image)} "
                f"for input of shape {x.shape}"
            )
        return image

    def __repr__(self):  # keep tracebacks short
        return f"MonotoneOperator({self.label or 'anonymous'}, dim={self.dim})"


@dataclass(frozen=True, eq=False)
class GraphPoint:
    """A pair (point, normal) lying on the graph of an operator."""

    point: np.ndarray
    normal: np.ndarray

    def __post_init__(self):
        p = as_point(self.point)
        n = as_point(self.normal, p.shape[0])
        object.__setattr__(self, "point", p)
        object.__setattr__(self, "normal", n)


def reflected(A: MonotoneOperator, x) -> np.ndarray:
    """Reflected resolvent 2 J_A(x) - x (nonexpansive)."""
    xv = as_point(x, A.dim)
    return 2.0 * A._checked_map(xv) - xv


def minty_forward(A: MonotoneOperator, x) -> GraphPoint:
    """Parametrize the graph of A: x -> (J_A x, x - J_A x)."""
    xv = as_point(x, A.dim)
    p = A._checked_map(xv)
    return GraphPoint(p, xv - p)


def minty_inverse(g: GraphPoint) -> np.ndarray:
    """Inverse parametrization: (point, normal) -> point + normal."""
    return g.point + g.normal


# ---------------------------------------------------------------------------
# constructors


def normal_cone(S: ConvexSet, label: str = "") -> MonotoneOperator:
    """Normal cone operator of a closed convex set; its resolvent is the projector."""
    return MonotoneOperator(
        resolvent_map=S.project,
        dim=S.dim,
        is_linear_relation=is_linear_subspace(S),
        label=label or f"normal_cone({type(S).__name__})",
    )


def scaled_id_plus_normal_cone(lam: float, C: ConvexSet, label: str = "") -> MonotoneOperator:
    """The operator lam*Id + N_C for an affine set C; resolvent x -> P_C(x/(1+lam)).

    The formula uses that normal cones of affine sets are invariant under
    positive scaling, so (Id + lam*Id + N_C)^(-1) collapses to a projection of
    the shrunk argument.
    """
    if not lam > 0:  # also rejects NaN
        raise ValueError(f"lam must be positive, got {lam}")
    if not is_affine(C):
        raise TypeError("C must be an affine subspace (or single point)")
    shrink = 1.0 / (1.0 + lam)

    def res(x: np.ndarray) -> np.ndarray:
        return C.project(shrink * x)

    return MonotoneOperator(
        resolvent_map=res,
        dim=C.dim,
        is_linear_relation=is_linear_subspace(C),
        label=label or f"{lam}*id+normal_cone",
    )


_ROTATOR_SIGNS = np.array([1.0, -1.0])


def rotator(label: str = "rotator") -> MonotoneOperator:
    """Quarter-turn rotation of the plane as a (skew, non-paramonotone) operator.

    Forward map (x1, x2) -> (-x2, x1); resolvent (x1, x2) -> ((x1+x2)/2, (x2-x1)/2).
    """

    def res(x: np.ndarray) -> np.ndarray:
        # (x2 + x1, x2 - x1) / 2 for a point or row by row; x @ [[1, -1], [1, 1]]
        # would turn a sum of two negative zeros into +0.0
        return 0.5 * (x[..., 1:] + x[..., :1] * _ROTATOR_SIGNS)

    return MonotoneOperator(
        resolvent_map=res,
        dim=2,
        is_linear_relation=True,
        label=label,
    )


def projector_operator(U: AffineSubspace, label: str = "") -> MonotoneOperator:
    """The projector P_U (U a linear subspace) viewed as a monotone operator.

    Its resolvent is (Id + P_U)^(-1) = (Id + P_complement)/2.
    """
    if not isinstance(U, AffineSubspace) or not U.is_linear:
        raise TypeError("U must be a linear subspace")

    def res(x: np.ndarray) -> np.ndarray:
        return 0.5 * (x + (x - U.project(x)))

    return MonotoneOperator(
        resolvent_map=res,
        dim=U.dim,
        is_linear_relation=True,
        label=label or "projector_operator",
    )


def piecewise_linear_1d(
    breaks: Sequence[tuple[float, float, float]], label: str = ""
) -> MonotoneOperator:
    """Monotone piecewise-linear operator on R from (position, left/right slope) triples.

    The graph is the continuous nondecreasing curve anchored at value 0 on the
    first break position, with the given slopes on each side of each break.
    Interior slopes must agree across consecutive breaks (they describe the
    same segment). An infinite left slope on the first break or right slope on
    the last break encodes a vertical half-line there, i.e. a domain edge; so
    a single break with two infinite slopes is the normal cone of a point.
    The resolvent is one table lookup over the pieces of Id + A and is
    nondecreasing and 1-Lipschitz.
    """
    if not breaks:
        raise ValueError("at least one break is required")
    pos = np.array([float(b[0]) for b in breaks])
    left = np.array([float(b[1]) for b in breaks])
    right = np.array([float(b[2]) for b in breaks])
    if not np.all(np.isfinite(pos)):
        raise MonotonicityError("break positions must be finite")
    if np.any(np.diff(pos) <= 0):
        raise MonotonicityError("break positions must be strictly increasing")
    if np.any(left < 0) or np.any(right < 0) or np.any(np.isnan(left)) or np.any(np.isnan(right)):
        raise MonotonicityError("slopes must be nonnegative")
    m = len(breaks)
    interior_left = left[1:]
    interior_right = right[:-1]
    if m > 1 and (np.any(~np.isfinite(interior_right)) or np.any(~np.isfinite(interior_left))):
        raise MonotonicityError("infinite slopes are only allowed at the outermost breaks")
    if m > 1 and np.any(interior_right != interior_left):
        raise MonotonicityError("right slope of each break must match the left slope of the next")

    seg_slopes = right[:-1]  # slope between break i and i+1
    values = np.concatenate(([0.0], np.cumsum(seg_slopes * np.diff(pos))))
    w = pos + values  # knot inputs of Id + A, strictly increasing
    left_slope = left[0]
    right_slope = right[-1]
    # piece 0 is the left half-line below w[0]; piece j >= 1 starts at knot
    # w[j-1] with the slope right of break j-1. An infinite slope divides the
    # offset from the knot to 0, which pins a vertical half-line at its break.
    piece_pos = np.concatenate(([pos[0]], pos))
    piece_w = np.concatenate(([w[0]], w))
    piece_div = 1.0 + np.concatenate(([left_slope], right))
    # the same lookup in Python floats costs a third on one point
    knots = w.tolist()
    pos_list, w_list, div_list = piece_pos.tolist(), piece_w.tolist(), piece_div.tolist()

    def res(x: np.ndarray) -> np.ndarray:
        if x.ndim == 1:
            t = float(x[0])
            i = bisect.bisect_right(knots, t)
            return np.array([pos_list[i] + (t - w_list[i]) / div_list[i]])
        i = np.searchsorted(w, x, side="right")
        return piece_pos[i] + (x - piece_w[i]) / piece_div[i]

    if m == 1:
        linear = (math.isinf(left_slope) and math.isinf(right_slope) and pos[0] == 0.0) or (
            left_slope == right_slope and (pos[0] == 0.0 or left_slope == 0.0)
        )
    else:
        linear = False

    return MonotoneOperator(
        resolvent_map=res,
        dim=1,
        is_linear_relation=linear,
        label=label or "piecewise_linear_1d",
    )


# ---------------------------------------------------------------------------
# combinators


def inverse(A: MonotoneOperator) -> MonotoneOperator:
    """A^(-1); its resolvent is Id - J_A."""
    return MonotoneOperator(
        resolvent_map=lambda x: x - A.resolvent_map(x),
        dim=A.dim,
        is_linear_relation=A.is_linear_relation,
        label=f"inverse({A.label})",
    )


def dual_flip(B: MonotoneOperator) -> MonotoneOperator:
    """Conjugation by -Id (the 'flip' used to form the dual pair); J(x) = -J_B(-x)."""
    return MonotoneOperator(
        resolvent_map=lambda x: -B.resolvent_map(-x),
        dim=B.dim,
        is_linear_relation=B.is_linear_relation,
        label=f"dual_flip({B.label})",
    )


def outer_shift(A: MonotoneOperator, w) -> MonotoneOperator:
    """The operator x -> A(x) - w; resolvent x -> J_A(x + w)."""
    wv = as_point(w, A.dim)
    shifted_is_linear = A.is_linear_relation and not np.any(wv)
    return MonotoneOperator(
        resolvent_map=lambda x: A.resolvent_map(x + wv),
        dim=A.dim,
        is_linear_relation=shifted_is_linear,
        label=f"outer_shift({A.label})",
    )


def inner_shift(A: MonotoneOperator, w) -> MonotoneOperator:
    """The operator x -> A(x - w); resolvent x -> w + J_A(x - w)."""
    wv = as_point(w, A.dim)
    shifted_is_linear = A.is_linear_relation and not np.any(wv)
    return MonotoneOperator(
        resolvent_map=lambda x: wv + A.resolvent_map(x - wv),
        dim=A.dim,
        is_linear_relation=shifted_is_linear,
        label=f"inner_shift({A.label})",
    )


def product(A: MonotoneOperator, B: MonotoneOperator) -> MonotoneOperator:
    """Blockwise product operator on the direct sum of the two spaces."""
    da = A.dim

    def res(x: np.ndarray) -> np.ndarray:
        return np.concatenate(
            [A.resolvent_map(x[..., :da]), B.resolvent_map(x[..., da:])], axis=-1
        )

    return MonotoneOperator(
        resolvent_map=res,
        dim=A.dim + B.dim,
        is_linear_relation=A.is_linear_relation and B.is_linear_relation,
        label=f"product({A.label}, {B.label})",
    )

