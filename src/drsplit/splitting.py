"""The splitting operator T = Id - J_A + J_B(2 J_A - Id) and its iteration.

``iterate`` records, for every n, the governing point T^n x together with the
four resolvent images that drive all later diagnostics:

    shadow        J_A T^n x
    dual_shadow   T^n x - J_A T^n x
    b_shadow      J_B R_A T^n x
    b_dual_shadow R_A T^n x - J_B R_A T^n x

The per-step displacement T^n x - T^(n+1) x equals shadow - b_shadow and also
dual_shadow + b_dual_shadow; its limit is the minimal displacement vector of
T, which is the quantity of interest when the underlying sum problem has no
zeros.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import DimensionMismatchError, NonFiniteIterateError
from .operators import MonotoneOperator, inner_shift, outer_shift
from .space import as_point, as_points, diameter

DEFAULT_MAX_ITERS = 100_000
DEFAULT_STEP_TOL = 1e-12


class StopReason(str, Enum):
    MAX_ITERS = "max_iters"
    STEP_CONVERGED = "step_converged"


@dataclass(frozen=True, eq=False)
class DRProblem:
    A: MonotoneOperator
    B: MonotoneOperator
    x0: np.ndarray

    def __post_init__(self):
        x0 = as_point(self.x0)
        if not (self.A.dim == self.B.dim == x0.shape[0]):
            raise DimensionMismatchError(
                f"operator/start dimensions differ: {self.A.dim}, {self.B.dim}, {x0.shape[0]}"
            )
        object.__setattr__(self, "x0", x0)

    @property
    def dim(self) -> int:
        return self.x0.shape[0]


@dataclass(eq=False)
class DRTrace:
    """The tracked sequences of one run as ``(n, d)`` arrays, row n for T^n x.

    ``iterate`` fills ``governing``, ``shadow`` and ``b_shadow``; the other
    sequences are derived from them with the loop's own expressions, so every
    row is bitwise what the loop computed. ``stationary_at`` is the first n
    with T^(n+1) x bitwise equal to T^n x (``None`` if there is none): every
    row from n on is then the same.
    """

    problem: DRProblem
    governing: np.ndarray
    shadow: np.ndarray
    b_shadow: np.ndarray
    stop_reason: StopReason
    stationary_at: Optional[int]

    def __len__(self) -> int:
        return self.governing.shape[0]

    def __repr__(self):  # the default would dump every array
        return (
            f"DRTrace({len(self)} records, dim={self.problem.dim}, "
            f"stop={self.stop_reason.value})"
        )

    @cached_property
    def dual_shadow(self) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            return self.governing - self.shadow

    @cached_property
    def b_dual_shadow(self) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            return (2.0 * self.shadow - self.governing) - self.b_shadow

    @cached_property
    def steps(self) -> np.ndarray:
        """T^n x - T^(n+1) x."""
        with np.errstate(over="ignore", invalid="ignore"):
            return self.governing - (self.dual_shadow + self.b_shadow)

    @cached_property
    def step_norms(self) -> np.ndarray:
        return _norms(self.steps)

    @cached_property
    def trailing_shadow_diameter(self) -> float:
        """Diameter of the shadow over the trailing quarter of the trace."""
        window = trailing_quarter(len(self))
        if self.stationary_at is not None and self.stationary_at <= window.start:
            return 0.0  # every row of the window is the same point
        return diameter(self.shadow[window])

    @property
    def v_estimate(self) -> np.ndarray:
        return self.steps[-1]


def trailing_quarter(length: int) -> slice:
    """Index window covering the last quarter of a trace (never empty)."""
    start = min(length - 1, (3 * length) // 4)
    return slice(start, length)


def _norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of a point or of each row: the one step-norm rule."""
    return np.sqrt(np.vecdot(x, x))


def dr_apply(A: MonotoneOperator, B: MonotoneOperator, x) -> np.ndarray:
    """One application of the splitting operator, x - J_A x + J_B(2 J_A x - x),
    at one point or at each row of a stack."""
    if A.dim != B.dim:
        raise DimensionMismatchError(f"operator dimensions differ: {A.dim} vs {B.dim}")
    xv = as_points(x, A.dim)
    ja = A._checked_map(xv)
    return xv - ja + B._checked_map(2.0 * ja - xv)


def iterate(
    problem: DRProblem,
    max_iters: int = DEFAULT_MAX_ITERS,
    step_tol: float = DEFAULT_STEP_TOL,
) -> DRTrace:
    """Run the iteration from ``problem.x0`` and record every tracked sequence.

    Stops once the step norm drops below ``step_tol`` or after ``max_iters``
    records. Once T^(n+1) x is bitwise equal to T^n x, every later record is
    the same (resolvents are deterministic), so the rest of the trace is filled
    without iterating and ``stationary_at`` is set to n. Divergence is not an
    error; non-finite coordinates are, and so are resolvent images of the wrong
    shape and a ``max_iters`` whose trace arrays cannot be allocated. The
    trace's ``v_estimate`` is the last step vector: step norms are
    nonincreasing (T is firmly nonexpansive), so it is the best estimate of the
    minimal displacement vector the run offers.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    if not step_tol >= 0:  # also rejects NaN
        raise ValueError(f"step_tol must be >= 0, got {step_tol}")
    A, B = problem.A, problem.B
    unchecked_maps = (A.resolvent_map, B.resolvent_map)
    try:
        governing, shadow, b_shadow = (np.empty((max_iters, problem.dim)) for _ in range(3))
    except (MemoryError, ValueError) as exc:
        raise ValueError(
            f"a trace of max_iters={max_iters} records in dimension {problem.dim} "
            "does not fit in memory"
        ) from exc
    x = problem.x0.copy()
    stop = StopReason.MAX_ITERS
    stationary_at = None
    # the images at n = 0 go through the shape check; later ones are trusted
    ja_map, jb_map = A._checked_map, B._checked_map
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(max_iters):
            ja = ja_map(x)
            jb = jb_map(2.0 * ja - x)
            x_next = x - ja + jb
            if not np.all(np.isfinite(x_next)):
                raise NonFiniteIterateError(n)
            governing[n], shadow[n], b_shadow[n] = x, ja, jb
            step_norm = _norms(x - x_next)
            if step_norm < step_tol:
                stop = StopReason.STEP_CONVERGED
                governing, shadow, b_shadow = (
                    a[: n + 1].copy() for a in (governing, shadow, b_shadow)
                )
                break
            # bytes, not ==: a -0.0 that turns into 0.0 can change later rows
            if step_norm == 0.0 and x_next.tobytes() == x.tobytes():
                governing[n + 1 :], shadow[n + 1 :], b_shadow[n + 1 :] = x, ja, jb
                stationary_at = n
                break
            x = x_next
            ja_map, jb_map = unchecked_maps
    return DRTrace(problem, governing, shadow, b_shadow, stop, stationary_at)


def normal_problem(
    A: MonotoneOperator, B: MonotoneOperator, v
) -> tuple[MonotoneOperator, MonotoneOperator]:
    """The shifted pair (A(.) - v, B(. - v)) whose zeros generalize those of A + B."""
    return outer_shift(A, v), inner_shift(B, v)


def shifted_governing(trace: DRTrace, v) -> np.ndarray:
    """The sequence T^n x + n*v as an (n, d) array; bounded (indeed Fejer
    monotone) when v is the displacement vector and the shifted problem has
    solutions."""
    vv = as_point(v, trace.problem.dim)
    return trace.governing + np.arange(len(trace))[:, None] * vv
