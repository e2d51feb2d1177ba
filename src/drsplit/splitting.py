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

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DimensionMismatchError, NonFiniteIterateError
from .operators import MonotoneOperator, inner_shift, outer_shift
from .space import as_point, as_points

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


@dataclass(frozen=True, eq=False)
class IterationRecord:
    n: int
    governing: np.ndarray
    shadow: np.ndarray
    dual_shadow: np.ndarray
    b_shadow: np.ndarray
    b_dual_shadow: np.ndarray
    step: np.ndarray


@dataclass(eq=False)
class DRTrace:
    problem: DRProblem
    records: list[IterationRecord]
    v_estimate: np.ndarray
    stop_reason: StopReason
    _arrays: dict = field(default_factory=dict, repr=False)

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self):  # the default would dump every record
        return (
            f"DRTrace({len(self.records)} records, dim={self.problem.dim}, "
            f"stop={self.stop_reason.value})"
        )

    def _stack(self, name: str) -> np.ndarray:
        if name not in self._arrays:
            self._arrays[name] = np.stack([getattr(r, name) for r in self.records])
        return self._arrays[name]

    @property
    def governing(self) -> np.ndarray:
        return self._stack("governing")

    @property
    def shadow(self) -> np.ndarray:
        return self._stack("shadow")

    @property
    def dual_shadow(self) -> np.ndarray:
        return self._stack("dual_shadow")

    @property
    def b_shadow(self) -> np.ndarray:
        return self._stack("b_shadow")

    @property
    def b_dual_shadow(self) -> np.ndarray:
        return self._stack("b_dual_shadow")

    @property
    def steps(self) -> np.ndarray:
        return self._stack("step")

    @property
    def step_norms(self) -> np.ndarray:
        if "step_norms" not in self._arrays:
            self._arrays["step_norms"] = np.linalg.norm(self.steps, axis=1)
        return self._arrays["step_norms"]


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
    records. Divergence is not an error; non-finite coordinates are. The
    trace's ``v_estimate`` is the last step vector: step norms are
    nonincreasing (T is firmly nonexpansive), so it is the best estimate of
    the minimal displacement vector the run offers.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    if not step_tol >= 0:  # also rejects NaN
        raise ValueError(f"step_tol must be >= 0, got {step_tol}")
    A, B = problem.A, problem.B
    ja_map, jb_map = A.resolvent_map, B.resolvent_map
    x = problem.x0.copy()
    records: list[IterationRecord] = []
    stop = StopReason.MAX_ITERS
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(max_iters):
            ja = ja_map(x)
            ra = 2.0 * ja - x
            jb = jb_map(ra)
            x_next = x - ja + jb
            if not np.all(np.isfinite(x_next)):
                raise NonFiniteIterateError(n)
            step = x - x_next
            records.append(
                IterationRecord(
                    n=n,
                    governing=x,
                    shadow=ja,
                    dual_shadow=x - ja,
                    b_shadow=jb,
                    b_dual_shadow=ra - jb,
                    step=step,
                )
            )
            if float(np.linalg.norm(step)) < step_tol:
                stop = StopReason.STEP_CONVERGED
                break
            x = x_next
    return DRTrace(
        problem=problem,
        records=records,
        v_estimate=records[-1].step.copy(),
        stop_reason=stop,
    )


def normal_problem(
    A: MonotoneOperator, B: MonotoneOperator, v
) -> tuple[MonotoneOperator, MonotoneOperator]:
    """The shifted pair (A(.) - v, B(. - v)) whose zeros generalize those of A + B."""
    return outer_shift(A, v), inner_shift(B, v)


def shifted_governing(trace: DRTrace, v) -> list[np.ndarray]:
    """The sequence T^n x + n*v; bounded (indeed Fejer monotone) when v is the
    displacement vector and the shifted problem has solutions."""
    vv = as_point(v, trace.problem.dim)
    return [r.governing + r.n * vv for r in trace.records]
