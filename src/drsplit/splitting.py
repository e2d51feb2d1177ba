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

import math
import os
from dataclasses import dataclass
from enum import Enum
from functools import cache, cached_property
from typing import Optional

import numpy as np

from .errors import DimensionMismatchError, NonFiniteIterateError
from .operators import MonotoneOperator, inner_shift, outer_shift
from .space import as_point, as_points, diameter, row_norms


class StopReason(str, Enum):
    MAX_ITERS = "max_iters"
    STEP_CONVERGED = "step_converged"


@dataclass(frozen=True, eq=False)
class DRProblem:
    """The pair (A, B) and a start x0; ``companion``, if given, is a second
    start whose orbit ``iterate`` runs alongside the first (the two-orbit
    results compare T^n x0 with T^n companion)."""

    A: MonotoneOperator
    B: MonotoneOperator
    x0: np.ndarray
    companion: Optional[np.ndarray] = None

    def __post_init__(self):
        starts = [as_point(self.x0)]
        if self.companion is not None:
            starts.append(as_point(self.companion))
        for start in starts:
            if not (self.A.dim == self.B.dim == start.shape[0]):
                raise DimensionMismatchError(
                    f"operator/start dimensions differ: {self.A.dim}, {self.B.dim}, {start.shape[0]}"
                )
        object.__setattr__(self, "x0", starts[0])
        if self.companion is not None:
            object.__setattr__(self, "companion", starts[1])

    @property
    def dim(self) -> int:
        return self.x0.shape[0]


@dataclass(eq=False)
class DRTrace:
    """The tracked sequences of one run as ``(n, d)`` arrays, row n for T^n x.

    ``iterate`` fills ``governing``, ``shadow`` and ``b_shadow``, the one
    stored copy of the run. The other sequences are derived from them at each
    read, with the loop's own expressions, so every row is bitwise what the
    loop computed; only the O(N^2) ``trailing_shadow_diameter`` is kept.
    ``stationary_at`` is the first n with T^(n+1) x bitwise equal to T^n x
    (``None`` if there is none): every row from n on is then the same.
    ``companion`` is the trace of the problem's companion start, as many
    records long, bitwise equal to
    ``iterate(DRProblem(A, B, companion), len(trace), step_tol=0.0)``.
    """

    problem: DRProblem
    governing: np.ndarray
    shadow: np.ndarray
    b_shadow: np.ndarray
    stop_reason: StopReason
    stationary_at: Optional[int]
    companion: Optional["DRTrace"] = None

    def __len__(self) -> int:
        return self.governing.shape[0]

    def __repr__(self):  # the default would dump every array
        return (
            f"DRTrace({len(self)} records, dim={self.problem.dim}, "
            f"stop={self.stop_reason.value})"
        )

    @property
    def dual_shadow(self) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            return self.governing - self.shadow

    @property
    def b_dual_shadow(self) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            return (2.0 * self.shadow - self.governing) - self.b_shadow

    @property
    def steps(self) -> np.ndarray:
        """T^n x - T^(n+1) x."""
        with np.errstate(over="ignore", invalid="ignore"):
            return self.governing - (self.dual_shadow + self.b_shadow)

    @property
    def step_norms(self) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            return row_norms(self.steps)

    @cached_property
    def trailing_shadow_diameter(self) -> float:
        """Diameter of the shadow over the trailing quarter of the trace."""
        return diameter(self.shadow[trailing_quarter(len(self))])

    def rows(self, index: slice) -> "DRTrace":
        """The records in ``index`` as a trace of the same problem, with no
        ``stationary_at`` and no companion: each derived sequence of it is
        that slice of the whole trace's, bitwise."""
        stored = (self.governing[index], self.shadow[index], self.b_shadow[index])
        return DRTrace(self.problem, *stored, self.stop_reason, None)

    @property
    def v_estimate(self) -> np.ndarray:
        """The last step, bitwise ``steps[-1]``, from the last record alone."""
        return self.rows(slice(-1, None)).steps[0]

    @property
    def final_step_norm(self) -> float:
        """The last step's norm, bitwise ``step_norms[-1]``."""
        return float(self.rows(slice(-1, None)).step_norms[0])


def trailing_quarter(length: int) -> slice:
    """Index window covering the last quarter of a trace (never empty)."""
    start = min(length - 1, (3 * length) // 4)
    return slice(start, length)


def dr_step(A: MonotoneOperator, B: MonotoneOperator, x) -> tuple[np.ndarray, ...]:
    """One splitting step at one point or at each row of a stack: the checked
    points x, the graph points (J_A x, x - J_A x) of A and (J_B R_A x,
    R_A x - J_B R_A x) of B, and T x = (x - J_A x) + J_B R_A x."""
    if A.dim != B.dim:
        raise DimensionMismatchError(f"operator dimensions differ: {A.dim} vs {B.dim}")
    xv = as_points(x, A.dim)
    ja = A._checked_map(xv)
    ra = (ja + ja) - xv  # doubling is exact: bitwise 2.0 * ja - xv
    jb = B._checked_map(ra)
    da = xv - ja
    return xv, ja, da, jb, ra - jb, da + jb


def dr_apply(A: MonotoneOperator, B: MonotoneOperator, x) -> np.ndarray:
    """T x, the last image of ``dr_step``."""
    return dr_step(A, B, x)[-1]


def _read_text(path: str) -> Optional[str]:
    """The contents of a text file, or ``None`` where it cannot be read."""
    try:
        with open(path, encoding="ascii") as f:
            return f.read()
    except (OSError, UnicodeDecodeError):
        return None


@cache  # reading /proc/self/cgroup costs about 20 us; iterate asks on every call
def _cgroup_memory_max() -> Optional[int]:
    """The cgroup v2 ``memory.max`` of this process in bytes, read once;
    ``None`` where there is none or it reads ``max`` (no limit)."""
    # a cgroup v2 process names its group on the line "0::<path>"
    membership = (_read_text("/proc/self/cgroup") or "").splitlines()
    groups = [line[3:] for line in membership if line.startswith("0::")]
    if not groups:
        return None
    limit = (_read_text(f"/sys/fs/cgroup{groups[0].rstrip('/')}/memory.max") or "").strip()
    return int(limit) if limit.isdigit() else None


def _physical_memory_bytes() -> Optional[int]:
    """Memory the process can have: the host's physical memory, or its cgroup
    v2 ``memory.max`` where that is smaller; ``None`` where neither is known."""
    try:
        page, pages = os.sysconf("SC_PAGE_SIZE"), os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        page = pages = 0
    host = page * pages if page > 0 and pages > 0 else None
    known = [b for b in (host, _cgroup_memory_max()) if b is not None]
    return min(known) if known else None


_MAX_FLOAT = float(np.finfo(float).max)


def iterate(problem: DRProblem, max_iters: int, step_tol: float) -> DRTrace:
    """Run the iteration from ``problem.x0`` and record every tracked sequence.

    Stops once the step norm drops below ``step_tol`` or after ``max_iters``
    records. Once T^(n+1) x is bitwise equal to T^n x, every later record is
    the same (resolvents are deterministic), so the rest of the trace is filled
    without iterating and ``stationary_at`` is set to n. Divergence is not an
    error; non-finite coordinates are, and so are resolvent images of the wrong
    shape (``OperatorContractError``) and a ``max_iters`` whose trace arrays
    exceed the memory the process can have (host or cgroup) or cannot be
    allocated (``ValueError``). The trace's ``v_estimate`` is the last step
    vector: step norms are nonincreasing (T is firmly nonexpansive), so it is
    the best estimate of the minimal displacement vector the run offers.

    A companion start is iterated in the same loop, both orbits as the rows
    of one (2, d) state (each row of a stacked resolvent call is bitwise its
    solo image). An orbit that turns stationary leaves the state, and the
    other goes on alone as a (d,) point. The lead orbit alone decides when
    the run stops; the companion is recorded as if run alone with
    ``step_tol=0`` for as many records.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    if not step_tol >= 0:  # also rejects NaN
        raise ValueError(f"step_tol must be >= 0, got {step_tol}")
    A, B, d = problem.A, problem.B, problem.dim
    starts = [problem.x0] if problem.companion is None else [problem.x0, problem.companion]
    orbits = len(starts)
    try:
        budget = _physical_memory_bytes()
        if budget is not None and 3 * orbits * max_iters * d * 8 > budget:
            raise MemoryError  # numpy would reserve it, and the writes would fail
        governing, shadow, b_shadow = (np.empty((orbits, max_iters, d)) for _ in range(3))
    except (MemoryError, ValueError) as exc:
        raise ValueError(
            f"a trace of max_iters={max_iters} records in dimension {d} "
            "does not fit in memory"
        ) from exc
    length = max_iters
    stop = StopReason.MAX_ITERS
    stationary_at: list[Optional[int]] = [None] * orbits
    # ``live`` indexes the orbits in the state on the buffers' orbit axis: a
    # slice while several run as the rows of one (k, d) state, the orbit's
    # number once one runs alone as a (d,) point, so that it takes the
    # resolvents' one-point paths, which are faster than their stacked ones
    live = 0 if orbits == 1 else slice(0, orbits)
    x = np.stack(starts)[live]
    unchecked_maps = (A.resolvent_map, B.resolvent_map)
    # the images at n = 0 go through the shape check; later ones are trusted
    ja_map, jb_map = A._checked_map, B._checked_map
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(max_iters):
            ja = ja_map(x)
            jb = jb_map((ja + ja) - x)  # bitwise 2.0 * ja - x, and cheaper
            x_next = x - ja + jb
            governing[live, n], shadow[live, n], b_shadow[live, n] = x, ja, jb
            ja_map, jb_map = unchecked_maps
            step = x - x_next  # its norms have row_norms' bits: dot and vecdot share a kernel
            if x.ndim == 1:  # a lone orbit; step_tol >= 0, so this also needs norm > 0
                norm = math.sqrt(step.dot(step))
                if step_tol < norm <= _MAX_FLOAT:
                    x = x_next
                    continue
                norms = [norm]
            else:
                norms = np.sqrt(np.vecdot(step, step)).tolist()  # one per orbit, in row order
                # row 0 is the lead while it is live; it leaves only when
                # step_tol is 0, so row 0 can be held to step_tol in every state
                if step_tol < norms[0] and all(0.0 < norm <= _MAX_FLOAT for norm in norms):
                    x = x_next
                    continue
            # x is finite, so x_next can only be non-finite when a step norm is
            if not all(norm <= _MAX_FLOAT for norm in norms) and not np.all(np.isfinite(x_next)):
                raise NonFiniteIterateError(n)
            converged = norms[0] < step_tol  # the lead stops every orbit
            if converged:
                stop, length = StopReason.STEP_CONVERGED, n + 1
            orbit_ids = np.arange(orbits)[live].reshape(-1).tolist()
            x_rows, next_rows, ja_rows, jb_rows = (a.reshape(-1, d) for a in (x, x_next, ja, jb))
            moving = []  # the rows whose orbits are not stationary
            for p, orbit in enumerate(orbit_ids):
                # bytes, not ==: a -0.0 that turns into 0.0 can change later rows
                if (
                    norms[p] == 0.0
                    and not (p == 0 and converged)
                    and next_rows[p].tobytes() == x_rows[p].tobytes()
                ):
                    rest = slice(n + 1, length)
                    governing[orbit, rest], shadow[orbit, rest] = x_rows[p], ja_rows[p]
                    b_shadow[orbit, rest] = jb_rows[p]
                    stationary_at[orbit] = n
                else:
                    moving.append(p)
            if converged or not moving:
                break
            if len(moving) < len(orbit_ids):  # with two orbits, one goes on alone
                [p] = moving
                live, x_next = orbit_ids[p], next_rows[p]
            x = x_next

    def orbit_arrays(orbit: int) -> list[np.ndarray]:
        # each orbit's rows are one contiguous block of the buffers
        arrays = [a[orbit] for a in (governing, shadow, b_shadow)]
        return arrays if length == max_iters else [a[:length].copy() for a in arrays]

    companion = None
    if orbits == 2:
        companion = DRTrace(
            DRProblem(A, B, problem.companion),
            *orbit_arrays(1),
            StopReason.MAX_ITERS,
            stationary_at[1],
        )
    return DRTrace(problem, *orbit_arrays(0), stop, stationary_at[0], companion)


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
