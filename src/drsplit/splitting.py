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

import os
from dataclasses import dataclass
from enum import Enum
from functools import cache, cached_property
from typing import Iterator, Optional

import numpy as np

from .errors import DimensionMismatchError, NonFiniteIterateError
from .operators import MonotoneOperator, inner_shift, outer_shift
from .space import as_point, as_points, diameter, row_blocks, row_norms


class StopReason(str, Enum):
    MAX_ITERS = "max_iters"
    STEP_CONVERGED = "step_converged"


@dataclass(frozen=True, eq=False)
class DRProblem:
    """The pair (A, B) and a start x0."""

    A: MonotoneOperator
    B: MonotoneOperator
    x0: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x0", as_point(self.x0))
        dims = (self.A.dim, self.B.dim, self.dim)
        if len(set(dims)) > 1:
            raise DimensionMismatchError("operator/start dimensions differ: " + ", ".join(map(str, dims)))

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
    ``tail_start`` and ``tail_period`` are the first n and the least p with
    T^(n+p) x bitwise equal to T^n x, both ``None`` where ``iterate`` found
    none: every row from n on repeats rows n to n + p - 1, so a reduction over
    the rows needs only the first ``defining_rows``.
    """

    problem: DRProblem
    governing: np.ndarray
    shadow: np.ndarray
    b_shadow: np.ndarray
    stop_reason: StopReason
    tail_start: Optional[int]
    tail_period: Optional[int]

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

    @property
    def defining_rows(self) -> int:
        """How many leading rows fix every row's values and every difference of
        consecutive rows: min(N, t + p + 1) for a tail (t, p), else N. A
        reduction that reads only them (a max, an argmax or a first violation,
        each a first occurrence) is bitwise the one over all N rows."""
        # the rows of the distinct consecutive differences, and the row after the last
        return distinct_rows_stop(0, len(self) - 1, self.tail_start, self.tail_period) + 1

    @cached_property
    def trailing_shadow_diameter(self) -> float:
        """Diameter of the shadow over the trailing quarter of the trace."""
        return diameter(self.shadow[trailing_quarter(len(self))])

    def rows(self, index: slice) -> "DRTrace":
        """The records in ``index`` as a trace of the same problem, with no
        tail: each derived sequence of it is that slice of the whole trace's,
        bitwise."""
        stored = (self.governing[index], self.shadow[index], self.b_shadow[index])
        return DRTrace(self.problem, *stored, self.stop_reason, None, None)

    @property
    def v_estimate(self) -> np.ndarray:
        """The last step, bitwise ``steps[-1]``, from the last record alone."""
        return self.rows(slice(-1, None)).steps[0]

    @property
    def final_step_norm(self) -> float:
        """The last step's norm, bitwise ``step_norms[-1]``."""
        return float(self.rows(slice(-1, None)).step_norms[0])


def distinct_rows_stop(first: int, length: int, tail_start: Optional[int], tail_period: Optional[int]) -> int:
    """Where the shortest run of rows from ``first`` that holds every distinct
    row of rows ``first`` to ``length - 1`` ends, for a sequence whose rows
    from ``tail_start`` on repeat with period ``tail_period``: min(length,
    max(first, t) + p), or ``length`` without a tail."""
    if tail_start is None:
        return length
    return min(length, max(first, tail_start) + tail_period)


def _tile_periods(a: np.ndarray, start: int, period: int, known: int) -> None:
    """Fill ``a[known:]`` from the rows before it, whose rows from ``start`` on
    repeat with ``period``: each copy is of whole periods that end where it
    begins, and twice as many as the last."""
    n, run = known, period * ((known - start) // period)
    while n < len(a):
        count = min(run, len(a) - n)
        a[n : n + count] = a[n - run : n - run + count]
        n, run = n + count, 2 * run


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


# records the loop computes between two step tests: one vectorized pass then
# tests each step of the block (32 measured fastest; 64 runs the same), so
# the loop computes at most 31 records past a stop. A block guessed as a
# translation starts at this length and doubles with each guess kept whole;
# its rows past a stop come from its one stacked call and are discarded
STEP_TEST_RECORDS = 32


def _guessed_rows(
    A: MonotoneOperator, B: MonotoneOperator, arrays: list[np.ndarray], first: int, m: int, x, delta
) -> tuple[int, np.ndarray]:
    """Guess the m records from row ``first`` as x, x + delta, x + 2 delta, ...,
    evaluate the guess with one ``dr_step`` (one stacked call per resolvent,
    the loop's expressions) and write into ``arrays`` the rows up to the first
    whose T-image misses the next guess: by the row contract each is the
    loop's record, bit for bit. Returns how many rows it wrote and the last
    one's T-image; the guess's temporaries are freed on return."""
    guess = np.cumsum(np.vstack((x, np.tile(delta, (m - 1, 1)))), axis=0)
    guess, ja, _, jb, _, nxt = dr_step(A, B, guess)
    misses = np.flatnonzero(np.any(nxt[:-1].view(np.int64) != guess[1:].view(np.int64), axis=1))
    took = int(misses[0]) + 1 if misses.size else m
    for a, images in zip(arrays, (guess, ja, jb)):
        a[first : first + took] = images[:took]
    return took, nxt[took - 1].copy()


def _orbit(
    problem: DRProblem, arrays: list[np.ndarray], step_tol: float
) -> tuple[int, StopReason, Optional[int], Optional[int]]:
    """Iterate the orbit from ``problem.x0`` into ``arrays`` (governing, shadow
    and b_shadow, as many records as they hold): its length, stop reason,
    ``tail_start`` and ``tail_period``, as ``iterate`` describes them."""
    A, B, x = problem.A, problem.B, problem.x0
    governing, shadow, b_shadow = arrays
    max_iters = len(governing)
    bits = governing.view(np.int64)  # rows compared as the step test compares them
    # Brent's cycle search: the rows of each window are compared with the row
    # before it (the first window's with row 0), and each window is twice as
    # long as the last, so a cycle is found at the end of the first window
    # that starts inside it and holds a whole period
    anchor, window, window_end = 0, STEP_TEST_RECORDS, STEP_TEST_RECORDS
    # the most rows one guess holds: one row block of rows of 9 d numbers, d in
    # each of dr_step's six images and its reflection, and in the last block's
    # next points and steps, still held while the guess is evaluated
    budget = next(row_blocks(max_iters, 9 * problem.dim)).stop
    unchecked_maps = (A.resolvent_map, B.resolvent_map)
    # the images at n = 0 go through the shape check; later ones are trusted
    ja_map, jb_map = A._checked_map, B._checked_map
    delta = None  # minus the last block's last step where its last two are bitwise equal
    first, guess_rows = 0, STEP_TEST_RECORDS  # the next block's first row and longest guess
    with np.errstate(over="ignore", invalid="ignore"):
        while first < max_iters:
            failure, took, whole = None, 0, False
            end = min(window_end, max_iters)  # no block crosses the end of a window
            if delta is not None:
                m = min(guess_rows, budget, end - first)
                try:
                    took, x = _guessed_rows(A, B, arrays, first, m, x, delta)
                except Exception:  # a rejected guess or an image of the wrong shape: the loop does it all
                    pass
                else:
                    whole = took == m
            # a guess kept whole is the block, and the next may be twice as long;
            # else the loop finishes the 32-record block of the last row kept (of
            # the first row, where none was), and the next guess is 32 rows again
            last = first + max(took - 1, 0)
            stop = first + took if whole else min(end, last - last % STEP_TEST_RECORDS + STEP_TEST_RECORDS)
            guess_rows = 2 * guess_rows if whole else STEP_TEST_RECORDS
            block = slice(first, stop)
            try:
                for n in range(first + took, stop):
                    ja = ja_map(x)
                    jb = jb_map((ja + ja) - x)  # bitwise 2.0 * ja - x, and cheaper
                    governing[n], shadow[n], b_shadow[n] = x, ja, jb
                    x = x - ja + jb
                    ja_map, jb_map = unchecked_maps
            except Exception as exc:  # a resolvent may reject a point past a breakdown
                failure, block = exc, slice(first, n)
            g, s, b = governing[block], shadow[block], b_shadow[block]
            x_next = (g - s) + b  # row n is bitwise x - ja + jb
            step = g - x_next  # DRTrace.steps' expression
            norms = row_norms(step)
            if not np.all((step_tol < norms) & (norms <= _MAX_FLOAT)):
                # each record before the first stop goes on to a finite point
                broken = ~np.all(np.isfinite(x_next), axis=1)
                converged = norms < step_tol
                # bytes, not ==: a -0.0 that turns into 0.0 can change later rows
                repeats = (norms == 0.0) & np.all(x_next.view(np.int64) == g.view(np.int64), axis=1)
                stops = np.flatnonzero(broken | converged | repeats)
                if stops.size:
                    k = int(stops[0])
                    n = first + k
                    if broken[k]:
                        raise NonFiniteIterateError(n)
                    if converged[k]:
                        return n + 1, StopReason.STEP_CONVERGED, None, None
                    known, start, period = n + 1, n, 1
                    break
            if failure is not None:
                raise failure
            delta = -step[-1] if len(step) > 1 and step[-1].tobytes() == step[-2].tobytes() else None
            if stop == window_end:
                # the rows whose first coordinate matches, then their whole rows
                hits = anchor + 1 + np.flatnonzero(bits[anchor + 1 : window_end, 0] == bits[anchor, 0])
                hits = hits[np.all(bits[hits] == bits[anchor], axis=1)]
                if hits.size:
                    # the tail starts at the first row that the period repeats
                    known, period = window_end, int(hits[0]) - anchor
                    start = int(np.argmax(np.all(bits[: known - period] == bits[period:known], axis=1)))
                    break
                anchor, window = window_end - 1, 2 * window
                window_end += window
            first = stop
        else:
            return max_iters, StopReason.MAX_ITERS, None, None
    for a in arrays:
        _tile_periods(a, start, period, known)
    return max_iters, StopReason.MAX_ITERS, start, period


def iterate(problem: DRProblem, max_iters: int, step_tol: float) -> DRTrace:
    """Run the iteration from ``problem.x0`` and record every tracked sequence.

    Stops once the step norm drops below ``step_tol`` or after ``max_iters``
    records. Once T^(n+p) x is bitwise equal to T^n x, every later record
    repeats records n to n + p - 1 (resolvents are deterministic), so the rest
    of the trace is tiled from them without iterating and ``tail_start`` and
    ``tail_period`` are n and p: p = 1 (a stationary orbit; n is 0 from a fixed
    point) is found at the first repeat, a longer period by Brent's cycle
    search at the end of windows of 32, 64, 128, ... records. Both come after
    each block's step test, so a tail never skips a stop. Divergence is not an
    error; non-finite coordinates are, and so are resolvent images of the
    wrong shape (``OperatorContractError``) and a ``max_iters`` whose trace
    arrays exceed the memory the process can have (host or cgroup) or cannot
    be allocated (``ValueError``). The trace's ``v_estimate`` is the last step
    vector: step norms are nonincreasing (T is firmly nonexpansive), so it is
    the run's best estimate of the minimal displacement vector.

    The loop computes blocks of ``STEP_TEST_RECORDS`` records and then tests
    each step of a block in one vectorized pass, with ``DRTrace.steps``'
    expression and ``row_norms``; it keeps the records up to the block's first
    stop and discards the rest, so the loop computes and throws away up to 31
    records past a stop. Where a block's last two steps are bitwise equal (an
    orbit that translates, as the zero-free affine ones do), the next block is
    guessed as x, x + delta, x + 2 delta, ... with delta minus that step, and
    each resolvent is called once on the stacked guess through ``dr_step``,
    whose expressions are the loop's: the rows up to the first whose T-image
    misses the next guess are the loop's records, by the row contract of
    ``MonotoneOperator``. A guess kept whole is the block, and the next guess
    is twice as long (32, 64, 128, ... rows), but never crosses the end of a
    Brent window or ``max_iters`` and holds at most one ``space.row_blocks``
    block of rows of 9 d numbers; a guessed block discards its rows past a
    stop, all from its one stacked call. After a miss the record-by-record
    loop finishes the 32-record block of the last row kept, or computes a
    whole 32-record block where a stacked call raises or returns the wrong
    shape, and the next guess is 32 rows again.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    if not step_tol >= 0:  # also rejects NaN
        raise ValueError(f"step_tol must be >= 0, got {step_tol}")
    d = problem.dim
    try:
        budget = _physical_memory_bytes()
        if budget is not None and 3 * max_iters * d * 8 > budget:
            raise MemoryError  # numpy would reserve it, and the writes would fail
        arrays = [np.empty((max_iters, d)) for _ in range(3)]
    except (MemoryError, ValueError) as exc:
        message = f"a trace of max_iters={max_iters} records in dimension {d} does not fit in memory"
        raise ValueError(message) from exc
    length, stop, tail_start, tail_period = _orbit(problem, arrays, step_tol)
    if length < max_iters:
        arrays = [a[:length].copy() for a in arrays]
    return DRTrace(problem, *arrays, stop, tail_start, tail_period)


def _orbit_blocks(problem: DRProblem, max_iters: int, step_tol: float) -> Iterator[DRTrace]:
    """The orbit's first ``max_iters`` records (at most) as consecutive traces
    of ``space.row_blocks`` of records three points wide, bitwise the rows of
    ``iterate(problem, max_iters, step_tol)``: every block is an ``iterate``
    call from where the last block's loop would have gone on, the blocks end
    after a ``STEP_CONVERGED`` one, and a ``NonFiniteIterateError`` carries
    the orbit-wide index. Each block's tail is its own: a block that starts
    inside a cycle finds it again within its first windows (a fixed point at
    its ``tail_start`` 0), and tiles the rest."""
    A, B, x = problem.A, problem.B, problem.x0
    for rows in row_blocks(max_iters, 3 * problem.dim):
        try:
            trace = iterate(DRProblem(A, B, x), rows.stop - rows.start, step_tol)
        except NonFiniteIterateError as exc:
            raise NonFiniteIterateError(rows.start + exc.iteration) from None
        yield trace
        if trace.stop_reason is StopReason.STEP_CONVERGED:
            return
        # the loop's x_next, (x - J_A x) + J_B R_A x, bit for bit
        x = trace.governing[-1] - trace.shadow[-1] + trace.b_shadow[-1]


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
