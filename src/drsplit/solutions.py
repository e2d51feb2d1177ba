"""Solution sets of the sum problem and Fejer-monotonicity diagnostics.

Solution sets are handled as finite samples; membership is always certified
through resolvent identities (a pair (z, k) belongs to the extended solution
set iff z + k is a fixed point of the splitting map with J_A(z + k) = z),
because that is exactly what is computable. The checkers here verify
monotone-distance (Fejer) behaviour of recorded sequences against such
samples, the pairing/Cauchy evidence for the sequential convergence
principle, and the summability of the coupled series along two runs of the
same problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .errors import DimensionMismatchError, UncertifiedFixedPointError
from .operators import MonotoneOperator
from .space import as_point, as_points, diameter, row_blocks, row_norms
from .splitting import (
    DRProblem,
    DRTrace,
    _tile_periods,
    distinct_rows_stop,
    dr_step,
    trailing_quarter,
)


@dataclass(eq=False)
class SetSample:
    """A finite stand-in for a (possibly infinite) solution set: one sampled
    point per row of ``points``, an (m, d) array."""

    points: np.ndarray

    def __post_init__(self):
        points = as_points(self.points)
        if points.ndim != 2:
            raise ValueError(f"expected an (m, d) stack of sample points, got shape {points.shape}")
        self.points = points

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(eq=False)
class SolutionSets:
    """Samples of every solution object attached to one problem instance.

    Row i of ``primal`` and ``dual`` is (J_A y, y - J_A y) for row y of
    ``fix_t``; together they form the i-th solution pair (z, k), a point of
    the extended solution set.
    """

    fix_t: SetSample
    primal: SetSample  # zeros of A + B
    dual: SetSample  # zeros of the dual pair

    @property
    def pairs(self) -> SetSample:
        """The solution pairs as points (z, k) of the product space."""
        return SetSample(np.hstack([self.primal.points, self.dual.points]))


# ---------------------------------------------------------------------------
# solution samples

# the step norm ||y - T y|| up to which a point counts as a certified fixed point
_CERTIFIED_STEP = 1e-9


def primal_dual_from_fix(A: MonotoneOperator, B: MonotoneOperator, points) -> SolutionSets:
    """Certify candidate fixed points and split them into primal/dual solution
    samples through J_A.

    ``points`` is an (m, d) stack of candidate fixed points. Each point y
    yields z = J_A y and k = y - z, read off the step that certifies it; (z, k)
    then solves the primal and dual problems at once. A point whose step norm
    ||y - Ty|| exceeds ``_CERTIFIED_STEP`` (1e-9), or is not finite (so a point
    with non-finite coordinates, whose step is NaN), raises
    :class:`UncertifiedFixedPointError`, a ``ValueError``.
    """
    y = np.asarray(points, dtype=float)
    finite = np.all(np.isfinite(y), axis=-1)
    # a point far out may overflow in its step
    with np.errstate(over="ignore", invalid="ignore"):
        if np.all(finite):
            y, z, k, _, _, ty = dr_step(A, B, y)
            steps = row_norms(y - ty)
        else:
            steps = np.where(finite, 0.0, np.nan)
    moving = np.flatnonzero(~(steps <= _CERTIFIED_STEP))  # a NaN step certifies nothing
    if moving.size:
        i = int(moving[0])
        raise UncertifiedFixedPointError(
            f"point {i} is not fixed: step norm {steps[i]:.3e} exceeds {_CERTIFIED_STEP:.1e}"
        )
    return SolutionSets(fix_t=SetSample(y), primal=SetSample(z), dual=SetSample(k))


# ---------------------------------------------------------------------------
# Fejer monotonicity and convergence evidence


@dataclass(eq=False)
class FejerResult:
    passed: bool
    first_violation: Optional[int]
    max_increase: float  # worst growth of distance, in norm terms
    max_sq_increase: float  # worst growth of squared distance
    witness_index: Optional[int]  # step index achieving max_sq_increase


def fejer_check(x, E: SetSample, slack: float = 0.0) -> FejerResult:
    """Is the sequence within-``slack`` Fejer monotone with respect to the sample?

    ``x`` is the sequence, row n its n-th term: an (n, d) array with n >= 1,
    or its consecutive (k, d) row blocks as an iterable, read once and never
    joined, so that a caller can build one block at a time. Checks
    ||x[n+1] - e|| <= ||x[n] - e|| + slack for every sampled e and every n;
    reports the first violating step and the largest increase of the squared
    distance (the quantity that is exactly zero-summable in theory).
    """
    e = E.points
    if not len(e):
        raise ValueError("reference sample must be nonempty")
    dists = _sample_distances([x] if isinstance(x, np.ndarray) else x, e)
    if dists.shape[0] == 1:
        return FejerResult(True, None, 0.0, 0.0, None)
    with np.errstate(over="ignore", invalid="ignore"):
        diffs = dists[1:] - dists[:-1]  # (n-1, m)
        sq_diffs = dists[1:] ** 2 - dists[:-1] ** 2
    violations = ~(diffs <= slack)  # a NaN difference is a violation, never a pass
    passed = not bool(np.any(violations))
    first = int(np.argwhere(np.any(violations, axis=1))[0, 0]) if not passed else None
    max_sq = float(np.max(sq_diffs))
    witness = int(np.unravel_index(np.argmax(sq_diffs), sq_diffs.shape)[0])
    return FejerResult(
        passed=passed,
        first_violation=first,
        max_increase=float(np.max(diffs)),
        max_sq_increase=max_sq,
        witness_index=witness,
    )


def _sample_distances(blocks, e: np.ndarray) -> np.ndarray:
    """The (n, m) distances ||x_i - e_j|| of a sequence given as consecutive
    row blocks to the m rows of ``e``, one column per sample point, formed one
    ``row_blocks`` slice of each block at a time: a row's norm depends on that
    row alone."""
    columns = []
    # np.linalg.norm, not row_norms (whose sums round differently); an
    # overflowing orbit gives inf or NaN distances, which fail the check
    with np.errstate(over="ignore", invalid="ignore"):
        for block in blocks:
            if not (isinstance(block, np.ndarray) and block.ndim == 2):
                raise ValueError(f"expected (k, d) row blocks, got {type(block).__name__} {np.shape(block)}")
            if block.shape[1] != e.shape[1]:
                raise DimensionMismatchError(
                    f"sequence dimension {block.shape[1]} differs from sample dimension {e.shape[1]}"
                )
            for rows in row_blocks(*block.shape):
                columns.append(np.stack([np.linalg.norm(block[rows] - p, axis=1) for p in e], axis=1))
    if not sum(len(c) for c in columns):
        raise ValueError("expected a nonempty sequence")
    return np.concatenate(columns)


@dataclass(eq=False)
class SweetPrincipleReport:
    """Numerical evidence for the coupled-sequence convergence principle.

    ``fejer`` certifies monotone distances of the driving sequence to the
    sample; ``pairing_max`` is the worst |<u_n - e, u_n - x_n>| over the
    trailing quarter (this pairing must vanish in the limit); ``cauchy`` is
    the trailing-quarter diameter of the companion sequence. The verdict is
    evidence of convergence, not a proof: the limit statement itself lives at
    infinite horizon.
    """

    fejer: FejerResult
    pairing_max: float
    cauchy: float
    verdict: bool


def sweet_principle_check(
    x_seq: np.ndarray,
    u_seq: np.ndarray,
    E: SetSample,
    tol: float,
    cauchy: Optional[float] = None,
    tail: tuple[Optional[int], Optional[int]] = (None, None),
) -> SweetPrincipleReport:
    """Check the three hypotheses/conclusions of the coupled Fejer principle.

    ``x_seq`` is the Fejer-monotone driver, ``u_seq`` the bounded companion
    whose limit is claimed to land in the set sampled by ``E``, both (n, d)
    arrays with n >= 1 (one row is its own trailing window). ``cauchy`` is
    the trailing-quarter diameter of ``u_seq`` when the caller already has it
    (a trace caches its shadow's); otherwise it is computed here. ``tail`` is
    the sequences' ``(tail_start, tail_period)`` when their rows from
    tail_start on repeat with that period, as a trace's do: the Fejer part
    then reads the first ``DRTrace.defining_rows`` rows and the pairings the
    first period of the trailing quarter (with the rows before the tail in
    it), every result bitwise as over all rows.
    """
    if not (isinstance(u_seq, np.ndarray) and u_seq.shape == np.shape(x_seq)):
        raise ValueError(f"sequence shapes differ: {np.shape(x_seq)} vs {np.shape(u_seq)}")
    n = x_seq.shape[0]
    # DRTrace.defining_rows' rule
    fejer = fejer_check(x_seq[: distinct_rows_stop(0, n - 1, *tail) + 1], E, slack=1e-10)
    window = trailing_quarter(n)
    distinct = slice(window.start, distinct_rows_stop(window.start, n, *tail))
    pairing_max = float(np.max(np.abs(_sample_pairings(u_seq[distinct], x_seq[distinct], E.points))))
    if cauchy is None:
        cauchy = diameter(u_seq[window])
    verdict = bool(fejer.passed and pairing_max <= tol and cauchy <= tol)
    return SweetPrincipleReport(
        fejer=fejer,
        pairing_max=pairing_max,
        cauchy=cauchy,
        verdict=verdict,
    )


def _sample_pairings(u: np.ndarray, x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The (n, m) pairings <u_i - e_j, u_i - x_i>, one column per sample point,
    formed one row block at a time."""
    columns = []
    with np.errstate(over="ignore", invalid="ignore"):
        for rows in row_blocks(*u.shape):
            u_rows = u[rows]
            gap = u_rows - x[rows]
            columns.append(np.stack([np.einsum("nd,nd->n", u_rows - p, gap) for p in e], axis=1))
    return np.concatenate(columns)


@dataclass(eq=False)
class SummabilityReport:
    """Partial sums and last terms of the three coupled series along two runs."""

    step_diff_sum: float
    pairing_a_sum: float
    pairing_b_sum: float
    step_diff_last: float
    pairing_a_last: float
    pairing_b_last: float
    pairing_a_min: float
    pairing_b_min: float
    pairings_nonnegative: bool
    final_terms_small: bool


def summability_report(
    trace_x: DRTrace,
    trace_y: DRTrace | Iterable[DRTrace],
    term_tol: float = 1e-8,
    nonneg_tol: float = 1e-10,
) -> SummabilityReport:
    """Evaluate the three telescoping series for two starts of one problem.

    ``trace_y`` is a trace or its consecutive row-block traces as an iterable,
    read once and never joined; the pairs run as far as both runs reach. The
    step-difference series has square-summable terms; the two pairing series
    have nonnegative terms (graph monotonicity) whose sums are bounded by the
    initial squared gap of the starts.

    Where both runs end in a tail, the lead's (t_x, p_x) and the second run's
    (t_y, p_y) from its first row-block trace that has one (offset by the rows
    before that block), every term from max(t_x, t_y) on repeats with period
    lcm(p_x, p_y). The terms are computed up to one such period and the rest
    is copied from it, so every sum, minimum and last term is bitwise the one
    over all terms; every block of ``trace_y`` is still read.
    """
    px = trace_x.problem
    # the three (n,) term vectors, each block's from that block's rows alone
    step_diff, pa, pb = (np.empty(len(trace_x)) for _ in range(3))
    n = 0  # records of both runs paired so far
    computed, tail = len(trace_x), None  # terms past computed repeat with tail = (start, period)
    # an overflowing orbit gives inf or NaN terms, which fail the verdicts
    with np.errstate(over="ignore", invalid="ignore"):
        for block in [trace_y] if isinstance(trace_y, DRTrace) else trace_y:
            if block.problem.A is not px.A or block.problem.B is not px.B:
                raise ValueError("traces come from different problems")
            if tail is None and trace_x.tail_start is not None and block.tail_start is not None:
                start = max(trace_x.tail_start, n + block.tail_start)
                tail = start, math.lcm(trace_x.tail_period, block.tail_period)
                computed = min(computed, sum(tail))
            paired = min(len(block), len(trace_x) - n)
            for rows in row_blocks(max(0, min(paired, computed - n)), px.dim):
                at = slice(n + rows.start, n + rows.stop)
                bx, by = trace_x.rows(at), block.rows(rows)
                # each run's dual shadow once, and its steps from it by DRTrace.steps' expression
                dx, dy = bx.dual_shadow, by.dual_shadow
                steps_x, steps_y = bx.governing - (dx + bx.b_shadow), by.governing - (dy + by.b_shadow)
                step_diff[at] = np.sum((steps_x - steps_y) ** 2, axis=1)
                pa[at] = np.sum((bx.shadow - by.shadow) * (dx - dy), axis=1)
                pb[at] = np.sum((bx.b_shadow - by.b_shadow) * (bx.b_dual_shadow - by.b_dual_shadow), axis=1)
            n += paired
    if not n:
        raise ValueError("expected a nonempty second run")
    step_diff, pa, pb = step_diff[:n], pa[:n], pb[:n]
    if computed < n:
        for terms in (step_diff, pa, pb):
            _tile_periods(terms, *tail, computed)
    return SummabilityReport(
        step_diff_sum=float(step_diff.sum()),
        pairing_a_sum=float(pa.sum()),
        pairing_b_sum=float(pb.sum()),
        step_diff_last=float(step_diff[-1]),
        pairing_a_last=float(pa[-1]),
        pairing_b_last=float(pb[-1]),
        pairing_a_min=float(pa.min()),
        pairing_b_min=float(pb.min()),
        pairings_nonnegative=bool(pa.min() >= -nonneg_tol and pb.min() >= -nonneg_tol),
        final_terms_small=bool(
            step_diff[-1] <= term_tol and pa[-1] <= term_tol and pb[-1] <= term_tol
        ),
    )


def decoupled_1d_fejer_check(problem: DRProblem, z, k, trace: DRTrace) -> bool:
    """On the line, shadows and dual shadows are separately Fejer monotone.

    Checks |shadow[n+1] - z| <= |shadow[n] - z| + 1e-12 and the analogous
    inequality of the dual shadows against k, over the trace's
    ``defining_rows``. Only valid in dimension 1; in the plane the coupled
    check is the best possible (see the quarter-turn counterexample).
    """
    if problem.dim != 1:
        raise DimensionMismatchError("decoupled Fejer monotonicity is a 1-d statement")
    zv = as_point(z, 1)
    kv = as_point(k, 1)
    part = trace.rows(slice(0, trace.defining_rows))
    shadow_ok = fejer_check(part.shadow, SetSample([zv]), slack=1e-12).passed
    dual_ok = fejer_check(part.dual_shadow, SetSample([kv]), slack=1e-12).passed
    return bool(shadow_ok and dual_ok)
