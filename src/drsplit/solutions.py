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

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionMismatchError, NonFiniteIterateError, PossiblyInconsistentError
from .operators import MonotoneOperator
from .space import as_point, as_points, diameter, row_norms
from .splitting import DRProblem, DRTrace, StopReason, dr_apply, iterate, trailing_quarter


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
# fixed points and solution samples


# The fixed-point search iterates in runs of at most this many records, so it
# holds one such trace whatever its ``max_iters``.
SEARCH_CHUNK = 4096


def find_fixed_point(problem: DRProblem, tol: float, max_iters: int = 100_000) -> np.ndarray:
    """Iterate until the step norm drops below ``tol`` and return that point.

    Raises :class:`PossiblyInconsistentError` (carrying the displacement
    estimate) when the step norm stagnates above ``tol``. The search runs in
    chunks of ``SEARCH_CHUNK`` records, each started at the point the last
    one's loop would have gone on to, so its results are bitwise those of one
    ``iterate(problem, max_iters, tol)`` run.
    """
    x, done = problem.x0, 0
    while True:
        chunk = min(SEARCH_CHUNK, max_iters - done)  # iterate rejects a max_iters below 1
        try:
            trace = iterate(DRProblem(problem.A, problem.B, x), chunk, tol)
        except NonFiniteIterateError as exc:
            raise NonFiniteIterateError(done + exc.iteration) from None
        if trace.stop_reason is StopReason.STEP_CONVERGED:
            return trace.governing[-1].copy()
        done += chunk
        # a stationary orbit (tol 0) repeats its last record to the end
        if done == max_iters or trace.stationary_at is not None:
            raise PossiblyInconsistentError(
                step_norm=float(trace.step_norms[-1]), v_estimate=trace.v_estimate
            )
        # the loop's x_next, (x - J_A x) + J_B R_A x, bit for bit
        x = trace.governing[-1] - trace.shadow[-1] + trace.b_shadow[-1]


def primal_dual_from_fix(
    A: MonotoneOperator,
    B: MonotoneOperator,
    fix_points: SetSample,
    tol: float = 1e-8,
) -> SolutionSets:
    """Split certified fixed points into primal/dual solution samples through J_A.

    Each fixed point y yields z = J_A y and k = y - z; the pair (z, k) then
    solves the primal and dual problems simultaneously. A point whose step
    norm ||y - Ty|| exceeds ``tol`` is not certified and raises ``ValueError``.
    """
    y = fix_points.points
    steps = row_norms(y - dr_apply(A, B, y))
    moving = np.flatnonzero(~(steps <= tol))  # a NaN step certifies nothing
    if moving.size:
        i = int(moving[0])
        raise ValueError(f"point {i} is not fixed: step norm {steps[i]:.3e} exceeds {tol:.1e}")
    z = A.resolvent(y)
    return SolutionSets(fix_t=fix_points, primal=SetSample(z), dual=SetSample(y - z))


# ---------------------------------------------------------------------------
# Fejer monotonicity and convergence evidence


@dataclass(eq=False)
class FejerResult:
    passed: bool
    first_violation: Optional[int]
    max_increase: float  # worst growth of distance, in norm terms
    max_sq_increase: float  # worst growth of squared distance
    witness_index: Optional[int]  # step index achieving max_sq_increase


def fejer_check(x: np.ndarray, E: SetSample, slack: float = 0.0) -> FejerResult:
    """Is the sequence within-``slack`` Fejer monotone with respect to the sample?

    ``x`` is an (n, d) array with n >= 1, row n the n-th term. Checks
    ||x[n+1] - e|| <= ||x[n] - e|| + slack for every sampled e and every n;
    reports the first violating step and the largest increase of the squared
    distance (the quantity that is exactly zero-summable in theory).
    """
    if not (isinstance(x, np.ndarray) and x.ndim == 2 and x.shape[0] >= 1):
        raise ValueError(f"expected a nonempty (n, d) array, got {type(x).__name__} {np.shape(x)}")
    e = E.points
    if not len(e):
        raise ValueError("reference sample must be nonempty")
    if e.shape[1] != x.shape[1]:
        raise DimensionMismatchError(
            f"sequence dimension {x.shape[1]} differs from sample dimension {e.shape[1]}"
        )
    if x.shape[0] == 1:
        return FejerResult(True, None, 0.0, 0.0, None)
    # np.linalg.norm, not row_norms (whose sums round differently); an
    # overflowing orbit gives inf or NaN distances, which fail below
    with np.errstate(over="ignore", invalid="ignore"):
        dists = np.stack([np.linalg.norm(x - p, axis=1) for p in e], axis=1)  # (n, m), by column
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
) -> SweetPrincipleReport:
    """Check the three hypotheses/conclusions of the coupled Fejer principle.

    ``x_seq`` is the Fejer-monotone driver, ``u_seq`` the bounded companion
    whose limit is claimed to land in the set sampled by ``E``, both (n, d)
    arrays with n >= 1 (one row is its own trailing window). ``cauchy`` is
    the trailing-quarter diameter of ``u_seq`` when the caller already has it
    (a trace caches its shadow's); otherwise it is computed here.
    """
    if not (isinstance(u_seq, np.ndarray) and u_seq.shape == np.shape(x_seq)):
        raise ValueError(f"sequence shapes differ: {np.shape(x_seq)} vs {np.shape(u_seq)}")
    fejer = fejer_check(x_seq, E, slack=1e-10)
    window = trailing_quarter(x_seq.shape[0])
    u_win = u_seq[window]
    gap = u_win - x_seq[window]
    pairings = np.stack([np.einsum("nd,nd->n", u_win - p, gap) for p in E.points], axis=1)
    pairing_max = float(np.max(np.abs(pairings)))
    if cauchy is None:
        cauchy = diameter(u_win)
    verdict = bool(fejer.passed and pairing_max <= tol and cauchy <= tol)
    return SweetPrincipleReport(
        fejer=fejer,
        pairing_max=pairing_max,
        cauchy=cauchy,
        verdict=verdict,
    )


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
    trace_y: DRTrace,
    term_tol: float = 1e-8,
    nonneg_tol: float = 1e-10,
) -> SummabilityReport:
    """Evaluate the three telescoping series for two starts of one problem.

    The step-difference series has square-summable terms; the two pairing
    series have nonnegative terms (graph monotonicity) whose sums are bounded
    by the initial squared gap of the starts.
    """
    px, py = trace_x.problem, trace_y.problem
    if px.A is not py.A or px.B is not py.B:
        raise ValueError("traces come from different problems")
    n = min(len(trace_x), len(trace_y))
    sx, sy = trace_x.steps[:n], trace_y.steps[:n]
    step_diff = np.sum((sx - sy) ** 2, axis=1)
    pa = np.sum(
        (trace_x.shadow[:n] - trace_y.shadow[:n])
        * (trace_x.dual_shadow[:n] - trace_y.dual_shadow[:n]),
        axis=1,
    )
    pb = np.sum(
        (trace_x.b_shadow[:n] - trace_y.b_shadow[:n])
        * (trace_x.b_dual_shadow[:n] - trace_y.b_dual_shadow[:n]),
        axis=1,
    )
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
    inequality of the dual shadows against k. Only valid in dimension 1; in
    the plane the coupled check is the best possible (see the quarter-turn
    counterexample).
    """
    if problem.dim != 1:
        raise DimensionMismatchError("decoupled Fejer monotonicity is a 1-d statement")
    zv = as_point(z, 1)
    kv = as_point(k, 1)
    shadow_ok = fejer_check(trace.shadow, SetSample([zv]), slack=1e-12).passed
    dual_ok = fejer_check(trace.dual_shadow, SetSample([kv]), slack=1e-12).passed
    return bool(shadow_ok and dual_ok)
