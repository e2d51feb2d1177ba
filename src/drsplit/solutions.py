"""Solution sets of the sum problem and Fejer-monotonicity diagnostics.

Solution sets are handled as finite samples plus a text description;
membership is always certified through resolvent identities (a pair (z, k)
belongs to the extended solution set iff z + k is a fixed point of the
splitting map with J_A(z + k) = z), because that is exactly what is
computable. The checkers here verify monotone-distance (Fejer) behaviour of
recorded sequences against such samples, the pairing/Cauchy evidence for the
sequential convergence principle, and the summability of the coupled series
along two runs of the same problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionMismatchError, OperatorFamilyError, PossiblyInconsistentError
from .operators import MonotoneOperator
from .space import as_point
from .splitting import DRProblem, DRTrace, StopReason, dr_apply, iterate


@dataclass(eq=False)
class SetSample:
    """A finite stand-in for a (possibly infinite) solution set."""

    points: list[np.ndarray]
    description: str = ""

    def __post_init__(self):
        self.points = [as_point(p) for p in self.points]

    def __len__(self) -> int:
        return len(self.points)

    def stacked(self) -> np.ndarray:
        return np.stack(self.points)


@dataclass(eq=False)
class SolutionSets:
    """Samples of every solution object attached to one problem instance.

    ``s_pairs`` are (z, k) pairs certified through the fixed points: z + k
    must reproduce a sampled fixed point and J_A(z + k) must return z.
    """

    fix_t: SetSample
    primal: SetSample  # zeros of A + B
    dual: SetSample  # zeros of the dual pair
    s_pairs: list[tuple[np.ndarray, np.ndarray]]

    def validate(self, A: MonotoneOperator, tol: float = 1e-10) -> None:
        for y in self.fix_t.points:
            z = A.resolvent(y)
            k = y - z
            if not any(
                np.linalg.norm(z - pz) <= tol and np.linalg.norm(k - pk) <= tol
                for pz, pk in self.s_pairs
            ):
                raise ValueError("a sampled fixed point is missing from the solution pairs")
        for z, k in self.s_pairs:
            y = z + k
            if np.linalg.norm(A.resolvent(y) - z) > tol:
                raise ValueError("a sampled pair is not resolvent-consistent with its sum")
            if self.fix_t.points and min(
                float(np.linalg.norm(y - f)) for f in self.fix_t.points
            ) > tol:
                raise ValueError("a sampled pair does not sum to a sampled fixed point")


# ---------------------------------------------------------------------------
# fixed points and solution samples


def find_fixed_point(problem: DRProblem, tol: float = 1e-12, max_iters: int = 100_000) -> np.ndarray:
    """Iterate until the step norm drops below ``tol`` and return that point.

    Raises :class:`PossiblyInconsistentError` (carrying the displacement
    estimate) when the step norm stagnates above ``tol``.
    """
    trace = iterate(problem, max_iters=max_iters, step_tol=tol)
    if trace.stop_reason is StopReason.STEP_CONVERGED:
        return trace.governing[-1].copy()
    raise PossiblyInconsistentError(
        step_norm=float(trace.step_norms[-1]), v_estimate=trace.v_estimate.copy()
    )


def primal_dual_from_fix(
    A: MonotoneOperator,
    B: MonotoneOperator,
    fix_points: SetSample,
    tol: float = 1e-8,
) -> tuple[SetSample, SetSample, list[tuple[np.ndarray, np.ndarray]]]:
    """Split fixed points into primal/dual solution samples through J_A.

    Each fixed point y yields z = J_A y and k = y - z; the pair (z, k) then
    solves the primal and dual problems simultaneously.
    """
    primal, dual, pairs = [], [], []
    for i, y in enumerate(fix_points.points):
        step = np.linalg.norm(y - dr_apply(A, B, y))
        if step > tol:
            raise ValueError(f"point {i} is not fixed: step norm {step:.3e} exceeds {tol:.1e}")
        z = A.resolvent(y)
        k = y - z
        primal.append(z)
        dual.append(k)
        pairs.append((z, k))
    return (
        SetSample(primal, f"J_A[{fix_points.description or 'fixed points'}]"),
        SetSample(dual, f"(Id-J_A)[{fix_points.description or 'fixed points'}]"),
        pairs,
    )


def paramonotone_cross_product(
    A: MonotoneOperator,
    B: MonotoneOperator,
    primal: SetSample,
    dual: SetSample,
    tol: float = 1e-8,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """All pairs (z, k) from primal x dual, valid only for paramonotone pairs.

    For paramonotone A and B the solution pairs decouple into a full cross
    product; each returned pair is certified by checking that z + k is a
    fixed point of the splitting map. Refuses non-paramonotone inputs (the
    planar quarter-turn operator is the standard counterexample).
    """
    if not (A.is_paramonotone and B.is_paramonotone):
        raise OperatorFamilyError(
            "cross product of solution sets requires both operators paramonotone"
        )
    pairs = []
    for z in primal.points:
        for k in dual.points:
            y = z + k
            step = np.linalg.norm(y - dr_apply(A, B, y))
            if step > tol:
                raise ValueError(
                    f"pair sum is not a fixed point (step norm {step:.3e}); sample inconsistent"
                )
            pairs.append((z, k))
    return pairs


# ---------------------------------------------------------------------------
# Fejer monotonicity and convergence evidence


@dataclass(eq=False)
class FejerResult:
    passed: bool
    first_violation: Optional[int]
    max_increase: float  # worst growth of distance, in norm terms
    max_sq_increase: float  # worst growth of squared distance
    witness_index: Optional[int]  # step index achieving max_sq_increase


def _as_matrix(seq) -> np.ndarray:
    if isinstance(seq, np.ndarray) and seq.ndim == 2:
        return np.asarray(seq, dtype=float)
    return np.stack([as_point(p) for p in seq])


def fejer_check(seq, E: SetSample | Sequence, slack: float = 0.0) -> FejerResult:
    """Is the sequence within-``slack`` Fejer monotone with respect to the sample?

    Checks ||seq[n+1] - e|| <= ||seq[n] - e|| + slack for every sampled e and
    every n; reports the first violating step and the largest increase of the
    squared distance (the quantity that is exactly zero-summable in theory).
    """
    pts = E.points if isinstance(E, SetSample) else [as_point(p) for p in E]
    if not pts:
        raise ValueError("reference sample must be nonempty")
    x = _as_matrix(seq)
    if x.shape[0] < 1:
        raise ValueError("sequence must be nonempty")
    e = np.stack(pts)
    if e.shape[1] != x.shape[1]:
        raise DimensionMismatchError(
            f"sequence dimension {x.shape[1]} differs from sample dimension {e.shape[1]}"
        )
    dists = np.linalg.norm(x[:, None, :] - e[None, :, :], axis=2)  # (n, m)
    if x.shape[0] == 1:
        return FejerResult(True, None, 0.0, 0.0, None)
    diffs = dists[1:] - dists[:-1]  # (n-1, m)
    sq_diffs = dists[1:] ** 2 - dists[:-1] ** 2
    violations = diffs > slack
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


def trailing_quarter(length: int) -> slice:
    """Index window covering the last quarter of a trace (never empty)."""
    start = min(length - 1, (3 * length) // 4)
    return slice(start, length)


def diameter(points: np.ndarray) -> float:
    """Max pairwise distance via the centered Gram matrix (one matmul)."""
    pts = np.asarray(points, dtype=float)
    if pts.shape[0] < 2:
        return 0.0
    centered = pts - pts.mean(axis=0)  # centering keeps the squares cancellation-free
    sq = np.einsum("nd,nd->n", centered, centered)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (centered @ centered.T)
    return float(np.sqrt(max(0.0, float(d2.max()))))


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
    window_start: int
    verdict: bool


def sweet_principle_check(
    x_seq,
    u_seq,
    E: SetSample,
    tol: float,
    fejer_slack: float = 1e-10,
) -> SweetPrincipleReport:
    """Check the three hypotheses/conclusions of the coupled Fejer principle.

    ``x_seq`` is the Fejer-monotone driver, ``u_seq`` the bounded companion
    whose limit is claimed to land in the set sampled by ``E``.
    """
    x = _as_matrix(x_seq)
    u = _as_matrix(u_seq)
    if x.shape != u.shape:
        raise ValueError(f"sequence shapes differ: {x.shape} vs {u.shape}")
    if x.shape[0] < 2:
        raise ValueError("need at least two entries per sequence")
    fejer = fejer_check(x, E, slack=fejer_slack)
    window = trailing_quarter(x.shape[0])
    e = E.stacked()
    u_win = u[window]
    ux_win = (u - x)[window]
    pairings = np.einsum("nmd,nd->nm", u_win[:, None, :] - e[None, :, :], ux_win)
    pairing_max = float(np.max(np.abs(pairings)))
    cauchy = diameter(u[window])
    verdict = bool(fejer.passed and pairing_max <= tol and cauchy <= tol)
    return SweetPrincipleReport(
        fejer=fejer,
        pairing_max=pairing_max,
        cauchy=cauchy,
        window_start=window.start,
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
    n_terms: int
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
        n_terms=n,
        pairings_nonnegative=bool(pa.min() >= -nonneg_tol and pb.min() >= -nonneg_tol),
        final_terms_small=bool(
            step_diff[-1] <= term_tol and pa[-1] <= term_tol and pb[-1] <= term_tol
        ),
    )


def decoupled_1d_fejer_check(
    problem: DRProblem, z, k, trace: DRTrace, slack: float = 1e-12
) -> bool:
    """On the line, shadows and dual shadows are separately Fejer monotone.

    Checks |shadow[n+1] - z| <= |shadow[n] - z| + slack and the analogous
    inequality of the dual shadows against k. Only valid in dimension 1; in
    the plane the coupled check is the best possible (see the quarter-turn
    counterexample).
    """
    if problem.dim != 1:
        raise DimensionMismatchError("decoupled Fejer monotonicity is a 1-d statement")
    zv = as_point(z, 1)
    kv = as_point(k, 1)
    shadow_ok = fejer_check(trace.shadow, SetSample([zv]), slack=slack).passed
    dual_ok = fejer_check(trace.dual_shadow, SetSample([kv]), slack=slack).passed
    return bool(shadow_ok and dual_ok)
