"""Named problem scenarios with reference data and attached checkers.

Each scenario bundles a concrete operator pair, a default start, typed
reference data (displacement vector, solutions, solution-set samples), and a
list of named checks evaluated on a finished trace. Scenarios are the single
source the runner, the demos, and the acceptance tests draw from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError
from .identities import affine_gap_residuals
from .operators import (
    MonotoneOperator,
    inner_shift,
    normal_cone,
    piecewise_linear_1d,
    rotator,
    scaled_id_plus_normal_cone,
)
from .solutions import (
    SetSample,
    SolutionSets,
    decoupled_1d_fejer_check,
    fejer_check,
    find_fixed_point,
    primal_dual_from_fix,
    summability_report,
    sweet_principle_check,
)
from .space import AffineSubspace, Ball, NonnegativeOrthant, Singleton, as_point, row_norms
from .splitting import DRProblem, DRTrace, dr_apply, iterate, normal_problem, shifted_governing


@dataclass(eq=False)
class CheckResult:
    verdict: bool
    worst_value: float
    witness_index: Optional[int] = None


CheckFn = Callable[[DRTrace], CheckResult]


@dataclass(eq=False)
class ScenarioInstance:
    """A built scenario: its problem, run defaults, checks and reference data.

    ``v`` is the minimal displacement vector of the splitting map (zero for
    consistent problems); ``z`` and ``k`` are one primal and one dual
    solution; ``solutions`` holds the solution samples of a consistent
    problem, derived from certified fixed points; ``shifted_primal`` samples
    the zeros of the v-shifted (normal) problem of a zero-free one.
    """

    problem: DRProblem
    default_iters: int
    checks: list[tuple[str, CheckFn]]
    seed: int
    v: np.ndarray
    default_step_tol: float = 0.0
    z: Optional[np.ndarray] = None
    k: Optional[np.ndarray] = None
    solutions: Optional[SolutionSets] = None
    shifted_primal: Optional[SetSample] = None

    def run_checks(self, trace: DRTrace) -> dict[str, CheckResult]:
        return {name: fn(trace) for name, fn in self.checks}


@dataclass(eq=False)
class ScenarioSpec:
    description: str
    anchor: str  # one-line statement of the mathematical situation exercised
    dim: Optional[int]  # the one dimension the scenario lives in; None: any
    build: Callable[..., ScenarioInstance] = field(repr=False)


# ---------------------------------------------------------------------------
# small helpers and check factories shared by the scenarios


def _bounded_value_check(value: float, target: float, tol: float) -> CheckResult:
    return CheckResult(verdict=bool(abs(value - target) <= tol), worst_value=value)


def _vector_close_check(vec: np.ndarray, target: np.ndarray, tol: float) -> CheckResult:
    err = float(np.linalg.norm(vec - target))
    return CheckResult(verdict=bool(err <= tol), worst_value=err)


def _v_check(v: np.ndarray, tol: float) -> CheckFn:
    """The trace's displacement estimate lies within ``tol`` of ``v``."""
    return lambda trace: _vector_close_check(trace.v_estimate, v, tol)


def _shifted_fejer_check(v: np.ndarray, sample: SetSample) -> CheckFn:
    """T^n x + n v is Fejer monotone with respect to the shifted-problem zeros."""

    def check(trace: DRTrace) -> CheckResult:
        res = fejer_check(shifted_governing(trace, v), sample, slack=1e-9)
        return CheckResult(res.passed, res.max_increase, res.first_violation)

    return check


def _pair_fejer_check(sets: SolutionSets) -> CheckFn:
    """The (shadow, dual shadow) sequence is Fejer monotone w.r.t. the solution
    pairs, both as points of the product space."""
    pairs = sets.pairs

    def check(trace: DRTrace) -> CheckResult:
        res = fejer_check(np.hstack([trace.shadow, trace.dual_shadow]), pairs, slack=1e-10)
        return CheckResult(res.passed, res.max_sq_increase, res.witness_index)

    return check


def _shadow_diameter_check(trace: DRTrace) -> CheckResult:
    diam = trace.trailing_shadow_diameter
    return CheckResult(verdict=bool(diam <= 1e-6), worst_value=diam)


def _perturbed_start(x0: np.ndarray, rng: np.random.Generator) -> Optional[np.ndarray]:
    """x0 moved by a uniform draw from [-1, 1)^d, or None when the move rounds
    away (a start far out) and the new start equals x0."""
    start = x0 + rng.uniform(-1.0, 1.0, x0.shape[0])
    return None if np.array_equal(start, x0) else start


def _summability_check(trace: DRTrace) -> CheckResult:
    """The telescoping series along the trace and its companion orbit."""
    if trace.companion is None:
        # without a second start (or with one that rounded back to x0, so two
        # equal orbits would make every series vanish) nothing is certified
        return CheckResult(False, float("nan"))
    rep = summability_report(trace, trace.companion)
    worst = min(rep.pairing_a_min, rep.pairing_b_min)
    return CheckResult(rep.pairings_nonnegative and rep.final_terms_small, worst)


# ---------------------------------------------------------------------------
# scenario builders


def _build_rotator_cone(dim, x0=None, seed=0, a=1.0) -> ScenarioInstance:
    a = float(a)
    if a <= 0:
        raise ConfigError("parameter a must be positive")
    A = normal_cone(NonnegativeOrthant(2), label="normal_cone(orthant)")
    B = rotator()
    start = as_point(x0, dim) if x0 is not None else np.array([a, 0.0])
    problem = DRProblem(A, B, start)
    z = np.array([2.0 * a, 0.0])
    k = np.array([0.0, -a])
    # J_A maps the fixed ray t(1, -1) onto the primal ray (t, 0) and the dual
    # ray (0, -t)
    fix_sample = SetSample([t * np.array([1.0, -1.0]) for t in (0.0, 0.5 * a, a, 2.0 * a)])
    sets = primal_dual_from_fix(A, B, fix_sample)
    # the counterexample values are pinned to the canonical start (a, 0),
    # not to the configured orbit: T x and the shadows of x and T x
    x = np.array([a, 0.0])
    tx = dr_apply(A, B, x)
    shadows = A.resolvent(np.stack([x, tx]))  # each row bitwise its one-point image

    def check_step_value(trace):
        return _vector_close_check(tx, np.array([0.5 * a, -0.5 * a]), 1e-15)

    def check_pair_growth(trace):
        e = np.concatenate([z, k])
        u0 = np.concatenate([shadows[0], x - shadows[0]])
        u1 = np.concatenate([shadows[1], tx - shadows[1]])
        value = float(np.dot(u1 - e, u1 - e) - np.dot(u0 - e, u0 - e))
        return _bounded_value_check(value, 0.5 * a * a, 1e-12)

    def check_primal_growth(trace):
        d0, d1 = shadows - z
        value = float(np.dot(d1, d1) - np.dot(d0, d0))
        return _bounded_value_check(value, 1.25 * a * a, 1e-12)

    def check_primal_fejer_fails(trace):
        # the one-step shadow pair from the canonical start
        res = fejer_check(shadows, SetSample([z]), slack=1e-10)
        ok = (not res.passed) and res.first_violation == 0
        return CheckResult(ok, res.max_sq_increase, res.first_violation)

    def check_fixed_ray(trace):
        y = find_fixed_point(DRProblem(A, B, trace.problem.x0), tol=1e-12)
        off_ray = abs(y[0] + y[1]) + max(0.0, -y[0])
        return CheckResult(off_ray <= 1e-10, off_ray)

    return ScenarioInstance(
        problem=problem,
        default_iters=100,
        default_step_tol=1e-14,
        checks=[
            ("splitting_step_value", check_step_value),
            ("counterexample_pair_growth", check_pair_growth),
            ("counterexample_primal_growth", check_primal_growth),
            ("primal_only_fejer_fails", check_primal_fejer_fails),
            ("fixed_point_on_ray", check_fixed_ray),
            ("pair_fejer_wrt_solution_pairs", _pair_fejer_check(sets)),
        ],
        seed=seed,
        v=np.zeros(2),
        z=z,
        k=k,
        solutions=sets,
    )


def _build_shifted_subspace(dim, x0=None, seed=0) -> ScenarioInstance:
    U = AffineSubspace(np.zeros(2), np.array([[1.0, 0.0]]))
    b = np.array([0.0, 1.0])
    A = normal_cone(U, label="normal_cone(horizontal axis)")
    B = scaled_id_plus_normal_cone(1.0, AffineSubspace(-b, U.basis), label="id+normal_cone(-b+U)")
    start = as_point(x0, dim) if x0 is not None else np.array([1.0, 1.0])
    problem = DRProblem(A, B, start)
    v = b.copy()

    def check_shadow_halving(trace):
        n = np.arange(min(len(trace), 41))
        expected = np.column_stack([trace.problem.x0[0] * 0.5**n, np.zeros(n.size)])
        worst = float(np.max(row_norms(trace.shadow[: n.size] - expected)))
        return CheckResult(worst <= 1e-10, worst)

    def check_norm_growth(trace):
        # divergence shows as strict norm growth over the trailing half of
        # the orbit (the onset index depends on the start)
        norms = np.linalg.norm(trace.governing, axis=1)
        diffs = np.diff(norms[len(norms) // 2 :])
        worst = float(diffs.min()) if diffs.size else 0.0
        return CheckResult(bool(np.all(diffs > 0)), worst)

    def check_dual_growth(trace):
        if len(trace) <= 200:
            return CheckResult(False, float("nan"))
        n50 = float(np.linalg.norm(trace.dual_shadow[50]))
        n200 = float(np.linalg.norm(trace.dual_shadow[200]))
        return CheckResult(n200 > n50, n200 - n50)

    def check_normal_problem(trace):
        sa, sb = normal_problem(trace.problem.A, trace.problem.B, v)
        shifted = iterate(DRProblem(sa, sb, trace.problem.x0), max_iters=200, step_tol=0.0)
        final = float(np.linalg.norm(shifted.shadow[-1]))
        return CheckResult(final <= 1e-8, final)

    return ScenarioInstance(
        problem=problem,
        default_iters=256,
        checks=[
            ("v_estimate", _v_check(v, 1e-9)),
            ("shadow_halving", check_shadow_halving),
            ("governing_norm_increasing", check_norm_growth),
            ("dual_shadow_growth", check_dual_growth),
            ("normal_problem_shadow_to_zero", check_normal_problem),
        ],
        seed=seed,
        v=v,
        shifted_primal=SetSample([np.zeros(2)]),
    )


def _build_parallel_lines(dim, x0=None, seed=0, gap=2.0) -> ScenarioInstance:
    half = 0.5 * float(gap)
    U = AffineSubspace(np.array([0.0, half]), np.array([[1.0, 0.0]]))
    V = AffineSubspace(np.array([0.0, -half]), np.array([[1.0, 0.0]]))
    A = normal_cone(U, label="normal_cone(upper line)")
    B = normal_cone(V, label="normal_cone(lower line)")
    start = as_point(x0, dim) if x0 is not None else np.array([3.0, 5.0])
    problem = DRProblem(A, B, start)
    v = np.array([0.0, float(gap)])
    shifted_primal = SetSample([np.array([t, half]) for t in (start[0], 0.0, 5.0)])

    def check_shadow_constant(trace):
        target = np.array([trace.problem.x0[0], half])
        worst = float(np.max(np.linalg.norm(trace.shadow - target, axis=1)))
        return CheckResult(worst <= 1e-10, worst)

    return ScenarioInstance(
        problem=problem,
        default_iters=128,
        checks=[
            ("v_estimate", _v_check(v, 1e-9)),
            ("shadow_constant", check_shadow_constant),
            ("shifted_governing_fejer", _shifted_fejer_check(v, shifted_primal)),
        ],
        seed=seed,
        v=v,
        shifted_primal=shifted_primal,
    )


def _build_disjoint_balls(dim, x0=None, seed=0) -> ScenarioInstance:
    U = Ball(np.array([0.0, 0.0]), 1.0)
    V = Ball(np.array([4.0, 0.0]), 1.0)
    A = normal_cone(U, label="normal_cone(ball at origin)")
    B = normal_cone(V, label="normal_cone(ball at (4,0))")
    start = as_point(x0, dim) if x0 is not None else np.array([0.0, 2.0])
    problem = DRProblem(A, B, start)
    v = np.array([-2.0, 0.0])
    shadow_limit = np.array([1.0, 0.0])
    shifted_primal = SetSample([np.array([1.0, 0.0])])

    def check_shadow_limit(trace):
        return _vector_close_check(trace.shadow[-1], shadow_limit, 1e-6)

    return ScenarioInstance(
        problem=problem,
        default_iters=5000,
        checks=[
            ("shadow_limit", check_shadow_limit),
            ("v_estimate", _v_check(v, 1e-5)),
            ("shifted_governing_fejer", _shifted_fejer_check(v, shifted_primal)),
        ],
        seed=seed,
        v=v,
        shifted_primal=shifted_primal,
    )


def _consistent_checks(sets: SolutionSets) -> list[tuple[str, CheckFn]]:
    def check_converged(trace):
        final = float(trace.step_norms[-1])
        return CheckResult(final <= 1e-10, final)

    def check_sweet(trace):
        rep = sweet_principle_check(
            trace.governing,
            trace.shadow,
            sets.primal,
            tol=1e-6,
            cauchy=trace.trailing_shadow_diameter,
        )
        worst = max(rep.pairing_max, rep.cauchy)
        return CheckResult(rep.verdict, worst)

    return [
        ("step_converged", check_converged),
        ("shadow_trailing_diameter", _shadow_diameter_check),
        ("pair_fejer_wrt_solution_pairs", _pair_fejer_check(sets)),
        ("sequential_principle_evidence", check_sweet),
        ("summability", _summability_check),
    ]


def _finish_consistent_instance(
    A: MonotoneOperator,
    B: MonotoneOperator,
    start: np.ndarray,
    seed: int,
    extra_checks: list[tuple[str, CheckFn]] | None = None,
    z: Optional[np.ndarray] = None,
    k: Optional[np.ndarray] = None,
) -> ScenarioInstance:
    """Build the problem from ``start`` with a companion start, and attach
    solution samples (computed from converged runs) and checkers.

    The companion is a seeded perturbation of the start (none if it rounds
    away). The fixed points come from the start and two more perturbed
    starts; a perturbation that rounds away adds no row.
    """
    companion = _perturbed_start(start, np.random.default_rng(seed + 7919))
    problem = DRProblem(A, B, start, companion)
    rng = np.random.default_rng(seed + 104729)
    starts = [problem.x0] + [_perturbed_start(problem.x0, rng) for _ in range(2)]
    fix_sample = SetSample(
        [find_fixed_point(DRProblem(A, B, s), tol=1e-13) for s in starts if s is not None]
    )
    sets = primal_dual_from_fix(A, B, fix_sample, tol=1e-9)
    return ScenarioInstance(
        problem=problem,
        default_iters=10_000,
        checks=_consistent_checks(sets) + (extra_checks or []),
        seed=seed,
        v=np.zeros(problem.dim),
        z=z,
        k=k,
        solutions=sets,
    )


def _build_affine_consistent(dim, x0=None, seed=0) -> ScenarioInstance:
    U = AffineSubspace.from_span(np.zeros(2), [np.array([1.0, 0.0])])
    V = AffineSubspace.from_span(np.zeros(2), [np.array([1.0, 1.0])])
    A = normal_cone(U, label="normal_cone(horizontal line)")
    B = normal_cone(V, label="normal_cone(diagonal line)")
    start = as_point(x0, dim) if x0 is not None else np.array([0.0, 1.0])
    return _finish_consistent_instance(A, B, start, seed)


def _build_points_1d(dim, x0=None, seed=0) -> ScenarioInstance:
    A = normal_cone(Singleton(np.array([0.0])), label="normal_cone({0})")
    B = normal_cone(Singleton(np.array([2.0])), label="normal_cone({2})")
    start = as_point(x0, dim) if x0 is not None else np.array([0.0])
    problem = DRProblem(A, B, start)
    v = np.array([-2.0])

    def check_arithmetic(trace):
        expected = trace.problem.x0[0] + 2.0 * np.arange(len(trace))
        worst = float(np.max(np.abs(trace.governing[:, 0] - expected)))
        return CheckResult(worst <= 1e-12, worst)

    def check_shadow_zero(trace):
        worst = float(np.max(np.abs(trace.shadow)))
        return CheckResult(worst <= 1e-12, worst)

    def check_shifted_constant(trace):
        seq = shifted_governing(trace, v)
        worst = float(np.max(np.abs(seq - trace.problem.x0[None, :])))
        return CheckResult(worst <= 1e-12, worst)

    return ScenarioInstance(
        problem=problem,
        default_iters=64,
        checks=[
            ("governing_arithmetic", check_arithmetic),
            ("shadow_zero", check_shadow_zero),
            ("v_estimate", _v_check(v, 1e-12)),
            ("shifted_governing_constant", check_shifted_constant),
        ],
        seed=seed,
        v=v,
    )


# -- seeded random families --------------------------------------------------


def random_affine_pair(dim: int, rng: np.random.Generator):
    """Affine subspaces of R^dim with a shared point and bounded principal angles.

    Pairs whose largest non-trivial principal-angle cosine lands in
    (0.97, 1 - 1e-12) are redrawn: they converge too slowly for desk-scale
    diagnostic runs while teaching nothing extra.
    """
    if dim < 2:
        raise ValueError("need dim >= 2")
    w = rng.uniform(-1.0, 1.0, dim)
    for _ in range(100):
        p = int(rng.integers(1, dim))
        q = int(rng.integers(1, dim))
        q1 = np.linalg.qr(rng.standard_normal((dim, p)))[0]
        q2 = np.linalg.qr(rng.standard_normal((dim, q)))[0]
        sigma = np.linalg.svd(q1.T @ q2, compute_uv=False)
        if np.all((sigma <= 0.97) | (sigma >= 1.0 - 1e-12)):
            U = AffineSubspace(w, q1.T)
            V = AffineSubspace(w, q2.T)
            return U, V, w
    raise RuntimeError("failed to draw a well-conditioned affine pair")


def _build_random_affine(dim, x0=None, seed=0) -> ScenarioInstance:
    d = 5 if dim is None else int(dim)
    seed = int(seed)
    rng = np.random.default_rng(seed)
    U, V, _ = random_affine_pair(d, rng)
    A = normal_cone(U, label="normal_cone(random affine U)")
    B = normal_cone(V, label="normal_cone(random affine V)")
    start = as_point(x0, d) if x0 is not None else rng.uniform(-2.0, 2.0, d)

    def check_gap_identity(trace):
        # evaluated at a bounded seeded point: the bound is absolute, so the
        # probe must stay at unit scale regardless of the configured start
        probe = np.random.default_rng(seed + 31).uniform(-2.0, 2.0, U.dim)
        rep = affine_gap_residuals(U, V, probe)
        worst = rep.raw["gap_identity"]
        return CheckResult(worst <= 1e-10, worst)

    return _finish_consistent_instance(
        A, B, start, seed, extra_checks=[("gap_identity", check_gap_identity)]
    )


def random_pw1d_pair(rng: np.random.Generator):
    """A strongly monotone kinked operator and a colorful companion sharing a zero."""
    n_breaks = int(rng.integers(1, 4))
    pos = np.sort(rng.uniform(-2.0, 2.0, n_breaks))
    while n_breaks > 1 and np.min(np.diff(pos)) < 0.1:
        pos = np.sort(rng.uniform(-2.0, 2.0, n_breaks))
    slopes = rng.uniform(0.3, 2.5, n_breaks + 1)
    tri = [(float(pos[i]), float(slopes[i]), float(slopes[i + 1])) for i in range(n_breaks)]
    A = piecewise_linear_1d(tri, label="random kinked 1d")
    zero_a = float(pos[0])

    style = int(rng.integers(0, 3))
    if style == 0:
        left, right = np.sort(rng.uniform(-2.0, 2.0, 2))
        right = max(right, left + 0.3)
        B = piecewise_linear_1d(
            [(float(left), math.inf, 0.0), (float(right), 0.0, math.inf)],
            label="random interval cone",
        )
        zero_b = float(left)
    elif style == 1:
        m = int(rng.integers(1, 3))
        bpos = np.sort(rng.uniform(-2.0, 2.0, m))
        while m > 1 and np.min(np.diff(bpos)) < 0.1:
            bpos = np.sort(rng.uniform(-2.0, 2.0, m))
        bslopes = rng.uniform(0.0, 1.5, m + 1)
        B = piecewise_linear_1d(
            [(float(bpos[i]), float(bslopes[i]), float(bslopes[i + 1])) for i in range(m)],
            label="random flat-kinked 1d",
        )
        zero_b = float(bpos[0])
    else:
        edge = float(rng.uniform(-2.0, 2.0))
        s = float(rng.uniform(0.0, 1.5))
        B = piecewise_linear_1d([(edge, math.inf, s)], label="random half-line cone")
        zero_b = edge

    x_star = zero_a
    B = inner_shift(B, np.array([x_star - zero_b]))
    return A, B, np.array([x_star])


def _build_random_1d(dim, x0=None, seed=0) -> ScenarioInstance:
    seed = int(seed)
    rng = np.random.default_rng(seed)
    A, B, z = random_pw1d_pair(rng)
    k = np.array([0.0])
    start = as_point(x0, dim) if x0 is not None else rng.uniform(-3.0, 3.0, 1)

    def check_decoupled(trace):
        ok = decoupled_1d_fejer_check(trace.problem, z, k, trace)
        return CheckResult(ok, 0.0 if ok else 1.0)

    return _finish_consistent_instance(
        A, B, start, seed, extra_checks=[("decoupled_fejer", check_decoupled)], z=z, k=k
    )


# ---------------------------------------------------------------------------
# registry

_REGISTRY: dict[str, ScenarioSpec] = {
    "rotator-cone": ScenarioSpec(
        "normal cone of the nonnegative quadrant against the quarter-turn rotation",
        "consistent planar pair whose solution pairs do NOT decouple: distances to "
        "primal-only targets can grow by exactly 5/4 a^2 in one step",
        2,
        _build_rotator_cone,
    ),
    "shifted-subspace": ScenarioSpec(
        "horizontal axis against identity plus a perpendicularly shifted copy",
        "zero-free sum with displacement equal to the shift: primal shadows halve "
        "every step while dual shadows diverge",
        2,
        _build_shifted_subspace,
    ),
    "parallel-lines": ScenarioSpec(
        "normal cones of two parallel horizontal lines",
        "infeasible pair on which the splitting map is a pure translation by the "
        "gap vector; shadows are constant",
        2,
        _build_parallel_lines,
    ),
    "disjoint-balls": ScenarioSpec(
        "normal cones of two disjoint unit balls on the horizontal axis",
        "infeasible smooth pair: governing iterates drift while shadows converge "
        "to the nearest-point contact",
        2,
        _build_disjoint_balls,
    ),
    "affine-consistent": ScenarioSpec(
        "two intersecting lines through the origin",
        "consistent affine pair with linear convergence; the step length equals "
        "the projection gap at every point",
        2,
        _build_affine_consistent,
    ),
    "points-1d": ScenarioSpec(
        "normal cones of the points 0 and 2 on the line",
        "simplest infeasible pair: governing sequence walks arithmetically, "
        "shadow pinned at the first point",
        1,
        _build_points_1d,
    ),
    "random-1d": ScenarioSpec(
        "seeded monotone piecewise-linear pair on the line sharing a zero",
        "one-dimensional consistent pair on which shadow and dual shadow are each "
        "separately monotone in distance to their targets",
        1,
        _build_random_1d,
    ),
    "random-affine": ScenarioSpec(
        "seeded affine pair in R^d with a forced common point",
        "generic consistent affine geometry with bounded principal angles; used "
        "for convergence, summability and gap-identity sweeps",
        None,
        _build_random_affine,
    ),
}


def list_scenarios() -> list[tuple[str, str, str]]:
    """(name, description, anchor) rows of the scenario registry."""
    return [(name, s.description, s.anchor) for name, s in _REGISTRY.items()]


def get_scenario(name: str) -> ScenarioSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown scenario {name!r}; available: {', '.join(sorted(_REGISTRY))}"
        ) from None


def build_scenario(name: str, dim: Optional[int] = None, **kwargs) -> ScenarioInstance:
    """Build a scenario in the dimension its registry entry records."""
    spec = get_scenario(name)
    if spec.dim is not None and dim not in (None, spec.dim):
        raise ConfigError(f"{name} lives in dimension {spec.dim}")
    return spec.build(dim=spec.dim if spec.dim is not None else dim, **kwargs)
