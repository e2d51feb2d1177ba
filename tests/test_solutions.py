import tracemalloc

import numpy as np
import pytest

import drsplit.solutions
from drsplit import (
    Box,
    DRProblem,
    MonotoneOperator,
    NonFiniteIterateError,
    PossiblyInconsistentError,
    SetSample,
    Singleton,
    StopReason,
    build_scenario,
    decoupled_1d_fejer_check,
    diameter,
    dr_apply,
    fejer_check,
    find_fixed_point,
    iterate,
    normal_cone,
    primal_dual_from_fix,
    random_pw1d_pair,
    shifted_governing,
    summability_report,
    sweet_principle_check,
)


def test_find_fixed_point_rotator_lands_on_ray():
    inst = build_scenario("rotator-cone")
    y = find_fixed_point(inst.problem, tol=1e-12)
    assert abs(y[0] + y[1]) <= 1e-10 and y[0] >= -1e-10


def test_find_fixed_point_affine():
    inst = build_scenario("affine-consistent")
    y = find_fixed_point(inst.problem, tol=1e-12)
    from drsplit import dr_apply

    assert np.linalg.norm(y - dr_apply(inst.problem.A, inst.problem.B, y)) <= 1e-12


def test_find_fixed_point_inconsistent_raises_with_estimate():
    inst = build_scenario("parallel-lines")
    with pytest.raises(PossiblyInconsistentError) as err:
        find_fixed_point(inst.problem, tol=1e-10, max_iters=500)
    assert np.allclose(err.value.v_estimate, [0.0, 2.0], atol=1e-6)
    assert err.value.step_norm > 1.0


def _search_problem(name, **kwargs):
    p = build_scenario(name, **kwargs).problem
    return DRProblem(p.A, p.B, p.x0)


@pytest.mark.parametrize(
    "name, kwargs",
    [
        ("random-affine", {"dim": 2, "seed": 1}),
        ("random-affine", {"dim": 5, "seed": 1}),
        ("random-affine", {"dim": 50, "seed": 1}),
        ("random-1d", {"seed": 1}),
        ("affine-consistent", {}),
        ("rotator-cone", {}),
        ("parallel-lines", {}),
    ],
)
@pytest.mark.parametrize("tol", [1e-13, 0.0])
def test_find_fixed_point_in_chunks_equals_one_run(monkeypatch, name, kwargs, tol):
    # 3,000 records are 428 chunks of 7 and one of 4
    monkeypatch.setattr(drsplit.solutions, "SEARCH_CHUNK", 7)
    problem = _search_problem(name, **kwargs)
    ref = iterate(problem, 3000, tol)
    if ref.stop_reason is StopReason.STEP_CONVERGED:
        assert find_fixed_point(problem, tol, 3000).tobytes() == ref.governing[-1].tobytes()
        return
    with pytest.raises(PossiblyInconsistentError) as err:
        find_fixed_point(problem, tol, 3000)
    assert np.float64(err.value.step_norm).tobytes() == ref.step_norms[-1].tobytes()
    assert err.value.v_estimate.tobytes() == ref.v_estimate.tobytes()


def test_find_fixed_point_counts_records_across_chunks(monkeypatch):
    monkeypatch.setattr(drsplit.solutions, "SEARCH_CHUNK", 7)
    problem = _search_problem("rotator-cone")
    with pytest.raises(ValueError, match="max_iters must be >= 1"):
        find_fixed_point(problem, 1e-12, max_iters=0)

    def breaks_at_record_20():
        # N_{0} in R^1, whose 21st resolvent call returns NaN; T x = x + 1
        calls = [0]

        def resolvent(x):
            calls[0] += 1
            return np.full_like(x, np.nan if calls[0] == 21 else 0.0)

        return DRProblem(MonotoneOperator(resolvent, 1), normal_cone(Singleton([1.0])), [3.0])

    with pytest.raises(NonFiniteIterateError) as err:
        find_fixed_point(breaks_at_record_20(), 1e-12, 100)
    assert err.value.iteration == 20


def test_find_fixed_point_holds_one_chunk_of_records():
    # 10^5 records of d = 50 would take 3 * 10^5 * 50 * 8 B = 114 MiB
    problem = _search_problem("random-affine", dim=50, seed=1)
    tracemalloc.start()
    try:
        find_fixed_point(problem, 1e-13)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20


def test_primal_dual_from_fix_rotator_ray():
    inst = build_scenario("rotator-cone")
    fixes = SetSample([t * np.array([1.0, -1.0]) for t in (0.25, 1.0, 3.0)])
    sets = primal_dual_from_fix(inst.problem.A, inst.problem.B, fixes)
    for t, zp, kp in zip((0.25, 1.0, 3.0), sets.primal.points, sets.dual.points):
        assert np.allclose(zp, [t, 0.0], atol=0)
        assert np.allclose(kp, [0.0, -t], atol=0)
    assert len(sets.primal) == len(sets.dual) == len(sets.pairs) == 3
    assert sets.fix_t is fixes


def test_primal_dual_from_fix_common_point_gives_zero_dual():
    inst = build_scenario("affine-consistent")
    sets = primal_dual_from_fix(inst.problem.A, inst.problem.B, SetSample([np.zeros(2)]))
    assert np.allclose(sets.primal.points[0], 0.0, atol=0)
    assert np.allclose(sets.dual.points[0], 0.0, atol=0)


def test_primal_dual_from_fix_1d_intervals():
    A = normal_cone(Box([0.0], [2.0]))
    B = normal_cone(Box([1.0], [3.0]))
    sets = primal_dual_from_fix(A, B, SetSample([np.array([1.5])]))
    assert sets.primal.points[0][0] == 1.5 and sets.dual.points[0][0] == 0.0
    assert sets.pairs.points.tolist() == [[1.5, 0.0]]


def test_primal_dual_from_fix_rejects_moving_point():
    inst = build_scenario("parallel-lines")
    with pytest.raises(ValueError, match="step norm"):
        primal_dual_from_fix(inst.problem.A, inst.problem.B, SetSample([np.array([0.0, 0.0])]))


def test_primal_dual_from_fix_names_the_first_moving_row():
    inst = build_scenario("affine-consistent")
    fixes = SetSample([np.zeros(2), np.array([0.0, 1.0]), np.array([0.0, 2.0])])
    with pytest.raises(ValueError, match="point 1 is not fixed"):
        primal_dual_from_fix(inst.problem.A, inst.problem.B, fixes)


def _reference_fix_points(name, inst, seed):
    """The fixed points each scenario samples, drawn as the scenarios do."""
    if name == "rotator-cone":
        return [t * np.array([1.0, -1.0]) for t in (0.0, 0.5, 1.0, 2.0)]
    problem = inst.problem
    rng = np.random.default_rng(seed + 104729)
    starts = [problem.x0] + [problem.x0 + rng.uniform(-1, 1, problem.dim) for _ in range(2)]
    return [find_fixed_point(DRProblem(problem.A, problem.B, x), tol=1e-13) for x in starts]


def _reference_primal_dual(A, B, fix_points, tol):
    """The per-point loop the batched split must reproduce bit for bit."""
    primal, dual = [], []
    for i, y in enumerate(fix_points):
        step = np.linalg.norm(y - dr_apply(A, B, y))
        assert step <= tol, f"point {i} is not fixed"
        z = A.resolvent(y)
        primal.append(z)
        dual.append(y - z)
    return primal, dual


def _bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=float).tobytes()


@pytest.mark.parametrize(
    "name, dim",
    [
        ("rotator-cone", None),
        ("affine-consistent", None),
        ("random-affine", 2),
        ("random-affine", 5),
        ("random-affine", 50),
        ("random-1d", None),
    ],
)
@pytest.mark.parametrize("seed", [0, 3])
def test_primal_dual_from_fix_rows_match_per_point_loop(name, dim, seed):
    inst = build_scenario(name, dim=dim, seed=seed)
    A, B = inst.problem.A, inst.problem.B
    sets = inst.solutions
    fix_rows = _reference_fix_points(name, inst, seed)
    primal, dual = _reference_primal_dual(A, B, fix_rows, tol=1e-9)
    assert len(sets.fix_t) == len(sets.primal) == len(sets.dual) == len(sets.pairs) == len(fix_rows)
    for i, (y, z, k) in enumerate(zip(fix_rows, primal, dual)):
        assert _bits(sets.fix_t.points[i]) == _bits(y)
        assert _bits(sets.primal.points[i]) == _bits(z)
        assert _bits(sets.dual.points[i]) == _bits(k)
        assert _bits(sets.pairs.points[i]) == _bits(np.concatenate([z, k]))


def test_rotator_pairs_are_the_closed_form_rays():
    # the ray t(1, -1) splits into (t, 0) and (0, -t), signed zeros included
    sets = build_scenario("rotator-cone").solutions
    expected = [[t, 0.0, 0.0, -t] for t in (0.0, 0.5, 1.0, 2.0)]
    assert _bits(sets.pairs.points) == _bits(expected)


@pytest.mark.parametrize(
    "points",
    [np.array([1.0, 2.0]), np.zeros((2, 2, 2)), np.array([[0.0, np.nan]])],
    ids=["1-d", "3-d", "nan"],
)
def test_set_sample_rejects_non_stack_and_nan(points):
    with pytest.raises(ValueError):
        SetSample(points)


def test_set_sample_stacks_rows():
    sample = SetSample([np.zeros(2), [1.0, 2.0]])
    assert sample.points.shape == (2, 2) and sample.points.dtype == np.float64
    assert len(sample) == 2


def test_fejer_check_constant_sequence():
    seq = np.tile([1.0, 2.0], (5, 1))
    res = fejer_check(seq, SetSample([np.zeros(2), np.ones(2)]), slack=0.0)
    assert res.passed and res.first_violation is None


@pytest.mark.parametrize(
    "seq, dim", [(np.array([1.0, 2.0]), 1), ([np.array([1.0, 2.0])], 2), (np.zeros((0, 2)), 2)]
)
def test_fejer_check_takes_only_a_nonempty_2d_array(seq, dim):
    # a 1-d array is not read as a sequence of one-dimensional points
    with pytest.raises(ValueError):
        fejer_check(seq, SetSample(np.zeros((1, dim))))


def test_fejer_check_counts_nan_as_violation():
    res = fejer_check(np.array([[0.0, 0.0], [np.nan, 1.0]]), SetSample([[0.0, 0.0]]))
    assert not res.passed
    assert res.first_violation == 0


def test_diameter_is_nan_when_the_gram_overflows():
    assert np.isnan(diameter(np.array([[1e200, -1e200], [-1e200, 1e200]])))
    # finite results keep their bits: a nonpositive Gram max gives +0.0
    assert np.float64(diameter(np.array([[0.1, 0.2], [0.1, 0.2]]))).tobytes() == bytes(8)
    assert diameter(np.array([[0.0, 3.0], [4.0, 0.0]])) == 5.0


def test_fejer_check_governing_of_consistent_scenario():
    inst = build_scenario("affine-consistent")
    tr = iterate(inst.problem, max_iters=2000, step_tol=0.0)
    res = fejer_check(tr.governing, inst.solutions.fix_t, slack=1e-10)
    assert res.passed


def test_fejer_check_rotator_counterexample():
    inst = build_scenario("rotator-cone")
    tr = iterate(inst.problem, max_iters=50, step_tol=1e-14)
    res = fejer_check(tr.shadow, SetSample([inst.z]), slack=1e-10)
    assert not res.passed
    assert res.first_violation == 0
    assert abs(res.max_sq_increase - 1.25) <= 1e-12


def test_sweet_principle_consistent_affine():
    inst = build_scenario("affine-consistent")
    tr = iterate(inst.problem, max_iters=4000, step_tol=0.0)
    rep = sweet_principle_check(tr.governing, tr.shadow, inst.solutions.primal, tol=1e-6)
    assert rep.verdict


def test_sweet_principle_parallel_lines_shifted():
    inst = build_scenario("parallel-lines")
    tr = iterate(inst.problem, max_iters=64, step_tol=0.0)
    shifted = shifted_governing(tr, inst.v)
    E = SetSample([np.array([tr.problem.x0[0], 1.0])])
    rep = sweet_principle_check(shifted, tr.shadow, E, tol=1e-9)
    assert rep.verdict


def test_sweet_principle_rejects_oscillation():
    u = np.array([[(-1.0) ** n, 0.0] for n in range(40)])
    x = np.zeros((40, 2))
    rep = sweet_principle_check(x, u, SetSample([np.zeros(2)]), tol=1e-6)
    assert not rep.verdict
    assert rep.cauchy >= 1.0


def test_sweet_principle_on_one_record():
    # one row is its own trailing window, of diameter 0
    rep = sweet_principle_check(np.ones((1, 2)), np.zeros((1, 2)), SetSample([np.zeros(2)]), tol=1e-6)
    assert rep.fejer.passed and rep.cauchy == 0.0 and rep.pairing_max == 0.0 and rep.verdict


def test_sweet_principle_rejects_length_mismatch():
    with pytest.raises(ValueError):
        sweet_principle_check(np.zeros((3, 2)), np.zeros((4, 2)), SetSample([np.zeros(2)]), tol=1e-6)


def test_summability_same_start_all_zero():
    inst = build_scenario("affine-consistent")
    tr = iterate(inst.problem, max_iters=500, step_tol=0.0)
    rep = summability_report(tr, tr)
    assert rep.step_diff_sum == 0.0
    assert rep.pairing_a_sum == 0.0 and rep.pairing_b_sum == 0.0


def test_summability_two_starts_affine(rng):
    inst = build_scenario("affine-consistent")
    tr1 = iterate(inst.problem, max_iters=3000, step_tol=0.0)
    other = DRProblem(inst.problem.A, inst.problem.B, rng.standard_normal(2))
    tr2 = iterate(other, max_iters=3000, step_tol=0.0)
    rep = summability_report(tr1, tr2)
    assert rep.pairings_nonnegative
    assert rep.final_terms_small
    # sums must be dominated by the initial squared gap (telescoping bound)
    gap0 = float(np.sum((inst.problem.x0 - other.x0) ** 2))
    assert rep.step_diff_sum + 2 * rep.pairing_a_sum + 2 * rep.pairing_b_sum <= gap0 + 1e-9


def test_summability_parallel_lines_translation(rng):
    inst = build_scenario("parallel-lines")
    tr1 = iterate(inst.problem, max_iters=200, step_tol=0.0)
    tr2 = iterate(
        DRProblem(inst.problem.A, inst.problem.B, rng.standard_normal(2)),
        max_iters=200,
        step_tol=0.0,
    )
    rep = summability_report(tr1, tr2)
    # the map is a translation, so the steps coincide up to rounding noise
    assert rep.step_diff_sum <= 1e-28


def test_summability_rejects_mismatched_problems():
    a = iterate(build_scenario("points-1d").problem, max_iters=10, step_tol=0.0)
    b = iterate(build_scenario("random-1d", seed=1).problem, max_iters=10, step_tol=0.0)
    with pytest.raises(ValueError):
        summability_report(a, b)


def test_decoupled_1d_interval_pair(rng):
    A = normal_cone(Box([0.0], [1.0]))
    B = normal_cone(Box([0.5], [2.0]))
    for _ in range(10):
        x0 = rng.uniform(-4, 4, 1)
        tr = iterate(DRProblem(A, B, x0), max_iters=300, step_tol=0.0)
        assert decoupled_1d_fejer_check(tr.problem, [0.75], [0.0], tr)


def test_decoupled_1d_constant_on_fixed_point():
    A = normal_cone(Box([0.0], [1.0]))
    B = normal_cone(Box([0.5], [2.0]))
    tr = iterate(DRProblem(A, B, np.array([0.75])), max_iters=20, step_tol=0.0)
    assert decoupled_1d_fejer_check(tr.problem, [0.75], [0.0], tr)


def test_decoupled_1d_random_family_20_seeds():
    for seed in range(20):
        A, B, z = random_pw1d_pair(np.random.default_rng(seed))
        x0 = np.random.default_rng(seed + 1000).uniform(-3, 3, 1)
        problem = DRProblem(A, B, x0)
        tr = iterate(problem, max_iters=2000, step_tol=0.0)
        assert decoupled_1d_fejer_check(problem, z, [0.0], tr), f"seed {seed}"


def test_1d_shadow_limit_is_graph_consistent():
    # the limit pair (z, k) of (shadow, dual shadow) must satisfy the two
    # resolvent inclusions z = J_A(z + k) and z = J_B(z - k): membership of k
    # in A(z) and of -k in B(z), certified without geometric predicates
    for seed in range(10):
        A, B, _ = random_pw1d_pair(np.random.default_rng(seed))
        x0 = np.random.default_rng(seed + 2000).uniform(-3, 3, 1)
        tr = iterate(DRProblem(A, B, x0), max_iters=4000, step_tol=0.0)
        z, k = tr.shadow[-1], tr.dual_shadow[-1]
        assert abs(A.resolvent(z + k)[0] - z[0]) <= 1e-8, f"seed {seed}"
        assert abs(B.resolvent(z - k)[0] - z[0]) <= 1e-8, f"seed {seed}"


def test_decoupled_check_rejects_higher_dimension():
    inst = build_scenario("rotator-cone")
    tr = iterate(inst.problem, max_iters=5, step_tol=0.0)
    from drsplit import DimensionMismatchError

    with pytest.raises(DimensionMismatchError):
        decoupled_1d_fejer_check(inst.problem, [0.0], [0.0], tr)


@pytest.mark.parametrize("name", ["shifted-subspace", "parallel-lines", "points-1d", "disjoint-balls"])
def test_shifted_pair_admits_fixed_point(name):
    # wherever a displacement vector is declared, the shifted problem is solvable
    from drsplit import normal_problem

    inst = build_scenario(name)
    sa, sb = normal_problem(inst.problem.A, inst.problem.B, inst.v)
    y = find_fixed_point(DRProblem(sa, sb, inst.problem.x0), tol=1e-10)
    assert np.all(np.isfinite(y))
