import tracemalloc

import numpy as np
import pytest

import drsplit.space
from drsplit import (
    Box,
    DRProblem,
    MonotoneOperator,
    NonFiniteIterateError,
    SetSample,
    Singleton,
    StopReason,
    UncertifiedFixedPointError,
    build_scenario,
    decoupled_1d_fejer_check,
    diameter,
    dr_apply,
    fejer_check,
    iterate,
    normal_cone,
    primal_dual_from_fix,
    random_pw1d_pair,
    shifted_governing,
    summability_report,
    sweet_principle_check,
)
from drsplit.space import row_blocks
from drsplit.splitting import _orbit_blocks


def _search_problem(name, **kwargs):
    return build_scenario(name, **kwargs).problem


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
def test_orbit_blocks_in_chunks_equal_one_run(monkeypatch, join_blocks, name, kwargs, tol):
    # 3,000 records are 428 blocks of 7 and one of 4: a record stores three points
    problem = _search_problem(name, **kwargs)
    monkeypatch.setattr(drsplit.space, "BLOCK_NUMBERS", 21 * problem.dim)
    assert [rows.stop - rows.start for rows in row_blocks(3000, 3 * problem.dim)] == [7] * 428 + [4]
    ref = iterate(problem, 3000, tol)
    # the orbit-streaming generator: its blocks end after a tolerance stop and
    # join to the one run, stationary fill included; blocks of 7 records end
    # before any cycle search's window, so only a stationary tail is found in
    # them (random-affine d=2 at n = 27, d=5 at 196, random-1d at 54,
    # rotator-cone at 1, at tol 0)
    joined = join_blocks(list(_orbit_blocks(problem, 3000, tol)))
    assert (len(joined), joined.stop_reason) == (len(ref), ref.stop_reason)
    stationary = (ref.tail_start, 1) if ref.tail_period == 1 else (None, None)
    assert (joined.tail_start, joined.tail_period) == stationary
    for field in ("governing", "shadow", "b_shadow"):
        assert getattr(joined, field).tobytes() == getattr(ref, field).tobytes(), field


def test_orbit_blocks_at_the_real_block_size_equal_one_run(join_blocks):
    # nothing patched: 3,000 d=50 records cross blocks at 873, 1,746 and 2,619
    problem = _search_problem("random-affine", dim=50, seed=1)
    assert [rows.start for rows in row_blocks(3000, 3 * 50)] == [0, 873, 1746, 2619]
    ref = iterate(problem, 3000, 0.0)
    joined = join_blocks(list(_orbit_blocks(problem, 3000, 0.0)))
    assert (len(joined), joined.stop_reason) == (3000, StopReason.MAX_ITERS)
    for field in ("governing", "shadow", "b_shadow"):
        assert getattr(joined, field).tobytes() == getattr(ref, field).tobytes(), field
    assert joined.v_estimate.tobytes() == ref.v_estimate.tobytes()


def test_orbit_blocks_reach_a_bitwise_fixed_point(join_blocks):
    # at tol 0 this orbit turns bitwise stationary at n = 170: T y = y exactly
    problem = _search_problem("random-affine", dim=5, seed=3)
    ref = iterate(problem, 1000, 0.0)
    assert (ref.tail_start, ref.tail_period) == (170, 1)
    joined = join_blocks(list(_orbit_blocks(problem, 1000, 0.0)))
    assert (joined.tail_start, joined.tail_period) == (170, 1)
    y = joined.governing[-1]
    assert y.tobytes() == ref.governing[170].tobytes()
    assert dr_apply(problem.A, problem.B, y).tobytes() == y.tobytes()


def test_orbit_blocks_carry_the_orbit_wide_index_of_a_breakdown(monkeypatch):
    # blocks of 7 one-dimensional records
    monkeypatch.setattr(drsplit.space, "BLOCK_NUMBERS", 21)

    def breaks_at_record_20():
        # N_{0} in R^1, whose 21st resolvent call returns NaN; T x = x + 1
        calls = [0]

        def resolvent(x):
            calls[0] += 1
            return np.full_like(x, np.nan if calls[0] == 21 else 0.0)

        return DRProblem(MonotoneOperator(resolvent, 1), normal_cone(Singleton([1.0])), [3.0])

    with pytest.raises(NonFiniteIterateError) as err:
        list(_orbit_blocks(breaks_at_record_20(), 100, 1e-12))
    assert err.value.iteration == 20


def test_orbit_blocks_hold_one_block_of_records():
    # 10^5 records of d = 50 would take 3 * 10^5 * 50 * 8 B = 114 MiB; the
    # stream allocates one block of 873 records (1 MiB) at a time
    problem = _search_problem("random-affine", dim=50, seed=1)
    tracemalloc.start()
    try:
        for _ in _orbit_blocks(problem, 100_000, 1e-13):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20


def test_primal_dual_from_fix_rotator_ray():
    inst = build_scenario("rotator-cone")
    fixes = np.array([t * np.array([1.0, -1.0]) for t in (0.25, 1.0, 3.0)])
    sets = primal_dual_from_fix(inst.problem.A, inst.problem.B, fixes)
    for t, zp, kp in zip((0.25, 1.0, 3.0), sets.primal.points, sets.dual.points):
        assert np.allclose(zp, [t, 0.0], atol=0)
        assert np.allclose(kp, [0.0, -t], atol=0)
    assert len(sets.primal) == len(sets.dual) == len(sets.pairs) == 3
    assert sets.fix_t.points.tobytes() == fixes.tobytes()


def test_primal_dual_from_fix_common_point_gives_zero_dual():
    inst = build_scenario("affine-consistent")
    sets = primal_dual_from_fix(inst.problem.A, inst.problem.B, [np.zeros(2)])
    assert np.allclose(sets.primal.points[0], 0.0, atol=0)
    assert np.allclose(sets.dual.points[0], 0.0, atol=0)


def test_primal_dual_from_fix_1d_intervals():
    A = normal_cone(Box([0.0], [2.0]))
    B = normal_cone(Box([1.0], [3.0]))
    sets = primal_dual_from_fix(A, B, [np.array([1.5])])
    assert sets.primal.points[0][0] == 1.5 and sets.dual.points[0][0] == 0.0
    assert sets.pairs.points.tolist() == [[1.5, 0.0]]


def test_primal_dual_from_fix_rejects_moving_point():
    inst = build_scenario("parallel-lines")
    with pytest.raises(ValueError, match="step norm"):
        primal_dual_from_fix(inst.problem.A, inst.problem.B, [np.array([0.0, 0.0])])


def test_primal_dual_from_fix_names_the_first_moving_row():
    inst = build_scenario("affine-consistent")
    fixes = [np.zeros(2), np.array([0.0, 1.0]), np.array([0.0, 2.0])]
    with pytest.raises(ValueError, match="point 1 is not fixed"):
        primal_dual_from_fix(inst.problem.A, inst.problem.B, fixes)


def test_primal_dual_from_fix_certifies_at_one_tolerance():
    # on affine-consistent the step norm of (0, t) is the gap t / sqrt(2):
    # 1e-9 certifies the first point, and no argument can loosen it
    inst = build_scenario("affine-consistent")
    A, B = inst.problem.A, inst.problem.B
    assert len(primal_dual_from_fix(A, B, [[0.0, 1.4e-9]]).primal) == 1
    with pytest.raises(ValueError, match=r"^point 0 is not fixed: step norm 1\.556e-09 exceeds 1\.0e-09$"):
        primal_dual_from_fix(A, B, [[0.0, 2.2e-9]])
    with pytest.raises(TypeError):
        primal_dual_from_fix(A, B, [[0.0, 2.2e-9]], tol=1e-8)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_primal_dual_from_fix_refuses_a_non_finite_point_as_uncertified(bad):
    # a closed form evaluated far out can overflow: its point has no step,
    # and it is refused as the moving points are, not as a malformed sample
    inst = build_scenario("affine-consistent")
    A, B = inst.problem.A, inst.problem.B
    with pytest.raises(UncertifiedFixedPointError, match=r"^point 1 is not fixed: step norm nan exceeds 1\.0e-09$"):
        primal_dual_from_fix(A, B, [[0.0, 0.0], [bad, 0.0]])


def _reference_fix_points(name, inst, seed):
    """The fixed points each scenario samples, in closed form: the rays of
    rotator-cone, random-1d's zero z (A is strongly monotone, so Fix T = {z}),
    and on the affine scenarios P_Fix s = s - N^+(N s - c) of each start s,
    with T x = M x + c and N = I - M (one least-squares call for all starts)."""
    if name == "rotator-cone":
        return [t * np.array([1.0, -1.0]) for t in (0.0, 0.5, 1.0, 2.0)]
    if name == "random-1d":
        return [inst.z]
    problem = inst.problem
    A, B, d = problem.A, problem.B, problem.dim
    rng = np.random.default_rng(seed + 104729)
    s = np.stack([problem.x0] + [problem.x0 + rng.uniform(-1, 1, d) for _ in range(2)])
    images = dr_apply(A, B, np.vstack([np.zeros(d), np.eye(d)]))
    c = images[0]
    n = np.eye(d) - (images[1:] - c).T
    return list(s - np.linalg.lstsq(n, (s @ n.T - c).T, rcond=None)[0].T)


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
    # wherever a displacement vector is declared, the shifted problem is
    # solvable: its orbit stops on a step norm below 1e-10 at a finite point
    from drsplit import normal_problem

    inst = build_scenario(name)
    sa, sb = normal_problem(inst.problem.A, inst.problem.B, inst.v)
    trace = iterate(DRProblem(sa, sb, inst.problem.x0), max_iters=100_000, step_tol=1e-10)
    assert trace.stop_reason is StopReason.STEP_CONVERGED
    assert np.all(np.isfinite(trace.governing[-1]))
