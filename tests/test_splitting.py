import numpy as np
import pytest

from drsplit import (
    AffineSubspace,
    DRProblem,
    MonotoneOperator,
    NonFiniteIterateError,
    NonnegativeOrthant,
    OperatorContractError,
    Singleton,
    StopReason,
    build_scenario,
    dr_apply,
    dual_flip,
    inverse,
    iterate,
    normal_cone,
    normal_problem,
    operator_pair_library,
    random_affine_pair,
    reflected,
    rotator,
    shifted_governing,
)


def _parallel_lines_ops():
    U = AffineSubspace([0.0, 1.0], [[1.0, 0.0]])
    V = AffineSubspace([0.0, -1.0], [[1.0, 0.0]])
    return normal_cone(U), normal_cone(V)


def test_dr_apply_rotator_paper_point():
    A = normal_cone(NonnegativeOrthant(2))
    B = rotator()
    assert np.allclose(dr_apply(A, B, [1.0, 0.0]), [0.5, -0.5], atol=0)


def test_dr_apply_parallel_lines_closed_form(rng):
    # oracle: compose the two line reflections by hand. Reflecting across the
    # line y = c maps (x1, x2) to (x1, 2c - x2); the half-average with the
    # identity then shifts the second coordinate down by the gap.
    A, B = _parallel_lines_ops()
    for _ in range(20):
        x = 5 * rng.standard_normal(2)
        ra = np.array([x[0], 2.0 * 1.0 - x[1]])
        rbra = np.array([ra[0], 2.0 * (-1.0) - ra[1]])
        oracle = 0.5 * (x + rbra)
        assert np.allclose(oracle, [x[0], x[1] - 2.0], atol=1e-12)
        assert np.linalg.norm(dr_apply(A, B, x) - oracle) <= 1e-12


def test_dr_apply_fixes_fixed_points():
    A = normal_cone(NonnegativeOrthant(2))
    B = rotator()
    for t in (0.0, 0.3, 1.7):
        x = np.array([t, -t])
        assert np.linalg.norm(dr_apply(A, B, x) - x) <= 1e-15


def test_dr_apply_agrees_with_reflection_average(rng):
    for entry in operator_pair_library():
        for _ in range(10):
            x = 2 * rng.standard_normal(entry.dim)
            direct = dr_apply(entry.A, entry.B, x)
            averaged = 0.5 * (x + reflected(entry.B, reflected(entry.A, x)))
            assert np.linalg.norm(direct - averaged) <= 1e-12 * (1 + np.linalg.norm(x))


def test_iterate_points_1d_walks_arithmetically():
    A = normal_cone(Singleton([0.0]))
    B = normal_cone(Singleton([2.0]))
    tr = iterate(DRProblem(A, B, np.array([0.0])), max_iters=20, step_tol=0.0)
    assert np.allclose(tr.governing[:, 0], 2.0 * np.arange(20), atol=0)
    assert np.allclose(tr.shadow, 0.0, atol=0)
    assert tr.stop_reason is StopReason.MAX_ITERS


def test_iterate_constant_on_fixed_ray():
    inst = build_scenario("rotator-cone")
    tr = iterate(
        DRProblem(inst.problem.A, inst.problem.B, np.array([2.0, -2.0])),
        max_iters=50,
        step_tol=1e-15,
    )
    assert tr.stop_reason is StopReason.STEP_CONVERGED
    assert np.allclose(tr.governing, [2.0, -2.0], atol=0)


def test_iterate_parallel_lines_closed_form():
    A, B = _parallel_lines_ops()
    tr = iterate(DRProblem(A, B, np.array([3.0, 5.0])), max_iters=30, step_tol=0.0)
    for n in range(len(tr)):
        assert np.allclose(tr.governing[n], [3.0, 5.0 - 2.0 * n], atol=0)
        assert np.allclose(tr.shadow[n], [3.0, 1.0], atol=0)


def test_record_identities_across_library(rng):
    for entry in operator_pair_library():
        tr = iterate(
            DRProblem(entry.A, entry.B, 2 * rng.standard_normal(entry.dim)),
            max_iters=40,
            step_tol=0.0,
        )
        arrays = (tr.governing, tr.shadow, tr.dual_shadow, tr.b_shadow, tr.b_dual_shadow, tr.steps)
        assert all(a.shape == (len(tr), entry.dim) for a in arrays)
        for n in range(len(tr)):
            step = tr.steps[n]
            assert np.linalg.norm(step - (tr.shadow[n] - tr.b_shadow[n])) <= 1e-10
            assert np.linalg.norm(step - (tr.dual_shadow[n] + tr.b_dual_shadow[n])) <= 1e-10
            assert np.linalg.norm(tr.shadow[n] + tr.dual_shadow[n] - tr.governing[n]) <= 1e-12
        norms = tr.step_norms
        assert np.all(np.diff(norms) <= 1e-12 * (1 + norms[:-1]))


def test_step_norm_never_increases_long_run(rng):
    inst = build_scenario("disjoint-balls")
    tr = iterate(inst.problem, max_iters=2000, step_tol=0.0)
    assert np.all(np.diff(tr.step_norms) <= 1e-12)


def test_estimate_displacement_consistent_is_zero():
    inst = build_scenario("affine-consistent")
    tr = iterate(inst.problem, max_iters=5000, step_tol=1e-13)
    assert np.linalg.norm(tr.v_estimate) <= 1e-12


def test_estimate_displacement_parallel_lines():
    # oracle: the minimal-norm difference of the two lines. Points differ by
    # (t - s, 2), so the norm is minimized at t = s giving exactly (0, 2).
    ts = np.linspace(-4, 4, 401)
    gaps = [np.array([t - s, 2.0]) for t in ts for s in ts]
    oracle = min(gaps, key=lambda g: float(np.linalg.norm(g)))
    assert np.allclose(oracle, [0.0, 2.0], atol=0)
    A, B = _parallel_lines_ops()
    tr = iterate(DRProblem(A, B, np.array([3.0, 5.0])), max_iters=10, step_tol=0.0)
    assert np.allclose(tr.v_estimate, oracle, atol=0)


def test_estimate_displacement_points_1d():
    A = normal_cone(Singleton([0.0]))
    B = normal_cone(Singleton([2.0]))
    tr = iterate(DRProblem(A, B, np.array([0.0])), max_iters=10, step_tol=0.0)
    assert np.allclose(tr.v_estimate, [-2.0], atol=0)


def test_normal_problem_zero_shift_is_noop(rng):
    inst = build_scenario("disjoint-balls")
    sa, sb = normal_problem(inst.problem.A, inst.problem.B, [0.0, 0.0])
    for _ in range(20):
        x = 3 * rng.standard_normal(2)
        assert np.allclose(sa.resolvent(x), inst.problem.A.resolvent(x), atol=0)
        assert np.allclose(sb.resolvent(x), inst.problem.B.resolvent(x), atol=0)


def test_normal_problem_shifted_subspace_solves_at_origin():
    inst = build_scenario("shifted-subspace")
    sa, sb = normal_problem(inst.problem.A, inst.problem.B, [0.0, 1.0])
    tr = iterate(DRProblem(sa, sb, np.array([1.0, 1.0])), max_iters=300, step_tol=0.0)
    assert np.linalg.norm(tr.shadow[-1]) <= 1e-10


def test_normal_problem_points_1d_zero_at_origin():
    A = normal_cone(Singleton([0.0]))
    B = normal_cone(Singleton([2.0]))
    sa, sb = normal_problem(A, B, [-2.0])
    # the shifted second operator is the cone of {0}: its resolvent is constant 0,
    # and x = 0 solves the shifted inclusion
    assert sb.resolvent([5.0])[0] == 0.0
    tr = iterate(DRProblem(sa, sb, np.array([7.0])), max_iters=5, step_tol=0.0)
    assert np.allclose(tr.shadow, 0.0, atol=0)


def test_shifted_governing_identity_shift():
    inst = build_scenario("points-1d")
    tr = iterate(inst.problem, max_iters=10, step_tol=0.0)
    same = shifted_governing(tr, [0.0])
    assert np.allclose(same, tr.governing, atol=0)
    cancelled = shifted_governing(tr, [-2.0])
    assert np.allclose(cancelled, 0.0, atol=0)


def test_shifted_governing_parallel_lines_constant():
    A, B = _parallel_lines_ops()
    tr = iterate(DRProblem(A, B, np.array([3.0, 5.0])), max_iters=12, step_tol=0.0)
    seq = shifted_governing(tr, [0.0, 2.0])
    assert np.allclose(seq, [3.0, 5.0], atol=0)


def test_splitting_map_firmly_nonexpansive(rng):
    for entry in operator_pair_library():
        for _ in range(30):
            x = 3 * rng.standard_normal(entry.dim)
            y = 3 * rng.standard_normal(entry.dim)
            tx, ty = dr_apply(entry.A, entry.B, x), dr_apply(entry.A, entry.B, y)
            gap = float(np.dot(tx - ty, x - y)) - float(np.dot(tx - ty, tx - ty))
            assert gap >= -1e-10, entry.label


def test_splitting_map_self_dual(rng):
    for entry in operator_pair_library():
        da = inverse(entry.A)
        db = dual_flip(inverse(entry.B))
        for _ in range(20):
            x = 3 * rng.standard_normal(entry.dim)
            assert (
                np.linalg.norm(dr_apply(entry.A, entry.B, x) - dr_apply(da, db, x)) <= 1e-10
            ), entry.label


def test_iterate_flags_nonfinite_with_index():
    # a deliberately expansive "resolvent" makes the orbit overflow
    bad = MonotoneOperator(resolvent_map=lambda x: 3.0 * x, dim=1, label="bad")
    ok = MonotoneOperator(resolvent_map=lambda x: x.copy(), dim=1, label="id-res")
    with pytest.raises(NonFiniteIterateError) as err:
        iterate(DRProblem(ok, bad, np.array([1.0])), max_iters=10_000, step_tol=0.0)
    assert err.value.iteration > 0


@pytest.mark.parametrize("bad_is_a", [True, False])
def test_iterate_rejects_wrong_image_shape_at_the_start(bad_is_a):
    # a (1,) image broadcasts silently against a 2-d point; iterate checks
    # both images once, at n = 0, and names the operator
    bad = MonotoneOperator(resolvent_map=lambda x: np.zeros(1), dim=2, label="scalar-map")
    A, B = (bad, rotator()) if bad_is_a else (rotator(), bad)
    with pytest.raises(OperatorContractError, match=r"scalar-map.*\(1,\).*\(2,\)"):
        iterate(DRProblem(A, B, np.array([1.0, 2.0])), max_iters=10, step_tol=0.0)


def test_iterate_rejects_bad_arguments():
    inst = build_scenario("points-1d")
    with pytest.raises(ValueError):
        iterate(inst.problem, max_iters=0, step_tol=1e-12)
    with pytest.raises(ValueError):
        iterate(inst.problem, max_iters=5, step_tol=-1.0)
    with pytest.raises(ValueError, match="nan"):
        iterate(inst.problem, max_iters=5, step_tol=float("nan"))


def test_problem_rejects_dimension_mismatch():
    from drsplit import DimensionMismatchError

    with pytest.raises(DimensionMismatchError):
        DRProblem(rotator(), normal_cone(Singleton([0.0])), np.array([1.0, 0.0]))


def _fitted_rate(problem) -> float:
    """The linear rate of dist(T^n x, Fix T) = |N^+(N x_n - c)| fitted over the
    records between 1e-3 and 1e-11 of its first value, from 10^4 tol-0 records.

    The distance to Fix T, not to the last record: an orbit's drift along Fix
    T, which depends on the BLAS kernel, then never enters the fit."""
    M, c, _, n_pinv = _affine_splitting_map(problem)
    x = iterate(problem, max_iters=10_000, step_tol=0.0).governing
    errors = np.linalg.norm((x - x @ M.T - c) @ n_pinv.T, axis=1)
    # the window is chosen by magnitude: the first records can still carry the
    # faster modes, and the last ones sit on the rounding floor
    window = np.flatnonzero((errors <= 1e-3 * errors[0]) & (errors >= 1e-11 * errors[0]))
    return float(np.exp(np.polyfit(window, np.log(errors[window]), 1)[0]))


# the 24 random-affine cases fit c_F within 1.3e-4 relative (worst d=50 seed
# 7, 0.80322 against 0.80332) under the OpenBLAS SkylakeX, Haswell,
# Sandybridge and Prescott kernels alike
FRIEDRICHS_RATE_RTOL = 1e-2


@pytest.mark.parametrize("dim", [2, 5, 50])
@pytest.mark.parametrize("seed", range(1, 9))
def test_subspace_rate_is_the_friedrichs_cosine(dim, seed):
    # Douglas-Rachford on two subspaces converges at exactly the cosine c_F of
    # their Friedrichs angle (Bauschke, Bello Cruz, Nghia, Phan and Wang,
    # J. Approx. Theory 185, 2014, arXiv:1309.4709); c_F is the largest
    # principal-angle cosine below 1, those at 1 belonging to the intersection
    U, V, _ = random_affine_pair(dim, np.random.default_rng(seed))
    cosines = np.linalg.svd(U.basis @ V.basis.T, compute_uv=False)
    c_F = float(np.max(cosines[cosines < 1.0 - 1e-12]))
    inst = build_scenario("random-affine", dim=dim, seed=seed)
    assert _fitted_rate(inst.problem) == pytest.approx(c_F, rel=FRIEDRICHS_RATE_RTOL)


_EPS = float(np.finfo(float).eps)


def _affine_splitting_map(problem):
    """M and c of the affine splitting map T x = M x + c, from one ``dr_apply``
    on the stack [0; I], and from the SVD of N = I - M its Fix projector (onto
    ker N, the directions of Fix T) and the pseudo-inverse of N."""
    d = problem.dim
    images = dr_apply(problem.A, problem.B, np.vstack([np.zeros(d), np.eye(d)]))
    c = images[0]
    M = (images[1:] - c).T
    u, s, vt = np.linalg.svd(np.eye(d) - M)
    # the singular values of N on ker N are at most 5.4e-15 here, the others at least 0.28
    rank = int(np.sum(s > 1e-8 * s[0]))
    p_fix = vt[rank:].T @ vt[rank:]
    n_pinv = vt[:rank].T @ np.diag(1.0 / s[:rank]) @ u[:, :rank].T
    return M, c, p_fix, n_pinv


@pytest.mark.parametrize("dim", [2, 5, 50])
@pytest.mark.parametrize("seed", range(1, 9))
def test_subspace_splitting_map_is_normal(dim, seed):
    # for two subspaces T's linear part is a normal operator, and its distance
    # to the Fix projector is the Friedrichs cosine (arXiv:1309.4709);
    # measured: ||M M^T - M^T M|| <= 5.1e-15 and |c_F - cosine| <= 6.7e-16
    M, _, p_fix, _ = _affine_splitting_map(build_scenario("random-affine", dim=dim, seed=seed).problem)
    assert np.linalg.norm(M @ M.T - M.T @ M, 2) <= 4 * dim * _EPS
    U, V, _ = random_affine_pair(dim, np.random.default_rng(seed))
    cosines = np.linalg.svd(U.basis @ V.basis.T, compute_uv=False)
    c_F = np.linalg.norm(M - p_fix, 2)
    assert abs(c_F - np.max(cosines[cosines < 1.0 - 1e-12])) <= 8 * _EPS


@pytest.mark.parametrize("dim", [2, 5, 50])
@pytest.mark.parametrize("seed", range(1, 9))
def test_one_step_norm_bounds_the_distance_to_fix(dim, seed):
    # T normal with ||T - P_Fix|| = c_F gives dist(x_n, Fix T) <= ||x_n - T x_n|| / (1 - c_F);
    # it holds on every record whose distance is above the floor 64 eps max|x|
    # (worst measured ratio 0.87, d=2 seed 8)
    problem = build_scenario("random-affine", dim=dim, seed=seed).problem
    M, c, p_fix, n_pinv = _affine_splitting_map(problem)
    c_F = np.linalg.norm(M - p_fix, 2)
    trace = iterate(problem, max_iters=10_000, step_tol=0.0)
    x = trace.governing
    # x - N^+ (N x - c) is the nearest point of Fix T = {y : N y = c}
    distances = np.linalg.norm((x - x @ M.T - c) @ n_pinv.T, axis=1)
    above = distances > 64 * _EPS * np.max(np.abs(x))
    assert np.count_nonzero(above) >= 18
    assert np.all(distances[above] <= trace.step_norms[above] / (1.0 - c_F))


def test_affine_consistent_rate_is_cos_45_degrees():
    # the lines spanned by (1, 0) and (1, 1) meet at 45 degrees
    rate = _fitted_rate(build_scenario("affine-consistent").problem)
    assert rate == pytest.approx(np.cos(np.pi / 4), rel=FRIEDRICHS_RATE_RTOL)
