import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drsplit import (
    AffineSubspace,
    Ball,
    Box,
    MonotoneOperator,
    MonotonicityError,
    NonnegativeOrthant,
    Singleton,
    dual_flip,
    inner_shift,
    inverse,
    minty_forward,
    minty_inverse,
    normal_cone,
    operator_pair_library,
    outer_shift,
    piecewise_linear_1d,
    product,
    projector_operator,
    reflected,
    rotator,
    scaled_id_plus_normal_cone,
)

X_AXIS = AffineSubspace(np.zeros(2), np.array([[1.0, 0.0]]))


# the zero map (resolvent Id) and the identity map (resolvent Id/2), built
# directly from their resolvents
def zero_operator(dim: int) -> MonotoneOperator:
    return MonotoneOperator(lambda x: x.copy(), dim, is_linear_relation=True, label="zero")


def identity_operator(dim: int) -> MonotoneOperator:
    return MonotoneOperator(lambda x: 0.5 * x, dim, is_linear_relation=True, label="identity")


# ---------------------------------------------------------------------------
# constructors


def test_normal_cone_orthant_resolvent():
    op = normal_cone(NonnegativeOrthant(2))
    assert np.allclose(op.resolvent([1.0, -1.0]), [1.0, 0.0], atol=0)
    assert not op.is_linear_relation


def test_normal_cone_linear_subspace_flag():
    op = normal_cone(X_AXIS)
    assert np.allclose(op.resolvent([3.0, 7.0]), [3.0, 0.0], atol=0)
    assert op.is_linear_relation


def test_normal_cone_singleton():
    op = normal_cone(Singleton([2.0]))
    for x in (-10.0, 0.0, 3.5):
        assert op.resolvent([x])[0] == 2.0


def test_scaled_id_plus_normal_cone_shifted_line():
    # lam = 1, C = -b + U with U the horizontal axis and b = (0, 1); the
    # resolvent must agree with the independent form -b + P_U(x)/2
    C = AffineSubspace([0.0, -1.0], [[1.0, 0.0]])
    op = scaled_id_plus_normal_cone(1.0, C)
    assert np.allclose(op.resolvent([2.0, 0.0]), [1.0, -1.0], atol=0)
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = 3 * rng.standard_normal(2)
        oracle = np.array([0.5 * x[0], -1.0])
        assert np.linalg.norm(op.resolvent(x) - oracle) <= 1e-14


def test_scaled_id_plus_normal_cone_whole_space():
    op = scaled_id_plus_normal_cone(1.0, AffineSubspace(np.zeros(2), np.eye(2)))
    assert np.allclose(op.resolvent([3.0, -4.0]), [1.5, -2.0], atol=0)


def test_scaled_id_plus_normal_cone_singleton():
    op = scaled_id_plus_normal_cone(3.0, Singleton([0.0, 0.0]))
    assert np.allclose(op.resolvent([5.0, 5.0]), [0.0, 0.0], atol=0)


def test_scaled_id_plus_normal_cone_rejects_nonaffine():
    with pytest.raises(TypeError):
        scaled_id_plus_normal_cone(1.0, NonnegativeOrthant(2))


def test_scaled_id_plus_normal_cone_rejects_nan_lam():
    with pytest.raises(ValueError, match="nan"):
        scaled_id_plus_normal_cone(float("nan"), X_AXIS)
    with pytest.raises(ValueError):
        scaled_id_plus_normal_cone(0.0, X_AXIS)


def test_rotator_resolvent_values():
    B = rotator()
    assert np.allclose(B.resolvent([1.0, 0.0]), [0.5, -0.5], atol=0)
    assert np.allclose(B.resolvent([0.0, 0.0]), [0.0, 0.0], atol=0)
    assert np.allclose(B.resolvent([1.0, 1.0]), [1.0, 0.0], atol=0)
    assert B.is_linear_relation


_ROTATOR_COORDINATE = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 1e308, -1e308]),
)


@settings(max_examples=500, deadline=None)
@given(_ROTATOR_COORDINATE, _ROTATOR_COORDINATE)
def test_rotator_point_is_its_stack_row_and_the_formula(x0, x1):
    res = rotator().resolvent_map
    p = np.array([x0, x1])
    with np.errstate(all="ignore"):  # inf - inf and overflow are part of the domain
        got = res(p)
        row = res(p[None])[0]
        formula = np.array([0.5 * (p[0] + p[1]), 0.5 * (-p[0] + p[1])])
    assert got.shape == (2,)
    assert got.tobytes() == row.tobytes() == formula.tobytes()


def test_rotator_reflected_is_clockwise_turn(rng):
    B = rotator()
    for _ in range(10):
        x = rng.standard_normal(2)
        assert np.allclose(reflected(B, x), [x[1], -x[0]], atol=1e-15)


def test_projector_operator_values():
    op = projector_operator(X_AXIS)
    assert np.allclose(op.resolvent([2.0, 2.0]), [1.0, 2.0], atol=0)
    trivial = projector_operator(AffineSubspace(np.zeros(2), np.zeros((0, 2))))
    assert np.allclose(trivial.resolvent([3.0, 4.0]), [3.0, 4.0], atol=0)
    full = projector_operator(AffineSubspace(np.zeros(2), np.eye(2)))
    assert np.allclose(full.resolvent([3.0, 4.0]), [1.5, 2.0], atol=0)


def test_projector_operator_reflection_is_complement_projection(rng):
    op = projector_operator(X_AXIS)
    comp = X_AXIS.orthogonal_complement_basis()
    for _ in range(20):
        x = rng.standard_normal(2)
        oracle = comp.T @ (comp @ x)
        assert np.linalg.norm(reflected(op, x) - oracle) <= 1e-14


def test_projector_operator_defining_property(rng):
    # J must invert Id + P_U: J(x) + P_U(J(x)) == x
    U = AffineSubspace.from_span(np.zeros(3), [[1.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
    op = projector_operator(U)
    for _ in range(20):
        x = 2 * rng.standard_normal(3)
        j = op.resolvent(x)
        assert np.linalg.norm(j + U.project(j) - x) <= 1e-12


def test_projector_operator_rejects_offset_subspace():
    with pytest.raises(TypeError):
        projector_operator(AffineSubspace([0.0, 1.0], [[1.0, 0.0]]))


# ---------------------------------------------------------------------------
# the one-dimensional piecewise-linear family


def test_pw1d_identity_map():
    op = piecewise_linear_1d([(0.0, 1.0, 1.0)])
    for x in (-3.0, 0.0, 2.5):
        assert op.resolvent([x])[0] == pytest.approx(x / 2, abs=0)
    assert op.is_linear_relation


def test_pw1d_interval_cone_is_clamp():
    op = piecewise_linear_1d([(0.0, math.inf, 0.0), (1.0, 0.0, math.inf)])
    xs = [-5.0, -0.1, 0.0, 0.4, 1.0, 7.0]
    want = [0.0, 0.0, 0.0, 0.4, 1.0, 1.0]
    for x, w in zip(xs, want):
        assert op.resolvent([x])[0] == w


def test_pw1d_zero_map():
    op = piecewise_linear_1d([(0.0, 0.0, 0.0)])
    for x in (-2.0, 0.3):
        assert op.resolvent([x])[0] == x
    assert op.is_linear_relation


def test_pw1d_singleton_cone():
    op = piecewise_linear_1d([(1.5, math.inf, math.inf)])
    for x in (-9.0, 1.5, 42.0):
        assert op.resolvent([x])[0] == 1.5


def test_pw1d_rejects_negative_slope():
    with pytest.raises(MonotonicityError):
        piecewise_linear_1d([(0.0, 1.0, -0.5)])


def test_pw1d_rejects_unsorted_breaks():
    with pytest.raises(MonotonicityError):
        piecewise_linear_1d([(1.0, 1.0, 1.0), (0.0, 1.0, 1.0)])


def test_pw1d_rejects_slope_mismatch():
    with pytest.raises(MonotonicityError):
        piecewise_linear_1d([(0.0, 1.0, 2.0), (1.0, 1.0, 1.0)])


def test_pw1d_rejects_interior_vertical():
    with pytest.raises(MonotonicityError):
        piecewise_linear_1d([(0.0, 1.0, math.inf), (1.0, math.inf, 1.0)])


def test_pw1d_rejects_non_finite_breaks():
    for breaks in (
        [(math.nan, 1.0, 1.0)],
        [(0.0, 1.0, 1.0), (math.nan, 1.0, 1.0)],
        [(0.0, 1.0, 1.0), (math.inf, 1.0, 1.0)],
    ):
        with pytest.raises(MonotonicityError, match="finite"):
            piecewise_linear_1d(breaks)


def test_pw1d_resolvent_nondecreasing_1lipschitz(rng):
    from drsplit import random_pw1d_pair

    for seed in range(8):
        A, B, _ = random_pw1d_pair(np.random.default_rng(seed))
        for op in (A, B):
            xs = np.sort(rng.uniform(-8, 8, 60))
            js = np.array([op.resolvent([x])[0] for x in xs])
            d = np.diff(js)
            assert np.all(d >= -1e-14)
            assert np.all(d <= np.diff(xs) + 1e-14)


# ---------------------------------------------------------------------------
# combinators


def test_inverse_of_orthant_cone():
    op = inverse(normal_cone(NonnegativeOrthant(2)))
    assert np.allclose(op.resolvent([1.0, -1.0]), [0.0, -1.0], atol=0)


def test_inverse_is_involution(rng):
    A = normal_cone(Ball([1.0, 0.0], 2.0))
    AA = inverse(inverse(A))
    for _ in range(30):
        x = 4 * rng.standard_normal(2)
        assert np.linalg.norm(AA.resolvent(x) - A.resolvent(x)) <= 1e-14


def test_inverse_of_identity_halves():
    op = inverse(identity_operator(3))
    x = np.array([2.0, -4.0, 6.0])
    assert np.allclose(op.resolvent(x), x / 2, atol=0)


def test_dual_flip_rotator_by_hand():
    # oracle: -J_B(-x) evaluated with the closed formula
    B = rotator()
    x = np.array([1.0, 0.0])
    oracle = -np.array([0.5 * (-1.0 + 0.0), 0.5 * (1.0 + 0.0)])
    assert np.allclose(dual_flip(B).resolvent(x), oracle, atol=0)
    assert np.allclose(oracle, [0.5, -0.5], atol=0)


def test_dual_flip_singleton():
    op = dual_flip(normal_cone(Singleton([3.0, -1.0])))
    assert np.allclose(op.resolvent([9.0, 9.0]), [-3.0, 1.0], atol=0)


def test_dual_flip_odd_symmetric_fixed(rng):
    op = normal_cone(Box([-1.0, -2.0], [1.0, 2.0]))  # symmetric box: odd graph
    flipped = dual_flip(op)
    for _ in range(25):
        x = 4 * rng.standard_normal(2)
        assert np.linalg.norm(flipped.resolvent(x) - op.resolvent(x)) <= 1e-14


def test_outer_shift_by_zero_is_identity_on_samples(rng):
    A = normal_cone(Ball([0.0, 1.0], 1.0))
    shifted = outer_shift(A, [0.0, 0.0])
    for _ in range(20):
        x = 3 * rng.standard_normal(2)
        assert np.allclose(shifted.resolvent(x), A.resolvent(x), atol=0)


def test_inner_shift_singleton_moves_projection():
    # w + J_A(x - w) with J_A == 0 gives the constant -2
    A = normal_cone(Singleton([0.0]))
    op = inner_shift(A, [-2.0])
    for x in (-7.0, 0.0, 13.0):
        assert op.resolvent([x])[0] == -2.0


def test_shift_pair_shares_zero_on_parallel_lines():
    # the shifted pair of the parallel-lines geometry fixes every start; the
    # brute-force iteration of its splitting map must be stationary
    from drsplit import DRProblem, build_scenario, iterate, normal_problem

    inst = build_scenario("parallel-lines")
    sa, sb = normal_problem(inst.problem.A, inst.problem.B, [0.0, 2.0])
    tr = iterate(DRProblem(sa, sb, np.array([3.0, 5.0])), max_iters=10, step_tol=0.0)
    assert np.allclose(tr.governing, tr.governing[0], atol=1e-12)
    assert np.allclose(tr.shadow[-1], [3.0, 1.0], atol=1e-12)


def test_product_blockwise_singletons():
    P = product(normal_cone(Singleton([0.0])), normal_cone(Singleton([2.0])))
    assert np.allclose(P.resolvent([5.0, 5.0]), [0.0, 2.0], atol=0)


def test_product_with_identity_block(rng):
    A = normal_cone(NonnegativeOrthant(2))
    P = product(A, identity_operator(1))
    x = rng.standard_normal(2)
    y = rng.standard_normal(1)
    got = P.resolvent(np.concatenate([x, y]))
    assert np.allclose(got[:2], A.resolvent(x), atol=0)
    assert np.allclose(got[2:], y / 2, atol=0)


def test_product_dimension_adds():
    P = product(rotator(), identity_operator(3))
    assert P.dim == 5


def test_reflection_involution_for_subspace(rng):
    A = normal_cone(X_AXIS)
    for _ in range(20):
        x = rng.standard_normal(2)
        assert np.linalg.norm(reflected(A, reflected(A, x)) - x) <= 1e-14


def test_reflected_rotator_matches_formula():
    assert np.allclose(reflected(rotator(), [1.0, 0.0]), [0.0, -1.0], atol=0)


def test_minty_forward_orthant():
    g = minty_forward(normal_cone(NonnegativeOrthant(2)), [1.0, -1.0])
    assert np.allclose(g.point, [1.0, 0.0], atol=0)
    assert np.allclose(g.normal, [0.0, -1.0], atol=0)


def test_minty_roundtrip(rng):
    A = normal_cone(Ball([0.5, -0.5], 1.0))
    for _ in range(30):
        x = 3 * rng.standard_normal(2)
        assert np.linalg.norm(minty_inverse(minty_forward(A, x)) - x) <= 1e-12


def test_minty_identity_map():
    g = minty_forward(identity_operator(1), [2.0])
    assert g.point[0] == 1.0 and g.normal[0] == 1.0


# ---------------------------------------------------------------------------
# sampled structural properties across the whole library


def _all_library_operators():
    ops = []
    for entry in operator_pair_library():
        ops.append((f"{entry.label}:A", entry.A))
        ops.append((f"{entry.label}:B", entry.B))
    ops.append(("zero-3d", zero_operator(3)))
    ops.append(("identity-3d", identity_operator(3)))
    return ops


def test_inverse_resolvent_identity_everywhere(rng):
    for name, op in _all_library_operators():
        inv = inverse(op)
        for _ in range(25):
            x = 3 * rng.standard_normal(op.dim)
            resid = np.linalg.norm(op.resolvent(x) + inv.resolvent(x) - x)
            assert resid <= 1e-12 * (1 + np.linalg.norm(x)), name


def test_graph_monotonicity_via_minty(rng):
    for name, op in _all_library_operators():
        for _ in range(50):
            gx = minty_forward(op, 3 * rng.standard_normal(op.dim))
            gy = minty_forward(op, 3 * rng.standard_normal(op.dim))
            pairing = float(np.dot(gx.point - gy.point, gx.normal - gy.normal))
            assert pairing >= -1e-10, name


def test_dual_flip_involution(rng):
    for name, op in _all_library_operators():
        twice = dual_flip(dual_flip(op))
        for _ in range(10):
            x = rng.standard_normal(op.dim)
            assert np.linalg.norm(twice.resolvent(x) - op.resolvent(x)) <= 1e-13, name


def test_rotator_graph_is_skew(rng):
    B = rotator()
    for _ in range(50):
        g = minty_forward(B, 4 * rng.standard_normal(2))
        assert abs(float(np.dot(g.point, g.normal))) <= 1e-12 * (
            1 + float(np.dot(g.point, g.point))
        )


def test_paramonotone_cross_membership_on_1d_family():
    # zero pairing of sampled graph differences must force the swapped pairs
    # onto the graph; on the line this is decidable through the resolvent
    op = piecewise_linear_1d([(0.0, math.inf, 0.0), (1.0, 0.0, math.inf)])
    rng = np.random.default_rng(9)
    graph = [minty_forward(op, rng.uniform(-4, 4, 1)) for _ in range(60)]
    tested = 0
    for i, gi in enumerate(graph):
        for gj in graph[i + 1 :]:
            pairing = float((gi.point[0] - gj.point[0]) * (gi.normal[0] - gj.normal[0]))
            if abs(pairing) <= 1e-10:
                for p, n in ((gi.point, gj.normal), (gj.point, gi.normal)):
                    assert abs(op.resolvent(p + n)[0] - p[0]) <= 1e-10
                tested += 1
    assert tested > 0
