import numpy as np
import pytest

from drsplit import (
    AffineSubspace,
    MonotoneOperator,
    NonnegativeOrthant,
    OperatorFamilyError,
    affine_gap_residuals,
    dr_decomposition_residuals,
    eight_point_residual,
    fixed_point_step_residuals,
    linear_relation_residual,
    normal_cone,
    operator_pair_library,
    projector_operator,
    random_affine_pair,
    rotator,
    skew_residuals,
    three_point_residuals,
)

X_AXIS = AffineSubspace(np.zeros(2), np.array([[1.0, 0.0]]))
DIAGONAL = AffineSubspace.from_span(np.zeros(2), [np.array([1.0, 1.0])])


# ---------------------------------------------------------------------------
# point identities


def test_three_point_all_zero():
    rep = three_point_residuals(np.zeros(3), np.zeros(3), np.zeros(3))
    assert all(v == 0.0 for v in rep.entries.values())


def test_three_point_collapsed_substitution(rng):
    z = rng.standard_normal(4)
    rep = three_point_residuals(z, np.zeros(4), z)
    assert rep.max_equality_residual() <= 1e-15


def test_three_point_random_triples(rng):
    # oracle: both sides evaluated separately below, with independent expansions
    for _ in range(100):
        a, b, z = (2.0 * rng.standard_normal(4) for _ in range(3))
        lhs = float(z @ z)
        rhs = (
            float(np.sum((z - a + b) ** 2))
            + float(np.sum((b - a) ** 2))
            + 2.0 * float(a @ z) - 2.0 * float(a @ a)
            + 4.0 * float(b @ a) - 2.0 * float(b @ z) - 2.0 * float(b @ b)
        )
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + float(z @ z))
        rep = three_point_residuals(a, b, z)
        assert rep.raw["three_point_3"] <= 1e-10 * (1.0 + float(z @ z))
        assert rep.max_equality_residual() <= 1e-12


def test_eight_point_zeros():
    assert eight_point_residual(*[np.zeros(2)] * 8) == 0.0


def test_eight_point_degenerate_quadruple(rng):
    x, y, a_star, b_star, u, v = (rng.standard_normal(3) for _ in range(6))
    assert eight_point_residual(x, y, x, y, a_star, b_star, u, v) <= 1e-14


def test_eight_point_random(rng):
    for _ in range(100):
        pts = [2.0 * rng.standard_normal(3) for _ in range(8)]
        assert eight_point_residual(*pts) <= 1e-10


def test_eight_point_pairing_against_live_traces(rng):
    # the expansion's purpose: paired with graph monotonicity of the product
    # operator, the trace quadruples (shadow, second shadow, duals) pair
    # nonnegatively against any sampled graph points of A and B
    from drsplit import DRProblem, iterate, minty_forward

    for entry in operator_pair_library()[:6]:
        trace = iterate(
            DRProblem(entry.A, entry.B, 2 * rng.standard_normal(entry.dim)),
            max_iters=25,
            step_tol=0.0,
        )
        for _ in range(10):
            ga = minty_forward(entry.A, 2 * rng.standard_normal(entry.dim))
            gb = minty_forward(entry.B, 2 * rng.standard_normal(entry.dim))
            for n in range(0, len(trace), 5):
                pairing = float(
                    np.dot(trace.shadow[n] - ga.point, trace.dual_shadow[n] - ga.normal)
                ) + float(
                    np.dot(trace.b_shadow[n] - gb.point, trace.b_dual_shadow[n] - gb.normal)
                )
                assert pairing >= -1e-10, entry.label
                # and the expansion itself holds verbatim on these points
                assert (
                    eight_point_residual(
                        trace.shadow[n],
                        trace.b_shadow[n],
                        ga.point,
                        gb.point,
                        trace.dual_shadow[n],
                        trace.b_dual_shadow[n],
                        ga.normal,
                        gb.normal,
                    )
                    <= 1e-10
                )


# ---------------------------------------------------------------------------
# splitting-map decompositions


def test_decomposition_identical_points():
    A = normal_cone(NonnegativeOrthant(2))
    B = rotator()
    x = np.array([0.3, -0.7])
    rep = dr_decomposition_residuals(A, B, x, x)
    assert rep.max_equality_residual() == 0.0
    assert rep.entries["resolvent_energy_slack"] == 0.0


def test_decomposition_rotator_scenario_points():
    A = normal_cone(NonnegativeOrthant(2))
    B = rotator()
    rep = dr_decomposition_residuals(A, B, [1.0, 0.0], [0.5, -0.5])
    assert rep.max_equality_residual() <= 1e-12
    assert rep.entries["resolvent_energy_slack"] >= 0.0


def test_decomposition_random_over_library(rng):
    for entry in operator_pair_library():
        for _ in range(30):
            x = 2.5 * rng.standard_normal(entry.dim)
            y = 2.5 * rng.standard_normal(entry.dim)
            rep = dr_decomposition_residuals(entry.A, entry.B, x, y)
            assert rep.max_equality_residual() <= 1e-9, entry.label
            assert rep.entries["resolvent_energy_slack"] >= -1e-10, entry.label


def test_energy_slack_detects_nonmonotone_map():
    # the equalities are pure algebra and survive a corrupted "resolvent",
    # but the drop inequality needs monotonicity and must go negative
    good = normal_cone(NonnegativeOrthant(2))
    corrupted = MonotoneOperator(
        resolvent_map=lambda x: -good.resolvent_map(x), dim=2, label="negated"
    )
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(200):
        x, y = 2 * rng.standard_normal(2), 2 * rng.standard_normal(2)
        rep = dr_decomposition_residuals(corrupted, rotator(), x, y)
        assert rep.max_equality_residual() <= 1e-12
        worst = min(worst, rep.entries["resolvent_energy_slack"])
    assert worst < -1e-3


def test_fixed_point_step_residuals_at_fixed_point():
    A = normal_cone(NonnegativeOrthant(2))
    B = rotator()
    rep = fixed_point_step_residuals(A, B, [1.0, -1.0])
    assert rep.max_equality_residual() <= 1e-15


def test_fixed_point_step_residuals_rotator_start():
    rep = fixed_point_step_residuals(normal_cone(NonnegativeOrthant(2)), rotator(), [1.0, 0.0])
    assert rep.max_equality_residual() <= 1e-12


def test_fixed_point_step_residuals_random(rng):
    for entry in operator_pair_library():
        for _ in range(20):
            x = 2 * rng.standard_normal(entry.dim)
            rep = fixed_point_step_residuals(entry.A, entry.B, x)
            assert rep.max_equality_residual() <= 1e-10, entry.label


# ---------------------------------------------------------------------------
# linear relations and the skew family


def test_linear_relation_projector_pair(rng):
    A = projector_operator(X_AXIS)
    B = projector_operator(DIAGONAL)
    for _ in range(50):
        assert linear_relation_residual(A, B, 2 * rng.standard_normal(2)) <= 1e-12


def test_linear_relation_cone_rotator(rng):
    A = normal_cone(X_AXIS)
    for _ in range(50):
        assert linear_relation_residual(A, rotator(), 2 * rng.standard_normal(2)) <= 1e-12


def test_linear_relation_zero_point():
    assert linear_relation_residual(rotator(), rotator(), [0.0, 0.0]) == 0.0


def test_linear_relation_rejects_unflagged():
    with pytest.raises(OperatorFamilyError):
        linear_relation_residual(normal_cone(NonnegativeOrthant(2)), rotator(), [1.0, 1.0])


def test_skew_energy_split_by_hand():
    # direct arithmetic for x = (1, 0): Tx = (1/2, -1/2), so both sides are 1
    rep = skew_residuals(rotator(), rotator(), [1.0, 0.0], [0.0, 0.0])
    assert rep.entries["skew_energy"] == 0.0
    assert rep.max_equality_residual() <= 1e-15


def test_skew_residuals_equal_points(rng):
    x = rng.standard_normal(2)
    rep = skew_residuals(rotator(), rotator(), x, x)
    for name in ("skew_1", "skew_2", "skew_3", "skew_4"):
        assert rep.entries[name] == 0.0


def test_skew_residuals_random(rng):
    for _ in range(100):
        x, y = 3 * rng.standard_normal(2), 3 * rng.standard_normal(2)
        rep = skew_residuals(rotator(), rotator(), x, y)
        assert rep.max_equality_residual() <= 1e-12


def test_skew_residuals_include_half_composition(rng):
    x = rng.standard_normal(2)
    rep = skew_residuals(rotator(), rotator(), x, np.zeros(2))
    assert "skew_half_composition" in rep.entries
    assert rep.entries["skew_half_composition"] <= 1e-14


def test_skew_rejects_wrong_family():
    with pytest.raises(OperatorFamilyError):
        skew_residuals(normal_cone(X_AXIS), rotator(), [1.0, 0.0], [0.0, 0.0])
    with pytest.raises(OperatorFamilyError):
        skew_residuals(projector_operator(X_AXIS), rotator(), [1.0, 0.0], [0.0, 0.0])


# ---------------------------------------------------------------------------
# affine gap identity


def test_affine_gap_inside_intersection():
    rep = affine_gap_residuals(X_AXIS, DIAGONAL, [0.0, 0.0])
    raw = rep.raw
    assert raw["gap_identity"] == 0.0
    assert rep.max_equality_residual() <= 1e-15


def test_affine_gap_hand_computed_point():
    # for U the horizontal axis, V the diagonal and x = (0, 1):
    # P_U x = (0, 0), P_V x = (1/2, 1/2), gap^2 = 1/2;
    # R_A x = (0, -1), P_V R_A x = (-1/2, -1/2), Tx = (-1/2, 1/2), step^2 = 1/2
    from drsplit import dr_apply

    tx = dr_apply(normal_cone(X_AXIS), normal_cone(DIAGONAL), [0.0, 1.0])
    assert np.allclose(tx, [-0.5, 0.5], atol=0)
    rep = affine_gap_residuals(X_AXIS, DIAGONAL, [0.0, 1.0])
    assert rep.raw["gap_identity"] <= 1e-12
    assert rep.max_equality_residual() <= 1e-12


def test_affine_gap_random_pairs_r5():
    rng = np.random.default_rng(77)
    for _ in range(50):
        U, V, _ = random_affine_pair(5, rng)
        x = 3 * rng.standard_normal(5)
        rep = affine_gap_residuals(U, V, x)
        assert rep.raw["gap_identity"] <= 1e-10
        assert rep.max_equality_residual() <= 1e-10


def test_affine_gap_rejects_nonaffine():
    with pytest.raises(OperatorFamilyError):
        affine_gap_residuals(NonnegativeOrthant(2), X_AXIS, [1.0, 1.0])


def test_affine_gap_rejects_disjoint_lines():
    upper = AffineSubspace([0.0, 1.0], [[1.0, 0.0]])
    lower = AffineSubspace([0.0, -1.0], [[1.0, 0.0]])
    with pytest.raises(ValueError):
        affine_gap_residuals(upper, lower, [0.0, 0.0])


# ---------------------------------------------------------------------------
# cross-cutting report behaviour


def test_every_residual_op_zero_on_zeros():
    zero2 = np.zeros(2)
    assert three_point_residuals(zero2, zero2, zero2).max_equality_residual() <= 1e-12
    assert eight_point_residual(*[zero2] * 8) <= 1e-12
    A, B = normal_cone(X_AXIS), rotator()
    assert dr_decomposition_residuals(A, B, zero2, zero2).max_equality_residual() <= 1e-12
    assert fixed_point_step_residuals(A, B, zero2).max_equality_residual() <= 1e-12
    assert linear_relation_residual(A, B, zero2) <= 1e-12
    assert skew_residuals(rotator(), rotator(), zero2, zero2).max_equality_residual() <= 1e-12
    assert affine_gap_residuals(X_AXIS, DIAGONAL, zero2).max_equality_residual() <= 1e-12


def test_counterexample_reproduction_exact():
    # distances to a primal/dual pair off the solution pairs must grow by
    # exactly 0.5 (coupled) and 1.25 (primal only) for the unit start
    A = normal_cone(NonnegativeOrthant(2))
    B = rotator()
    x = np.array([1.0, 0.0])
    z = np.array([2.0, 0.0])
    k = np.array([0.0, -1.0])
    from drsplit import dr_apply

    tx = dr_apply(A, B, x)
    u0 = np.concatenate([A.resolvent(x), x - A.resolvent(x)])
    u1 = np.concatenate([A.resolvent(tx), tx - A.resolvent(tx)])
    e = np.concatenate([z, k])
    pair_growth = float(np.dot(u1 - e, u1 - e) - np.dot(u0 - e, u0 - e))
    primal_growth = float(
        np.dot(A.resolvent(tx) - z, A.resolvent(tx) - z)
        - np.dot(A.resolvent(x) - z, A.resolvent(x) - z)
    )
    assert abs(pair_growth - 0.5) <= 1e-12
    assert abs(primal_growth - 1.25) <= 1e-12
