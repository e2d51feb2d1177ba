"""The batched resolvent contract: one point of shape (d,) or a stack of rows
of shape (m, d), with each row of a stack's image bitwise equal to the image
of that row alone; firm nonexpansiveness of every resolvent the strategies
and the pair library build; and the block-wise identity sweep against a
sample-by-sample reference."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drsplit import (
    AffineSubspace,
    Ball,
    Box,
    DimensionMismatchError,
    MonotoneOperator,
    NonnegativeOrthant,
    OperatorContractError,
    Singleton,
    as_points,
    check_identities,
    dr_apply,
    dr_decomposition_residuals,
    dual_flip,
    eight_point_residual,
    fixed_point_step_residuals,
    inner_shift,
    inverse,
    linear_relation_residual,
    minty_forward,
    normal_cone,
    operator_pair_library,
    outer_shift,
    piecewise_linear_1d,
    product,
    project,
    projector_operator,
    reflected,
    rotator,
    scaled_id_plus_normal_cone,
    skew_residuals,
    three_point_residuals,
)
from drsplit import runner
from drsplit.identities import affine_gap_residuals


# the zero map (resolvent Id) and the identity map (resolvent Id/2), built
# directly from their resolvents
def zero_operator(dim: int) -> MonotoneOperator:
    return MonotoneOperator(lambda x: x.copy(), dim, is_linear_relation=True, label="zero")


def identity_operator(dim: int) -> MonotoneOperator:
    return MonotoneOperator(lambda x: 0.5 * x, dim, is_linear_relation=True, label="identity")


# small exact values, so that rows land on knots, bounds and sphere points
SPECIALS = [0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 3.0]
COORD = st.one_of(
    st.sampled_from(SPECIALS),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)


def _subspace(rng, d: int, k: int, offset) -> AffineSubspace:
    basis = np.linalg.qr(rng.standard_normal((d, d)))[0][:k] if k else np.zeros((0, d))
    return AffineSubspace(np.asarray(offset, dtype=float), basis)


@st.composite
def _pw1d(draw):
    m = draw(st.integers(1, 4))
    pos = sorted(draw(st.sets(st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0]), min_size=m, max_size=m)))
    inner_slopes = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]), min_size=m - 1, max_size=m - 1))
    left = [draw(st.sampled_from([0.0, 1.0, math.inf]))] + inner_slopes
    right = inner_slopes + [draw(st.sampled_from([0.0, 2.0, math.inf]))]
    return piecewise_linear_1d(list(zip(pos, left, right)))


@st.composite
def _base(draw, d: int):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offset = draw(st.lists(st.sampled_from(SPECIALS), min_size=d, max_size=d))
    kind = draw(
        st.sampled_from(
            ["affine", "orthant", "box", "ball", "singleton", "scaled", "projector", "zero", "identity"]
            + (["rotator"] if d == 2 else [])
            + (["pw1d"] if d == 1 else [])
        )
    )
    if kind == "affine":
        return normal_cone(_subspace(rng, d, draw(st.integers(0, d)), offset))
    if kind == "orthant":
        return normal_cone(NonnegativeOrthant(d))
    if kind == "box":
        bounds = [(-math.inf, 0.0), (-math.inf, math.inf), (-1.0, -1.0), (-1.0, 1.0), (0.0, 0.5), (0.0, math.inf)]
        lower, upper = zip(*draw(st.lists(st.sampled_from(bounds), min_size=d, max_size=d)))
        return normal_cone(Box(lower, upper))
    if kind == "ball":
        return normal_cone(Ball(offset, draw(st.sampled_from([0.5, 1.0, 2.0]))))
    if kind == "singleton":
        return normal_cone(Singleton(offset))
    if kind == "scaled":
        C = Singleton(offset) if draw(st.booleans()) else _subspace(rng, d, draw(st.integers(0, d)), offset)
        return scaled_id_plus_normal_cone(draw(st.sampled_from([0.5, 1.0, 3.0])), C)
    if kind == "projector":
        return projector_operator(_subspace(rng, d, draw(st.integers(0, d)), np.zeros(d)))
    if kind == "zero":
        return zero_operator(d)
    if kind == "identity":
        return identity_operator(d)
    if kind == "rotator":
        return rotator()
    return draw(_pw1d())


@st.composite
def _operator(draw, d: int, depth: int):
    if depth == 0 or draw(st.booleans()):
        return draw(_base(d))
    kind = draw(st.sampled_from(["inverse", "dual_flip", "outer_shift", "inner_shift"] + (["product"] if d > 1 else [])))
    if kind == "product":
        da = draw(st.integers(1, d - 1))
        return product(draw(_operator(da, depth - 1)), draw(_operator(d - da, depth - 1)))
    A = draw(_operator(d, depth - 1))
    if kind == "inverse":
        return inverse(A)
    if kind == "dual_flip":
        return dual_flip(A)
    w = draw(st.lists(COORD, min_size=d, max_size=d))
    return (outer_shift if kind == "outer_shift" else inner_shift)(A, w)


def _stack(m: int, d: int):
    rows = st.lists(st.lists(COORD, min_size=d, max_size=d), min_size=m, max_size=m)
    return rows.map(lambda r: np.array(r, dtype=float).reshape(m, d))


@st.composite
def _operator_and_stack(draw):
    d = draw(st.integers(1, 4))
    op = draw(_operator(d, 3))
    return op, draw(_stack(draw(st.integers(1, 6)), d))


@settings(max_examples=300, deadline=None)
@given(_operator_and_stack())
def test_stack_rows_equal_single_points_bitwise(case):
    op, X = case
    Y = op.resolvent_map(X)
    assert Y.shape == X.shape, op.label
    assert Y.dtype == np.float64
    for i in range(X.shape[0]):
        y = op.resolvent_map(X[i])
        assert y.shape == X[i].shape, op.label
        assert Y[i].tobytes() == y.tobytes(), (op.label, X[i], Y[i], y)
    assert op.resolvent(X).tobytes() == Y.tobytes()


# ---------------------------------------------------------------------------
# firm nonexpansiveness: <Jx - Jy, x - y> >= ||Jx - Jy||^2

# Every coordinate and shift drawn here is at most 1e3 in magnitude, so
# rounding moves an image by about eps * 1e4 and the gap by that times
# ||x - y||. Over 50 hypothesis seeds, 300 examples each steered toward the
# worst case with ``target``, the lowest gap was -1.5e-12 * ||x - y|| on the
# strategies and -2.0e-12 * ||x - y|| on the library; the bound leaves a
# factor of 10.
FNE_TOL = 2e-11


def _assert_firmly_nonexpansive(op, X, Y):
    dj = op.resolvent_map(X) - op.resolvent_map(Y)
    gap = np.vecdot(dj, X - Y) - np.vecdot(dj, dj)
    assert np.all(gap >= -FNE_TOL * np.linalg.norm(X - Y, axis=-1)), (op.label, X, Y, gap)


@st.composite
def _operator_and_two_stacks(draw):
    op, X = draw(_operator_and_stack())
    return op, X, draw(_stack(*X.shape))


@settings(max_examples=300, deadline=None)
@given(_operator_and_two_stacks())
def test_strategy_operators_firmly_nonexpansive(case):
    _assert_firmly_nonexpansive(*case)


LIBRARY_OPERATORS = [
    (f"{entry.label}:{side}", op)
    for entry in operator_pair_library()
    for side, op in (("A", entry.A), ("B", entry.B))
] + [("zero-3d", zero_operator(3)), ("identity-3d", identity_operator(3))]


@pytest.mark.parametrize("op", [op for _, op in LIBRARY_OPERATORS], ids=[name for name, _ in LIBRARY_OPERATORS])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_library_operators_firmly_nonexpansive(op, data):
    m = data.draw(st.integers(1, 6))
    _assert_firmly_nonexpansive(op, data.draw(_stack(m, op.dim)), data.draw(_stack(m, op.dim)))


def test_affine_stack_matches_single_point_form():
    # the stacked affine projection must reproduce offset + B^T (B rel) row by row
    rng = np.random.default_rng(11)
    for d in (1, 2, 5, 17, 50):
        for k in sorted({0, 1, d // 2, d}):
            U = _subspace(rng, d, k, rng.standard_normal(d))
            X = 3.0 * rng.standard_normal((7, d))
            P = U.project(X)
            for i in range(7):
                assert P[i].tobytes() == (U.offset + U.basis.T @ (U.basis @ (X[i] - U.offset))).tobytes()


def test_public_projection_and_resolvent_take_stacks():
    X = np.array([[3.0, 4.0], [0.1, 0.2], [-1.0, 9.0]])
    ball = Ball([0.0, 0.0], 1.0)
    P = project(ball, X)
    assert np.allclose(P[0], [0.6, 0.8], rtol=0, atol=1e-15)
    assert np.array_equal(P[1:], [X[1], ball.project(X[2])])
    op = normal_cone(NonnegativeOrthant(2))
    assert np.array_equal(op.resolvent(X), np.maximum(X, 0.0))
    assert np.array_equal(dr_apply(op, rotator(), X)[1], dr_apply(op, rotator(), X[1]))


def test_as_points_validates_stacks():
    assert as_points([[1.0, 2.0], [3.0, 4.0]], 2).shape == (2, 2)
    assert as_points(3.0).shape == (1,)
    with pytest.raises(ValueError, match="stack"):
        as_points(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError, match="non-finite"):
        as_points([[1.0, np.nan]])
    with pytest.raises(DimensionMismatchError):
        as_points(np.zeros((4, 3)), 2)


def test_resolvent_and_dr_apply_reject_wrong_output_shape():
    bad = MonotoneOperator(resolvent_map=lambda x: np.zeros(3), dim=2, label="bad-map")
    with pytest.raises(OperatorContractError, match=r"bad-map.*\(3,\).*\(2,\)"):
        bad.resolvent([1.0, 2.0])
    with pytest.raises(OperatorContractError, match="bad-map"):
        dr_apply(bad, rotator(), [1.0, 2.0])
    with pytest.raises(OperatorContractError, match="bad-map"):
        dr_apply(rotator(), bad, [1.0, 2.0])
    # a map that ignores the row axis would broadcast silently
    rowless = MonotoneOperator(resolvent_map=lambda x: np.zeros(2), dim=2, label="rowless")
    assert np.array_equal(rowless.resolvent([1.0, 2.0]), [0.0, 0.0])
    with pytest.raises(OperatorContractError, match=r"rowless.*\(2,\).*\(3, 2\)"):
        rowless.resolvent(np.ones((3, 2)))


# a planar map whose images drop a coordinate; declared linear, so that the
# linear-relation and skew reports get as far as evaluating it
FIRST_COLUMN = MonotoneOperator(
    lambda x: x[..., :1], dim=2, is_linear_relation=True, label="first-column"
)
FIRST_COLUMN_ERROR = r"first-column returned shape \((\d+, )?1,?\) for input of shape \((\d+, )?2,?\)"
PAIR_EVALUATIONS = {
    "dr_decomposition_residuals": lambda A, B, x: dr_decomposition_residuals(A, B, x, -x),
    "fixed_point_step_residuals": fixed_point_step_residuals,
    "linear_relation_residual": linear_relation_residual,
    "skew_residuals": lambda A, B, x: skew_residuals(A, B, x, -x),
}


@pytest.mark.parametrize("name", sorted(PAIR_EVALUATIONS))
@pytest.mark.parametrize(
    "x", [[1.0, 2.0], [[1.0, 2.0], [3.0, -1.0], [0.5, 0.0]]], ids=["point", "stack"]
)
def test_identities_check_each_operators_first_image(name, x):
    evaluate = PAIR_EVALUATIONS[name]
    with pytest.raises(OperatorContractError, match=FIRST_COLUMN_ERROR):
        evaluate(FIRST_COLUMN, rotator(), np.array(x))
    with pytest.raises(OperatorContractError, match=FIRST_COLUMN_ERROR):
        evaluate(rotator(), FIRST_COLUMN, np.array(x))


@pytest.mark.parametrize("evaluate", [reflected, minty_forward])
def test_one_point_evaluations_check_the_image(evaluate):
    with pytest.raises(OperatorContractError, match=FIRST_COLUMN_ERROR):
        evaluate(FIRST_COLUMN, [1.0, 2.0])


# ---------------------------------------------------------------------------
# residual reports on stacks


def _assert_rows_match(stacked, single_of_row, m):
    for i in range(m):
        single = single_of_row(i)
        if isinstance(single, float):
            assert float(stacked[i]).hex() == single.hex()
            continue
        assert set(stacked.entries) == set(single.entries)
        for name, values in stacked.entries.items():
            assert values.shape == (m,)
            assert float(values[i]).hex() == single.entries[name].hex(), name


def test_residual_reports_on_stacks_match_rows():
    rng = np.random.default_rng(4)
    m = 5
    for entry in operator_pair_library():
        A, B = entry.A, entry.B
        X = 1.5 * rng.standard_normal((m, entry.dim))
        Y = 1.5 * rng.standard_normal((m, entry.dim))
        _assert_rows_match(dr_decomposition_residuals(A, B, X, Y), lambda i: dr_decomposition_residuals(A, B, X[i], Y[i]), m)
        _assert_rows_match(fixed_point_step_residuals(A, B, X), lambda i: fixed_point_step_residuals(A, B, X[i]), m)
        if A.is_linear_relation and B.is_linear_relation:
            _assert_rows_match(linear_relation_residual(A, B, X), lambda i: linear_relation_residual(A, B, X[i]), m)
        if entry.skew_family:
            _assert_rows_match(skew_residuals(A, B, X, Y), lambda i: skew_residuals(A, B, X[i], Y[i]), m)
        if entry.affine_sets is not None:
            U, V = entry.affine_sets
            _assert_rows_match(affine_gap_residuals(U, V, X), lambda i: affine_gap_residuals(U, V, X[i]), m)
    P = 1.5 * rng.standard_normal((8, m, 3))
    _assert_rows_match(three_point_residuals(*P[:3]), lambda i: three_point_residuals(*P[:3, i]), m)
    _assert_rows_match(eight_point_residual(*P), lambda i: eight_point_residual(*P[:, i]), m)


def test_stacked_report_max_and_shape_checks():
    rep = three_point_residuals(np.zeros((3, 2)), np.zeros((3, 2)), np.ones((3, 2)))
    assert rep.max_equality_residual().shape == (3,)
    with pytest.raises(DimensionMismatchError):
        three_point_residuals(np.zeros((3, 2)), np.zeros((2, 2)), np.zeros((3, 2)))
    with pytest.raises(DimensionMismatchError):
        dr_decomposition_residuals(rotator(), rotator(), np.zeros((3, 2)), np.zeros(2))


# ---------------------------------------------------------------------------
# the block-wise sweep against a sample-by-sample reference


def _scaled_vec_residual(lhs, rhs):
    raw = float(np.linalg.norm(lhs - rhs))
    return raw / (1.0 + max(float(np.linalg.norm(lhs)), float(np.linalg.norm(rhs))))


def _reference_sweep(seed, samples, entries):
    """The sweep evaluated one sample at a time, with the first sample winning ties."""
    rng = np.random.default_rng(seed)
    worst, slack = {}, {}

    def absorb(values, pair, s):
        for name, value in values.items():
            table, worse = (slack, value < slack.get(name, (math.inf,))[0]) if name.endswith("_slack") else (
                worst,
                value > worst.get(name, (-math.inf,))[0],
            )
            if name not in table or worse:
                table[name] = (value, pair, s)

    for d in sorted({e.dim for e in entries}):
        for s in range(samples):
            pts = rng.standard_normal((8, d)) * 1.5
            absorb(three_point_residuals(*pts[:3]).entries, f"points-dim{d}", s)
            absorb({"eight_point": eight_point_residual(*pts)}, f"points-dim{d}", s)
    for e in entries:
        A, B = e.A, e.B
        a_inv, b_inv = inverse(A), inverse(B)
        for s in range(samples):
            x = rng.standard_normal(e.dim) * 1.5
            y = rng.standard_normal(e.dim) * 1.5
            absorb(dr_decomposition_residuals(A, B, x, y).entries, e.label, s)
            absorb(fixed_point_step_residuals(A, B, x).entries, e.label, s)
            extra = {
                "inverse_resolvent_sum": max(
                    _scaled_vec_residual(A.resolvent(x) + a_inv.resolvent(x), x),
                    _scaled_vec_residual(B.resolvent(x) + b_inv.resolvent(x), x),
                ),
                "self_duality": _scaled_vec_residual(dr_apply(A, B, x), dr_apply(a_inv, dual_flip(b_inv), x)),
                "product_resolvent": _scaled_vec_residual(
                    product(A, B).resolvent(np.concatenate([x, y])),
                    np.concatenate([A.resolvent(x), B.resolvent(y)]),
                ),
            }
            if A.is_linear_relation and B.is_linear_relation:
                extra["linear_relation_step"] = linear_relation_residual(A, B, x)
            absorb(extra, e.label, s)
            if e.skew_family:
                absorb(skew_residuals(A, B, x, y).entries, e.label, s)
            if e.affine_sets is not None:
                absorb(affine_gap_residuals(*e.affine_sets, x).entries, e.label, s)
    return worst, slack


def _records(table):
    return {name: (float(r.value).hex(), r.pair, r.sample) for name, r in table.items()}


def _assert_sweep_matches_reference(seed, samples, entries=None):
    sweep = check_identities(seed=seed, samples=samples, pairs=entries)
    worst, slack = _reference_sweep(seed, samples, entries or operator_pair_library())
    assert _records(sweep.worst) == {k: (v.hex(), p, s) for k, (v, p, s) in worst.items()}
    assert _records(sweep.slack_worst) == {k: (v.hex(), p, s) for k, (v, p, s) in slack.items()}
    assert list(sweep.worst) == list(worst)


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("samples", [1, 3, 20])
def test_sweep_records_equal_sample_by_sample_reference(seed, samples):
    _assert_sweep_matches_reference(seed, samples)


def test_sweep_records_equal_reference_across_a_block_boundary():
    library = {e.label: e for e in operator_pair_library()}
    entries = [library[k] for k in ("kinked-1d", "rotator-rotator", "disjoint-balls", "random-affine-5d")]
    _assert_sweep_matches_reference(5, runner.SWEEP_BLOCK + 3, entries)


def test_sweep_records_equal_reference_with_small_blocks(monkeypatch):
    monkeypatch.setattr(runner, "SWEEP_BLOCK", 4)
    assert runner._blocks(11) == [(0, 4), (4, 4), (8, 3)]
    _assert_sweep_matches_reference(3, 11)
