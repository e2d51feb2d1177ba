import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drsplit import (
    AffineSubspace,
    Ball,
    Box,
    NonnegativeOrthant,
    RankDeficiencyError,
    Singleton,
    normal_cone,
    orthonormalize,
    project,
)
from drsplit.space import is_linear_subspace


def test_project_orthant_clamps():
    got = project(NonnegativeOrthant(2), [1.0, -1.0])
    assert np.allclose(got, [1.0, 0.0], atol=0)


def test_project_horizontal_line():
    S = AffineSubspace.from_span([0.0, 1.0], [[1.0, 0.0]])  # the line y = 1
    assert np.allclose(project(S, [3.0, 5.0]), [3.0, 1.0], atol=0)


def test_from_span_of_no_vectors_is_the_offset_point():
    offset = np.array([1.5, -2.0, 0.25])
    S = AffineSubspace.from_span(offset, [])
    T = AffineSubspace(offset, np.zeros((0, 3)))
    assert S.offset.tobytes() == T.offset.tobytes()
    assert S.basis.shape == T.basis.shape == (0, 3)
    x = np.random.default_rng(5).standard_normal((4, 3))
    for p in (x[0], x):
        assert S.project(p).tobytes() == T.project(p).tobytes()
    assert S.project(x[0]).tobytes() == offset.tobytes()


def test_project_ball_radially():
    S = Ball([4.0, 0.0], 1.0)
    assert np.allclose(project(S, [0.0, 0.0]), [3.0, 0.0], atol=0)


def test_project_ball_of_a_far_point():
    # the squared norm of these points overflows; under filterwarnings =
    # error an overflow warning would fail the test
    S = Ball([0.0, 0.0], 1.0)
    assert np.array_equal(project(S, [1e200, 0.0]), [1.0, 0.0])
    stack = np.array([[1e200, 0.0], [0.0, -5e300], [-3e300, 4e300], [0.5, 0.1], [2.0, 0.0]])
    images = project(S, stack)
    assert np.array_equal(images[:2], [[1.0, 0.0], [0.0, -1.0]])
    assert np.allclose(images[2], [-0.6, 0.8], rtol=1e-15, atol=0)
    for row, image in zip(stack, images):
        assert image.tobytes() == project(S, row).tobytes()


def test_project_box_with_infinite_bounds():
    S = Box([0.0, -np.inf], [np.inf, 0.0])
    assert np.allclose(project(S, [-2.0, 3.0]), [0.0, 0.0], atol=0)


def test_project_singleton():
    assert np.allclose(project(Singleton([2.0]), [17.0]), [2.0], atol=0)


def _random_sets(rng, dim):
    basis = orthonormalize([rng.standard_normal(dim), rng.standard_normal(dim)])
    return [
        AffineSubspace(rng.standard_normal(dim), np.vstack(basis[:1])),
        AffineSubspace(rng.standard_normal(dim), np.vstack(basis)),
        NonnegativeOrthant(dim),
        Box(-rng.random(dim), rng.random(dim)),
        Ball(rng.standard_normal(dim), 0.5 + rng.random()),
        Singleton(rng.standard_normal(dim)),
    ]


def test_projection_idempotent(rng):
    for S in _random_sets(rng, 4):
        for _ in range(25):
            x = 3.0 * rng.standard_normal(4)
            p = project(S, x)
            assert np.linalg.norm(project(S, p) - p) <= 1e-12 * (1 + np.linalg.norm(x))


def test_projection_monotone_pairing(rng):
    # <Px - Py, (x - Px) - (y - Py)> >= 0, with equality on affine sets
    for S in _random_sets(rng, 4):
        affine = isinstance(S, (AffineSubspace, Singleton))
        for _ in range(50):
            x, y = 3.0 * rng.standard_normal(4), 3.0 * rng.standard_normal(4)
            px, py = project(S, x), project(S, y)
            pairing = float(np.dot(px - py, (x - px) - (y - py)))
            assert pairing >= -1e-10
            if affine:
                assert abs(pairing) <= 1e-10


def test_affine_projection_beats_grid():
    # brute-force optimality oracle: no point of a dense grid in S is closer
    S = AffineSubspace.from_span([0.0, 1.0, -1.0], [[2.0, 1.0, 0.0]])
    x = np.array([0.7, -1.3, 2.1])
    p = project(S, x)
    best = np.inf
    for t in np.linspace(-5.0, 5.0, 4001):
        s = S.offset + t * S.basis[0]
        best = min(best, float(np.linalg.norm(x - s)))
    assert np.linalg.norm(x - p) <= best + 1e-9


def test_orthonormalize_normalizes():
    (q,) = orthonormalize([[2.0, 0.0]])
    assert np.allclose(q, [1.0, 0.0], atol=0)


def test_orthonormalize_gram_schmidt_pair():
    q = orthonormalize([[1.0, 0.0], [1.0, 1.0]])
    assert np.allclose(q[0], [1.0, 0.0], atol=1e-15)
    assert np.allclose(q[1], [0.0, 1.0], atol=1e-15)


def test_orthonormalize_reports_dependent_index():
    with pytest.raises(RankDeficiencyError) as err:
        orthonormalize([[1.0, 1.0], [-1.0, -1.0]])
    assert err.value.index == 1


def test_orthonormalize_spans_same_subspace(rng):
    vecs = [rng.standard_normal(5) for _ in range(3)]
    q = orthonormalize(vecs)
    Q = np.vstack(q)
    assert np.max(np.abs(Q @ Q.T - np.eye(3))) <= 1e-12
    for v in vecs:  # each input is reproduced by its projection onto the span
        assert np.linalg.norm(Q.T @ (Q @ v) - v) <= 1e-10 * (1 + np.linalg.norm(v))


def test_affine_subspace_rejects_skew_basis():
    with pytest.raises(ValueError):
        AffineSubspace(np.zeros(2), np.array([[1.0, 0.0], [0.9, 0.1]]))


def test_box_rejects_crossed_bounds():
    with pytest.raises(ValueError):
        Box([1.0], [0.0])


def test_ball_rejects_zero_radius():
    with pytest.raises(ValueError):
        Ball([0.0, 0.0], 0.0)


def test_whole_space_projects_identically(rng):
    S = AffineSubspace(np.zeros(3), np.eye(3))
    x = rng.standard_normal(3)
    assert np.allclose(project(S, x), x, atol=1e-15)


@pytest.mark.parametrize("k, d", [(0, 3), (2, 4), (2, 2)])
def test_orthogonal_complement_basis_is_orthonormal_complement(k, d, rng):
    U = AffineSubspace.from_span(np.zeros(d), list(rng.standard_normal((k, d))))
    C = U.orthogonal_complement_basis()
    assert C.shape == (d - k, d)
    assert np.allclose(C @ C.T, np.eye(d - k), atol=1e-12)
    assert np.allclose(U.basis @ C.T, 0.0, atol=1e-12)


@pytest.mark.parametrize(
    "point, linear",
    [
        ([0.0], True),
        ([-0.0, 0.0], True),
        ([1e-200], False),  # its squared norm underflows to 0
        ([5e-324, 0.0], False),
        ([1e200], False),  # its squared norm overflows, which is an error under -W error
        ([-1.7e308, 1.7e308], False),
    ],
)
def test_singleton_is_linear_exactly_when_it_is_the_origin(point, linear):
    assert is_linear_subspace(Singleton(point)) is linear
    assert normal_cone(Singleton(point)).is_linear_relation is linear


# ---------------------------------------------------------------------------
# the one-point projections that iterate calls once per record


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 12).flatmap(lambda d: st.tuples(st.just(d), st.integers(0, d))),
    st.integers(-300, 300),
    st.integers(0, 2**32 - 1),
)
def test_affine_point_projection_is_the_matmul_form_bitwise(dk, exponent, seed):
    # the one-point path uses ndarray.dot; it must keep the bits of
    # offset + basis.T @ (basis @ rel) and of its own stacked rows
    d, k = dk
    rng = np.random.default_rng(seed)
    scale = 10.0**exponent
    basis = np.linalg.qr(rng.standard_normal((d, d)))[0][:k] if k else np.zeros((0, d))
    S = AffineSubspace(scale * rng.standard_normal(d), basis)
    X = scale * rng.standard_normal((5, d))
    stacked = S.project(X)
    for x, row in zip(X, stacked):
        got = S.project(x)
        assert got.tobytes() == (S.offset + S.basis.T @ (S.basis @ (x - S.offset))).tobytes()
        assert got.tobytes() == row.tobytes()


def _np_sqrt_ball_project(ball, x):
    """Ball.project's one-point path with numpy square roots."""
    rel = x - ball.center
    with np.errstate(over="ignore"):
        dist = np.sqrt(rel.dot(rel))
    if dist <= ball.radius:
        return x.copy()
    if dist == np.inf:
        unit = rel / np.max(np.abs(rel))
        return ball.center + (ball.radius / np.sqrt(unit.dot(unit))) * unit
    return ball.center + (ball.radius / dist) * rel


@settings(max_examples=500, deadline=None)
@given(
    st.integers(1, 6),
    st.sampled_from([-3.0, -1.0, 0.0, 0.5, 2.0]),
    st.sampled_from([0.5, 1.0, 2.0, 3.7]),
    st.one_of(
        # inside, on, just past and far outside the sphere (the squared
        # norm overflows from about 1.3e154 on)
        st.sampled_from([0.0, 0.5, 1.0, 1.0 + 2**-52, 2.0, 1e154, 1e200, 1e300]),
        st.floats(0.0, 1e307),
    ),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_ball_point_projection_is_the_np_sqrt_form_bitwise(d, c, radius, distance, axis, seed):
    rng = np.random.default_rng(seed)
    ball = Ball(np.full(d, c), radius)
    direction = np.eye(d)[rng.integers(d)] if axis else rng.standard_normal(d)
    if not axis:
        direction /= np.linalg.norm(direction)
    x = ball.center + (distance * radius) * direction
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a far point's squared norm overflows silently
        got = ball.project(x)
        row = ball.project(x[None])[0]
    assert got.tobytes() == _np_sqrt_ball_project(ball, x).tobytes()
    assert got.tobytes() == row.tobytes()
    assert np.all(np.isfinite(got))
