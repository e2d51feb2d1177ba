import numpy as np
import pytest

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
