"""The affine scenarios' solution samples: P_Fix of each start by linear
algebra, and a fixed-point search only from a start whose point that rule
does not certify."""

import numpy as np
import pytest

import drsplit.scenarios
from drsplit import DRProblem, build_scenario, find_fixed_point, make_config, run
from drsplit.scenarios import _affine_fix_points
from drsplit.space import row_norms
from drsplit.splitting import dr_step

AFFINE_CONFIGS = [("affine-consistent", None, seed) for seed in (0, 3)] + [
    ("random-affine", dim, seed) for dim in (2, 5, 50) for seed in range(1, 9)
]


def _id(config):
    name, dim, seed = config
    return f"{name}-d{dim}-s{seed}" if dim else f"{name}-s{seed}"


def _starts(inst):
    """The start and the two perturbed starts the build takes its fixed points from."""
    x0 = inst.problem.x0
    rng = np.random.default_rng(inst.seed + 104729)
    return [x0] + [x0 + rng.uniform(-1.0, 1.0, x0.shape[0]) for _ in range(2)]


@pytest.fixture
def searches(monkeypatch):
    """The starts of every ``find_fixed_point`` call the scenario builds make."""
    starts = []
    search = drsplit.scenarios.find_fixed_point

    def counting(problem, *args, **kwargs):
        starts.append(problem.x0.copy())
        return search(problem, *args, **kwargs)

    monkeypatch.setattr(drsplit.scenarios, "find_fixed_point", counting)
    return starts


@pytest.mark.parametrize(
    "config", AFFINE_CONFIGS + [("random-affine", 2, 518788)], ids=_id
)
def test_affine_builds_search_no_fixed_point_at_default_starts(searches, config):
    name, dim, seed = config
    inst = build_scenario(name, dim=dim, seed=seed)
    assert len(inst.solutions.fix_t) == 3
    assert searches == []


def test_random_1d_build_still_searches_from_each_start(searches):
    inst = build_scenario("random-1d", seed=0)
    assert len(searches) == 3
    assert all(a.tobytes() == b.tobytes() for a, b in zip(searches, _starts(inst)))


@pytest.mark.parametrize("config", AFFINE_CONFIGS, ids=_id)
def test_affine_fix_points_are_certified_and_near_the_searched_ones(config):
    name, dim, seed = config
    inst = build_scenario(name, dim=dim, seed=seed)
    A, B = inst.problem.A, inst.problem.B
    points = inst.solutions.fix_t.points
    y, *_, ty = dr_step(A, B, points)
    assert np.all(row_norms(y - ty) <= 1e-13)  # measured at most 2.0e-14
    for start, point in zip(_starts(inst), points):
        searched = find_fixed_point(DRProblem(A, B, start), tol=1e-13)
        assert np.linalg.norm(point - searched) <= 1e-11  # measured at most 7.4e-13


def test_uncertified_far_out_start_keeps_the_searched_bits(searches):
    # both perturbations of this start round away, so it is the one sample
    x0 = np.array([1e200, -1e200])
    inst = build_scenario("random-affine", dim=2, x0=x0)
    A, B = inst.problem.A, inst.problem.B
    assert _affine_fix_points(A, B, x0[None, :]) == [None]
    assert len(searches) == 1 and searches[0].tobytes() == x0.tobytes()
    expected = find_fixed_point(DRProblem(A, B, x0), tol=1e-13)
    assert inst.solutions.fix_t.points.tobytes() == expected.tobytes()


@pytest.mark.parametrize("dim, seed", [(50, 1), (50, 2), (5, 7)])
def test_starts_scaled_to_1e3_pass_every_check(dim, seed):
    # a fixed-point search from these d=50 starts stalls above its absolute
    # 1e-13 and calls the problem possibly inconsistent
    x0 = 1e3 * build_scenario("random-affine", dim=dim, seed=seed).problem.x0
    summary, _ = run(make_config(scenario="random-affine", dim=dim, seed=seed, x0=tuple(x0)))
    assert summary.all_passed, {name: c.worst_value for name, c in summary.checks.items() if not c.verdict}
