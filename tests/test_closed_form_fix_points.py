"""Every consistent scenario takes its fixed points in closed form: the
rays of rotator-cone, random-1d's zero z, and P_Fix of each start by linear
algebra on the affine pairs. No build iterates, and ``primal_dual_from_fix``
certifies every point or refuses the start as a numerical breakdown."""

import numpy as np
import pytest

import drsplit.splitting
from drsplit import build_scenario, iterate, list_scenarios, make_config, run
from drsplit.cli import main as cli_main
from drsplit.space import row_norms
from drsplit.splitting import DRProblem, StopReason, dr_step

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


@pytest.mark.parametrize("name", [name for name, _, _ in list_scenarios()])
@pytest.mark.parametrize("seed", [0, 3])
def test_no_build_iterates(monkeypatch, name, seed):
    # every iterate call, the streamed orbits' blocks included, runs _orbit
    def no_orbit(*args):
        raise AssertionError("a scenario build iterated")

    monkeypatch.setattr(drsplit.splitting, "_orbit", no_orbit)
    inst = build_scenario(name, seed=seed)
    with pytest.raises(AssertionError, match="a scenario build iterated"):
        iterate(inst.problem, 1, 0.0)


@pytest.mark.parametrize("seed", range(40))
def test_random_1d_samples_its_zero_as_a_bitwise_fixed_point(seed):
    # A is strongly monotone, so Fix T is the one point z (k = 0)
    inst = build_scenario("random-1d", seed=seed)
    points = inst.solutions.fix_t.points
    assert points.shape == (1, 1) and points.tobytes() == inst.z.tobytes()
    y, *_, ty = dr_step(inst.problem.A, inst.problem.B, points)
    assert ty.tobytes() == y.tobytes()
    assert inst.solutions.dual.points.tobytes() == np.zeros((1, 1)).tobytes()


@pytest.mark.parametrize("config", AFFINE_CONFIGS, ids=_id)
def test_affine_fix_points_are_certified_and_near_the_orbit_limits(config):
    name, dim, seed = config
    inst = build_scenario(name, dim=dim, seed=seed)
    A, B = inst.problem.A, inst.problem.B
    points = inst.solutions.fix_t.points
    assert len(points) == 3
    y, *_, ty = dr_step(A, B, points)
    assert np.all(row_norms(y - ty) <= 1e-13)  # measured at most 2.0e-14
    for start, point in zip(_starts(inst), points):
        # the orbit from each start converges to its P_Fix
        orbit = iterate(DRProblem(A, B, start), 100_000, 1e-13)
        assert orbit.stop_reason is StopReason.STEP_CONVERGED
        assert np.linalg.norm(point - orbit.governing[-1]) <= 1e-11  # measured at most 7.4e-13


FAR_OUT = {
    # every step of these closed forms overflows
    "random-affine d=3 at 1e200": (["--dim", "3", "--x0=1e200,1e200,1e200"], "inf"),
    "random-affine d=2 at 1e200": (["--dim", "2", "--x0=1e200,-1e200", "--iters", "200"], "inf"),
    # the closed form lies a few ulps of 1e10 off Fix T
    "affine-consistent at 1e10": (["--x0=1e10,1.01e10"], "4.863e-06"),
    # the residual N s - c overflows, and the closed form is NaN
    "random-affine d=3 at 1.7e308": (["--dim", "3", "--x0=1.7e308,1.7e308,1.7e308"], "nan"),
}


@pytest.mark.parametrize("case", list(FAR_OUT))
def test_an_uncertified_closed_form_is_a_numerical_breakdown(case, capsys):
    argv, step = FAR_OUT[case]
    name = case.split()[0]
    assert cli_main(["--scenario", name, *argv]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines() == [
        f"numerical breakdown: point 0 is not fixed: step norm {step} exceeds 1.0e-09"
    ]


@pytest.mark.parametrize("start", [(1.0, -1.0), (3.5, 0.25), (1e5, -2e5), (1e100, 3e99), (1e300, -1e300)])
def test_rotator_cone_run_ends_on_its_fixed_ray(start):
    # Fix T is the ray t(1, -1), t >= 0; the run's own last record lies on it
    summary, _ = run(make_config(scenario="rotator-cone", x0=start))
    check = summary.checks["fixed_point_on_ray"]
    assert check.verdict and check.worst_value == 0.0


def test_rotator_cone_run_cut_short_is_not_on_its_ray():
    summary, _ = run(make_config(scenario="rotator-cone", iters=1))
    check = summary.checks["fixed_point_on_ray"]
    assert not check.verdict and check.worst_value == 1.0


@pytest.mark.parametrize("dim, seed", [(50, 1), (50, 2), (5, 7)])
def test_starts_scaled_to_1e3_pass_every_check(dim, seed):
    # a fixed-point search from these d=50 starts stalled above an absolute
    # 1e-13; P_Fix by linear algebra is certified here
    x0 = 1e3 * build_scenario("random-affine", dim=dim, seed=seed).problem.x0
    summary, _ = run(make_config(scenario="random-affine", dim=dim, seed=seed, x0=tuple(x0)))
    assert summary.all_passed, {name: c.worst_value for name, c in summary.checks.items() if not c.verdict}
