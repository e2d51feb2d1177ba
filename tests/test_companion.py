"""The companion orbit that ``iterate`` runs alongside the lead orbit.

A problem with a companion start is iterated as one (2, d) state until one
orbit turns bitwise stationary and leaves it. The lead trace must equal the
trace of the same problem without a companion, and the companion trace must
equal a solo run from the companion start with ``step_tol=0`` for as many
records: every array, the stop reason and ``stationary_at``, bitwise.
"""

import functools

import numpy as np
import pytest

import drsplit.splitting
from drsplit import (
    DimensionMismatchError,
    DRProblem,
    MonotoneOperator,
    NonFiniteIterateError,
    Singleton,
    StopReason,
    build_scenario,
    iterate,
    normal_cone,
)
from drsplit.cli import main as cli_main
from drsplit.scenarios import _perturbed_start

FIELDS = ("governing", "shadow", "b_shadow", "dual_shadow", "b_dual_shadow", "steps", "step_norms")


def _assert_same_trace(got, want):
    assert len(got) == len(want)
    assert got.stop_reason is want.stop_reason
    assert got.stationary_at == want.stationary_at
    for name in FIELDS:
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def _assert_companion_contract(problem, max_iters, step_tol):
    tr = iterate(problem, max_iters=max_iters, step_tol=step_tol)
    A, B = problem.A, problem.B
    _assert_same_trace(tr, iterate(DRProblem(A, B, problem.x0), max_iters, step_tol))
    assert tr.companion.problem.x0.tobytes() == problem.companion.tobytes()
    assert tr.companion.companion is None
    _assert_same_trace(
        tr.companion, iterate(DRProblem(A, B, problem.companion), max_iters=len(tr), step_tol=0.0)
    )
    return tr


@pytest.mark.parametrize(
    "name, kwargs, step_tol, lead_at, companion_at, length",
    [
        # the lead never turns stationary, the companion does at n = 749 and
        # the lead goes on alone
        ("random-affine", {"dim": 5, "seed": 11}, 0.0, None, 749, 3000),
        # a tolerance stop truncates both orbits before the companion is stationary
        ("random-affine", {"dim": 5, "seed": 11}, 1e-10, None, None, 465),
        # the companion leaves at n = 169, the lead at 170
        ("random-affine", {"dim": 5, "seed": 3}, 0.0, 170, 169, 3000),
        # the lead converges at the zero step of n = 170, one step after the
        # companion turned stationary
        ("random-affine", {"dim": 5, "seed": 3}, 5e-324, None, 169, 171),
        # the lead leaves at n = 86 and the companion goes on alone
        ("random-1d", {"seed": 2}, 0.0, 86, 87, 3000),
        ("random-1d", {"seed": 4}, 1e-10, None, None, 39),
        ("random-affine", {"dim": 2, "seed": 2}, 0.0, 94, 94, 3000),
        ("random-affine", {"dim": 50, "seed": 1}, 0.0, None, None, 3000),
        ("affine-consistent", {}, 1e-10, None, None, 67),
    ],
)
def test_companion_equals_solo_run(name, kwargs, step_tol, lead_at, companion_at, length):
    inst = build_scenario(name, **kwargs)
    tr = _assert_companion_contract(inst.problem, 3000, step_tol)
    assert (len(tr), tr.stationary_at, tr.companion.stationary_at) == (length, lead_at, companion_at)
    assert tr.companion.stop_reason is StopReason.MAX_ITERS


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_companion_equals_solo_run_across_seeds(seed):
    for name, kwargs in (
        ("random-affine", {"dim": 2}),
        ("random-affine", {"dim": 5}),
        ("random-1d", {}),
    ):
        inst = build_scenario(name, seed=seed, **kwargs)
        for step_tol in (0.0, 1e-10):
            _assert_companion_contract(inst.problem, 1500, step_tol)


def test_consistent_scenarios_carry_the_seeded_companion():
    for name, kwargs in (("random-affine", {"dim": 5, "seed": 4}), ("random-1d", {"seed": 1})):
        inst = build_scenario(name, **kwargs)
        expected = _perturbed_start(inst.problem.x0, np.random.default_rng(kwargs["seed"] + 7919))
        assert inst.problem.companion.tobytes() == expected.tobytes()
    # a perturbation that rounds back to the start gives no companion
    inst = build_scenario("random-affine", dim=2, x0=(1e200, -1e200))
    assert inst.problem.companion is None
    # infeasible scenarios have none
    assert build_scenario("parallel-lines").problem.companion is None


def test_summability_fails_without_a_companion():
    inst = build_scenario("random-affine", dim=2, seed=1)
    solo = iterate(DRProblem(inst.problem.A, inst.problem.B, inst.problem.x0), 500, 0.0)
    check = inst.run_checks(solo)["summability"]
    assert check.verdict is False and np.isnan(check.worst_value)
    assert inst.run_checks(iterate(inst.problem, 500, 0.0))["summability"].verdict is True


def test_problem_validates_the_companion_like_the_start():
    A = normal_cone(Singleton([0.0, 0.0]))
    problem = DRProblem(A, A, [1.0, 2.0], companion=[3, 4])
    assert problem.companion.dtype == float and problem.companion.tolist() == [3.0, 4.0]
    with pytest.raises(DimensionMismatchError):
        DRProblem(A, A, [1.0, 2.0], companion=[3.0])
    with pytest.raises(ValueError, match="non-finite"):
        DRProblem(A, A, [1.0, 2.0], companion=[3.0, np.nan])


# a deliberately expansive pair: T x = 3 x
_IDENTITY_RES = MonotoneOperator(resolvent_map=lambda x: x.copy(), dim=1, label="id-res")
_TRIPLING = MonotoneOperator(resolvent_map=lambda x: 3.0 * x, dim=1, label="bad")


def test_companion_that_overflows_raises():
    alone = DRProblem(_IDENTITY_RES, _TRIPLING, [1.0])
    with pytest.raises(NonFiniteIterateError) as solo:
        iterate(alone, max_iters=10_000, step_tol=0.0)
    # while both orbits are in the state: the lead 1e-300 would overflow later
    with pytest.raises(NonFiniteIterateError) as paired:
        iterate(DRProblem(_IDENTITY_RES, _TRIPLING, [1e-300], [1.0]), max_iters=10_000, step_tol=0.0)
    # after the lead at 0 turned stationary at n = 0 and left the state
    with pytest.raises(NonFiniteIterateError) as lone:
        iterate(DRProblem(_IDENTITY_RES, _TRIPLING, [0.0], [1.0]), max_iters=10_000, step_tol=0.0)
    assert paired.value.iteration == lone.value.iteration == solo.value.iteration > 0


def test_overflowing_step_norm_with_finite_iterates_completes():
    # T x = x - 1e200: every iterate is finite, every step norm overflows to inf
    A = normal_cone(Singleton([0.0]))
    tr = iterate(DRProblem(A, normal_cone(Singleton([-1e200])), [1e200]), max_iters=10, step_tol=0.0)
    assert len(tr) == 10 and tr.stop_reason is StopReason.MAX_ITERS
    with np.errstate(over="ignore"):
        assert np.all(np.isinf(tr.step_norms))
    assert np.all(np.isfinite(tr.governing)) and np.all(np.diff(tr.governing[:, 0]) < 0)
    # T x = x - 1.7e308 leaves the floats at n = 2: 1.7e308, 0, -1.7e308, -inf
    with pytest.raises(NonFiniteIterateError) as err:
        iterate(DRProblem(A, normal_cone(Singleton([-1.7e308])), [1.7e308]), max_iters=10, step_tol=0.0)
    assert err.value.iteration == 2


def test_trace_beyond_physical_memory_is_refused(monkeypatch, capsys):
    inst = build_scenario("random-affine", dim=2, seed=1)
    # 3 arrays x orbits x max_iters x d x 8 B against a patched budget
    monkeypatch.setattr(drsplit.splitting, "_physical_memory_bytes", lambda: 3 * 100 * 2 * 8)
    A, B = inst.problem.A, inst.problem.B
    assert len(iterate(DRProblem(A, B, inst.problem.x0), max_iters=100, step_tol=0.0)) == 100
    with pytest.raises(ValueError, match=r"max_iters=101 .*dimension 2 does not fit in memory"):
        iterate(DRProblem(A, B, inst.problem.x0), max_iters=101, step_tol=0.0)
    # the companion doubles the figure
    assert len(iterate(inst.problem, max_iters=50, step_tol=0.0)) == 50
    with pytest.raises(ValueError, match=r"max_iters=51 .*dimension 2 does not fit in memory"):
        iterate(inst.problem, max_iters=51, step_tol=0.0)
    # 10 MB: the scenario's fixed-point searches (one orbit, SEARCH_CHUNK
    # records at a time) fit, a run of 10^6 records with its companion (96 MB)
    # does not
    monkeypatch.setattr(drsplit.splitting, "_physical_memory_bytes", lambda: 10**7)
    assert cli_main(["--scenario", "random-affine", "--dim", "2", "--iters", str(10**6)]) == 2
    assert "max_iters=1000000 records in dimension 2 does not fit in memory" in capsys.readouterr().err
    # where the budget is unknown nothing is refused before the allocation,
    # and an allocation numpy cannot make is still refused
    monkeypatch.setattr(drsplit.splitting, "_physical_memory_bytes", lambda: None)
    assert len(iterate(inst.problem, max_iters=51, step_tol=0.0)) == 51
    with pytest.raises(ValueError, match=r"max_iters=1000000000000000 .*does not fit in memory"):
        iterate(inst.problem, max_iters=10**15, step_tol=1e-12)


def test_fixed_point_searches_fit_where_the_run_fits(monkeypatch):
    # the run holds 3 arrays x 2 orbits x 10^4 records x 50 x 8 B = 24 MB; the
    # build's searches, with max_iters 10^5, hold one chunk of records each
    monkeypatch.setattr(drsplit.splitting, "_physical_memory_bytes", lambda: 64 * 2**20)
    assert cli_main(["--scenario", "random-affine", "--dim", "50", "--seed", "1"]) == 0


def test_physical_memory_is_unknown_without_sysconf(monkeypatch):
    assert drsplit.splitting._physical_memory_bytes() > 0
    monkeypatch.setattr(drsplit.splitting, "_cgroup_memory_max", lambda: None)  # the host alone
    monkeypatch.delattr(drsplit.splitting.os, "sysconf")
    assert drsplit.splitting._physical_memory_bytes() is None


def test_physical_memory_is_unknown_when_sysconf_cannot_tell(monkeypatch):
    def unsupported(name):
        raise ValueError(f"unrecognized configuration name {name!r}")

    monkeypatch.setattr(drsplit.splitting, "_cgroup_memory_max", lambda: None)  # the host alone
    monkeypatch.setattr(drsplit.splitting.os, "sysconf", unsupported)
    assert drsplit.splitting._physical_memory_bytes() is None
    monkeypatch.setattr(drsplit.splitting.os, "sysconf", lambda name: -1)
    assert drsplit.splitting._physical_memory_bytes() is None


def _patch_memory_sources(monkeypatch, files, pages=1000):
    # a host of ``pages`` 4 KiB pages and a file system of ``files``
    monkeypatch.setattr(
        drsplit.splitting.os, "sysconf", lambda name: {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": pages}[name]
    )
    monkeypatch.setattr(drsplit.splitting, "_read_text", files.get)
    # a fresh cache, so neither the real limit nor the fake one leaks across tests
    fresh = functools.cache(drsplit.splitting._cgroup_memory_max.__wrapped__)
    monkeypatch.setattr(drsplit.splitting, "_cgroup_memory_max", fresh)


@pytest.mark.parametrize(
    "files, budget",
    [
        # the cgroup v2 limit of the own group is smaller than the host
        ({"/proc/self/cgroup": "0::/app.slice/run.scope\n",
          "/sys/fs/cgroup/app.slice/run.scope/memory.max": "1000000\n"}, 1_000_000),
        # the root group's file sits at the top of the hierarchy
        ({"/proc/self/cgroup": "0::/\n", "/sys/fs/cgroup/memory.max": "2048\n"}, 2048),
        # a limit above the host's memory, "max" (no limit), a missing file
        ({"/proc/self/cgroup": "0::/\n", "/sys/fs/cgroup/memory.max": "8192000\n"}, 4_096_000),
        ({"/proc/self/cgroup": "0::/\n", "/sys/fs/cgroup/memory.max": "max\n"}, 4_096_000),
        ({"/proc/self/cgroup": "0::/\n"}, 4_096_000),
        # cgroup v1 only (no "0::" line), or no membership file at all
        ({"/proc/self/cgroup": "4:memory:/app\n1:cpu:/\n", "/sys/fs/cgroup/memory.max": "2048\n"}, 4_096_000),
        ({}, 4_096_000),
    ],
)
def test_memory_budget_is_the_smaller_of_host_and_cgroup(monkeypatch, files, budget):
    _patch_memory_sources(monkeypatch, files)
    assert drsplit.splitting._physical_memory_bytes() == budget


def test_cgroup_limit_alone_sets_the_budget_and_refuses_a_trace(monkeypatch):
    inst = build_scenario("random-affine", dim=2, seed=1)
    problem = DRProblem(inst.problem.A, inst.problem.B, inst.problem.x0)
    files = {"/proc/self/cgroup": "0::/\n", "/sys/fs/cgroup/memory.max": str(3 * 100 * 2 * 8)}
    _patch_memory_sources(monkeypatch, files, pages=-1)  # sysconf cannot tell
    assert drsplit.splitting._physical_memory_bytes() == 4800
    assert len(iterate(problem, max_iters=100, step_tol=0.0)) == 100
    with pytest.raises(ValueError, match=r"max_iters=101 .*does not fit in memory"):
        iterate(problem, max_iters=101, step_tol=0.0)
