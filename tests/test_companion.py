"""The companion orbit that the summability check streams in row blocks.

``iterate`` runs one orbit. The summability check of a consistent scenario
runs the orbit of its seeded second start itself, one ``space.row_blocks``
block, and so one ``iterate`` call, at a time (the blocks after a tailed one
included): the blocks it streams, joined, must equal a solo run from that
start with ``step_tol=0`` for as many records as the checked trace, every
array bitwise and the tails wherever both found one, and the check's result
must equal that of ``summability_report`` on the whole solo trace.
"""

import functools

import numpy as np
import pytest

import drsplit.runner
import drsplit.space
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
    summability_report,
)
from drsplit.cli import main as cli_main
from drsplit.scenarios import ScenarioInstance, _perturbed_start, _summability_check
from drsplit.space import row_blocks
from drsplit.splitting import STEP_TEST_RECORDS

FIELDS = ("governing", "shadow", "b_shadow", "dual_shadow", "b_dual_shadow", "steps", "step_norms")


def _assert_same_trace(got, want):
    assert len(got) == len(want)
    assert got.stop_reason is want.stop_reason
    # a stationary tail is found at its first repeat in any block, a longer
    # period by windows that restart at each block, so only one of two runs
    # may have found it; where both did, the tails are equal
    found = [t.tail_period for t in (got, want) if t.tail_period is not None]
    if 1 in found or len(found) == 2:
        assert (got.tail_start, got.tail_period) == (want.tail_start, want.tail_period)
    for name in FIELDS:
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def _assert_companion_contract(
    streamed_companion, join_blocks, inst, max_iters, step_tol, monkeypatch, block_records
):
    """Run the lead and the summability check with companion blocks of
    ``block_records`` records (``None``: the real block size); return the
    lead trace and the joined companion."""
    if block_records is not None:
        monkeypatch.setattr(drsplit.space, "BLOCK_NUMBERS", 3 * inst.problem.dim * block_records)
    tr = iterate(inst.problem, max_iters=max_iters, step_tol=step_tol)
    # every block the check iterates is a call of the public iterate
    calls, real_iterate = [], drsplit.splitting.iterate
    monkeypatch.setattr(drsplit.splitting, "iterate", lambda *args: calls.append(args) or real_iterate(*args))
    result, blocks = streamed_companion(dict(inst.checks)["summability"], tr)
    monkeypatch.setattr(drsplit.splitting, "iterate", real_iterate)
    A, B = inst.problem.A, inst.problem.B
    # each block starts where the last one's loop would have gone on
    assert [len(b) for b in blocks] == [r.stop - r.start for r in row_blocks(len(tr), 3 * inst.problem.dim)]
    # every block is an iterate call, those after a tailed one too: each
    # starts inside the cycle, so iterate finds it again from record 0 (a
    # fixed point at once, a period below 32 at its first window) and tiles it
    assert len(calls) == len(blocks)
    tailed = [i for i, b in enumerate(blocks) if b.tail_start is not None]
    period = blocks[tailed[0]].tail_period if tailed else None
    for block in blocks[tailed[0] + 1 :] if tailed else []:
        found = period == 1 or period < STEP_TEST_RECORDS <= len(block)
        assert (block.tail_start, block.tail_period) in ({(0, period)} if found else {(0, period), (None, None)})
    for block in blocks:
        assert block.problem.A is A and block.problem.B is B
        assert block.problem.x0.tobytes() == block.governing[0].tobytes()
        # iterate's own arrays, never read-only views of another block's
        assert all(getattr(block, name).flags.writeable for name in ("governing", "shadow", "b_shadow"))
    companion = join_blocks(blocks)
    solo = iterate(DRProblem(A, B, blocks[0].problem.x0), max_iters=len(tr), step_tol=0.0)
    _assert_same_trace(companion, solo)
    # the check's result is the report's on the whole companion trace
    rep = summability_report(tr, solo)
    assert result.verdict == (rep.pairings_nonnegative and rep.final_terms_small)
    worst = min(rep.pairing_a_min, rep.pairing_b_min)
    assert np.float64(result.worst_value).tobytes() == np.float64(worst).tobytes()
    monkeypatch.setattr(drsplit.space, "BLOCK_NUMBERS", BLOCK_NUMBERS)
    return tr, companion


BLOCK_NUMBERS = drsplit.space.BLOCK_NUMBERS
# companion blocks of 7 records, of 170 (so n = 169 is a block's last record)
# and of the real size (873 records at d=50; the whole run at d <= 5)
BLOCK_RECORDS = [7, 170, None]
NO_TAIL = (None, None)


@pytest.mark.parametrize(
    "name, kwargs, step_tol, lead_tail, companion_tail, length",
    [
        # the lead cycles with period 21 from n = 730, the companion turns
        # stationary at n = 749
        ("random-affine", {"dim": 5, "seed": 11}, 0.0, (730, 21), (749, 1), 3000),
        # a tolerance stop truncates both orbits before either has a tail
        ("random-affine", {"dim": 5, "seed": 11}, 1e-10, NO_TAIL, NO_TAIL, 465),
        # the companion turns stationary at n = 169, the lead at 170
        ("random-affine", {"dim": 5, "seed": 3}, 0.0, (170, 1), (169, 1), 3000),
        # the lead converges at the zero step of n = 170, one step after the
        # companion turned stationary
        ("random-affine", {"dim": 5, "seed": 3}, 5e-324, NO_TAIL, (169, 1), 171),
        # the lead turns stationary at n = 86, the companion at 87
        ("random-1d", {"seed": 2}, 0.0, (86, 1), (87, 1), 3000),
        ("random-1d", {"seed": 4}, 1e-10, NO_TAIL, NO_TAIL, 39),
        ("random-affine", {"dim": 2, "seed": 2}, 0.0, (94, 1), (94, 1), 3000),
        ("random-affine", {"dim": 50, "seed": 1}, 0.0, NO_TAIL, NO_TAIL, 3000),
        ("affine-consistent", {}, 1e-10, NO_TAIL, NO_TAIL, 67),
    ],
)
def test_companion_equals_solo_run(
    streamed_companion, join_blocks, monkeypatch, name, kwargs, step_tol, lead_tail, companion_tail, length
):
    inst = build_scenario(name, **kwargs)
    for block_records in BLOCK_RECORDS:
        tr, companion = _assert_companion_contract(
            streamed_companion, join_blocks, inst, 3000, step_tol, monkeypatch, block_records
        )
        assert len(tr) == length
        assert (tr.tail_start, tr.tail_period) == lead_tail
        assert (companion.tail_start, companion.tail_period) == companion_tail
        assert companion.stop_reason is StopReason.MAX_ITERS


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_companion_equals_solo_run_across_seeds(streamed_companion, join_blocks, monkeypatch, seed):
    for name, kwargs in (
        ("random-affine", {"dim": 2}),
        ("random-affine", {"dim": 5}),
        ("random-1d", {}),
    ):
        inst = build_scenario(name, seed=seed, **kwargs)
        for step_tol in (0.0, 1e-10):
            for block_records in (7, None):
                _assert_companion_contract(
                    streamed_companion, join_blocks, inst, 1500, step_tol, monkeypatch, block_records
                )


def test_consistent_scenarios_carry_the_seeded_companion(streamed_companion):
    for name, kwargs in (("random-affine", {"dim": 5, "seed": 4}), ("random-1d", {"seed": 1})):
        inst = build_scenario(name, **kwargs)
        _, blocks = streamed_companion(dict(inst.checks)["summability"], iterate(inst.problem, 100, 0.0))
        expected = _perturbed_start(inst.problem.x0, np.random.default_rng(kwargs["seed"] + 7919))
        assert blocks[0].problem.x0.tobytes() == expected.tobytes()
    # the problem carries one start; iterate runs one orbit
    assert not hasattr(inst.problem, "companion") and not hasattr(iterate(inst.problem, 10, 0.0), "companion")
    # a perturbation that rounds back to the start gives no companion: the
    # check streams nothing
    inst = build_scenario("random-1d", x0=(1e200,))
    result, blocks = streamed_companion(dict(inst.checks)["summability"], iterate(inst.problem, 200, 0.0))
    assert blocks == [] and result.verdict is False
    # infeasible scenarios have no summability check
    assert "summability" not in dict(build_scenario("parallel-lines").checks)


def test_summability_fails_without_a_companion():
    # the far-out start's perturbation rounds away: equal orbits certify nothing
    inst = build_scenario("random-1d", x0=(1e200,))
    check = inst.run_checks(iterate(inst.problem, 200, 0.0))["summability"]
    assert check.verdict is False and np.isnan(check.worst_value)
    inst = build_scenario("random-affine", dim=2, seed=1)
    assert inst.run_checks(iterate(inst.problem, 500, 0.0))["summability"].verdict is True


def test_problem_validates_its_one_start():
    A = normal_cone(Singleton([0.0, 0.0]))
    problem = DRProblem(A, A, [3, 4])
    assert problem.x0.dtype == float and problem.x0.tolist() == [3.0, 4.0]
    with pytest.raises(DimensionMismatchError, match=r"^operator/start dimensions differ: 2, 2, 1$"):
        DRProblem(A, A, [3.0])
    with pytest.raises(ValueError, match="non-finite"):
        DRProblem(A, A, [3.0, np.nan])
    with pytest.raises(TypeError):
        DRProblem(A, A, [1.0, 2.0], companion=[3.0, 4.0])


# a deliberately expansive pair: T x = 3 x
_IDENTITY_RES = MonotoneOperator(resolvent_map=lambda x: x.copy(), dim=1, label="id-res")
_TRIPLING = MonotoneOperator(resolvent_map=lambda x: 3.0 * x, dim=1, label="bad")


def test_companion_that_overflows_raises(streamed_companion, monkeypatch, capsys):
    alone = DRProblem(_IDENTITY_RES, _TRIPLING, [1.0])
    with pytest.raises(NonFiniteIterateError) as solo:
        iterate(alone, max_iters=10_000, step_tol=0.0)
    assert solo.value.iteration > 0
    # a lead that overflows raises from iterate at its own record, whatever
    # the companion would do: the lead 1e-300 overflows later than 1.0
    with pytest.raises(NonFiniteIterateError) as lead:
        iterate(DRProblem(_IDENTITY_RES, _TRIPLING, [1e-300]), max_iters=10_000, step_tol=0.0)
    assert lead.value.iteration > solo.value.iteration
    # a companion that overflows raises from the check at its own record,
    # counted over the whole orbit across blocks of 7 records, after the lead
    # at 0 turned stationary at n = 0
    monkeypatch.setattr(drsplit.space, "BLOCK_NUMBERS", 3 * 7)
    trace = iterate(DRProblem(_IDENTITY_RES, _TRIPLING, [0.0]), max_iters=10_000, step_tol=0.0)
    assert (trace.tail_start, trace.tail_period) == (0, 1)
    with pytest.raises(NonFiniteIterateError) as paired:
        streamed_companion(_summability_check(np.array([1.0])), trace)
    assert paired.value.iteration == solo.value.iteration
    assert sum(len(b) for b in streamed_companion.blocks) == 7 * (solo.value.iteration // 7)
    # and the CLI still reports it as a numerical breakdown, exit status 4
    checks = [("summability", _summability_check(np.array([1.0])))]
    inst = ScenarioInstance(trace.problem, 10_000, checks, 0, np.zeros(1))
    monkeypatch.setattr(drsplit.runner, "build_scenario", lambda *args, **kwargs: inst)
    assert cli_main(["--scenario", "points-1d"]) == 4
    assert f"non-finite values encountered at iteration {solo.value.iteration}" in capsys.readouterr().err


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
    # 3 arrays x max_iters x d x 8 B against a patched budget
    monkeypatch.setattr(drsplit.splitting, "_physical_memory_bytes", lambda: 3 * 100 * 2 * 8)
    A, B = inst.problem.A, inst.problem.B
    assert len(iterate(DRProblem(A, B, inst.problem.x0), max_iters=100, step_tol=0.0)) == 100
    with pytest.raises(ValueError, match=r"max_iters=101 .*dimension 2 does not fit in memory"):
        iterate(DRProblem(A, B, inst.problem.x0), max_iters=101, step_tol=0.0)
    # a consistent scenario's problem counts one orbit too: its checks stream
    # the companion in row blocks
    assert len(iterate(inst.problem, max_iters=100, step_tol=0.0)) == 100
    with pytest.raises(ValueError, match=r"max_iters=101 .*dimension 2 does not fit in memory"):
        iterate(inst.problem, max_iters=101, step_tol=0.0)
    # 10 MB: a run of 10^6 records (48 MB) does not fit
    monkeypatch.setattr(drsplit.splitting, "_physical_memory_bytes", lambda: 10**7)
    assert cli_main(["--scenario", "random-affine", "--dim", "2", "--iters", str(10**6)]) == 2
    assert "max_iters=1000000 records in dimension 2 does not fit in memory" in capsys.readouterr().err
    # where the budget is unknown nothing is refused before the allocation,
    # and an allocation numpy cannot make is still refused
    monkeypatch.setattr(drsplit.splitting, "_physical_memory_bytes", lambda: None)
    assert len(iterate(inst.problem, max_iters=101, step_tol=0.0)) == 101
    with pytest.raises(ValueError, match=r"max_iters=1000000000000000 .*does not fit in memory"):
        iterate(inst.problem, max_iters=10**15, step_tol=1e-12)


def test_the_streamed_companion_fits_where_the_run_fits(monkeypatch):
    # the run holds 3 arrays x 10^4 records x 50 x 8 B = 12 MB (24 MB with a
    # whole companion trace beside it); the summability check's companion
    # holds one row block
    monkeypatch.setattr(drsplit.splitting, "_physical_memory_bytes", lambda: 16 * 2**20)
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
