"""Translating orbits, taken a block at a time, against a record-by-record loop.

On a zero-free affine pair the iterate drifts by minus the minimal
displacement vector every step, and in floats the step between records is
often bitwise constant. Where a block's last two steps are bitwise equal,
``iterate`` guesses the next block as that translation, evaluates the guess
with one stacked call per resolvent and keeps each row up to the first whose
image misses the next guess; the loop does the rest. A guess kept whole
doubles the next one, up to the end of its Brent window and a row-block cap;
any other block sets it back to 32 rows. Every trace here must equal,
bitwise, a loop that computes each record: at benchmark length, with a step
that changes, a tolerance stop or an overflow at a chosen row of a short
block or deep inside a long one, and where the stacked call fails (a
resolvent that rejects points off the orbit, a stacked image of the wrong
shape). Counting maps bound the calls and the rows guessed, and
``tracemalloc`` the memory a guess holds.
"""

import tracemalloc

import numpy as np
import pytest

from drsplit import (
    DRProblem,
    MonotoneOperator,
    NonFiniteIterateError,
    OperatorContractError,
    StopReason,
    build_scenario,
    iterate,
    normal_cone,
)
from drsplit.space import AffineSubspace, row_norms
from drsplit.splitting import STEP_TEST_RECORDS

MAX_ITERS = 10_000


def _reference(problem, max_iters):
    """The three stored arrays of the orbit, every record computed; raises
    ``NonFiniteIterateError`` at the first record whose successor is not
    finite, as ``iterate`` does."""
    A, B, x = problem.A, problem.B, problem.x0
    records = []
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(max_iters):
            ja = A.resolvent_map(x)
            jb = B.resolvent_map(2.0 * ja - x)
            records.append((x, ja, jb))
            x = x - ja + jb
            if not np.all(np.isfinite(x)):
                raise NonFiniteIterateError(n)
    return [np.array(rows) for rows in zip(*records)]


def _assert_equals_reference(trace, arrays):
    # no record of a translating orbit repeats an earlier one: no tail
    assert len(np.unique(arrays[0].view(np.int64), axis=0)) == len(arrays[0])
    assert (len(trace), trace.stop_reason) == (len(arrays[0]), StopReason.MAX_ITERS)
    assert (trace.tail_start, trace.tail_period) == (None, None)
    for name, rows in zip(("governing", "shadow", "b_shadow"), arrays):
        assert getattr(trace, name).tobytes() == rows.tobytes(), name


def _started(name: str, x0) -> DRProblem:
    problem = build_scenario(name).problem
    return problem if x0 is None else DRProblem(problem.A, problem.B, np.array(x0))


STARTS = {
    "parallel-lines": [None, (1.2, -2.1), (-2.123456, 0.75), (2.9, 1e6 + 0.1)],
    # the first coordinate halves until it underflows near record 1,075; from
    # (1.2, -2.1) the second crosses -4096 at records 4,093-4,094, inside a
    # block taken from a guess
    "shifted-subspace": [None, (1.2, -2.1), (2.5, -1.875), (-0.3, 7.7)],
    "points-1d": [None, (1.25,), (-3.25,), (0.1,)],
}


@pytest.mark.parametrize(
    "name, x0", [(name, x0) for name, starts in STARTS.items() for x0 in starts], ids=str
)
def test_benchmark_length_orbit_equals_the_record_by_record_loop(name, x0):
    problem = _started(name, x0)
    _assert_equals_reference(iterate(problem, MAX_ITERS, 0.0), _reference(problem, MAX_ITERS))


def test_the_steps_change_inside_late_blocks():
    # the reference itself: the shifted-subspace start above has steps that
    # change mid-block long after its first coordinate has settled
    governing = _reference(_started("shifted-subspace", (1.2, -2.1)), MAX_ITERS)[0]
    steps = governing[:-1] - governing[1:]
    changes = 1 + np.flatnonzero(np.any(steps[1:].view(np.int64) != steps[:-1].view(np.int64), axis=1))
    assert [n for n in changes if n > 2000] == [4093, 4094]
    assert 4093 % STEP_TEST_RECORDS not in (0, STEP_TEST_RECORDS - 1)


def _counting(op: MonotoneOperator, calls: list) -> MonotoneOperator:
    """``op`` with a copy of each call's input appended to ``calls``."""

    def resolvent(x):
        calls.append(x.copy())
        return op.resolvent_map(x)

    return MonotoneOperator(resolvent_map=resolvent, dim=op.dim, label=op.label)


def _counted(problem: DRProblem) -> tuple[DRProblem, list, list]:
    """``problem`` with counting resolvents, and their two call lists."""
    calls_a, calls_b = [], []
    return DRProblem(_counting(problem.A, calls_a), _counting(problem.B, calls_b), problem.x0), calls_a, calls_b


# calls per resolvent: one per record of the first block, then one stacked
# call per guess, and guesses that double to whole Brent windows (32, 64, ...,
# 4,096 rows) once a block translates; measured 41 from parallel-lines'
# default start and points-1d from 1.25, and 73 from (1.2, -2.1), whose
# first two blocks the loop computes; 20% above them. Guesses of 32 rows
# took 344, 499 and 344, and one record at a time each would be 10^4
CALL_BOUNDS = {("parallel-lines", None): 49, ("parallel-lines", (1.2, -2.1)): 87, ("points-1d", (1.25,)): 49}


@pytest.mark.parametrize("name, x0", list(CALL_BOUNDS), ids=str)
def test_a_translating_orbit_takes_its_records_a_block_at_a_time(name, x0):
    problem = _started(name, x0)
    counted, calls_a, calls_b = _counted(problem)
    _assert_equals_reference(iterate(counted, MAX_ITERS, 0.0), _reference(problem, MAX_ITERS))
    assert len(calls_a) == len(calls_b) <= CALL_BOUNDS[name, x0]


def _stacked_rows(calls: list) -> int:
    return sum(len(c) for c in calls if c.ndim == 2)


def test_guesses_that_keep_missing_stay_short():
    # two parallel lines in general position: steps change in their last bits
    # every few records, so each guess misses within its first rows. A guess
    # after a miss is 32 rows again, so no more rows are guessed than the
    # 32-row guesses did (3,264 rows); a guess retried at the length of its
    # window guessed 134,064
    u = np.array([np.cos(0.7), np.sin(0.7)])
    w = np.array([-u[1], u[0]])
    A = normal_cone(AffineSubspace(np.zeros(2), u[None, :]))
    B = normal_cone(AffineSubspace(2.0 * w, u[None, :]))
    problem = DRProblem(A, B, np.array([3.0, 5.0]))
    counted, calls_a, calls_b = _counted(problem)
    _assert_equals_reference(iterate(counted, MAX_ITERS, 0.0), _reference(problem, MAX_ITERS))
    assert 0 < _stacked_rows(calls_a) == _stacked_rows(calls_b) <= 3264


def _translation(
    change_at: int, *, after=2.0, off_orbit=None, stack_shape=None, rejects_non_finite=False
) -> DRProblem:
    """J_A = Id and J_B y = y + c(y) in R^2, so T x = x + c(x): from 0 the
    orbit steps by (1, -0.0) to record ``change_at`` and by (``after``, -0.0)
    from there. With ``off_orbit``, a set of row bytes, J_A raises
    ``KeyError`` on any other point; with ``stack_shape``, J_B returns an
    array of that shape for a stack; with ``rejects_non_finite``, J_B raises
    ``FloatingPointError`` on a non-finite point."""

    def ja(x):
        if off_orbit is not None:
            for row in np.atleast_2d(x):
                if row.tobytes() not in off_orbit:
                    raise KeyError("off the orbit")
        return x.copy()

    def jb(y):
        if rejects_non_finite and not np.all(np.isfinite(y)):
            raise FloatingPointError("non-finite point")
        if stack_shape is not None and y.ndim == 2:
            return np.zeros(stack_shape)
        first = y[..., :1]
        return y + np.concatenate([np.where(first < change_at, 1.0, after), np.full_like(first, -0.0)], axis=-1)

    identity = MonotoneOperator(resolvent_map=ja, dim=2, label="identity")
    return DRProblem(identity, MonotoneOperator(resolvent_map=jb, dim=2, label="scripted translation"), np.zeros(2))


# the scripted orbits' guesses: the block [0, 32) is computed by the loop,
# then guesses of 32, 32, 128 and 256 rows fill the Brent windows up to 480
# (where the window [32, 96) ends, the second guess stops), and one guess of
# 512 rows is the whole window [480, 992)
WINDOW = slice(15 * STEP_TEST_RECORDS, 31 * STEP_TEST_RECORDS)
ORBIT = WINDOW.stop + 2 * STEP_TEST_RECORDS
# rows deep inside that window and its last row
DEEP = [WINDOW.start + 20, WINDOW.start + 220, WINDOW.stop - 1]
# the first, a middle and the last row of the block [64, 96), and the row
# before it, then the deep rows, where the step changes
CHANGES = [2 * STEP_TEST_RECORDS + k for k in (0, STEP_TEST_RECORDS // 2, STEP_TEST_RECORDS - 1, -1)] + DEEP


@pytest.mark.parametrize("change_at", CHANGES)
def test_a_step_that_changes_at_a_chosen_row_is_taken(change_at):
    problem = _translation(change_at)
    arrays = _reference(problem, ORBIT)
    steps = arrays[0][1:] - arrays[0][:-1]
    assert np.all(steps[:change_at, 0] == 1.0) and np.all(steps[change_at:, 0] == 2.0)
    counted, calls_a, calls_b = _counted(problem)
    _assert_equals_reference(iterate(counted, ORBIT, 0.0), arrays)
    # the blocks before and after the change were taken from stacked guesses
    assert sum(c.ndim == 2 for c in calls_b) >= 3
    # the record whose image misses the next guess is kept from the stacked
    # call: no lone call computes it again
    assert not any(c.ndim == 1 and c.tobytes() == arrays[0][change_at].tobytes() for c in calls_a)
    if change_at >= WINDOW.start:
        # the window holding the change was one guess
        assert any(len(c) == WINDOW.stop - WINDOW.start for c in calls_b if c.ndim == 2)


@pytest.mark.parametrize("stop_at", DEEP)
def test_a_tolerance_stop_deep_inside_a_long_guess(stop_at):
    # from record stop_at the step is 2^-30, below the tolerance
    problem = _translation(stop_at, after=2.0**-30)
    g, s, b = _reference(problem, ORBIT)
    norms = row_norms(g - ((g - s) + b))  # DRTrace.step_norms' expression
    assert np.flatnonzero(norms < 1e-6)[0] == stop_at
    counted, _, calls_b = _counted(problem)
    trace = iterate(counted, ORBIT, 1e-6)
    assert (len(trace), trace.stop_reason, trace.tail_start) == (stop_at + 1, StopReason.STEP_CONVERGED, None)
    for name, rows in zip(("governing", "shadow", "b_shadow"), (g, s, b)):
        assert getattr(trace, name).tobytes() == rows[: stop_at + 1].tobytes(), name
    assert any(len(c) == WINDOW.stop - WINDOW.start for c in calls_b if c.ndim == 2)


def test_equal_step_norms_of_different_bits_make_no_guess():
    # J_A = Id and J_B y = y + (1, 0) or y + (0, 1) by turns: every step has
    # norm 1, but no two consecutive steps have the same bits, so no block
    # is guessed as a translation
    def jb(y):
        turn = y[..., :1] <= y[..., 1:]
        return y + np.concatenate([np.where(turn, 1.0, 0.0), np.where(turn, 0.0, 1.0)], axis=-1)

    identity = MonotoneOperator(resolvent_map=lambda x: x.copy(), dim=2, label="identity")
    problem = DRProblem(identity, MonotoneOperator(resolvent_map=jb, dim=2, label="turns"), np.zeros(2))
    arrays = _reference(problem, 200)
    g, s, b = arrays
    norms = row_norms(g - ((g - s) + b))
    assert np.all(norms == 1.0)
    counted, calls_a, calls_b = _counted(problem)
    _assert_equals_reference(iterate(counted, 200, 0.0), arrays)
    assert all(c.ndim == 1 for c in calls_a + calls_b)


@pytest.mark.parametrize("change_at", CHANGES)
def test_a_resolvent_that_rejects_points_off_the_orbit(change_at):
    orbit = _reference(_translation(change_at), ORBIT)[0]
    problem = _translation(change_at, off_orbit={row.tobytes() for row in orbit})
    _assert_equals_reference(iterate(problem, ORBIT, 0.0), _reference(problem, ORBIT))


@pytest.mark.parametrize("change_at", CHANGES)
def test_a_stacked_image_of_the_wrong_shape_falls_back_to_the_loop(change_at):
    for shape in [(2,), (1, 2), (STEP_TEST_RECORDS, 3)]:
        problem = _translation(change_at, stack_shape=shape)
        _assert_equals_reference(iterate(problem, ORBIT, 0.0), _reference(problem, ORBIT))


def test_a_lone_image_of_the_wrong_shape_fails_at_the_start():
    wrong = MonotoneOperator(resolvent_map=lambda x: np.zeros(3), dim=2, label="wrong shape")
    with pytest.raises(OperatorContractError, match="wrong shape"):
        iterate(DRProblem(wrong, _translation(70).B, np.zeros(2)), 200, 0.0)


# from (512 - n) * 2^1014 the orbit steps by 2^1014 and reaches 2^1023 at record
# n, where the reflection 2 J_A x - x overflows while the next 511 points of
# a guess stay finite: the first, a middle and the last row of a block, and
# the deep rows of a long guess
OVERFLOWS = [2 * STEP_TEST_RECORDS + k for k in (0, STEP_TEST_RECORDS // 2, STEP_TEST_RECORDS - 1)] + DEEP


@pytest.mark.parametrize("rejects_non_finite", [False, True])
@pytest.mark.parametrize("overflow_at", OVERFLOWS)
def test_a_translating_orbit_that_overflows(overflow_at, rejects_non_finite):
    # the record's successor is not finite, or J_B rejects its reflection
    scale = 2.0**1014
    base = _translation(1e300, rejects_non_finite=rejects_non_finite)
    B = MonotoneOperator(resolvent_map=lambda y: base.B.resolvent_map(y / scale) * scale, dim=2, label="scaled")
    problem = DRProblem(base.A, B, np.array([(512 - overflow_at) * scale, 0.0]))
    error = FloatingPointError if rejects_non_finite else NonFiniteIterateError
    with pytest.raises(error) as expected:
        _reference(problem, ORBIT)
    with pytest.raises(error) as err:
        iterate(problem, ORBIT, 0.0)
    if error is NonFiniteIterateError:
        assert err.value.iteration == expected.value.iteration == overflow_at


def test_a_guess_holds_at_most_a_row_block_of_temporaries():
    # an exact translation in R^64 (J_A = Id, J_B x = x - c, integer c) whose
    # guesses would double to 8,192 rows, 32 MiB of temporaries; capped at a
    # row block they held 1.0 MiB above the trace arrays (24 MiB)
    d, records = 64, 16_384
    c = np.arange(1.0, d + 1)
    identity = MonotoneOperator(resolvent_map=lambda x: x.copy(), dim=d, label="identity")
    problem = DRProblem(identity, MonotoneOperator(resolvent_map=lambda y: y - c, dim=d, label="shift"), np.zeros(d))
    iterate(problem, 100, 0.0)
    tracemalloc.start()
    try:
        trace = iterate(problem, records, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.governing.tobytes() == (-np.arange(records)[:, None] * c).tobytes()
    assert peak - 3 * records * d * 8 < 2 * 2**20
