"""Translating orbits, taken a block at a time, against a record-by-record loop.

On a zero-free affine pair the iterate drifts by minus the minimal
displacement vector every step, and in floats the step between records is
often bitwise constant. Where a block's last two steps are bitwise equal,
``iterate`` guesses the next block as that translation, evaluates the guess
with one stacked call per resolvent and keeps each row up to the first whose
image misses the next guess; the loop does the rest. Every trace here must
equal, bitwise, a loop that computes each record: at benchmark length, with
a step that changes at a chosen row of a block, and where the stacked call
fails (a resolvent that rejects points off the orbit, a stacked image of the
wrong shape, an orbit that overflows). Counting maps bound the calls.
"""

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
)
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
    """``op`` with each call's input shape appended to ``calls``."""

    def resolvent(x):
        calls.append(x.shape)
        return op.resolvent_map(x)

    return MonotoneOperator(resolvent_map=resolvent, dim=op.dim, label=op.label)


# 344 calls from the default start (one per record of the first block and one
# stacked call for each later one) and 499 from (1.2, -2.1), whose step
# changes at 13 records; one record at a time, each would be 10^4
CALL_BOUNDS = {None: 400, (1.2, -2.1): 600}


@pytest.mark.parametrize("x0", list(CALL_BOUNDS), ids=str)
def test_a_translating_orbit_takes_its_records_a_block_at_a_time(x0):
    problem = _started("parallel-lines", x0)
    calls_a, calls_b = [], []
    counted = DRProblem(_counting(problem.A, calls_a), _counting(problem.B, calls_b), problem.x0)
    _assert_equals_reference(iterate(counted, MAX_ITERS, 0.0), _reference(problem, MAX_ITERS))
    assert len(calls_a) == len(calls_b) <= CALL_BOUNDS[x0]


def _translation(change_at: int, *, off_orbit=None, stack_shape=None, rejects_non_finite=False) -> DRProblem:
    """J_A = Id and J_B y = y + c(y) in R^2, so T x = x + c(x): from 0 the
    orbit steps by (1, -0.0) to record ``change_at`` and by (2, -0.0) from
    there. With ``off_orbit``, a set of row bytes, J_A raises ``KeyError`` on
    any other point; with ``stack_shape``, J_B returns an array of that shape
    for a stack; with ``rejects_non_finite``, J_B raises ``FloatingPointError``
    on a non-finite point."""

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
        return y + np.concatenate([np.where(first < change_at, 1.0, 2.0), np.full_like(first, -0.0)], axis=-1)

    identity = MonotoneOperator(resolvent_map=ja, dim=2, label="identity")
    return DRProblem(identity, MonotoneOperator(resolvent_map=jb, dim=2, label="scripted translation"), np.zeros(2))


# the first, a middle and the last row of the block [64, 96), and the row
# before it, where the step changes
CHANGES = [2 * STEP_TEST_RECORDS + k for k in (0, STEP_TEST_RECORDS // 2, STEP_TEST_RECORDS - 1, -1)]


@pytest.mark.parametrize("change_at", CHANGES)
def test_a_step_that_changes_at_a_chosen_row_is_taken(change_at):
    problem = _translation(change_at)
    arrays = _reference(problem, 200)
    steps = arrays[0][1:] - arrays[0][:-1]
    assert np.all(steps[:change_at, 0] == 1.0) and np.all(steps[change_at:, 0] == 2.0)
    calls_a, calls_b = [], []
    counted = DRProblem(_counting(problem.A, calls_a), _counting(problem.B, calls_b), problem.x0)
    _assert_equals_reference(iterate(counted, 200, 0.0), arrays)
    # the blocks before and after the change were taken from stacked guesses
    assert sum(len(shape) == 2 for shape in calls_b) >= 3


@pytest.mark.parametrize("change_at", CHANGES)
def test_a_resolvent_that_rejects_points_off_the_orbit(change_at):
    orbit = _reference(_translation(change_at), 200)[0]
    problem = _translation(change_at, off_orbit={row.tobytes() for row in orbit})
    _assert_equals_reference(iterate(problem, 200, 0.0), _reference(problem, 200))


@pytest.mark.parametrize("change_at", CHANGES)
def test_a_stacked_image_of_the_wrong_shape_falls_back_to_the_loop(change_at):
    for shape in [(2,), (1, 2), (STEP_TEST_RECORDS, 3)]:
        problem = _translation(change_at, stack_shape=shape)
        _assert_equals_reference(iterate(problem, 200, 0.0), _reference(problem, 200))


def test_a_lone_image_of_the_wrong_shape_fails_at_the_start():
    wrong = MonotoneOperator(resolvent_map=lambda x: np.zeros(3), dim=2, label="wrong shape")
    with pytest.raises(OperatorContractError, match="wrong shape"):
        iterate(DRProblem(wrong, _translation(70).B, np.zeros(2)), 200, 0.0)


# from (128 - n) * 2^1016 the orbit steps by 2^1016 and reaches 2^1023 at record
# n, where the reflection 2 J_A x - x overflows: the first, a middle and the
# last row of a block
OVERFLOWS = [2 * STEP_TEST_RECORDS + k for k in (0, STEP_TEST_RECORDS // 2, STEP_TEST_RECORDS - 1)]


@pytest.mark.parametrize("rejects_non_finite", [False, True])
@pytest.mark.parametrize("overflow_at", OVERFLOWS)
def test_a_translating_orbit_that_overflows(overflow_at, rejects_non_finite):
    # the record's successor is not finite, or J_B rejects its reflection
    scale = 2.0**1016
    base = _translation(1e300, rejects_non_finite=rejects_non_finite)
    B = MonotoneOperator(resolvent_map=lambda y: base.B.resolvent_map(y / scale) * scale, dim=2, label="scaled")
    problem = DRProblem(base.A, B, np.array([(128 - overflow_at) * scale, 0.0]))
    error = FloatingPointError if rejects_non_finite else NonFiniteIterateError
    with pytest.raises(error) as expected:
        _reference(problem, 200)
    with pytest.raises(error) as err:
        iterate(problem, 200, 0.0)
    if error is NonFiniteIterateError:
        assert err.value.iteration == expected.value.iteration == overflow_at
