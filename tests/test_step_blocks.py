"""``iterate``'s block step test against a record-by-record reference loop.

``iterate`` computes ``STEP_TEST_RECORDS`` records before it tests their
steps in one vectorized pass, and discards what it computed past the first
stop. Its traces and errors must be those of the loop below, which tests each
step as soon as it is taken. The events that end or change a run (a
tolerance stop, bitwise stationarity, a zero step from -0.0 to 0.0, a step
norm that overflows while the next point is finite, a non-finite image and a
resolvent's own exception) are placed at records on both sides of a block
boundary. The summability check's companion orbit, streamed in row blocks of
as many records, must match the same loop run for as many records as the
lead, with the event one record earlier or later than in the lead.
"""

import math

import numpy as np
import pytest

import drsplit.space
from drsplit import DRProblem, MonotoneOperator, NonFiniteIterateError, StopReason, iterate
from drsplit.scenarios import _summability_check
from drsplit.splitting import STEP_TEST_RECORDS

MAX_ITERS = 70  # two whole blocks and a partial one
POSITIONS = [0, STEP_TEST_RECORDS - 1, STEP_TEST_RECORDS, STEP_TEST_RECORDS + 1, MAX_ITERS - 1]
START = 5.0  # record n of the scripted orbit is (-0.0, START + n) until its event
# row blocks of the companion stream: STEP_TEST_RECORDS records of 3 points in R^2
COMPANION_BLOCK = 3 * 2 * STEP_TEST_RECORDS
_MAX_FLOAT = float(np.finfo(float).max)


class ResolventError(RuntimeError):
    """A scripted resolvent's own failure."""


def _reference(A, B, x0, max_iters, step_tol):
    """Records, stop reason and stationary tail of one orbit, each step tested
    as soon as it is taken (no scripted orbit cycles with a longer period)."""
    records, x = [], x0
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(max_iters):
            ja = A.resolvent_map(x)
            jb = B.resolvent_map(2.0 * ja - x)
            x_next = x - ja + jb
            records.append((x, ja, jb))
            norm = float(np.linalg.norm(x - x_next))
            if not norm <= _MAX_FLOAT and not np.all(np.isfinite(x_next)):
                raise NonFiniteIterateError(n)
            if norm < step_tol:
                return records, StopReason.STEP_CONVERGED, (None, None)
            if norm == 0.0 and x_next.tobytes() == x.tobytes():
                return records + [records[-1]] * (max_iters - n - 1), StopReason.MAX_ITERS, (n, 1)
            x = x_next
    return records, StopReason.MAX_ITERS, (None, None)


def _assert_trace_is(trace, reference):
    records, stop, tail = reference
    assert (len(trace), trace.stop_reason, (trace.tail_start, trace.tail_period)) == (len(records), stop, tail)
    for field, rows in zip(("governing", "shadow", "b_shadow"), zip(*records)):
        assert getattr(trace, field).tobytes() == np.array(rows).tobytes(), field


# B's image at the event record, which the orbit reaches at second coordinate
# START + k, and the step tolerances each event is run at
_EVENTS = {
    # step norm 0.5: below 0.75, where every other step norm is 1
    "stop": ([-0.0, 0.5], [0.75]),
    # T x is x bit for bit
    "stationary": ([-0.0, 0.0], [0.0, 0.75]),
    # T x = (0.0, x_1) from x = (-0.0, x_1): a zero step whose bytes differ
    "zero step": ([0.0, 0.0], [0.0, 0.75]),
    # a step of 1e200: its norm overflows, the next point is finite
    "inf norm": ([1e200, 1.0], [0.0, 0.75]),
    "inf image": ([-0.0, math.inf], [0.0, 0.75]),
    "nan image": ([-0.0, math.nan], [0.0, 0.75]),
}


def _scripted_pair(k: int, event, rejects_non_finite: bool, raises_at_event: bool):
    """A = N_{0} in R^2 and a B whose image is (-0.0, 1.0), so T x = x + (0, 1),
    except ``event`` (or a ``ResolventError``) at the input of record k; with
    ``rejects_non_finite`` both raise ``ResolventError`` on a non-finite input.
    Both map a stack row by row, so ``iterate`` takes the translation's blocks
    from stacked guesses up to the event."""
    trigger = -(START + k)

    def check(y):
        if rejects_non_finite and not np.all(np.isfinite(y)):
            raise ResolventError("non-finite input")

    def ja(x):
        check(x)
        return np.zeros_like(x)

    def jb(y):
        check(y)
        at_event = y[..., 1:] == trigger
        if raises_at_event and np.any(at_event):
            raise ResolventError("event")
        return np.where(at_event, event or np.nan, [-0.0, 1.0])

    return (
        MonotoneOperator(resolvent_map=ja, dim=2, label="zero"),
        MonotoneOperator(resolvent_map=jb, dim=2, label="scripted"),
    )


def _assert_matches_reference(problem, second, step_tol, streamed_companion, join_blocks):
    """The lead run and, for a ``second`` start, the summability check's
    companion blocks against the reference loop: a lead that breaks down
    raises from ``iterate``, a companion that does raises from the check,
    each at its own first non-finite record."""
    A, B = problem.A, problem.B
    try:
        lead = _reference(A, B, problem.x0, MAX_ITERS, step_tol)
    except NonFiniteIterateError as expected:
        with pytest.raises(NonFiniteIterateError) as err:
            iterate(problem, MAX_ITERS, step_tol)
        assert err.value.iteration == expected.iteration
        return
    trace = iterate(problem, MAX_ITERS, step_tol)
    _assert_trace_is(trace, lead)
    if second is None:
        return
    check = _summability_check(np.array(second))
    try:
        companion = _reference(A, B, np.array(second), len(trace), 0.0)
    except NonFiniteIterateError as expected:
        with pytest.raises(NonFiniteIterateError) as err:
            streamed_companion(check, trace)
        assert err.value.iteration == expected.iteration
        return
    _, blocks = streamed_companion(check, trace)
    assert {len(b) for b in blocks[:-1]} <= {STEP_TEST_RECORDS}
    _assert_trace_is(join_blocks(blocks), companion)


# the companion meets the event value one record earlier, one record later,
# or (the lead alone) not at all
_COMPANIONS = {"lead alone": None, "companion earlier": 1.0, "companion later": -1.0}


@pytest.mark.parametrize("companion", list(_COMPANIONS))
@pytest.mark.parametrize("rejects_non_finite", [False, True])
@pytest.mark.parametrize("kind", list(_EVENTS))
def test_block_step_test_equals_the_record_by_record_loop(
    kind, rejects_non_finite, companion, streamed_companion, join_blocks, monkeypatch
):
    monkeypatch.setattr(drsplit.space, "BLOCK_NUMBERS", COMPANION_BLOCK)
    event, step_tols = _EVENTS[kind]
    offset = _COMPANIONS[companion]
    for k in POSITIONS:
        A, B = _scripted_pair(k, event, rejects_non_finite, raises_at_event=False)
        second = None if offset is None else [-0.0, START + offset]
        problem = DRProblem(A, B, np.array([-0.0, START]))
        for step_tol in step_tols:
            _assert_matches_reference(problem, second, step_tol, streamed_companion, join_blocks)


def test_the_events_land_where_they_are_placed():
    # the reference itself: each event acts at record k and nowhere else
    for k in POSITIONS:
        A, B = _scripted_pair(k, _EVENTS["stop"][0], False, False)
        records, stop, _ = _reference(A, B, np.array([-0.0, START]), MAX_ITERS, 0.75)
        assert (len(records), stop) == (k + 1, StopReason.STEP_CONVERGED)
        A, B = _scripted_pair(k, _EVENTS["zero step"][0], False, False)
        *_, tail = _reference(A, B, np.array([-0.0, START]), MAX_ITERS, 0.0)
        assert tail == ((None, None) if k == MAX_ITERS - 1 else (k + 1, 1))
        A, B = _scripted_pair(k, _EVENTS["nan image"][0], True, False)
        with pytest.raises(NonFiniteIterateError) as err:
            _reference(A, B, np.array([-0.0, START]), MAX_ITERS, 0.0)
        assert err.value.iteration == k


@pytest.mark.parametrize("companion", list(_COMPANIONS))
def test_a_resolvents_own_exception_passes_through(companion, streamed_companion, join_blocks, monkeypatch):
    monkeypatch.setattr(drsplit.space, "BLOCK_NUMBERS", COMPANION_BLOCK)
    offset = _COMPANIONS[companion]
    for k in POSITIONS:
        A, B = _scripted_pair(k, None, False, raises_at_event=True)
        with pytest.raises(ResolventError, match="event"):
            iterate(DRProblem(A, B, np.array([-0.0, START])), MAX_ITERS, 0.0)
        if offset is not None:
            # a lead that starts past the event never meets it; a companion
            # that meets it within the lead's records raises from the check
            trace = iterate(DRProblem(A, B, np.array([-0.0, START + MAX_ITERS])), MAX_ITERS, 0.0)
            check = _summability_check(np.array([-0.0, START + offset]))
            if 0 <= k - offset < MAX_ITERS:
                with pytest.raises(ResolventError, match="event"):
                    streamed_companion(check, trace)
            else:
                assert len(join_blocks(streamed_companion(check, trace)[1])) == MAX_ITERS
        # a tolerance stop at record k - 1 ends the run, though the block may
        # already have made the call that fails at record k
        if k > 0:
            trace = iterate(DRProblem(A, _stops_then_fails(k - 1), np.array([-0.0, START])), MAX_ITERS, 0.75)
            assert len(trace) == k and trace.stop_reason is StopReason.STEP_CONVERGED


def _stops_then_fails(n: int) -> MonotoneOperator:
    """T x = x + (0, 1) to record n, a step of norm 0.5 there, and a
    ``ResolventError`` at every later record."""

    def jb(y):
        if np.any(y[..., 1] < -(START + n)):
            raise ResolventError("event")
        return np.where(y[..., 1:] == -(START + n), [-0.0, 0.5], [-0.0, 1.0])

    return MonotoneOperator(resolvent_map=jb, dim=2, label="stops-then-fails")
