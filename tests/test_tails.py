"""Exact periodic tails against record-by-record reference loops.

In floats a consistent affine orbit ends at its rounding floor in one of two
ways: it turns bitwise stationary, or it settles into a bitwise cycle. Once
T^(n+p) x is bitwise T^n x, every later record repeats records n to n + p - 1,
so ``iterate`` tiles the rest of its trace from them. It finds p = 1 at the
first repeat and a longer period by Brent's cycle search (Brent, "An improved
Monte Carlo factorization algorithm", BIT 20, 1980) over windows of 32, 64,
128, ... records. Every trace here must equal, bitwise, a loop that computes
each record, with the tail that loop sees first: the first record that equals
an earlier one. Counting resolvent maps bound the records ``iterate``
computes, so a change that turns the tails off fails here.
"""

import numpy as np
import pytest

import drsplit.space
from drsplit import (
    DRProblem,
    MonotoneOperator,
    StopReason,
    build_scenario,
    iterate,
    normal_cone,
)
from drsplit.scenarios import _perturbed_start, random_affine_pair
from drsplit.space import row_norms
from drsplit.splitting import STEP_TEST_RECORDS, _orbit_blocks

MAX_ITERS = 10_000


def _reference(problem, max_iters, step_tol):
    """The three stored arrays, the stop reason and the tail (start, period)
    of the orbit, every record computed; the tail is ``(None, None)`` where no
    record repeats an earlier one (or, for p = 1, where no successor repeats
    its record) or where the run stops on its tolerance."""
    A, B, x = problem.A, problem.B, problem.x0
    records, first_seen, tail = [], {}, (None, None)
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(max_iters):
            ja = A.resolvent_map(x)
            jb = B.resolvent_map(2.0 * ja - x)
            x_next = x - ja + jb
            records.append((x, ja, jb))
            if row_norms((x - x_next)[None])[0] < step_tol:
                return [np.array(rows) for rows in zip(*records)], StopReason.STEP_CONVERGED, (None, None)
            seen = first_seen.setdefault(x.tobytes(), n)
            if tail == (None, None) and seen < n:
                tail = (seen, n - seen)
            if tail == (None, None) and x_next.tobytes() == x.tobytes():
                tail = (n, 1)
            x = x_next
    return [np.array(rows) for rows in zip(*records)], StopReason.MAX_ITERS, tail


def _assert_equals_reference(trace, reference):
    arrays, stop, tail = reference
    assert (len(trace), trace.stop_reason) == (len(arrays[0]), stop)
    assert (trace.tail_start, trace.tail_period) == tail
    for name, rows in zip(("governing", "shadow", "b_shadow"), arrays):
        assert getattr(trace, name).tobytes() == rows.tobytes(), name


def _shift_pair(d: int = 40):
    """J_A = Id and J_B a cyclic shift of the coordinates of R^d, so T x is the
    shift of x: a synthetic pair (a shift is not firmly nonexpansive) whose
    orbit from (0, 1, ..., d - 1) cycles with period d from its start."""
    identity = MonotoneOperator(resolvent_map=lambda x: x.copy(), dim=d, label="identity")
    shift = MonotoneOperator(resolvent_map=lambda x: np.roll(x, 1, axis=-1), dim=d, label="cyclic shift")
    return DRProblem(identity, shift, np.arange(float(d)))


def _companion_problem(seed: int) -> DRProblem:
    """The summability check's second start of random-affine d=5."""
    problem = build_scenario("random-affine", dim=5, seed=seed).problem
    start = _perturbed_start(problem.x0, np.random.default_rng(seed + 7919))
    return DRProblem(problem.A, problem.B, start)


# the problem, and the tail (start, period) its 10^4-record orbit ends in
TAILED = {
    "random-affine d=2 seed 994794": (lambda: build_scenario("random-affine", dim=2, seed=994794).problem, (217, 12)),
    # found at the 2,016-record window, after the windows ending at 480 and 992
    "random-affine d=2 seed 98827": (lambda: build_scenario("random-affine", dim=2, seed=98827).problem, (656, 30)),
    "random-affine d=5 seed 5351": (lambda: build_scenario("random-affine", dim=5, seed=5351).problem, (102, 5)),
    "companion of d=5 seed 37964": (lambda: _companion_problem(37964), (54, 2)),
    # the last window it needs ends at record 8,160
    "affine-consistent": (lambda: build_scenario("affine-consistent").problem, (2147, 6)),
    # longer than a step-test block: found at the second window
    "cyclic shift of R^40": (_shift_pair, (0, 40)),
}


@pytest.mark.parametrize("case", list(TAILED))
def test_tail_equals_the_record_by_record_loop(case, join_blocks):
    make, tail = TAILED[case]
    problem = make()
    reference = _reference(problem, MAX_ITERS, 0.0)
    assert reference[2] == tail
    _assert_equals_reference(iterate(problem, MAX_ITERS, 0.0), reference)
    # the stream's blocks are iterate calls from where the last one ended:
    # joined, the same rows and the same tail
    _assert_equals_reference(join_blocks(list(_orbit_blocks(problem, MAX_ITERS, 0.0))), reference)


def _counting(op: MonotoneOperator, calls: list) -> MonotoneOperator:
    def resolvent(x):
        calls.append(1)
        return op.resolvent_map(x)

    return MonotoneOperator(resolvent_map=resolvent, dim=op.dim, label=op.label)


def _window_bound(start: int, period: int) -> int:
    """Records by which Brent's search has found a tail: the first window whose
    anchor is at or past ``start`` and which holds ``period`` rows ends before
    record 4 (start + period + STEP_TEST_RECORDS)."""
    return 4 * (start + period + STEP_TEST_RECORDS)


@pytest.mark.parametrize("case", list(TAILED))
def test_a_tailed_orbit_stops_calling_its_resolvents(case):
    make, (start, period) = TAILED[case]
    problem = make()
    calls_a, calls_b = [], []
    counted = DRProblem(_counting(problem.A, calls_a), _counting(problem.B, calls_b), problem.x0)
    trace = iterate(counted, MAX_ITERS, 0.0)
    assert (trace.tail_start, trace.tail_period) == (start, period)
    assert len(calls_a) == len(calls_b) <= _window_bound(start, period) < MAX_ITERS


def test_a_tolerance_stop_is_never_tiled_over():
    # the cycle's smallest step norm, 1.11e-16, is first taken at its first
    # record, n = 217; every step before it is larger
    problem = build_scenario("random-affine", dim=2, seed=994794).problem
    smallest = float(np.min(iterate(problem, MAX_ITERS, 0.0).step_norms[217:229]))
    # no step of the cycle is below its smallest: the run keeps its length,
    # its stop reason and its tail
    reference = _reference(problem, MAX_ITERS, smallest)
    assert reference[1:] == (StopReason.MAX_ITERS, (217, 12))
    _assert_equals_reference(iterate(problem, MAX_ITERS, smallest), reference)
    # just above it, the run stops there, before the cycle search sees it
    above = float(np.nextafter(smallest, np.inf))
    reference = _reference(problem, MAX_ITERS, above)
    assert (len(reference[0][0]), reference[1]) == (218, StopReason.STEP_CONVERGED)
    _assert_equals_reference(iterate(problem, MAX_ITERS, above), reference)


def _scripted_cycle(points: np.ndarray, loop_to: int) -> DRProblem:
    """J_A = Id and a J_B that maps each row of ``points`` to the next and the
    last one back to row ``loop_to``, so that T x = J_B x walks the rows."""
    successor = {p.tobytes(): q for p, q in zip(points, [*points[1:], points[loop_to]])}
    identity = MonotoneOperator(resolvent_map=lambda x: x.copy(), dim=2, label="identity")
    walk = MonotoneOperator(resolvent_map=lambda y: successor[y.tobytes()].copy(), dim=2, label="scripted walk")
    return DRProblem(identity, walk, points[0])


def test_a_stop_in_the_block_that_ends_the_cycle_search_is_taken():
    # 31 points on a line, then a cycle of 60 from n = 31 around the unit
    # circle whose last chord, from n = 90 back to n = 31, is the one step
    # below 0.05: the search finds the cycle at the end of the block [64, 96)
    # that also holds that step
    approach = np.stack([40.0 - np.arange(31.0), np.zeros(31)], axis=1)
    angles = np.arange(60) * (2 * np.pi - 0.01) / 59
    problem = _scripted_cycle(np.vstack([approach, np.stack([np.cos(angles), np.sin(angles)], axis=1)]), 31)
    reference = _reference(problem, 200, 0.005)
    assert reference[1:] == (StopReason.MAX_ITERS, (31, 60))
    _assert_equals_reference(iterate(problem, 200, 0.005), reference)
    reference = _reference(problem, 200, 0.05)
    assert (len(reference[0][0]), reference[1]) == (91, StopReason.STEP_CONVERGED)
    _assert_equals_reference(iterate(problem, 200, 0.05), reference)


def test_far_out_stream_cycles_to_its_limit(join_blocks):
    # the far-out d=3 start: every step norm overflows, and the orbit cycles
    # with period 19 from n = 823; the stream of 10^5 records at tol 1e-13
    # finds the cycle in its first block, and each later block finds it
    # again from its own first row and tiles the rest
    U, V, _ = random_affine_pair(3, np.random.default_rng(0))
    A, B = normal_cone(U), normal_cone(V)
    start = np.full(3, 1e200)
    reference = _reference(DRProblem(A, B, start), 100_000, 1e-13)
    assert reference[1:] == (StopReason.MAX_ITERS, (823, 19))
    calls_a, calls_b = [], []
    counted = DRProblem(_counting(A, calls_a), _counting(B, calls_b), start)
    _assert_equals_reference(join_blocks(list(_orbit_blocks(counted, 100_000, 1e-13))), reference)
    (governing, shadow, b_shadow), _, _ = reference
    with np.errstate(over="ignore", invalid="ignore"):
        last_step = governing[-1] - ((governing[-1] - shadow[-1]) + b_shadow[-1])
        assert np.isinf(row_norms(last_step[None])[0])
    # the first block finds the tail; each later one starts inside the cycle
    blocks = len(range(0, 100_000, drsplit.space.BLOCK_NUMBERS // (3 * 3)))
    bound = _window_bound(823, 19) + (blocks - 1) * _window_bound(0, 19)
    assert len(calls_a) == len(calls_b) <= bound < 100_000
