"""The step norms ``iterate`` tests each record with.

The loop measures a lone ``(d,)`` orbit's step with ``math.sqrt(step.dot(step))``
and a stacked ``(k, d)`` state's with ``np.sqrt(np.vecdot(step, step))``. Both
must have the bits of ``row_norms``, the rule behind the persisted
``step_norm`` column, so that the stop rule agrees with that column; and a
lone orbit must route non-finite values and zero steps as a stacked one does.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drsplit import (
    DRProblem,
    MonotoneOperator,
    NonFiniteIterateError,
    Singleton,
    StopReason,
    build_scenario,
    iterate,
    normal_cone,
)
from drsplit.space import row_norms

_TINY = float(np.finfo(float).smallest_subnormal)
DEFAULT_STEP_TOL = 1e-12  # rotator-cone's fixed-point search tolerance
_NORMAL_MIN = float(np.finfo(float).tiny)

# magnitudes from 1e-300 to 1e150, subnormals, signed zeros and non-finite entries
_coordinate = st.one_of(
    st.floats(min_value=1e-300, max_value=1e150),
    st.floats(min_value=-1e150, max_value=-1e-300),
    st.floats(min_value=-_NORMAL_MIN, max_value=_NORMAL_MIN),
    st.sampled_from([0.0, -0.0, _TINY, -_TINY, math.inf, -math.inf, math.nan]),
)


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


@settings(max_examples=300, deadline=None)
@given(st.lists(_coordinate, min_size=1, max_size=64))
def test_one_point_norm_rules_have_equal_bits(coords):
    v = np.array(coords)
    with np.errstate(over="ignore", invalid="ignore"):
        lone = math.sqrt(v.dot(v))
        assert _bits(lone) == _bits(row_norms(v)) == _bits(np.linalg.norm(v))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=64).flatmap(
        lambda d: st.lists(st.lists(_coordinate, min_size=d, max_size=d), min_size=1, max_size=6)
    )
)
def test_stacked_norms_equal_row_norms_and_each_lone_norm(rows):
    S = np.array(rows)
    with np.errstate(over="ignore", invalid="ignore"):
        stacked = np.sqrt(np.vecdot(S, S)).tolist()
        assert [_bits(x) for x in stacked] == [_bits(x) for x in row_norms(S)]
        # a row of a stack and the same row alone reach the same dot kernel
        assert [_bits(x) for x in stacked] == [_bits(math.sqrt(r.dot(r))) for r in S]


_STOP_RULE_CASES = [
    ("disjoint-balls", {}),
    ("parallel-lines", {}),
    ("shifted-subspace", {}),
    ("points-1d", {}),
    ("random-affine", {"dim": 2, "seed": 1}),
    ("random-affine", {"dim": 5, "seed": 1}),
    # the companion turns stationary at n = 169 and the lead goes on alone:
    # at step_tol 5e-324 it stops on its zero step at n = 170
    ("random-affine", {"dim": 5, "seed": 3}),
    # the companion turns stationary at n = 749 and the lead goes on alone
    ("random-affine", {"dim": 5, "seed": 11}),
    ("random-affine", {"dim": 50, "seed": 1}),
    ("random-1d", {"seed": 1}),
]


@pytest.mark.parametrize("name, kwargs", _STOP_RULE_CASES)
@pytest.mark.parametrize("step_tol", [DEFAULT_STEP_TOL, 0.0, 1e-9, 5e-324])
def test_stop_rule_agrees_with_the_step_norm_column(name, kwargs, step_tol):
    max_iters = 3000
    tr = iterate(build_scenario(name, **kwargs).problem, max_iters=max_iters, step_tol=step_tol)
    norms = tr.step_norms
    if tr.stop_reason is StopReason.STEP_CONVERGED:
        assert len(tr) == 1 + int(np.flatnonzero(norms < step_tol)[0])
    else:
        assert len(tr) == max_iters and np.all(norms >= step_tol)
    if step_tol == 1e-9:  # both branches are taken: every consistent orbit here gets that close
        assert (tr.stop_reason is StopReason.STEP_CONVERGED) == (tr.companion is not None)


def _breaks_at(k: int, value: float) -> MonotoneOperator:
    """The resolvent of N_{0} in R^1, except that call k returns ``value``."""
    calls = [0]

    def resolvent(x):
        calls[0] += 1
        return np.full_like(x, value if calls[0] == k + 1 else 0.0)

    return MonotoneOperator(resolvent_map=resolvent, dim=1, label=f"breaks-at-{k}")


@pytest.mark.parametrize("k", [0, 1, 7])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_lone_orbit_with_a_non_finite_image_raises_at_its_record(k, value):
    # T x = x + 1 until record k: a lone orbit that never stops moving
    A, B = _breaks_at(k, value), normal_cone(Singleton([1.0]))
    with pytest.raises(NonFiniteIterateError) as err:
        iterate(DRProblem(A, B, [3.0]), max_iters=50, step_tol=DEFAULT_STEP_TOL)
    assert err.value.iteration == k


@pytest.mark.parametrize("step_tol", [DEFAULT_STEP_TOL, 0.0])
def test_lone_orbit_whose_squared_step_overflows_keeps_iterating(step_tol):
    # T x = x + 1e200: every iterate is finite, every squared step is 1e400
    A, B = normal_cone(Singleton([0.0])), normal_cone(Singleton([1e200]))
    tr = iterate(DRProblem(A, B, [0.0]), max_iters=100, step_tol=step_tol)
    assert len(tr) == 100 and tr.stop_reason is StopReason.MAX_ITERS
    assert tr.stationary_at is None and np.all(np.isfinite(tr.governing))
    with np.errstate(over="ignore"):
        assert np.all(np.isinf(tr.step_norms))


def test_lone_zero_step_reaches_the_bytewise_stationarity_test():
    A = normal_cone(Singleton([0.0]))
    # -0.0 - 0.0 + 0.0 is 0.0: a zero step whose bytes differ, so the orbit
    # turns stationary one record later, at its first bitwise repeat
    tr = iterate(DRProblem(A, A, [-0.0]), max_iters=10, step_tol=0.0)
    assert tr.stationary_at == 1 and len(tr) == 10
    assert tr.governing[0].tobytes() == _bits(-0.0) and tr.step_norms.tolist() == [0.0] * 10
    # affine-consistent without its companion: the step norm is exactly 0.0
    # from n = 1,074 on, yet no record repeats its predecessor
    inst = build_scenario("affine-consistent")
    p = inst.problem
    tr = iterate(DRProblem(p.A, p.B, p.x0), max_iters=3000, step_tol=0.0)
    assert tr.stationary_at is None and len(tr) == 3000
    assert np.all(tr.step_norms[1074:] == 0.0) and tr.step_norms[1073] > 0.0
    # with any positive tolerance the first zero step stops the run instead
    tr = iterate(DRProblem(p.A, p.B, p.x0), max_iters=3000, step_tol=5e-324)
    assert tr.stop_reason is StopReason.STEP_CONVERGED and len(tr) == 1075
