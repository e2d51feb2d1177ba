"""The check phase against the full-size formulas, and its memory.

``diameter`` forms the upper triangle of the centred Gram matrix one block of
rows at a time; ``fejer_check`` and ``sweet_principle_check`` form one
distance or pairing column per sample point. Each must be bitwise equal to
the formula that forms the whole N x N Gram matrix, or the (n, m, d)
differences, at once. Bitwise equality of a block product with the same
entries of ``a @ a.T`` is an assumption about the BLAS, which these tests
check on whatever numpy runs them. ``tracemalloc`` sees numpy's buffers, so
the memory tests bound what the checks allocate.
"""

import tracemalloc

import numpy as np
import pytest

from drsplit import (
    SetSample,
    build_scenario,
    diameter,
    fejer_check,
    iterate,
    make_config,
    run,
    sweet_principle_check,
    trailing_quarter,
)
from drsplit.scenarios import ScenarioInstance

MIB = 2**20


def _full_gram_diameter(points):
    # the formula with the whole N x N Gram matrix
    pts = np.asarray(points, dtype=float)
    if pts.shape[0] < 2:
        return 0.0
    if np.all(np.isfinite(pts[0])) and np.all(pts == pts[0]):
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        centered = pts - pts.mean(axis=0)
        sq = np.einsum("nd,nd->n", centered, centered)
        gram = centered @ centered.T
        gram *= 2.0
        top = float(np.max((sq[:, None] + sq[None, :]) - gram))
    if not np.isfinite(top):
        return float("nan")
    return float(np.sqrt(max(0.0, top)))


def _full_distances(x, e):
    with np.errstate(over="ignore", invalid="ignore"):
        return np.linalg.norm(x[:, None, :] - e[None, :, :], axis=2)


def _full_pairings(u_win, x_win, e):
    return np.einsum("nmd,nd->nm", u_win[:, None, :] - e[None, :, :], u_win - x_win)


def _bits(value):
    return np.float64(value).tobytes()


@pytest.mark.parametrize("n", [2, 255, 256, 257, 513, 2500])
@pytest.mark.parametrize("dim", [1, 3, 50])
@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e150])
def test_diameter_equals_the_full_gram_formula(n, dim, scale):
    rng = np.random.default_rng(1000 * n + dim)
    cloud = scale * rng.standard_normal((n, dim))
    assert _bits(diameter(cloud)) == _bits(_full_gram_diameter(cloud))


@pytest.mark.parametrize("n", [2, 257, 513])
def test_diameter_of_a_row_whose_squares_overflow_is_nan(n):
    cloud = np.random.default_rng(n).standard_normal((n, 4))
    cloud[n // 2] = [1e200, -1e200, 3e199, 0.0]
    assert np.isnan(diameter(cloud)) and np.isnan(_full_gram_diameter(cloud))


@pytest.mark.parametrize("n", [2, 256, 2500])
def test_diameter_of_equal_rows_is_exactly_zero(n):
    cloud = np.tile([0.1, -3.7, 2e-300], (n, 1))
    assert _bits(diameter(cloud)) == _bits(_full_gram_diameter(cloud)) == bytes(8)


def _consistent_trace(name, **kwargs):
    inst = build_scenario(name, **kwargs)
    return inst, iterate(inst.problem, inst.default_iters, inst.default_step_tol)


TRACES = [
    ("random-affine", {"dim": 2, "seed": 1}),
    ("random-affine", {"dim": 5, "seed": 1}),
    ("random-affine", {"dim": 50, "seed": 1}),
    ("random-1d", {"seed": 1}),
]


@pytest.fixture
def stack_spy(monkeypatch):
    # every array np.stack returns while the spy is in place
    stacked = []
    stack = np.stack

    def spy(arrays, *args, **kwargs):
        out = stack(arrays, *args, **kwargs)
        stacked.append(out)
        return out

    monkeypatch.setattr(np, "stack", spy)
    return stacked


@pytest.mark.parametrize("name, kwargs", TRACES)
def test_fejer_distances_and_pairings_equal_the_full_formulas(name, kwargs, stack_spy):
    inst, trace = _consistent_trace(name, **kwargs)
    sets = inst.solutions
    pair_seq = np.hstack([trace.shadow, trace.dual_shadow])
    stack_spy.clear()  # the build and iterate stack arrays of their own
    fejer_check(pair_seq, sets.pairs, slack=1e-10)
    [dists] = stack_spy
    assert dists.tobytes() == _full_distances(pair_seq, sets.pairs.points).tobytes()

    stack_spy.clear()
    sweet_principle_check(trace.governing, trace.shadow, sets.primal, tol=1e-6, cauchy=0.0)
    dists, pairings = stack_spy
    assert dists.tobytes() == _full_distances(trace.governing, sets.primal.points).tobytes()
    window = trailing_quarter(len(trace))
    expected = _full_pairings(trace.shadow[window], trace.governing[window], sets.primal.points)
    assert pairings.tobytes() == expected.tobytes()


def test_fejer_distances_of_an_overflowing_sequence_equal_the_full_formula(stack_spy):
    x = np.array([[1e200, 1e200], [3.0, -1e300], [0.0, 0.0]])
    sample = SetSample([[0.0, 0.0], [-1e300, 1.0]])
    res = fejer_check(x, sample)
    [dists] = stack_spy
    assert dists.tobytes() == _full_distances(x, sample.points).tobytes()
    assert not res.passed


def test_diameter_of_a_long_window_stays_within_a_row_block():
    cloud = np.random.default_rng(3).standard_normal((2500, 50))
    tracemalloc.start()
    try:
        diameter(cloud)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the full Gram matrix alone is 2,500^2 x 8 B, about 48 MiB
    assert peak < 16 * MIB


def test_check_phase_memory_is_linear_in_the_trace(monkeypatch):
    run_checks = ScenarioInstance.run_checks
    peaks = []

    def traced_checks(self, trace):
        tracemalloc.reset_peak()
        out = run_checks(self, trace)
        peaks.append(tracemalloc.get_traced_memory()[1])
        return out

    monkeypatch.setattr(ScenarioInstance, "run_checks", traced_checks)
    tracemalloc.start()
    try:
        summary, trace = run(make_config(None, scenario="random-affine", dim=50, seed=1))
    finally:
        tracemalloc.stop()
    assert summary.all_passed and len(trace) == 10_000
    # the peak counts the traced trace arrays (2 orbits x 3 x 10^4 x 50 x 8 B,
    # about 23 MiB) and the checks' temporaries on top of them
    assert peaks[0] < 64 * MIB


def test_a_checked_trace_holds_only_the_arrays_iterate_wrote(monkeypatch):
    run_checks = ScenarioInstance.run_checks
    held = []

    def traced_checks(self, trace):
        out = run_checks(self, trace)
        held.append(tracemalloc.get_traced_memory()[0])
        return out

    monkeypatch.setattr(ScenarioInstance, "run_checks", traced_checks)
    tracemalloc.start()
    try:
        summary, trace = run(make_config(None, scenario="random-affine", dim=50, seed=1))
    finally:
        tracemalloc.stop()
    assert summary.all_passed and trace.companion is not None
    derived = {"dual_shadow", "b_dual_shadow", "steps", "step_norms"}
    assert not derived & vars(trace).keys()
    assert not derived & vars(trace.companion).keys()
    # the trace arrays alone are 2 orbits x 3 x 10^4 x 50 x 8 B, about 23 MiB;
    # a cached copy of the four derived sequences would double that
    assert held[0] < 28 * MIB
