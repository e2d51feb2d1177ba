"""The check phase against the full-size formulas, and its memory.

``diameter`` forms the upper triangle of the centred Gram matrix one block of
rows at a time; ``fejer_check`` and ``sweet_principle_check`` form one
distance or pairing column per sample point, one row block at a time, and
``summability_report`` derives its terms one row block at a time, from a
whole second trace or from its consecutive row blocks. Each must be
bitwise equal to the formula that forms the whole N x N Gram matrix, the
(n, m, d) differences or the whole derived sequences at once. On a trace
that ends in an exact periodic tail (t, p) the checks read only the rows up
to t + p and the terms up to one common period of both summability runs,
and every result must still be bitwise the one over all rows. Bitwise
equality of a block product with the same entries of ``a @ a.T`` is an
assumption about the BLAS, which these tests check on whatever numpy runs
them. ``tracemalloc`` sees numpy's buffers, so
the memory tests bound what the checks allocate.
"""

import collections
import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import drsplit.solutions
import drsplit.space
from drsplit import (
    CheckResult,
    DRProblem,
    DRTrace,
    FejerResult,
    MonotoneOperator,
    SetSample,
    SolutionSets,
    build_scenario,
    diameter,
    fejer_check,
    iterate,
    make_config,
    run,
    SummabilityReport,
    summability_report,
    sweet_principle_check,
    trailing_quarter,
)
from drsplit.scenarios import ScenarioInstance, _pair_fejer_check, _perturbed_start
from drsplit.space import row_blocks
from drsplit.splitting import _orbit_blocks, _tile_periods

MIB = 2**20
BLOCK = drsplit.space.BLOCK_NUMBERS


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


def _fields(result):
    # every field of a flat result dataclass, each float as its bits
    return tuple(_bits(v) if isinstance(v, float) else v for v in dataclasses.astuple(result))


def _full_fejer(x, e, slack):
    # fejer_check's verdict formed from the whole (n, m) distance matrix
    if len(x) == 1:
        return FejerResult(True, None, 0.0, 0.0, None)
    dists = _full_distances(x, e)
    with np.errstate(over="ignore", invalid="ignore"):
        diffs = dists[1:] - dists[:-1]
        sq_diffs = dists[1:] ** 2 - dists[:-1] ** 2
    violations = ~(diffs <= slack)
    passed = not violations.any()
    return FejerResult(
        passed=passed,
        first_violation=None if passed else int(np.argwhere(violations.any(axis=1))[0, 0]),
        max_increase=float(np.max(diffs)),
        max_sq_increase=float(np.max(sq_diffs)),
        witness_index=int(np.unravel_index(np.argmax(sq_diffs), sq_diffs.shape)[0]),
    )


def _full_summability(tx, ty, term_tol=1e-8, nonneg_tol=1e-10):
    # the three term vectors from the whole derived sequences of both traces
    n = min(len(tx), len(ty))
    with np.errstate(over="ignore", invalid="ignore"):
        step_diff = np.sum((tx.steps[:n] - ty.steps[:n]) ** 2, axis=1)
        pa = np.sum((tx.shadow[:n] - ty.shadow[:n]) * (tx.dual_shadow[:n] - ty.dual_shadow[:n]), axis=1)
        pb = np.sum(
            (tx.b_shadow[:n] - ty.b_shadow[:n]) * (tx.b_dual_shadow[:n] - ty.b_dual_shadow[:n]), axis=1
        )
    return SummabilityReport(
        step_diff_sum=float(step_diff.sum()),
        pairing_a_sum=float(pa.sum()),
        pairing_b_sum=float(pb.sum()),
        step_diff_last=float(step_diff[-1]),
        pairing_a_last=float(pa[-1]),
        pairing_b_last=float(pb[-1]),
        pairing_a_min=float(pa.min()),
        pairing_b_min=float(pb.min()),
        pairings_nonnegative=bool(pa.min() >= -nonneg_tol and pb.min() >= -nonneg_tol),
        final_terms_small=bool(step_diff[-1] <= term_tol and pa[-1] <= term_tol and pb[-1] <= term_tol),
    )


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


def _diameter_block_windows():
    # windows whose rows of N numbers fill one BLOCK_NUMBERS block, spill one
    # or two rows into a second, or end on a block of one row
    one = math.isqrt(BLOCK)
    ends_on_one_row = next(n for n in range(2500, 5000) if n % (BLOCK // n) == 1)
    return [one, one + 1, one + 2, ends_on_one_row - 1, ends_on_one_row]


@pytest.mark.parametrize("n", _diameter_block_windows())
@pytest.mark.parametrize("dim", [1, 3, 50])
@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e150])
def test_diameter_at_its_row_block_boundaries_equals_the_full_gram_formula(n, dim, scale):
    rng = np.random.default_rng(1000 * n + dim)
    cloud = scale * rng.standard_normal((n, dim))
    assert _bits(diameter(cloud)) == _bits(_full_gram_diameter(cloud))


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


@pytest.fixture
def matrix_spy(monkeypatch):
    # every (n, m) distance and pairing matrix the checks reduce, by kind
    made = {"distances": [], "pairings": []}
    for kind, name in (("distances", "_sample_distances"), ("pairings", "_sample_pairings")):
        form = getattr(drsplit.solutions, name)

        def spy(*args, form=form, out=made[kind]):
            matrix = form(*args)
            out.append(matrix)
            return matrix

        monkeypatch.setattr(drsplit.solutions, name, spy)
    return made


def _sweet_check(trace, sample, cauchy=0.0):
    # the sequential-principle check as the scenario makes it, tail included
    tail = (trace.tail_start, trace.tail_period)
    return sweet_principle_check(trace.governing, trace.shadow, sample, tol=1e-6, cauchy=cauchy, tail=tail)


@pytest.mark.parametrize("name, kwargs", TRACES)
def test_fejer_distances_and_pairings_equal_the_full_formulas(name, kwargs, matrix_spy):
    # a tailed trace's checks form the first rows of the full matrices, and a
    # trace without a tail (rows() carries none) every row; either way each
    # result is the one from every row
    inst, tailed = _consistent_trace(name, **kwargs)
    sets = inst.solutions
    for trace in (tailed, tailed.rows(slice(None))):
        matrix_spy["distances"].clear(), matrix_spy["pairings"].clear()
        rows = trace.defining_rows
        assert rows == (len(trace) if trace.tail_start is None else trace.tail_start + trace.tail_period + 1)
        pair_seq = np.hstack([trace.shadow, trace.dual_shadow])
        full_pair_dists = _full_distances(pair_seq, sets.pairs.points)
        fejer_check(pair_seq, sets.pairs, slack=1e-10)
        # the scenario check builds the product-space rows one block at a time
        pair_check = dict(inst.checks)["pair_fejer_wrt_solution_pairs"](trace)
        from_array, from_blocks = matrix_spy["distances"]
        assert from_array.tobytes() == full_pair_dists.tobytes()
        assert from_blocks.tobytes() == full_pair_dists[:rows].tobytes()
        full_pair = _full_fejer(pair_seq, sets.pairs.points, 1e-10)
        expected = CheckResult(full_pair.passed, full_pair.max_sq_increase, full_pair.witness_index)
        assert _fields(pair_check) == _fields(expected)

        matrix_spy["distances"].clear()
        sweet = _sweet_check(trace, sets.primal)
        [dists], [pairings] = matrix_spy["distances"], matrix_spy["pairings"]
        assert dists.tobytes() == _full_distances(trace.governing, sets.primal.points)[:rows].tobytes()
        window = trailing_quarter(len(trace))
        expected = _full_pairings(trace.shadow[window], trace.governing[window], sets.primal.points)
        assert pairings.tobytes() == expected[: len(pairings)].tobytes()
        assert len(pairings) == (len(expected) if trace.tail_start is None else trace.tail_period)
        assert _fields(sweet.fejer) == _fields(_full_fejer(trace.governing, sets.primal.points, 1e-10))
        assert _bits(sweet.pairing_max) == _bits(np.max(np.abs(expected)))
    assert tailed.tail_start is not None or name == "random-affine" and kwargs["dim"] == 50


def test_fejer_distances_of_an_overflowing_sequence_equal_the_full_formula(stack_spy):
    x = np.array([[1e200, 1e200], [3.0, -1e300], [0.0, 0.0]])
    sample = SetSample([[0.0, 0.0], [-1e300, 1.0]])
    res = fejer_check(x, sample)
    [dists] = stack_spy
    assert dists.tobytes() == _full_distances(x, sample.points).tobytes()
    assert not res.passed


def _assert_checks_equal_the_full_formulas(inst, part, companion):
    # every field of the pair Fejer, sweet and summability results of the
    # first records of a trace, against the formulas on whole arrays
    sets = inst.solutions
    pair_seq = np.hstack([part.shadow, part.dual_shadow])
    full_pair = _full_fejer(pair_seq, sets.pairs.points, 1e-10)
    assert _fields(fejer_check(pair_seq, sets.pairs, slack=1e-10)) == _fields(full_pair)
    pair_check = dict(inst.checks)["pair_fejer_wrt_solution_pairs"](part)
    expected = CheckResult(full_pair.passed, full_pair.max_sq_increase, full_pair.witness_index)
    assert _fields(pair_check) == _fields(expected)

    sweet = sweet_principle_check(part.governing, part.shadow, sets.primal, tol=1e-6, cauchy=0.0)
    assert _fields(sweet.fejer) == _fields(_full_fejer(part.governing, sets.primal.points, 1e-10))
    window = trailing_quarter(len(part))
    pairings = _full_pairings(part.shadow[window], part.governing[window], sets.primal.points)
    assert _bits(sweet.pairing_max) == _bits(np.max(np.abs(pairings)))

    report = summability_report(part, companion)
    assert _fields(report) == _fields(_full_summability(part, companion))
    # the second run as the consecutive row blocks a streamed orbit yields
    blocks = [companion.rows(rows) for rows in row_blocks(len(companion), 3 * companion.problem.dim)]
    assert _fields(summability_report(part, iter(blocks))) == _fields(report)


def _block_boundary_lengths(block_numbers, dim):
    # 1, block - 1, block, block + 1 and 2 block + 1 records for the 2d-wide
    # pair rows and the d-wide rows
    lengths = {1}
    for rows in (block_numbers // (2 * dim), block_numbers // dim):
        lengths |= {rows - 1, rows, rows + 1, 2 * rows + 1}
    return sorted(lengths)


# at the real block size, and at blocks of 7 d-wide rows, where a trace of 61
# records also has a trailing quarter (the pairings' window) of three blocks
BOUNDARY_CASES = [(BLOCK, n) for n in _block_boundary_lengths(BLOCK, 50)]
BOUNDARY_CASES += [(7 * 50, n) for n in _block_boundary_lengths(7 * 50, 50) + [61]]


@pytest.fixture(scope="module")
def d50_trace():
    # as many records as the longest boundary case, for the run and for the
    # orbit of its summability companion start
    inst = build_scenario("random-affine", dim=50, seed=1)
    longest = max(n for _, n in BOUNDARY_CASES)
    second = _perturbed_start(inst.problem.x0, np.random.default_rng(1 + 7919))
    companion = iterate(DRProblem(inst.problem.A, inst.problem.B, second), longest, 0.0)
    return inst, iterate(inst.problem, longest, 0.0), companion


@pytest.mark.parametrize("block_numbers, n", BOUNDARY_CASES)
def test_checks_at_row_block_boundaries_equal_the_full_formulas(block_numbers, n, d50_trace, monkeypatch):
    monkeypatch.setattr(drsplit.space, "BLOCK_NUMBERS", block_numbers)
    inst, trace, companion = d50_trace
    first = slice(0, n)
    _assert_checks_equal_the_full_formulas(inst, trace.rows(first), companion.rows(first))


@pytest.mark.parametrize("block_numbers", [BLOCK, 4 * 7])
def test_checks_of_a_far_out_trace_equal_the_full_formulas_without_warnings(block_numbers, monkeypatch):
    # the steps and distances of a start at 1e200 overflow to inf, and their
    # differences to NaN; none of it may warn (a warning would reach stderr).
    # The instance is built at its default start: no fixed point of T is
    # certified at the scale of this one
    monkeypatch.setattr(drsplit.space, "BLOCK_NUMBERS", block_numbers)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inst = build_scenario("random-affine", dim=2)
        far = DRProblem(inst.problem.A, inst.problem.B, np.array([1e200, -1e200]))
        trace = iterate(far, 200, inst.default_step_tol)
        other = iterate(DRProblem(inst.problem.A, inst.problem.B, np.array([-3e199, 1e200])), 200, 0.0)
        assert not np.all(np.isfinite(trace.step_norms))
        _assert_checks_equal_the_full_formulas(inst, trace, other)
        inst.run_checks(trace)  # every check of the run, diameter included


def test_summability_derives_each_dual_shadow_once_per_row_block(d50_trace, monkeypatch):
    # each run's dual shadow once per row block, and its steps from it with
    # DRTrace.steps' expression: no steps read, every term as before
    _, trace, companion = d50_trace
    expected = _fields(_full_summability(trace, companion))
    reads = collections.Counter()
    for name in ("dual_shadow", "steps"):
        derive = getattr(DRTrace, name).fget
        monkeypatch.setattr(DRTrace, name, property(lambda tr, f=derive, n=name: reads.update([n]) or f(tr)))
    report = summability_report(trace, companion)
    assert reads == {"dual_shadow": 2 * len(list(row_blocks(len(trace), trace.problem.dim)))}
    assert _fields(report) == expected


# traces that end in an exact periodic tail: the scenario, its parameters,
# the records run, the lead's tail and the summability companion's orbit-wide
# tail (start, period)
TAILED = {
    "random-affine d=5 seed 3": ("random-affine", {"dim": 5, "seed": 3}, 10_000, (170, 1), (169, 1)),
    # lead period 5, companion period 3: the terms repeat every 15 records
    "random-affine d=5 seed 5351": ("random-affine", {"dim": 5, "seed": 5351}, 10_000, (102, 5), (111, 3)),
    "random-affine d=2 seed 994794": ("random-affine", {"dim": 2, "seed": 994794}, 10_000, (217, 12), (217, 12)),
    "random-affine d=2 seed 98827": ("random-affine", {"dim": 2, "seed": 98827}, 10_000, (656, 30), (645, 30)),
    # 12 companion blocks of 873 records
    "random-affine d=50 seed 953097": ("random-affine", {"dim": 50, "seed": 953097}, 10_000, (57, 1), (73, 1)),
    # lead period 9, companion period 6 from before the lead's tail: every 18
    "random-affine d=4 seed 64": ("random-affine", {"dim": 4, "seed": 64}, 10_000, (1229, 9), (330, 6)),
    "affine-consistent": ("affine-consistent", {}, 10_000, (2147, 6), (2147, 6)),
    "random-1d seed 2": ("random-1d", {"seed": 2}, 10_000, (86, 1), (87, 1)),
    # the tail starts inside the trailing quarter, [150, 200)
    "random-affine d=5 seed 3, 200 records": ("random-affine", {"dim": 5, "seed": 3}, 200, (170, 1), (169, 1)),
}


def _tailed_case(case):
    name, kwargs, records, lead_tail, companion_tail = TAILED[case]
    inst = build_scenario(name, **kwargs)
    trace = iterate(inst.problem, records, inst.default_step_tol)
    assert (trace.tail_start, trace.tail_period) == lead_tail
    # the summability check's second start
    start = _perturbed_start(inst.problem.x0, np.random.default_rng(inst.seed + 7919))
    return inst, trace, DRProblem(inst.problem.A, inst.problem.B, start), companion_tail


def _full_checks(inst, trace, companion):
    # the results of the consistent checks that reduce over rows, each from
    # every row of the trace and of the whole companion trace
    sets = inst.solutions
    pair = _full_fejer(np.hstack([trace.shadow, trace.dual_shadow]), sets.pairs.points, 1e-10)
    fejer = _full_fejer(trace.governing, sets.primal.points, 1e-10)
    window = trailing_quarter(len(trace))
    pairings = _full_pairings(trace.shadow[window], trace.governing[window], sets.primal.points)
    pairing_max, cauchy = float(np.max(np.abs(pairings))), trace.trailing_shadow_diameter
    report = _full_summability(trace, companion)
    results = {
        "pair_fejer_wrt_solution_pairs": CheckResult(pair.passed, pair.max_sq_increase, pair.witness_index),
        "sequential_principle_evidence": CheckResult(
            bool(fejer.passed and pairing_max <= 1e-6 and cauchy <= 1e-6), max(pairing_max, cauchy)
        ),
        "summability": CheckResult(
            report.pairings_nonnegative and report.final_terms_small,
            min(report.pairing_a_min, report.pairing_b_min),
        ),
    }
    if inst.problem.dim == 1:
        shadow_ok = _full_fejer(trace.shadow, inst.z[None], 1e-12).passed
        ok = shadow_ok and _full_fejer(trace.dual_shadow, inst.k[None], 1e-12).passed
        results["decoupled_fejer"] = CheckResult(ok, 0.0 if ok else 1.0)
    return results


@pytest.mark.parametrize("case", list(TAILED))
def test_checks_of_a_tailed_trace_equal_the_full_formulas(case):
    inst, trace, second, companion_tail = _tailed_case(case)
    companion = iterate(second, len(trace), 0.0)
    assert (companion.tail_start, companion.tail_period) == companion_tail
    results = inst.run_checks(trace)
    for name, expected in _full_checks(inst, trace, companion).items():
        assert _fields(results[name]) == _fields(expected), name
    sets = inst.solutions
    sweet = sweet_principle_check(
        trace.governing, trace.shadow, sets.primal, tol=1e-6, tail=(trace.tail_start, trace.tail_period)
    )
    assert _fields(sweet.fejer) == _fields(_full_fejer(trace.governing, sets.primal.points, 1e-10))
    assert _bits(sweet.cauchy) == _bits(trace.trailing_shadow_diameter)
    # every field, the second run whole and as the stream's row blocks
    expected = _fields(_full_summability(trace, companion))
    assert _fields(summability_report(trace, companion)) == expected
    assert _fields(summability_report(trace, _orbit_blocks(second, len(trace), 0.0))) == expected


@pytest.mark.parametrize(
    "case, records", [("random-affine d=5 seed 5351", 100), ("random-affine d=50 seed 953097", 50)]
)
def test_summability_takes_the_second_run_tail_orbit_wide(case, records, monkeypatch):
    # with short blocks the second run's tail, after the lead's, is found in
    # its second block, at a start relative to that block; the terms still
    # repeat only from the orbit-wide start
    inst, trace, second, (start, _) = _tailed_case(case)
    monkeypatch.setattr(drsplit.space, "BLOCK_NUMBERS", 3 * second.dim * records)
    blocks = list(_orbit_blocks(second, len(trace), 0.0))
    assert blocks[0].tail_start is None and records + blocks[1].tail_start == start > trace.tail_start
    expected = _fields(_full_summability(trace, iterate(second, len(trace), 0.0)))
    assert _fields(summability_report(trace, iter(blocks))) == expected


def _cyclic_shift_trace(d, records):
    # J_A = Id and J_B a cyclic shift of R^d, so T x is the shift of x: an
    # orbit from (0, 1, ..., d - 1) with period d from its start
    identity = MonotoneOperator(resolvent_map=lambda x: x.copy(), dim=d, label="identity")
    shift = MonotoneOperator(resolvent_map=lambda x: np.roll(x, 1, axis=-1), dim=d, label="cyclic shift")
    return iterate(DRProblem(identity, shift, np.arange(float(d))), records, 0.0)


def test_a_violation_and_witness_in_the_first_period_are_kept():
    # the sample point is the orbit's second row: the distance falls to 0 at
    # n = 1 and grows again, so the first violation and the worst increase
    # both lie in the first period, and every later period repeats them
    trace = _cyclic_shift_trace(5, 100)
    assert (trace.tail_start, trace.tail_period, trace.defining_rows) == (0, 5, 6)
    e = trace.governing[1:2]
    sets = SolutionSets(SetSample(e), SetSample(e), SetSample(np.zeros_like(e)))
    full = _full_fejer(np.hstack([trace.shadow, trace.dual_shadow]), sets.pairs.points, 1e-10)
    assert not full.passed and full.first_violation == 1 and full.witness_index < 5
    pair = _pair_fejer_check(sets)(trace)
    assert _fields(pair) == _fields(CheckResult(full.passed, full.max_sq_increase, full.witness_index))
    sweet = _sweet_check(trace, sets.primal)
    assert _fields(sweet.fejer) == _fields(_full_fejer(trace.governing, e, 1e-10))
    window = trailing_quarter(len(trace))
    pairings = _full_pairings(trace.shadow[window], trace.governing[window], e)
    assert _bits(sweet.pairing_max) == _bits(np.max(np.abs(pairings)))


@pytest.mark.parametrize("case", list(TAILED))
def test_checks_of_a_tailed_trace_read_one_period(case, matrix_spy, monkeypatch):
    # the distance matrices hold at most t + p + 1 rows, the pairings one
    # period of the trailing quarter (with its rows before the tail), and the
    # summability terms end one common period after both tails start
    inst, trace, second, (companion_start, companion_period) = _tailed_case(case)
    start, period = trace.tail_start, trace.tail_period
    inst.run_checks(trace)
    assert all(len(m) <= start + period + 1 for m in matrix_spy["distances"])
    first = trailing_quarter(len(trace)).start
    [pairings] = matrix_spy["pairings"]
    assert len(pairings) == max(first, start) + period - first
    assert len(pairings) == period or start > first
    # the term rows summability_report derives, counted by its row blocks
    term_rows = []
    blocks = drsplit.solutions.row_blocks
    monkeypatch.setattr(drsplit.solutions, "row_blocks", lambda n, *a: term_rows.append(n) or blocks(n, *a))
    summability_report(trace, _orbit_blocks(second, len(trace), 0.0))
    assert sum(term_rows) <= max(start, companion_start) + math.lcm(period, companion_period)


def test_tail_copies_double():
    # tiling 10^4 rows from a period of one copies about log2(10^4) runs, not
    # one period at a time
    class CountingCopies(np.ndarray):
        copies = 0

        def __setitem__(self, index, value):
            CountingCopies.copies += 1
            super().__setitem__(index, value)

    values = np.random.default_rng(5).standard_normal(10_000)
    for start, period in [(100, 1), (37, 12)]:
        known = start + period
        expected = np.concatenate([values[:start], np.resize(values[start:known], 10_000 - start)])
        tiled = np.where(np.arange(10_000) < known, values, np.nan).view(CountingCopies)
        CountingCopies.copies = 0
        _tile_periods(tiled, start, period, known)
        assert tiled.tobytes() == expected.tobytes()
        assert CountingCopies.copies <= math.ceil(math.log2(10_000 / period)) + 1


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
    # the peak counts the traced trace arrays (3 x 10^4 x 50 x 8 B, about
    # 11.4 MiB) and the checks' temporaries on top of them, the summability
    # companion's row blocks among them; a whole companion trace would add
    # 11.4 MiB more
    assert peaks[0] < 20 * MIB


def test_check_phase_peaks_within_8_mib_of_the_trace_it_holds(monkeypatch):
    run_checks = ScenarioInstance.run_checks
    margins = []

    def traced_checks(self, trace):
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = run_checks(self, trace)
        margins.append(tracemalloc.get_traced_memory()[1] - held)
        return out

    monkeypatch.setattr(ScenarioInstance, "run_checks", traced_checks)
    tracemalloc.start()
    try:
        summary, trace = run(make_config(None, scenario="random-affine", dim=50, seed=1))
    finally:
        tracemalloc.stop()
    assert summary.all_passed and len(trace) == 10_000
    # whole-trace (n, d) and (n, 2d) temporaries put 23.2 MiB on top of the
    # 11.4 MiB trace; row blocks of BLOCK_NUMBERS numbers, the summability
    # companion's included, put about 3 MiB
    assert margins[0] <= 8 * MIB


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
    assert summary.all_passed and summary.checks["summability"].verdict
    derived = {"dual_shadow", "b_dual_shadow", "steps", "step_norms"}
    assert not derived & vars(trace).keys()
    # the trace arrays alone are 3 x 10^4 x 50 x 8 B, about 11.4 MiB; a cached
    # copy of one derived sequence would add 3.8 MiB, and a companion trace
    # kept beside the run 11.4 MiB
    assert held[0] < 15 * MIB
