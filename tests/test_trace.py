"""The columnar trace against the per-record loop it replaced.

``_reference_iterate`` and ``_reference_csv`` are the record-by-record
iteration and CSV writer that ``iterate`` and ``write_trace_csv`` used before
the trace became ``(n, d)`` arrays; every array, the displacement estimate,
the stop reason and the CSV bytes must match them bitwise. The reference loop
never stops at a stationary point, so it also pins the rows ``iterate`` fills
without iterating once the orbit is bitwise stationary.
"""

import json
import math
import pathlib
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import drsplit.runner
import drsplit.splitting
from drsplit import (
    DRProblem,
    DRTrace,
    NonnegativeOrthant,
    StopReason,
    build_scenario,
    diameter,
    iterate,
    list_scenarios,
    normal_cone,
    operator_pair_library,
    sweet_principle_check,
    trailing_quarter,
)
from drsplit.cli import main as cli_main
from drsplit.runner import _json_number, write_trace_csv

FIELDS = ("governing", "shadow", "dual_shadow", "b_shadow", "b_dual_shadow", "steps")


def _reference_iterate(problem, max_iters, step_tol):
    A, B = problem.A, problem.B
    x = problem.x0.copy()
    records = []
    stop = StopReason.MAX_ITERS
    stationary_at = None
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(max_iters):
            ja = A.resolvent_map(x)
            ra = 2.0 * ja - x
            jb = B.resolvent_map(ra)
            x_next = x - ja + jb
            assert np.all(np.isfinite(x_next))
            step = x - x_next
            records.append(
                {
                    "n": n,
                    "governing": x,
                    "shadow": ja,
                    "dual_shadow": x - ja,
                    "b_shadow": jb,
                    "b_dual_shadow": ra - jb,
                    "steps": step,
                }
            )
            if float(np.linalg.norm(step)) < step_tol:
                stop = StopReason.STEP_CONVERGED
                break
            if stationary_at is None and x_next.tobytes() == x.tobytes():
                stationary_at = n
            x = x_next
    return records, stop, stationary_at


def _cell(x):
    return format(float(x), ".17g")


def _reference_csv(records, d):
    header = (
        ["n"]
        + [f"g{i}" for i in range(d)]
        + [f"s{i}" for i in range(d)]
        + [f"ds{i}" for i in range(d)]
        + [f"bs{i}" for i in range(d)]
        + ["step_norm"]
        + [f"v{i}" for i in range(d)]
    )
    lines = [",".join(header)]
    for r in records:
        cells = [str(r["n"])]
        for vec in (r["governing"], r["shadow"], r["dual_shadow"], r["b_shadow"]):
            cells.extend(_cell(c) for c in vec)
        cells.append(_cell(np.linalg.norm(r["steps"])))
        cells.extend(_cell(c) for c in r["steps"])
        lines.append(",".join(cells))
    return ("\n".join(lines) + "\n").encode()


def _assert_matches_reference(problem, max_iters, step_tol, path):
    """Compare one run with the reference loop; returns the trace."""
    tr = iterate(problem, max_iters=max_iters, step_tol=step_tol)
    records, stop, stationary_at = _reference_iterate(problem, max_iters, step_tol)
    assert len(tr) == len(records)
    assert tr.stop_reason is stop
    assert tr.stationary_at == stationary_at
    for name in FIELDS:
        got = getattr(tr, name)
        assert got.shape == (len(records), problem.dim), name
        assert got.tobytes() == np.stack([r[name] for r in records]).tobytes(), name
    assert tr.v_estimate.tobytes() == records[-1]["steps"].tobytes()
    write_trace_csv(tr, str(path))
    assert path.read_bytes() == _reference_csv(records, problem.dim)
    return tr


def test_trace_equals_reference_loop_across_library(rng, tmp_path):
    stops = set()
    for entry in operator_pair_library():
        for max_iters, step_tol in ((40, 0.0), (300, 1e-6)):
            problem = DRProblem(entry.A, entry.B, 2 * rng.standard_normal(entry.dim))
            tr = _assert_matches_reference(problem, max_iters, step_tol, tmp_path / "t.csv")
            stops.add(tr.stop_reason)
    assert stops == {StopReason.MAX_ITERS, StopReason.STEP_CONVERGED}


@pytest.mark.parametrize("name", [name for name, _, _ in list_scenarios()])
@pytest.mark.parametrize("seed", [0, 3])
def test_trace_equals_reference_loop_on_scenarios(name, seed, tmp_path):
    inst = build_scenario(name, seed=seed)
    max_iters = min(inst.default_iters, 150)
    _assert_matches_reference(inst.problem, max_iters, inst.default_step_tol, tmp_path / "t.csv")


@pytest.mark.parametrize(
    "name, kwargs, stationary_at",
    [
        ("random-affine", {"dim": 5, "seed": 3}, 170),
        ("random-1d", {"seed": 2}, 86),
        ("random-affine", {"dim": 2, "seed": 518788}, 1164),
        # enters an exact period-6 cycle at n = 2147: never stationary
        ("affine-consistent", {"seed": 0}, None),
    ],
)
def test_full_default_runs_equal_reference_loop(name, kwargs, stationary_at, tmp_path):
    inst = build_scenario(name, **kwargs)
    tr = _assert_matches_reference(
        inst.problem, inst.default_iters, inst.default_step_tol, tmp_path / "t.csv"
    )
    assert len(tr) == inst.default_iters == 10_000
    assert tr.stop_reason is StopReason.MAX_ITERS
    assert tr.stationary_at == stationary_at


def test_positive_step_tol_stops_before_the_stationary_fill(tmp_path):
    # even the smallest positive tolerance sees the zero step first
    inst = build_scenario("random-affine", dim=5, seed=3)
    tr = _assert_matches_reference(inst.problem, 10_000, 5e-324, tmp_path / "t.csv")
    assert tr.stop_reason is StopReason.STEP_CONVERGED
    assert len(tr) == 171
    assert tr.stationary_at is None


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 50).flatmap(
        lambda d: st.lists(
            st.one_of(_FINITE, st.sampled_from([0.0, -0.0]), st.floats(-1e6, 1e6)),
            min_size=d,
            max_size=d,
        )
    ),
    st.integers(2, 2500),  # 2,500 rows: the window of a 10^4-record run
)
def test_gram_diameter_of_identical_rows_is_exactly_zero(row, n):
    # this is what lets a trace return 0.0 for a window that starts after the
    # orbit became stationary without forming the Gram matrix
    rows = np.tile(np.array(row), (n, 1))
    got = diameter(rows)
    if np.max(np.abs(rows)) <= 1e150:
        assert np.float64(got).tobytes() == np.float64(0.0).tobytes()
    else:  # the centred squares may overflow: no measured diameter, never a false one
        assert got == 0.0 or np.isnan(got)


def test_gram_diameter_of_identical_rows_regression():
    # every rounded Gram entry of this row is ...002p+61 while its rounded
    # square is ...003p+61: the Gram matrix alone read 32.0
    row = np.zeros(40)
    row[0], row[37], row[39] = 1.0020231605415087e23, 328189889408340.0, 2293418063315761.0
    assert np.float64(diameter(np.tile(row, (1411, 1)))).tobytes() == np.float64(0.0).tobytes()
    # rows equal up to the sign of a zero are one point
    assert diameter(np.array([[0.0, 1.0], [-0.0, 1.0]])) == 0.0


_EDGE_FLOATS = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.2250738585072014e-308, 1.0 / 3.0, 1e300]


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.floats(), st.sampled_from(_EDGE_FLOATS)))
def test_json_number_is_the_csv_cell_rule(x):
    # the summary JSON and the trace CSV ("%.17g" per cell) share one rule,
    # which is also _reference_csv's format(x, ".17g") and round-trips exactly
    text = _json_number(x)
    if np.isfinite(x):
        assert text == "%.17g" % x == _cell(x)
        assert np.float64(float(text)).tobytes() == np.float64(x).tobytes()
    else:
        assert text == "null"


_NAN_PAYLOAD = np.array([0x7FF8_0000_DEAD_BEEF], dtype=np.uint64).view(float)[0]
_CSV_EDGES = [
    0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan, -np.nan, _NAN_PAYLOAD,
    -_NAN_PAYLOAD, 1e308, -1e308, 1.0 / 3.0,
]  # fmt: skip


@st.composite
def _written_traces(draw):
    """A trace built directly from three ``(n, d)`` arrays whose cells come
    from a small pool, so that values repeat within and across blocks."""
    d, n = draw(st.integers(1, 4)), draw(st.integers(1, 40))
    pool = draw(st.lists(st.one_of(st.floats(), st.sampled_from(_CSV_EDGES)), min_size=1, max_size=12))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=3 * n * d, max_size=3 * n * d))
    governing, shadow, b_shadow = np.array(pool)[picks].reshape(3, n, d)
    cone = normal_cone(NonnegativeOrthant(d))
    return DRTrace(DRProblem(cone, cone, np.zeros(d)), governing, shadow, b_shadow, StopReason.MAX_ITERS, None)


@settings(max_examples=200, deadline=None)
@given(_written_traces())
def test_blocked_csv_writer_equals_the_cell_rule(tr):
    # a mostly distinct block is formatted row by row, any other block formats
    # each distinct bit pattern once and maps it back: -0.0 and 0.0 keep their
    # own texts, every NaN writes "nan", and a block of one number writes what
    # a whole table does (small pools and CSV_BLOCK 1 reach both paths)
    with np.errstate(over="ignore", invalid="ignore"):
        fields = {name: getattr(tr, name) for name in ("governing", "shadow", "dual_shadow", "b_shadow", "steps")}
        records = [{"n": n, **{name: rows[n] for name, rows in fields.items()}} for n in range(len(tr))]
        expected = _reference_csv(records, tr.problem.dim)
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        path = pathlib.Path(tmp) / "t.csv"
        for block in (1, 7, 64, drsplit.runner.CSV_BLOCK):
            mp.setattr(drsplit.runner, "CSV_BLOCK", block)
            write_trace_csv(tr, str(path))
            assert path.read_bytes() == expected, block


def test_csv_writer_holds_one_block_of_text(tmp_path):
    # the whole table as Python floats and one line per record took 158 MiB here
    inst = build_scenario("random-affine", dim=50, seed=1)
    tr = iterate(inst.problem, inst.default_iters, inst.default_step_tol)
    assert len(tr) == 10_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        write_trace_csv(tr, str(tmp_path / "t.csv"))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20


@pytest.mark.parametrize(
    "args",
    [
        ["--scenario", "shifted-subspace"],
        ["--scenario", "parallel-lines"],
        ["--scenario", "disjoint-balls"],
        ["--scenario", "points-1d"],
        ["--scenario", "random-affine", "--dim", "2", "--seed", "1"],
    ],
    ids=lambda a: "-".join(a[1::2]),
)
def test_summary_numbers_equal_the_last_csv_row_as_text(args, tmp_path, capsys):
    csv, summary = tmp_path / "t.csv", tmp_path / "s.json"
    assert cli_main(args + ["--out-trace", str(csv), "--out-summary", str(summary)]) == 0
    header, *rows = csv.read_text().splitlines()
    last = dict(zip(header.split(","), rows[-1].split(",")))
    d = sum(1 for column in last if column.startswith("g"))
    # number texts exactly as written, so "2" and "2.0" differ
    doc = json.loads(summary.read_text(), parse_float=str, parse_int=str)
    assert doc["v_estimate"] == [last[f"v{i}"] for i in range(d)]
    assert doc["final_step_norm"] == last["step_norm"]
    assert doc["shadow_limit"] == [last[f"s{i}"] for i in range(d)]


@pytest.mark.parametrize(
    "name, kwargs, gram_calls",
    [
        ("random-affine", {"dim": 5, "seed": 3}, 0),  # stationary at n = 170
        ("affine-consistent", {"seed": 0}, 1),  # never stationary
    ],
)
def test_window_diameter_evaluated_once_per_trace(name, kwargs, gram_calls, monkeypatch):
    inst = build_scenario(name, **kwargs)
    tr = iterate(inst.problem, inst.default_iters, inst.default_step_tol)
    window = trailing_quarter(len(tr))
    expected = diameter(tr.shadow[window])
    sweet = sweet_principle_check(tr.governing, tr.shadow, inst.solutions.primal, tol=1e-6)
    calls = []

    def counting_diameter(points):
        # rows that all equal the first take diameter's exact-zero return,
        # which forms no Gram matrix
        calls.append((len(points), int(not np.all(points == points[0]))))
        return diameter(points)

    monkeypatch.setattr(drsplit.splitting, "diameter", counting_diameter)
    checks = inst.run_checks(tr)
    assert calls == [(len(tr) - window.start, gram_calls)]
    got = tr.trailing_shadow_diameter
    assert np.float64(got).tobytes() == np.float64(expected).tobytes()
    assert np.float64(got).tobytes() == np.float64(sweet.cauchy).tobytes()
    assert checks["shadow_trailing_diameter"].worst_value == got
    assert checks["sequential_principle_evidence"].verdict is sweet.verdict


def test_trace_trimmed_when_run_stops_early(tmp_path):
    inst = build_scenario("affine-consistent")
    tr = _assert_matches_reference(inst.problem, 5000, 1e-12, tmp_path / "t.csv")
    assert tr.stop_reason is StopReason.STEP_CONVERGED
    assert 1 < len(tr) < 5000
    assert tr.step_norms[-1] < 1e-12 <= tr.step_norms[-2]
    for name in ("governing", "shadow", "b_shadow"):
        assert getattr(tr, name).base is None  # a copy, not a view of the full buffer


@pytest.mark.parametrize("dim, seed", [(5, 3), (50, 1)])
def test_step_norms_equal_per_row_norm_bitwise(dim, seed):
    # a row-wise np.linalg.norm(steps, axis=1) differs from the per-row norm in
    # the last bit on some rows of these traces (12 and 62 of 3,000)
    inst = build_scenario("random-affine", dim=dim, seed=seed)
    tr = iterate(inst.problem, max_iters=3000, step_tol=0.0)
    per_row = np.array([np.linalg.norm(step) for step in tr.steps])
    assert tr.step_norms.tobytes() == per_row.tobytes()


def test_trace_too_large_for_memory_is_a_value_error(capsys):
    # 10**15 rows is beyond any user address space: the allocation is refused
    # without touching memory; numpy rejects 10**19 rows by shape alone
    inst = build_scenario("points-1d")
    with pytest.raises(ValueError, match=r"max_iters=1000000000000000 .*dimension 1"):
        iterate(inst.problem, max_iters=10**15, step_tol=1e-12)
    with pytest.raises(ValueError, match=r"max_iters=10000000000000000000 .*dimension 1"):
        iterate(inst.problem, max_iters=10**19, step_tol=1e-12)
    assert cli_main(["--scenario", "points-1d", "--iters", str(10**15)]) == 2
    assert "max_iters=1000000000000000" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the final facts come from the last record


def _last_record_traces():
    full = iterate(build_scenario("random-affine", dim=5, seed=1).problem, 3000, 0.0)
    trimmed = iterate(build_scenario("affine-consistent").problem, 5000, 1e-12)
    filled = iterate(build_scenario("random-affine", dim=5, seed=3).problem, 10_000, 0.0)
    far = build_scenario("random-affine", dim=2, x0=(1e200, -1e200)).problem
    return {
        "full": full,
        "companion": full.companion,
        "step_converged": trimmed,
        "stationary_filled": filled,
        "far_out": iterate(far, 200, 0.0),
    }


def test_final_facts_equal_the_last_rows_bitwise():
    traces = _last_record_traces()
    assert traces["step_converged"].stop_reason is StopReason.STEP_CONVERGED
    assert traces["stationary_filled"].stationary_at == 170
    for name, tr in traces.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the overflowing norm stays silent
            v, norm = tr.v_estimate, tr.final_step_norm
        assert v.tobytes() == tr.steps[-1].tobytes(), name
        assert type(norm) is float
        assert np.float64(norm).tobytes() == tr.step_norms[-1].tobytes(), name
    assert math.isinf(traces["far_out"].final_step_norm)


def test_step_converged_check_reads_one_record():
    # deriving the whole (n, d) steps array to read its last row takes 7.6 MiB here
    inst = build_scenario("random-affine", dim=50, seed=1)
    tr = iterate(inst.problem, 10_000, 0.0)
    check = dict(inst.checks)["step_converged"]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = check(tr)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert result.worst_value == tr.final_step_norm
    assert peak < 2**20
