"""The columnar trace against the per-record loop it replaced.

``_reference_iterate`` and ``_reference_csv`` are the record-by-record
iteration and CSV writer that ``iterate`` and ``write_trace_csv`` used before
the trace became ``(n, d)`` arrays; every array, the displacement estimate,
the stop reason and the CSV bytes must match them bitwise.
"""

import numpy as np
import pytest

from drsplit import (
    DRProblem,
    StopReason,
    build_scenario,
    iterate,
    list_scenarios,
    operator_pair_library,
)
from drsplit.cli import main as cli_main
from drsplit.runner import format_float, write_trace_csv

FIELDS = ("governing", "shadow", "dual_shadow", "b_shadow", "b_dual_shadow", "steps")


def _reference_iterate(problem, max_iters, step_tol):
    A, B = problem.A, problem.B
    x = problem.x0.copy()
    records = []
    stop = StopReason.MAX_ITERS
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
            x = x_next
    return records, stop


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
            cells.extend(format_float(c) for c in vec)
        cells.append(format_float(np.linalg.norm(r["steps"])))
        cells.extend(format_float(c) for c in r["steps"])
        lines.append(",".join(cells))
    return ("\n".join(lines) + "\n").encode()


def _assert_matches_reference(problem, max_iters, step_tol, path):
    """Compare one run with the reference loop; returns the trace."""
    tr = iterate(problem, max_iters=max_iters, step_tol=step_tol)
    records, stop = _reference_iterate(problem, max_iters, step_tol)
    assert len(tr) == len(records)
    assert tr.stop_reason is stop
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
        iterate(inst.problem, max_iters=10**15)
    with pytest.raises(ValueError, match=r"max_iters=10000000000000000000 .*dimension 1"):
        iterate(inst.problem, max_iters=10**19)
    assert cli_main(["--scenario", "points-1d", "--iters", str(10**15)]) == 2
    assert "max_iters=1000000000000000" in capsys.readouterr().err
