"""Tests of the benchmark itself: a tiny run of each workload, traced and
untraced, the verifier's failure rules, and the command-line contract.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import pytest

import run as bench
from verify import outcome_from_files, outcome_from_sweep, problems
from workloads import ROOT, WORKLOADS, InfeasiblePersist, OpSpec, load_drsplit

BENCH_DIR = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def ds():
    return load_drsplit()


def tiny_args(name: str, seed: int = 5) -> Namespace:
    """One cycle of operations, whatever the clock says."""
    return Namespace(workload=name, seed=seed, seconds=0.0, min_ops=WORKLOADS[name].cycle, trace=0)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_untraced(ds, tmp_path, name):
    client = bench.Client(WORKLOADS[name](ds, 5, tmp_path))
    metrics, detail = bench.run_untraced(tiny_args(name), client)
    assert client.failed == 0, client.notes
    assert client.attempted == 1 + WORKLOADS[name].cycle
    assert set(bench.END_TO_END) <= set(metrics)
    assert all(value > 0 for value, _unit in metrics.values())
    assert len(detail["setup_wall_samples_s"]) == bench.SETUP_PROBES
    assert detail["timed_ops"] == WORKLOADS[name].cycle


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_traced(ds, tmp_path, name):
    client = bench.Client(WORKLOADS[name](ds, 5, tmp_path))
    spans = tmp_path / "spans.jsonl"
    metrics, detail = bench.run_traced(tiny_args(name), client, ds, spans)
    assert client.failed == 0, client.notes
    assert set(bench.PER_LAYER) <= set(metrics)
    for layer in ("space", "operators", "splitting", "solutions", "scenarios", "identities", "runner", "cli"):
        assert f"{layer}.self_ms" in metrics
    tail_share = metrics["splitting.stationary_tail_share"][0]
    if name == "consistent-checks":
        assert tail_share > 0  # the pinned orbits become bitwise stationary
        assert metrics["solutions.diameter_points"][0] > 0
    elif name == "infeasible-persist":
        assert tail_share == 0  # v != 0: the iterate moves every step
        assert metrics["runner.csv_bytes"][0] > 0
        assert metrics["cli.overhead_ms"][0] > 0
    else:
        assert metrics["splitting.records"][0] == 0
        assert metrics["identities.calls"][0] > 0
    lines = [json.loads(line) for line in spans.read_text().splitlines()]
    assert lines and {"id", "op", "name", "start_us", "end_us", "parent"} <= set(lines[0])
    assert all(s["start_us"] <= s["end_us"] for s in lines)
    # the wrappers are gone afterwards
    assert not hasattr(ds.splitting.iterate, "__wrapped__")


def test_counters_repeat_exactly_across_runs(ds, tmp_path):
    counters = []
    for run_dir in ("a", "b"):
        (tmp_path / run_dir).mkdir()
        client = bench.Client(InfeasiblePersist(ds, 11, tmp_path / run_dir))
        bench.run_traced(tiny_args("infeasible-persist", 11), client, ds, tmp_path / f"{run_dir}.jsonl")
        assert client.failed == 0, client.notes
        counters.append(client.counters)
    assert counters[0] == counters[1]
    assert all(c["records"] > 0 and c["csv_bytes"] > 0 for c in counters[0].values())


# ---------------------------------------------------------------------------
# the verifier counts each corruption as a failure


class Canned:
    """A workload whose operation replays stored CLI outputs, one per call."""

    cycle = 1

    def __init__(self, spec, outputs):
        self._spec = spec
        self.outputs = list(outputs)

    def spec(self, i):
        return self._spec

    def execute(self, spec):
        return 0

    def outcome(self, spec, raw):
        csv_bytes, json_bytes = self.outputs.pop(0)
        return outcome_from_files(raw, csv_bytes, json_bytes)


@pytest.fixture(scope="module")
def lines_output(ds, tmp_path_factory):
    w = InfeasiblePersist(ds, 3, tmp_path_factory.mktemp("lines"))
    spec = next(w.spec(i) for i in range(w.cycle) if w.spec(i).scenario == "parallel-lines")
    code = w.execute(spec)
    assert code == 0
    return spec, w.trace_path.read_bytes(), w.summary_path.read_bytes()


def _edit_summary(json_bytes: bytes, edit) -> bytes:
    data = json.loads(json_bytes)
    edit(data)
    return json.dumps(data).encode()


def _failures(spec, outputs) -> int:
    client = bench.Client(Canned(spec, outputs))
    for i in range(len(outputs)):
        client.op(i)
    return client.failed


def test_clean_output_passes(lines_output):
    spec, csv_bytes, json_bytes = lines_output
    assert problems(spec, outcome_from_files(0, csv_bytes, json_bytes)) == []
    assert _failures(spec, [(csv_bytes, json_bytes)] * 2) == 0


def test_flipped_verdict_fails(lines_output):
    spec, csv_bytes, json_bytes = lines_output
    flipped = _edit_summary(json_bytes, lambda d: d["checks"]["shadow_constant"].update(verdict=False))
    assert _failures(spec, [(csv_bytes, flipped)]) == 1


def test_missing_check_name_fails(lines_output):
    spec, csv_bytes, json_bytes = lines_output
    dropped = _edit_summary(json_bytes, lambda d: d["checks"].pop("shifted_governing_fejer"))
    assert _failures(spec, [(csv_bytes, dropped)]) == 1


def test_changed_csv_byte_on_repeat_fails(lines_output):
    spec, csv_bytes, json_bytes = lines_output
    i = csv_bytes.index(b"\n") + 1  # first digit of the first record's "n" column
    changed = csv_bytes[:i] + b"7" + csv_bytes[i + 1 :]
    assert _failures(spec, [(csv_bytes, json_bytes), (changed, json_bytes)]) == 1


def test_wrong_v_estimate_fails(lines_output):
    spec, csv_bytes, json_bytes = lines_output
    wrong = _edit_summary(json_bytes, lambda d: d.update(v_estimate=[0.0, 2.5]))
    assert _failures(spec, [(csv_bytes, wrong)]) == 1


def test_short_trace_fails(lines_output):
    spec, csv_bytes, json_bytes = lines_output
    short = _edit_summary(json_bytes, lambda d: d.update(iters=d["iters"] - 1))
    assert _failures(spec, [(csv_bytes, short)]) == 1


def test_missing_identity_fails(ds):
    sweep = ds.runner.check_identities(seed=1, samples=1)
    spec = OpSpec(key="sweep", kind="identity-sweep", scenario="identity-sweep", seed=1, samples=1)
    assert problems(spec, outcome_from_sweep(sweep)) == []
    sweep.worst.pop("eight_point")
    assert problems(spec, outcome_from_sweep(sweep))


# ---------------------------------------------------------------------------
# the command-line contract


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_last_line_is_the_result():
    cmd = [sys.executable, "bench/run.py", "--workload", "identity-sweep", "--seed", "3",
           "--seconds", "0", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == 1 + bench.MIN_OPS
    assert set(result["metrics"]) == set(bench.END_TO_END)
    assert "metric error_rate 0.0 ratio" in proc.stdout


def test_fails_without_the_source_tree(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, "bench/run.py", "--workload", "identity-sweep", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
