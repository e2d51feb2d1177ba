"""Benchmark for drsplit: one workload, one seed, one single-threaded process.

    python3 bench/run.py --workload consistent-checks --seed 1 --seconds 30 --trace 0

Runs the workload as a closed loop with one client for about ``--seconds``
seconds (never fewer than MIN_OPS operations, and always whole cycles),
verifies every operation's output, prints every metric by name with its unit
and, as the last line of standard output, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, timed with tracing off.
``--trace 1`` runs half the time untraced, then the same operations with
spans installed, and reports the per-layer metrics. Full results (machine
record, per-kind latencies, per-config counters, every per-layer metric) are
written to ``.bench_results/`` in the checkout, spans to a JSONL file beside
them. See bench/README.md for the metrics.
"""

from __future__ import annotations

import os
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__":
    # one single-threaded process: cap BLAS and OpenMP threads before numpy loads
    for _var in THREAD_VARS:
        os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402
from tracer import Tracer  # noqa: E402
from verify import RepeatLedger, problems  # noqa: E402
from workloads import ROOT, WORKLOADS, load_drsplit  # noqa: E402

MIN_OPS = 40  # op_p75_ref then has at least 10 samples above it
SETUP_PROBES = 7
REFERENCE_NOMINAL_S = 0.001  # setup_s is scaled to a host where the reference loop takes 1 ms
RESULTS_DIR = ROOT / ".bench_results"
WORK_DIR = ROOT / ".bench_work"

# Operation times are in reference-loop units (see Timing); the raw wall-time
# figures op_p50_ms, op_p75_ms and ops_per_s are printed beside them.
END_TO_END = {
    "op_p50_ref": "ref",
    "op_p75_ref": "ref",
    "ops_per_kref": "1/kref",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# Per-layer metrics for the result line: every count, size and ratio, and the
# times of the layers all three workloads use. Times of layers some workload
# never calls read 0 there; they are printed above the result line and kept
# in the results file.
PER_LAYER = {
    "splitting.records": "count",
    "splitting.stationary_tail_share": "ratio",
    "splitting.trace_bytes_per_record": "B",
    "solutions.diameter_points": "count",
    "solutions.find_fixed_point_records": "count",
    "scenarios.checks_to_iterate_ratio": "ratio",
    "operators.resolvent_calls": "count",
    "operators.resolvent_us.normal_cone-affine": "us",
    "space.project_calls": "count",
    "space.project_us": "us",
    "space.as_point_calls": "count",
    "identities.calls": "count",
    "runner.csv_bytes": "B",
    "space.self_ms": "ms",
    "operators.self_ms": "ms",
    "splitting.self_ms": "ms",
    "scenarios.self_ms": "ms",
    "runner.self_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(min_ops=MIN_OPS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# machine record


def _openblas_threads():
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    if not libs:
        return None
    lib = ctypes.CDLL(libs[0])
    for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def machine_record() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '')})"
    except (TypeError, KeyError):
        blas_build = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_build,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _openblas_threads(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# the closed loop


class Client:
    """Runs operations one after another and verifies each one's output."""

    def __init__(self, workload):
        self.workload = workload
        self.outputs = RepeatLedger()
        self.counters: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def op(self, i: int, tracer=None) -> float:
        w = self.workload
        spec = w.spec(i)
        if hasattr(w, "prepare"):
            w.prepare(spec)
        if tracer is not None:
            tracer.begin_op(i)
        start = perf_counter()
        try:
            raw = w.execute(spec)
        except Exception as exc:  # a raising operation is a failed one; keep going
            raw, found = None, [f"raised {type(exc).__name__}: {exc}"]
        else:
            found = []
        seconds = perf_counter() - start
        if tracer is not None:
            counts = tracer.end_op()
            first = self.counters.setdefault(spec.key, counts)
            if first != counts:
                found.append(f"counters of repeated config {spec.key} changed: {first} -> {counts}")
        if raw is not None:
            try:
                out = w.outcome(spec, raw)
            except Exception as exc:  # unreadable output is a failed operation
                found.append(f"output unreadable: {type(exc).__name__}: {exc}")
            else:
                found += problems(spec, out) + self.outputs.problems(spec.key, out.digest)
        self.attempted += 1
        if found:
            self.failed += 1
            self.notes.append(f"op {i} ({spec.key}): {'; '.join(found)}")
        return seconds

    def loop(self, seconds=0.0, min_ops=1, indices=None, tracer=None, on_cycle=None) -> "Timing":
        """Run ``indices``, or operations 0, 1, ... until ``seconds`` have passed,
        at least ``min_ops`` ran and the last cycle is whole. The reference loop
        is timed before every operation and after the last one;
        ``on_cycle(elapsed)`` runs between cycles, outside any timing."""
        cycle = self.workload.cycle
        t = Timing()
        start = perf_counter()
        i = 0
        while True:
            if indices is not None and len(t.indices) == len(indices):
                break
            index = i if indices is None else indices[len(t.indices)]
            t.refs.append(reference_time())
            t.latencies.append(self.op(index, tracer))
            t.indices.append(index)
            i += 1
            if indices is None and i % cycle == 0:
                elapsed = perf_counter() - start
                if i >= min_ops and elapsed >= seconds:
                    break
                if on_cycle is not None:
                    on_cycle(elapsed)
        t.refs.append(reference_time())
        t.wall = perf_counter() - start
        return t


def reference_loop() -> float:
    """Fixed interpreter and small-array work, the mix one iteration is made of."""
    x = np.arange(8.0)
    acc = 0.0
    for _ in range(400):
        y = x * 0.5 + 1.0
        acc += float(np.dot(y, x))
    return acc


def reference_time() -> float:
    """Median of three timings of the reference loop, in seconds."""
    times = []
    for _ in range(3):
        start = perf_counter()
        reference_loop()
        times.append(perf_counter() - start)
    return statistics.median(times)


@dataclass
class Timing:
    """Wall time of each operation and of the reference loop around it.

    The host's CPU speed swings by up to 2x within seconds, so an
    operation's time is also reported in reference-loop units: its wall time
    over the mean of the reference timings just before and just after it.
    """

    indices: list[int] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    refs: list[float] = field(default_factory=list)
    wall: float = 0.0

    @property
    def ratios(self) -> list[float]:
        return [t / (0.5 * (self.refs[k] + self.refs[k + 1])) for k, t in enumerate(self.latencies)]


def p75(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def by_kind(workload, t: Timing) -> dict:
    groups = defaultdict(list)
    for i, ms, ratio in zip(t.indices, t.latencies, t.ratios):
        groups[workload.spec(i).kind].append((1000.0 * ms, ratio))
    return {
        kind: {
            "n": len(v),
            "median_ms": statistics.median(ms for ms, _ in v),
            "median_ref": statistics.median(r for _, r in v),
        }
        for kind, v in sorted(groups.items())
    }


class SetupProbes:
    """Fresh processes that start the interpreter, import drsplit and generate
    this run's inputs, then exit. Probes are spread over the timed phase,
    between cycles, so they sample the host at different moments.

    Each probe's wall time is also scaled to a host on which the reference
    loop takes REFERENCE_NOMINAL_S, using the reference timings just before
    and after it: set-up time shifts with the host's speed as much as
    operation time does.
    """

    def __init__(self, args):
        self.cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
                    "--workload", args.workload, "--seed", str(args.seed)]
        self.seconds = args.seconds
        self.wall: list[float] = []
        self.scaled: list[float] = []

    def probe(self) -> None:
        ref_before = reference_time()
        start = perf_counter()
        proc = subprocess.run(self.cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
        wall = perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.decode(errors='replace')[-500:]}")
        self.wall.append(wall)
        self.scaled.append(wall * REFERENCE_NOMINAL_S / (0.5 * (ref_before + reference_time())))

    def on_cycle(self, elapsed: float) -> None:
        if len(self.wall) < SETUP_PROBES * elapsed / max(self.seconds, 1e-9):
            self.probe()

    def finish(self) -> None:
        while len(self.wall) < SETUP_PROBES:
            self.probe()


# ---------------------------------------------------------------------------


def run_untraced(args, client) -> tuple[dict, dict]:
    """End-to-end metrics, plus raw wall-time figures printed beside them."""
    client.op(0)  # warm-up: verified and counted, not timed
    probes = SetupProbes(args)
    t = client.loop(args.seconds, args.min_ops, on_cycle=probes.on_cycle)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probes.finish()
    n, ratios = len(t.latencies), t.ratios
    metrics = {
        "op_p50_ref": (statistics.median(ratios), "ref"),
        "op_p75_ref": (p75(ratios), "ref"),
        "ops_per_kref": (1000.0 * n / sum(ratios), "1/kref"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (statistics.median(probes.scaled), "s"),
        "setup_wall_s": (statistics.median(probes.wall), "s"),
        "op_p50_ms": (1000.0 * statistics.median(t.latencies), "ms"),
        "op_p75_ms": (1000.0 * p75(t.latencies), "ms"),
        "ops_per_s": (n / sum(t.latencies), "1/s"),
        "reference_ms": (1000.0 * statistics.median(t.refs), "ms"),
    }
    detail = {
        "timed_ops": n,
        "timed_seconds": t.wall,
        "by_kind": by_kind(client.workload, t),
        "setup_wall_samples_s": probes.wall,
        "latencies_ms": [1000.0 * x for x in t.latencies],
        "reference_ms": [1000.0 * x for x in t.refs],
    }
    return metrics, detail


def run_traced(args, client, ds, spans_path) -> tuple[dict, dict]:
    """Per-layer metrics: half the time untraced, then the same operations traced."""
    client.op(0)  # warm-up: verified and counted, not timed
    untraced = client.loop(args.seconds / 2.0, client.workload.cycle)
    tracer = Tracer(ds)
    tracer.install()
    try:
        traced = client.loop(indices=untraced.indices, tracer=tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(statistics.median(untraced.ratios), statistics.median(traced.ratios))
    tracer.write_spans(spans_path)
    detail = {
        "traced_ops": len(traced.indices),
        "untraced_op_p50_ms": 1000.0 * statistics.median(untraced.latencies),
        "traced_op_p50_ms": 1000.0 * statistics.median(traced.latencies),
        "counters_by_config": client.counters,
        "spans_file": os.path.relpath(spans_path, ROOT),
    }
    return metrics, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        ds = load_drsplit()
    except ImportError as exc:
        print(f"error: cannot import drsplit from this checkout: {exc}", file=sys.stderr)
        return 2
    work_dir = WORK_DIR / str(os.getpid())
    workload = WORKLOADS[args.workload](ds, args.seed, work_dir)
    if args.setup_probe:
        return 0

    work_dir.mkdir(parents=True, exist_ok=True)
    RESULTS_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    client = Client(workload)
    try:
        if args.trace:
            metrics, detail = run_traced(args, client, ds, RESULTS_DIR / f"{stem}-spans.jsonl")
            reported = PER_LAYER
        else:
            metrics, detail = run_untraced(args, client)
            reported = END_TO_END
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    error_rate = client.failed / client.attempted

    machine = machine_record()
    print("machine " + " ".join(f"{k}={v}" for k, v in machine.items() if k != "thread_env"))
    print(
        f"workload {args.workload} seed {args.seed} trace {args.trace}: "
        f"{client.attempted} ops attempted, {client.failed} failed"
    )
    if not args.trace:
        print(f"  {detail['timed_ops']} ops timed over {detail['timed_seconds']:.1f} s")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"metric {name} {value!r} {unit}")
    print(f"metric error_rate {error_rate!r} ratio")
    for note in client.notes[:20]:
        print(f"FAILED {note}", file=sys.stderr)

    (RESULTS_DIR / f"{stem}.json").write_text(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "machine": machine,
                "attempted": client.attempted,
                "failed": client.failed,
                "error_rate": error_rate,
                "failures": client.notes,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
                **detail,
            },
            indent=1,
        )
    )
    result = {
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {k: {"value": metrics[k][0], "unit": u} for k, u in reported.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
