"""The benchmark's workloads: inputs made from a seed, and one operation each.

Every workload is a closed loop with one client and one thread. Operation
``i`` is ``workload.spec(i)``; ``workload.execute(spec)`` is the timed call
into drsplit's public API and ``workload.outcome(spec, raw)`` turns its
result into an :class:`verify.Outcome` outside the timed region. Inputs
depend only on the workload seed, and drsplit receives only the generated
configs.

Operations are grouped into cycles of ``workload.cycle`` operations with a
fixed mix of kinds; a run stops only at a cycle boundary, so every run holds
the same mix.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from verify import Outcome, outcome_from_files, outcome_from_summary, outcome_from_sweep

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

CONSISTENT_ITERS = 10_000
CONSISTENT_POOL_CYCLES = 10
INFEASIBLE_ITERS = 10_000
INFEASIBLE_POOL_CYCLES = 2
IDENTITY_SAMPLES = 20


def load_drsplit():
    """Import drsplit from this checkout's ``src/``, never from an installed copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import drsplit
    import drsplit.cli
    import drsplit.runner

    loaded = Path(drsplit.__file__).resolve()
    if SRC.resolve() not in loaded.parents:
        raise ImportError(f"drsplit was imported from {loaded}, not from {SRC}")
    return drsplit


@dataclass(frozen=True)
class OpSpec:
    """One operation's input. Equal keys mean equal configs and equal outputs."""

    key: str
    kind: str
    scenario: str
    dim: Optional[int] = None
    seed: int = 0
    x0: Optional[tuple[float, ...]] = None
    iters: Optional[int] = None
    samples: Optional[int] = None


class ConsistentChecks:
    """``runner.run(make_config(...))`` on consistent problems, no output files.

    Each cycle runs random-affine at d = 2, 5, 50 (d = 50 twice) and
    random-1d with the default 10^4 iterations, so the scenario checks
    dominate. Running the slowest kind twice keeps the 50th and 75th
    percentiles inside a cluster of similar operations instead of on the gap
    between two. The first cycle pins orbits known to become bitwise
    stationary early (random-affine d=5 seed 3, random-1d seed 2) and one
    that never does (d=50 seed 1); all other seeds are drawn from the
    workload seed. Ten cycles of seeds keep one instance from setting a
    percentile; the warm-up repeats operation 0 and longer runs wrap around
    the pool, so repeated configs are checked for identical output.
    """

    name = "consistent-checks"
    kinds = (
        ("random-affine", 2),
        ("random-affine", 5),
        ("random-affine", 50),
        ("random-1d", None),
        ("random-affine", 50),
    )
    cycle = len(kinds)

    def __init__(self, drsplit, seed: int, work_dir: Path):
        self.ds = drsplit
        rng = np.random.default_rng([seed, 1])
        anchors = {("random-affine", 5): 3, ("random-affine", 50): 1, ("random-1d", None): 2}
        self.pool: list[OpSpec] = []
        for c in range(CONSISTENT_POOL_CYCLES):
            for scenario, dim in self.kinds:
                sub_seed = int(rng.integers(0, 1_000_000))
                if c == 0:
                    sub_seed = anchors.pop((scenario, dim), sub_seed)
                kind = f"{scenario}/d{dim or 1}"
                self.pool.append(
                    OpSpec(
                        key=f"{kind}/seed{sub_seed}",
                        kind=kind,
                        scenario=scenario,
                        dim=dim,
                        seed=sub_seed,
                        iters=CONSISTENT_ITERS,
                    )
                )

    def spec(self, i: int) -> OpSpec:
        return self.pool[i % len(self.pool)]

    def execute(self, spec: OpSpec):
        runner = self.ds.runner
        summary, _trace = runner.run(
            runner.make_config(scenario=spec.scenario, dim=spec.dim, seed=spec.seed)
        )
        return summary

    def outcome(self, spec: OpSpec, raw) -> Outcome:
        return outcome_from_summary(raw)


class InfeasiblePersist:
    """``cli.main([...])`` on zero-free problems, writing the trace CSV and summary JSON.

    Each cycle runs disjoint-balls, parallel-lines, shifted-subspace and
    points-1d for 10^4 iterations (2x to 156x their defaults) from a start
    drawn from the workload seed. The iterate drifts by v != 0 every step, so
    no record is ever stationary. A pool of two cycles repeats, so repeated
    configs are checked for byte-identical files.
    """

    name = "infeasible-persist"
    scenarios = ("disjoint-balls", "parallel-lines", "shifted-subspace", "points-1d")
    cycle = len(scenarios)

    def __init__(self, drsplit, seed: int, work_dir: Path):
        self.ds = drsplit
        self.trace_path = work_dir / "trace.csv"
        self.summary_path = work_dir / "summary.json"
        rng = np.random.default_rng([seed, 2])
        self.pool: list[OpSpec] = []
        for _ in range(INFEASIBLE_POOL_CYCLES):
            for scenario in self.scenarios:
                if scenario == "points-1d":
                    # quarter-integer starts keep x0 + 2n exact, as the
                    # scenario's governing_arithmetic check requires
                    x0 = (int(rng.integers(-16, 17)) / 4.0,)
                else:
                    x0 = tuple(round(float(c), 6) for c in rng.uniform(-3.0, 3.0, 2))
                self.pool.append(
                    OpSpec(
                        key=f"{scenario}/x0={x0}",
                        kind=scenario,
                        scenario=scenario,
                        x0=x0,
                        iters=INFEASIBLE_ITERS,
                    )
                )

    def spec(self, i: int) -> OpSpec:
        return self.pool[i % len(self.pool)]

    def argv(self, spec: OpSpec) -> list[str]:
        return [
            "--scenario", spec.scenario,
            # the "=" form keeps a leading minus sign from reading as a flag
            "--x0=" + ",".join(repr(c) for c in spec.x0),
            "--iters", str(spec.iters),
            "--out-trace", str(self.trace_path),
            "--out-summary", str(self.summary_path),
        ]

    def prepare(self, spec: OpSpec) -> None:
        # a stale file must never pass for this operation's output
        for path in (self.trace_path, self.summary_path):
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)

    def execute(self, spec: OpSpec):
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                return self.ds.cli.main(self.argv(spec))
            except SystemExit as exc:  # argparse rejects bad arguments this way
                return exc.code if isinstance(exc.code, int) else 2

    def outcome(self, spec: OpSpec, raw) -> Outcome:
        csv_bytes = self.trace_path.read_bytes() if self.trace_path.exists() else b""
        json_bytes = self.summary_path.read_bytes() if self.summary_path.exists() else b""
        return outcome_from_files(raw, csv_bytes, json_bytes)


class IdentitySweep:
    """``runner.check_identities(seed=s, samples=20)`` with a fresh seed per operation.

    No iteration and no trace: the time goes to single-point resolvent calls
    on independent points and to residual arithmetic.
    """

    name = "identity-sweep"
    cycle = 1

    def __init__(self, drsplit, seed: int, work_dir: Path):
        self.ds = drsplit
        self.samples = IDENTITY_SAMPLES
        self.seeds = np.random.default_rng([seed, 3]).integers(0, 2**31, size=4096)

    def spec(self, i: int) -> OpSpec:
        s = int(self.seeds[i % len(self.seeds)])
        return OpSpec(
            key=f"sweep/seed{s}/k{self.samples}",
            kind="identity-sweep",
            scenario="identity-sweep",
            seed=s,
            samples=self.samples,
        )

    def execute(self, spec: OpSpec):
        return self.ds.runner.check_identities(seed=spec.seed, samples=spec.samples)

    def outcome(self, spec: OpSpec, raw) -> Outcome:
        return outcome_from_sweep(raw)


WORKLOADS = {w.name: w for w in (ConsistentChecks, InfeasiblePersist, IdentitySweep)}
