"""Output verification: the rules behind ``failed`` and ``error_rate``.

An operation fails when it raises or exits nonzero, when any of its checks
reports a false verdict (or the identity sweep does not pass), when its set
of check or identity names differs from the set drsplit produced when the
benchmark was written (so no change can gain speed by dropping a check), when
it misses one of the benchmark's own closed-form oracles, or when a config
that repeats within a run produces outputs whose sha256 differs from its
first occurrence.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Optional

# Check names each scenario registers, frozen when the benchmark was written.
_CONSISTENT = {
    "step_converged",
    "shadow_trailing_diameter",
    "pair_fejer_wrt_solution_pairs",
    "sequential_principle_evidence",
    "summability",
}
EXPECTED_CHECKS = {
    "random-affine": _CONSISTENT | {"gap_identity"},
    "random-1d": _CONSISTENT | {"decoupled_fejer"},
    "disjoint-balls": {"shadow_limit", "v_estimate", "shifted_governing_fejer"},
    "parallel-lines": {"v_estimate", "shadow_constant", "shifted_governing_fejer"},
    "shifted-subspace": {
        "v_estimate",
        "shadow_halving",
        "governing_norm_increasing",
        "dual_shadow_growth",
        "normal_problem_shadow_to_zero",
    },
    "points-1d": {"governing_arithmetic", "shadow_zero", "v_estimate", "shifted_governing_constant"},
}

# Identity names the sweep reports over the registered pair library.
EXPECTED_IDENTITIES = {
    "decomposition_1", "decomposition_2", "decomposition_3", "decomposition_4",
    "distance_drop", "eight_point", "gap_identity", "graph_roundtrip_a",
    "graph_roundtrip_b", "inverse_resolvent_sum", "linear_relation_step",
    "pair_distance_drop", "product_resolvent", "self_duality",
    "skew_1", "skew_2", "skew_3", "skew_4", "skew_energy",
    "skew_half_composition", "skew_orthogonality", "step_dual_sum",
    "step_shadow_gap", "three_point_1", "three_point_2", "three_point_3",
}
EXPECTED_SLACKS = {"resolvent_energy_slack"}


def closed_form(spec) -> tuple[list[float], float, Optional[list[float]], float]:
    """(v, tolerance, shadow limit or None, tolerance) known exactly for a scenario op.

    Consistent problems have v = 0. For the zero-free ones the theory gives
    the gap vectors and shadow limits outright; parallel-lines keeps the
    start's first coordinate, shifted-subspace halves its shadow to 0.
    """
    if spec.scenario == "disjoint-balls":
        return [-2.0, 0.0], 1e-5, [1.0, 0.0], 1e-6
    if spec.scenario == "parallel-lines":
        return [0.0, 2.0], 1e-9, [spec.x0[0], 1.0], 1e-9
    if spec.scenario == "shifted-subspace":
        return [0.0, 1.0], 1e-9, [0.0, 0.0], 1e-9
    if spec.scenario == "points-1d":
        return [-2.0], 1e-12, [0.0], 1e-12
    return [0.0] * (spec.dim or 1), 1e-9, None, 0.0  # random-affine, random-1d


@dataclass
class Outcome:
    """What one operation produced, reduced to what verification needs."""

    exit_code: int = 0
    error: Optional[str] = None
    checks: dict[str, bool] = field(default_factory=dict)
    iterations: Optional[int] = None
    v_estimate: Optional[list[float]] = None
    shadow_limit: Optional[list[float]] = None
    sweep_passed: Optional[bool] = None
    identity_names: set[str] = field(default_factory=set)
    slack_names: set[str] = field(default_factory=set)
    digest: str = ""


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(hashlib.sha256(part).digest())
    return h.hexdigest()


def outcome_from_summary(summary) -> Outcome:
    """From an in-memory ``RunSummary``; the digest covers every reported number."""
    checks = {name: bool(c.verdict) for name, c in summary.checks.items()}
    text = repr(
        (
            summary.scenario,
            summary.iterations,
            [float(c) for c in summary.v_estimate],
            [float(c) for c in summary.shadow_limit],
            float(summary.final_step_norm),
            [(n, bool(c.verdict), float(c.worst_value), c.witness_index) for n, c in summary.checks.items()],
        )
    )
    return Outcome(
        checks=checks,
        iterations=int(summary.iterations),
        v_estimate=[float(c) for c in summary.v_estimate],
        shadow_limit=[float(c) for c in summary.shadow_limit],
        digest=_digest(text.encode()),
    )


def outcome_from_files(exit_code: int, csv_bytes: bytes, json_bytes: bytes) -> Outcome:
    """From the CLI's exit code and the bytes of the trace CSV and summary JSON it wrote."""
    out = Outcome(exit_code=int(exit_code), digest=_digest(csv_bytes, json_bytes))
    if not csv_bytes or not json_bytes:
        out.error = "trace CSV or summary JSON missing"
        return out
    try:
        data = json.loads(json_bytes)
        out.checks = {name: c["verdict"] is True for name, c in data["checks"].items()}
        out.iterations = int(data["iters"])
        out.v_estimate = [float("nan") if c is None else float(c) for c in data["v_estimate"]]
        out.shadow_limit = [float("nan") if c is None else float(c) for c in data["shadow_limit"]]
        rows = csv_bytes.count(b"\n") - 1  # header line plus one line per record
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        out.error = f"unreadable summary JSON: {exc!r}"
        return out
    if rows != out.iterations:
        out.error = f"trace CSV has {rows} records, summary says {out.iterations}"
    return out


def outcome_from_sweep(sweep) -> Outcome:
    """From an ``IdentitySweep``; the digest covers every worst-case record."""
    records = sorted(
        (name, float(r.value), r.pair, int(r.sample))
        for table in (sweep.worst, sweep.slack_worst)
        for name, r in table.items()
    )
    return Outcome(
        sweep_passed=bool(sweep.passed),
        identity_names=set(sweep.worst),
        slack_names=set(sweep.slack_worst),
        digest=_digest(repr((sweep.seed, sweep.samples, records)).encode()),
    )


def _far(actual, expected, tol) -> bool:
    if actual is None or len(actual) != len(expected):
        return True
    err = math.sqrt(sum((a - e) ** 2 for a, e in zip(actual, expected)))
    return not err <= tol  # NaN counts as far


def problems(spec, out: Outcome) -> list[str]:
    """Every rule ``out`` breaks for the operation described by ``spec``."""
    if out.error:
        return [out.error]
    found = []
    if out.exit_code != 0:
        found.append(f"exit code {out.exit_code}")
    if spec.scenario == "identity-sweep":
        if not out.sweep_passed:
            found.append("identity sweep did not pass")
        if out.identity_names != EXPECTED_IDENTITIES or out.slack_names != EXPECTED_SLACKS:
            found.append("identity names differ from the expected set")
        return found
    failed = sorted(name for name, ok in out.checks.items() if not ok)
    if failed:
        found.append(f"checks failed: {', '.join(failed)}")
    if set(out.checks) != EXPECTED_CHECKS[spec.scenario]:
        found.append(f"check names {sorted(out.checks)} differ from the expected set")
    if spec.iters is not None and out.iterations != spec.iters:
        found.append(f"{out.iterations} iterations recorded, {spec.iters} requested")
    v, tol_v, shadow, tol_shadow = closed_form(spec)
    if _far(out.v_estimate, v, tol_v):
        found.append(f"v_estimate {out.v_estimate} is not {v}")
    if shadow is not None and _far(out.shadow_limit, shadow, tol_shadow):
        found.append(f"shadow limit {out.shadow_limit} is not {shadow}")
    return found


class RepeatLedger:
    """Remembers the first digest of every config key seen in a run."""

    def __init__(self):
        self.first: dict[str, str] = {}

    def problems(self, key: str, digest: str) -> list[str]:
        first = self.first.setdefault(key, digest)
        return [] if first == digest else [f"output of repeated config {key} changed"]
