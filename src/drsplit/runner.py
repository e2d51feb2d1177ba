"""Experiment runner: configuration, persistence, and the identity sweep.

Trace CSV and summary JSON are written with 17 significant digits and fixed
key/column order, so identical (config, seed) inputs produce byte-identical
files. Wall time is kept on the in-memory summary only; the persisted JSON
carries ``null`` there to preserve reproducibility of the artifact.
"""

from __future__ import annotations

import inspect
import json
import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError
from .identities import (
    affine_gap_residuals,
    dr_decomposition_residuals,
    eight_point_residual,
    fixed_point_step_residuals,
    linear_relation_residual,
    skew_residuals,
    three_point_residuals,
    vector_residual,
)
from .operators import (
    MonotoneOperator,
    dual_flip,
    inner_shift,
    inverse,
    normal_cone,
    outer_shift,
    piecewise_linear_1d,
    product,
    projector_operator,
    rotator,
    scaled_id_plus_normal_cone,
)
from .scenarios import (
    CheckResult,
    build_scenario,
    get_scenario,
    random_affine_pair,
    random_pw1d_pair,
)
from .space import AffineSubspace, Ball, Box, NonnegativeOrthant, Singleton
from .splitting import DRTrace, dr_apply, iterate

# ---------------------------------------------------------------------------
# configuration


@dataclass(eq=False)
class ScenarioConfig:
    scenario: str
    dim: Optional[int] = None
    x0: Optional[tuple[float, ...]] = None
    max_iters: Optional[int] = None
    step_tol: Optional[float] = None
    seed: int = 0
    out_trace: Optional[str] = None
    out_summary: Optional[str] = None
    params: dict = field(default_factory=dict)


def parse_config_file(path: str) -> dict[str, str]:
    """Flat ``key = value`` text file; '#' starts a comment."""
    values: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, value = line.split("=", 1)
                values[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


def _parse_x0(text: str) -> tuple[float, ...]:
    parts = text.split(",")
    if any(not part.strip() for part in parts):
        raise ConfigError(f"invalid x0 {text!r}: empty coordinate")
    try:
        return tuple(float(part) for part in parts)
    except ValueError as exc:
        raise ConfigError(f"invalid x0 {text!r}: {exc}") from exc


def make_config(file_values: dict[str, str] | None = None, **overrides) -> ScenarioConfig:
    """Merge config-file values with overrides; overrides win."""
    merged: dict[str, object] = dict(file_values or {})
    for key, value in overrides.items():
        if value is not None:
            merged[key] = value
    scenario = merged.pop("scenario", None)
    if not scenario:
        raise ConfigError("no scenario given")
    cfg = ScenarioConfig(scenario=str(scenario))
    try:
        if "dim" in merged:
            cfg.dim = int(merged.pop("dim"))
        if "x0" in merged:
            raw = merged.pop("x0")
            cfg.x0 = _parse_x0(raw) if isinstance(raw, str) else tuple(float(v) for v in raw)
        if "iters" in merged:
            cfg.max_iters = int(merged.pop("iters"))
        if "tol" in merged:
            cfg.step_tol = float(merged.pop("tol"))
        if "seed" in merged:
            cfg.seed = int(merged.pop("seed"))
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid configuration value: {exc}") from exc
    if cfg.step_tol is not None and not (math.isfinite(cfg.step_tol) and cfg.step_tol >= 0):
        raise ConfigError(f"tol must be finite and >= 0, got {cfg.step_tol}")
    cfg.out_trace = merged.pop("out_trace", None)
    cfg.out_summary = merged.pop("out_summary", None)
    accepted = inspect.signature(get_scenario(cfg.scenario).build).parameters
    for key, value in merged.items():
        if key not in accepted:
            raise ConfigError(f"unknown parameter {key!r} for scenario {cfg.scenario!r}")
        try:
            cfg.params[key] = float(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid parameter {key}={value!r}") from exc
    return cfg


# ---------------------------------------------------------------------------
# persistence

# the one number format of both artifacts: 17 significant digits round-trip a float
FLOAT_FORMAT = "%.17g"

# numbers of the trace table formatted and written at a time, so the writer
# holds the text of one block, not of the whole trace
CSV_BLOCK = 16384


def write_trace_csv(trace: DRTrace, path: str) -> None:
    """Columns: n, governing, shadow, dual shadow, second shadow, step norm,
    running displacement estimate (the current step vector).

    A block whose bit patterns are mostly distinct is formatted row by row.
    In any other block each distinct pattern is formatted once; bits, not
    values, so that -0.0 and 0.0 keep their own texts.
    """
    d = trace.problem.dim
    header = (
        ["n"]
        + [f"g{i}" for i in range(d)]
        + [f"s{i}" for i in range(d)]
        + [f"ds{i}" for i in range(d)]
        + [f"bs{i}" for i in range(d)]
        + ["step_norm"]
        + [f"v{i}" for i in range(d)]
    )
    table = np.hstack(
        [
            trace.governing,
            trace.shadow,
            trace.dual_shadow,
            trace.b_shadow,
            trace.step_norms[:, None],
            trace.steps,
        ]
    )
    rows = max(1, CSV_BLOCK // table.shape[1])
    row_format = "%d," + ",".join([FLOAT_FORMAT] * table.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for first in range(0, len(table), rows):
            block = table[first : first + rows]
            bits, inverse = np.unique(block.view(np.uint64), return_inverse=True)
            if 2 * len(bits) > block.size:
                # mostly distinct: one format call per row costs less than a text per cell
                lines = (row_format % (n, *row) for n, row in enumerate(block.tolist(), first))
            else:
                texts = np.array([FLOAT_FORMAT % x for x in bits.view(float).tolist()], dtype=object)
                # the inverse's shape differs between numpy 2.0.x releases
                cells = texts[inverse.reshape(block.shape)].tolist()
                lines = (f"{n},{','.join(row)}\n" for n, row in enumerate(cells, first))
            fh.write("".join(lines))


def _json_number(x: float) -> str:
    return FLOAT_FORMAT % x if math.isfinite(x) else "null"


def _json_vector(v) -> str:
    return "[" + ", ".join(_json_number(float(c)) for c in v) + "]"


@dataclass(eq=False)
class RunSummary:
    scenario: str
    iterations: int
    v_estimate: np.ndarray
    final_step_norm: float
    shadow_limit: np.ndarray
    checks: dict[str, CheckResult]
    wall_ms: float

    @property
    def all_passed(self) -> bool:
        return all(c.verdict for c in self.checks.values())

    def to_json_text(self) -> str:
        check_parts = []
        for name, c in self.checks.items():
            witness = "null" if c.witness_index is None else str(int(c.witness_index))
            check_parts.append(
                f'{json.dumps(name)}: {{"verdict": {str(bool(c.verdict)).lower()}, '
                f'"worst_value": {_json_number(c.worst_value)}, '
                f'"witness_index": {witness}}}'
            )
        return (
            "{\n"
            f'  "scenario": {json.dumps(self.scenario)},\n'
            f'  "iters": {self.iterations},\n'
            f'  "v_estimate": {_json_vector(self.v_estimate)},\n'
            f'  "final_step_norm": {_json_number(self.final_step_norm)},\n'
            f'  "shadow_limit": {_json_vector(self.shadow_limit)},\n'
            '  "checks": {' + ", ".join(check_parts) + "},\n"
            '  "wall_ms": null\n'
            "}\n"
        )


def write_summary_json(summary: RunSummary, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(summary.to_json_text())


# ---------------------------------------------------------------------------
# running scenarios


def run(config: ScenarioConfig) -> tuple[RunSummary, DRTrace]:
    """Build the scenario, iterate, evaluate its checks, persist outputs."""
    t0 = time.perf_counter()
    inst = build_scenario(config.scenario, dim=config.dim, x0=config.x0, seed=config.seed, **config.params)
    max_iters = config.max_iters if config.max_iters is not None else inst.default_iters
    step_tol = config.step_tol if config.step_tol is not None else inst.default_step_tol
    trace = iterate(inst.problem, max_iters=max_iters, step_tol=step_tol)
    checks = inst.run_checks(trace)
    wall_ms = 1000.0 * (time.perf_counter() - t0)
    summary = RunSummary(
        scenario=config.scenario,
        iterations=len(trace),
        v_estimate=trace.v_estimate,
        final_step_norm=trace.final_step_norm,
        shadow_limit=trace.shadow[-1],
        checks=checks,
        wall_ms=wall_ms,
    )
    try:
        if config.out_trace:
            write_trace_csv(trace, config.out_trace)
        if config.out_summary:
            write_summary_json(summary, config.out_summary)
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from exc
    return summary, trace


# ---------------------------------------------------------------------------
# the registered operator-pair library and the identity sweep


@dataclass(eq=False)
class PairEntry:
    label: str
    A: MonotoneOperator
    B: MonotoneOperator
    skew_family: bool = False
    affine_sets: Optional[tuple] = None

    @property
    def dim(self) -> int:
        return self.A.dim


def operator_pair_library() -> list[PairEntry]:
    """Registered operator pairs covering dimensions 1-5 and every combinator."""
    entries: list[PairEntry] = []
    entries.append(
        PairEntry(
            "points-1d",
            normal_cone(Singleton(np.array([0.0]))),
            normal_cone(Singleton(np.array([2.0]))),
        )
    )
    entries.append(
        PairEntry(
            "intervals-1d",
            piecewise_linear_1d([(0.0, math.inf, 0.0), (1.0, 0.0, math.inf)]),
            normal_cone(Box(np.array([0.5]), np.array([2.0]))),
        )
    )
    a1, b1, _ = random_pw1d_pair(np.random.default_rng(2024))
    entries.append(PairEntry("kinked-1d", a1, b1))

    orthant = NonnegativeOrthant(2)
    entries.append(PairEntry("rotator-cone", normal_cone(orthant), rotator()))
    entries.append(PairEntry("rotator-rotator", rotator(), rotator(), skew_family=True))
    entries.append(PairEntry("rotator-inverse", rotator(), inverse(rotator())))

    axis = AffineSubspace(np.zeros(2), np.array([[1.0, 0.0]]))
    entries.append(
        PairEntry(
            "shifted-subspace",
            normal_cone(axis),
            scaled_id_plus_normal_cone(1.0, AffineSubspace(np.array([0.0, -1.0]), axis.basis)),
        )
    )
    upper = AffineSubspace(np.array([0.0, 1.0]), np.array([[1.0, 0.0]]))
    lower = AffineSubspace(np.array([0.0, -1.0]), np.array([[1.0, 0.0]]))
    entries.append(PairEntry("parallel-lines", normal_cone(upper), normal_cone(lower)))

    diag = AffineSubspace.from_span(np.zeros(2), [np.array([1.0, 1.0])])
    entries.append(PairEntry("projectors", projector_operator(axis), projector_operator(diag)))
    entries.append(
        PairEntry("affine-consistent", normal_cone(axis), normal_cone(diag), affine_sets=(axis, diag))
    )
    entries.append(
        PairEntry(
            "disjoint-balls",
            normal_cone(Ball(np.array([0.0, 0.0]), 1.0)),
            normal_cone(Ball(np.array([4.0, 0.0]), 1.0)),
        )
    )
    entries.append(
        PairEntry(
            "product-3d",
            product(normal_cone(orthant), normal_cone(Singleton(np.array([0.0])))),
            product(rotator(), normal_cone(Singleton(np.array([2.0])))),
        )
    )
    entries.append(
        PairEntry(
            "ball-box-4d",
            normal_cone(Ball(0.5 * np.ones(4), 1.2)),
            normal_cone(Box(-np.ones(4), np.ones(4))),
        )
    )
    rng5 = np.random.default_rng(55)
    U5, V5, _ = random_affine_pair(5, rng5)
    a5, b5 = normal_cone(U5), normal_cone(V5)
    entries.append(PairEntry("random-affine-5d", a5, b5, affine_sets=(U5, V5)))
    w5 = rng5.uniform(-1.0, 1.0, 5)
    entries.append(PairEntry("shifted-5d", outer_shift(a5, w5), inner_shift(b5, w5)))
    entries.append(PairEntry("inverse-dual-5d", inverse(a5), dual_flip(b5)))
    return entries


@dataclass(eq=False)
class WorstRecord:
    value: float
    pair: str
    sample: int


# The sweep passes when every scaled equality residual is at most REL_TOL and
# every scaled inequality slack is at least -SLACK_TOL.
REL_TOL = 1e-9
SLACK_TOL = 1e-10


@dataclass(eq=False)
class IdentitySweep:
    """Worst residual per identity over every pair and sample, plus verdicts."""

    seed: int
    samples: int
    worst: dict[str, WorstRecord]
    slack_worst: dict[str, WorstRecord]

    @property
    def passed(self) -> bool:
        ok = all(rec.value <= REL_TOL for rec in self.worst.values())
        ok_slack = all(rec.value >= -SLACK_TOL for rec in self.slack_worst.values())
        return ok and ok_slack


# Samples are drawn and evaluated in blocks of at most this many rows, one
# call per identity and block, so the sweep's memory does not grow with the
# sample count.
SWEEP_BLOCK = 1024


def _blocks(samples: int) -> list[tuple[int, int]]:
    """(first sample, row count) of each block of a sweep over ``samples`` samples."""
    return [(first, min(SWEEP_BLOCK, samples - first)) for first in range(0, samples, SWEEP_BLOCK)]


def _absorb(
    worst: dict[str, WorstRecord],
    slack_worst: dict[str, WorstRecord],
    entries: dict[str, np.ndarray],
    pair: str,
    first: int,
):
    """Keep the worst row of a block per name: the largest residual, or, for a
    name ending in ``_slack``, the smallest slack (in ``slack_worst``).

    The earliest sample wins a tie, within the block and against the record
    held so far.
    """
    for name, values in entries.items():
        slack = name.endswith("_slack")
        records = slack_worst if slack else worst
        i = int(np.argmin(values) if slack else np.argmax(values))
        value, held = float(values[i]), records.get(name)
        if held is None or (value < held.value if slack else value > held.value):
            records[name] = WorstRecord(value, pair, first + i)


def check_identities(
    seed: int = 7,
    samples: int = 200,
    pairs: Optional[list[PairEntry]] = None,
) -> IdentitySweep:
    """Evaluate every identity over every registered pair at seeded random points.

    Each identity is evaluated once per block of samples on the stack of the
    block's points; the records equal those of a sample-by-sample sweep.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    entries = operator_pair_library() if pairs is None else pairs
    rng = np.random.default_rng(seed)
    worst: dict[str, WorstRecord] = {}
    slack_worst: dict[str, WorstRecord] = {}

    for d in sorted({e.dim for e in entries}):
        tag = f"points-dim{d}"
        for first, n in _blocks(samples):
            pts = rng.standard_normal((n, 8, d)) * 1.5
            rows = pts.transpose(1, 0, 2)
            _absorb(worst, slack_worst, three_point_residuals(*rows[:3]).entries, tag, first)
            _absorb(worst, slack_worst, {"eight_point": eight_point_residual(*rows)}, tag, first)

    for entry in entries:
        A, B, label = entry.A, entry.B, entry.label
        a_inv = inverse(A)
        b_inv = inverse(B)
        dual_b = dual_flip(b_inv)
        prod = product(A, B)
        for first, n in _blocks(samples):
            xy = rng.standard_normal((n, 2, entry.dim)) * 1.5
            x, y = xy[:, 0], xy[:, 1]
            _absorb(worst, slack_worst, dr_decomposition_residuals(A, B, x, y).entries, label, first)
            _absorb(worst, slack_worst, fixed_point_step_residuals(A, B, x).entries, label, first)
            inline = {
                "inverse_resolvent_sum": np.maximum(
                    vector_residual(A.resolvent_map(x) + a_inv.resolvent_map(x), x)[0],
                    vector_residual(B.resolvent_map(x) + b_inv.resolvent_map(x), x)[0],
                ),
                "self_duality": vector_residual(dr_apply(A, B, x), dr_apply(a_inv, dual_b, x))[0],
                "product_resolvent": vector_residual(
                    prod.resolvent_map(xy.reshape(n, -1)),
                    np.concatenate([A.resolvent_map(x), B.resolvent_map(y)], axis=1),
                )[0],
            }
            if A.is_linear_relation and B.is_linear_relation:
                inline["linear_relation_step"] = linear_relation_residual(A, B, x)
            _absorb(worst, slack_worst, inline, label, first)
            if entry.skew_family:
                _absorb(worst, slack_worst, skew_residuals(A, B, x, y).entries, label, first)
            if entry.affine_sets is not None:
                U, V = entry.affine_sets
                _absorb(worst, slack_worst, affine_gap_residuals(U, V, x).entries, label, first)
    return IdentitySweep(seed=seed, samples=samples, worst=worst, slack_worst=slack_worst)
