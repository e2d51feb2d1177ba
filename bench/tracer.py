"""Spans around the calls into each drsplit module, installed from outside.

``Tracer.install()`` replaces public functions, methods and operator
constructors of drsplit with timing wrappers; ``uninstall()`` puts the
originals back. Nothing under ``src/`` changes. Wrappers must be installed
before operators are built, because ``normal_cone`` binds ``S.project`` and
the other constructors capture their resolvent closures at construction.

A span has a name, start, end, parent span and operation id. Spans are kept
in memory and written out by ``write_spans`` at the end of the run. Calls
made hundreds to tens of thousands of times per operation (resolvents,
projections, ``as_point``, ``dr_apply``, the identity residuals) are
aggregated instead of stored one by one; they
still count toward their parents' child time, so every layer's self time is
exact. Counters (records, bytes, points, calls) are kept per operation so
that repeats of one config can be compared exactly.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import tracemalloc
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("space", "operators", "splitting", "solutions", "scenarios", "identities", "runner", "cli")
# Aggregated, not stored span by span: these run once per iteration or more.
FINE = ("operators.resolvent.", "space.", "splitting.dr_apply", "identities.")
FAMILIES = (
    "normal_cone-affine",
    "normal_cone-ball",
    "normal_cone-box",
    "rotator",
    "projector_operator",
    "piecewise_linear_1d",
    "inverse",
    "product",
    "dual_flip",
    "inner_shift",
    "outer_shift",
    "scaled_id_plus_normal_cone",
)
CONSTRUCTORS = (
    "normal_cone",
    "scaled_id_plus_normal_cone",
    "rotator",
    "projector_operator",
    "piecewise_linear_1d",
    "inverse",
    "dual_flip",
    "outer_shift",
    "inner_shift",
    "product",
    "zero_operator",
    "identity_operator",
)
# Normal cones are grouped by the set they project onto; a singleton is a
# 0-dimensional affine set and the orthant is a box with infinite bounds.
CONE_FAMILY = {
    "AffineSubspace": "normal_cone-affine",
    "Singleton": "normal_cone-affine",
    "Ball": "normal_cone-ball",
    "Box": "normal_cone-box",
    "NonnegativeOrthant": "normal_cone-box",
}
IDENTITY_FUNCTIONS = (
    "three_point_residuals",
    "eight_point_residual",
    "dr_decomposition_residuals",
    "fixed_point_step_residuals",
    "linear_relation_residual",
    "skew_residuals",
    "affine_gap_residuals",
)
TRACE_ARRAYS = ("governing", "shadow", "dual_shadow", "b_shadow", "b_dual_shadow", "steps", "step_norms")
ITERATE_DIMS = (1, 2, 5, 50)
CALL_COUNTERS = (("resolvent_calls", "operators.resolvent."), ("project_calls", "space.project"))
# Exact counters, compared across repeats of one config.
EXACT_COUNTERS = (
    "records",
    "stationary_tail",
    "csv_bytes",
    "diameter_points",
    "find_fixed_point_records",
    "resolvent_calls",
    "project_calls",
)


class Tracer:
    def __init__(self, drsplit):
        self.ds = drsplit
        self.active = False
        self.op = -1
        self.stack: list[list] = []  # open frames: [child seconds, span id, name]
        self.spans: list[tuple] = []  # (op, name, start, end, parent span id)
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total s, self s
        self.totals: dict[str, float] = defaultdict(float)
        self.op_counts: dict[str, int] = defaultdict(int)
        self.op_traces: list = []
        self.seen_arrays: set = set()
        self.dim_problems: dict[int, object] = {}
        self.n_ops = 0
        self._calls_at_start: dict[str, int] = {}
        self._undo: list[tuple] = []
        self._iterate = drsplit.splitting.iterate

    # -- spans -------------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording a span called ``name``; ``after(args, kwargs, result, seconds)``
        runs once the span is closed, for counters."""
        tracer = self
        fine = name.startswith(FINE)

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            frame = [0.0, None if fine else tracer._open(), name]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer._close(frame, start, end)
            if after is not None:
                after(args, kwargs, result, end - start)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _open(self) -> int:
        self.spans.append(None)
        return len(self.spans) - 1

    def _close(self, frame, start, end):
        child, span_id, name = frame
        duration = end - start
        s = self.stats[name]
        s[0] += 1
        s[1] += duration
        s[2] += duration - child
        if self.stack:
            self.stack[-1][0] += duration
        if span_id is not None:
            parent = next((f[1] for f in reversed(self.stack) if f[1] is not None), None)
            self.spans[span_id] = (self.op, name, start, end, parent)

    def _calls(self, prefix: str) -> int:
        return sum(v[0] for k, v in self.stats.items() if k.startswith(prefix))

    def _inside(self, name: str) -> bool:
        return any(f[2] == name for f in self.stack)

    # -- operations ----------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        self.op_counts = defaultdict(int)
        self.op_traces = []
        self.seen_arrays = set()
        self._calls_at_start = {c: self._calls(prefix) for c, prefix in CALL_COUNTERS}
        self.active = True

    def end_op(self) -> dict[str, int]:
        """Close the operation and return its exact counters."""
        self.active = False
        for trace in self.op_traces:
            g = np.asarray(trace.governing)
            same = np.flatnonzero(np.all(g[1:] == g[:-1], axis=1))
            if same.size:
                self.op_counts["stationary_tail"] += len(g) - 1 - int(same[0])
        self.op_traces = []
        for counter, prefix in CALL_COUNTERS:
            self.op_counts[counter] = self._calls(prefix) - self._calls_at_start[counter]
        for key, value in self.op_counts.items():
            self.totals[key] += value
        self.n_ops += 1
        return {k: int(self.op_counts[k]) for k in EXACT_COUNTERS}

    # -- counters run after a span closes -------------------------------------

    def _after_iterate(self, args, kwargs, trace, seconds):
        problem = args[0] if args else kwargs["problem"]
        n, d = len(trace), problem.dim
        self.op_counts["records"] += n
        self.totals[f"iterate_s.d{d}"] += seconds
        self.totals[f"records.d{d}"] += n
        if self.stack and self.stack[-1][2] == "runner.run":
            self.totals["main_iterate_s"] += seconds
        if self._inside("solutions.find_fixed_point"):
            self.op_counts["find_fixed_point_records"] += n
        self.dim_problems.setdefault(d, problem)
        self.op_traces.append(trace)

    def _after_diameter(self, args, kwargs, result, seconds):
        points = args[0] if args else kwargs["points"]
        self.op_counts["diameter_points"] += int(np.shape(points)[0])

    def _after_write_csv(self, args, kwargs, result, seconds):
        path = args[1] if len(args) > 1 else kwargs["path"]
        self.op_counts["csv_bytes"] += os.path.getsize(path)

    # -- installation --------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, replacement) -> None:
        """Point every drsplit module's reference to ``original`` at ``replacement``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "drsplit" or mod_name.startswith("drsplit.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, replacement)

    def _wrap_function(self, module, fname: str, span: str, after=None) -> None:
        original = getattr(module, fname, None)
        if callable(original):
            self._replace_everywhere(original, self.wrap(span, original, after))

    def _wrap_method(self, cls, mname: str, span: str) -> None:
        if callable(vars(cls).get(mname)):
            self._set(cls, mname, self.wrap(span, vars(cls)[mname]))

    def _constructor(self, cname: str, ctor):
        tracer = self

        def build(*args, **kwargs):
            op = ctor(*args, **kwargs)
            family = cname
            if cname == "normal_cone":
                S = args[0] if args else kwargs["S"]
                family = CONE_FAMILY.get(type(S).__name__, f"normal_cone-{type(S).__name__}")
            try:
                return dataclasses.replace(
                    op, resolvent_map=tracer.wrap(f"operators.resolvent.{family}", op.resolvent_map)
                )
            except (TypeError, AttributeError):  # an operator type without that field
                return op

        return build

    def _scenario_builder(self, build):
        timed = self.wrap("scenarios.build", build)
        tracer = self

        def builder(*args, **kwargs):
            inst = timed(*args, **kwargs)
            checks = getattr(inst, "checks", None)
            if isinstance(checks, list):
                inst.checks = [(n, tracer.wrap(f"scenarios.check.{n}", fn)) for n, fn in checks]
            return inst

        return builder

    def _trace_array(self, pname: str, fget):
        tracer = self
        timed = self.wrap("splitting.trace_arrays", fget)

        def getter(trace):
            key = (id(trace), pname)
            if not tracer.active or key in tracer.seen_arrays:
                return fget(trace)
            tracer.seen_arrays.add(key)
            if tracer.stack and tracer.stack[-1][2] == "splitting.trace_arrays":
                return fget(trace)  # built inside another first access, timed there
            return timed(trace)

        return property(getter)

    def install(self) -> None:
        ds = self.ds
        space, ops, spl, sol = ds.space, ds.operators, ds.splitting, ds.solutions
        scen, ident, runner, cli = ds.scenarios, ds.identities, ds.runner, ds.cli

        for cls in list(vars(space).values()):
            if isinstance(cls, type) and cls.__module__ == space.__name__:
                self._wrap_method(cls, "project", "space.project")
        self._wrap_function(space, "as_point", "space.as_point")

        for cname in CONSTRUCTORS:
            ctor = getattr(ops, cname, None)
            if callable(ctor):
                self._replace_everywhere(ctor, self._constructor(cname, ctor))

        self._wrap_function(spl, "iterate", "splitting.iterate", self._after_iterate)
        for fname in ("dr_apply", "estimate_displacement", "normal_problem", "shifted_governing"):
            self._wrap_function(spl, fname, f"splitting.{fname}")
        trace_cls = getattr(spl, "DRTrace", None)
        for pname in TRACE_ARRAYS:
            prop = vars(trace_cls).get(pname) if trace_cls else None
            if isinstance(prop, property):
                self._set(trace_cls, pname, self._trace_array(pname, prop.fget))

        self._wrap_function(sol, "diameter", "solutions.diameter", self._after_diameter)
        for fname in (
            "find_fixed_point",
            "primal_dual_from_fix",
            "paramonotone_cross_product",
            "fejer_check",
            "sweet_principle_check",
            "summability_report",
            "decoupled_1d_fejer_check",
        ):
            self._wrap_function(sol, fname, f"solutions.{fname}")
        if hasattr(sol, "SolutionSets"):
            self._wrap_method(sol.SolutionSets, "validate", "solutions.validate")

        for name, _description, _anchor in scen.list_scenarios():
            spec = scen.get_scenario(name)
            self._set(spec, "build", self._scenario_builder(spec.build))
        if hasattr(scen, "ScenarioInstance"):
            self._wrap_method(scen.ScenarioInstance, "run_checks", "scenarios.run_checks")
        for fname in ("random_affine_pair", "random_pw1d_pair"):
            self._wrap_function(scen, fname, f"scenarios.{fname}")

        for fname in IDENTITY_FUNCTIONS:
            self._wrap_function(ident, fname, f"identities.{fname}")

        self._wrap_function(runner, "write_trace_csv", "runner.write_trace_csv", self._after_write_csv)
        for fname in ("run", "make_config", "write_summary_json", "check_identities", "operator_pair_library"):
            self._wrap_function(runner, fname, f"runner.{fname}")
        self._wrap_function(cli, "main", "cli.main")

    def uninstall(self) -> None:
        self.active = False
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -------------------------------------------------------------

    def trace_bytes_per_record(self, records: int = 2000) -> dict[int, float]:
        """Bytes a trace holds per record, by dimension, measured with tracemalloc.

        Reruns ``iterate`` on the first problem seen at each dimension, with
        tracing paused, so the probe adds nothing to the spans.
        """
        out = {}
        for d, problem in sorted(self.dim_problems.items()):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                trace = self._iterate(problem, max_iters=records, step_tol=0.0)
                held = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            out[d] = held / len(trace)
            del trace
        return out

    def metrics(self, untraced_p50: float, traced_p50: float) -> dict[str, tuple[float, str]]:
        """Every per-layer metric by name: (value, unit). "/op" values are means per operation."""
        n = max(self.n_ops, 1)
        st, tot = self.stats, self.totals

        def per_op_ms(span):
            return 1000.0 * st[span][1] / n if span in st else 0.0

        def per_call_us(span):
            calls = st[span][0] if span in st else 0
            return 1e6 * st[span][1] / calls if calls else 0.0

        m: dict[str, tuple[float, str]] = {}
        records = tot["records"]
        m["splitting.iterate_ms"] = (per_op_ms("splitting.iterate"), "ms")
        for d in ITERATE_DIMS:
            rec_d = tot[f"records.d{d}"]
            us = 1e6 * tot[f"iterate_s.d{d}"] / rec_d if rec_d else 0.0
            m[f"splitting.iterate_us_per_record.d{d}"] = (us, "us")
        m["splitting.records"] = (records / n, "count")
        m["splitting.stationary_tail_share"] = (tot["stationary_tail"] / records if records else 0.0, "ratio")
        per_dim = self.trace_bytes_per_record()
        weighted = sum(per_dim[d] * tot[f"records.d{d}"] for d in per_dim)
        m["splitting.trace_bytes_per_record"] = (weighted / records if records else 0.0, "B")
        m["splitting.trace_arrays_ms"] = (per_op_ms("splitting.trace_arrays"), "ms")

        for fname in ("diameter", "fejer_check", "sweet_principle_check", "summability_report", "find_fixed_point"):
            m[f"solutions.{fname}_ms"] = (per_op_ms(f"solutions.{fname}"), "ms")
        m["solutions.diameter_points"] = (tot["diameter_points"] / n, "count")
        m["solutions.find_fixed_point_records"] = (tot["find_fixed_point_records"] / n, "count")

        m["scenarios.build_ms"] = (per_op_ms("scenarios.build"), "ms")
        for span in sorted(s for s in st if s.startswith("scenarios.check.")):
            m[f"scenarios.check_ms.{span[len('scenarios.check.'):]}"] = (per_op_ms(span), "ms")
        checks_s = st["scenarios.run_checks"][1] if "scenarios.run_checks" in st else 0.0
        ratio = checks_s / tot["main_iterate_s"] if tot["main_iterate_s"] else 0.0
        m["scenarios.checks_to_iterate_ratio"] = (ratio, "ratio")

        for family in FAMILIES:
            m[f"operators.resolvent_us.{family}"] = (per_call_us(f"operators.resolvent.{family}"), "us")
        m["operators.resolvent_calls"] = (tot["resolvent_calls"] / n, "count")
        m["space.project_calls"] = (tot["project_calls"] / n, "count")
        m["space.project_us"] = (per_call_us("space.project"), "us")
        m["space.as_point_calls"] = (st["space.as_point"][0] / n if "space.as_point" in st else 0.0, "count")

        for fname in IDENTITY_FUNCTIONS:
            m[f"identities.{fname}_us"] = (per_call_us(f"identities.{fname}"), "us")
        ident_calls = sum(st[f"identities.{f}"][0] for f in IDENTITY_FUNCTIONS if f"identities.{f}" in st)
        m["identities.calls"] = (ident_calls / n, "count")

        for fname in ("write_trace_csv", "write_summary_json", "run", "check_identities", "operator_pair_library"):
            m[f"runner.{fname}_ms"] = (per_op_ms(f"runner.{fname}"), "ms")
        m["runner.csv_bytes"] = (tot["csv_bytes"] / n, "B")

        cli_s = st["cli.main"][1] if "cli.main" in st else 0.0
        run_in_cli_s = st["runner.run"][1] if cli_s else 0.0
        m["cli.overhead_ms"] = (1000.0 * (cli_s - run_in_cli_s) / n, "ms")

        for layer in LAYERS:
            self_s = sum(v[2] for k, v in st.items() if k.split(".", 1)[0] == layer)
            m[f"{layer}.self_ms"] = (1000.0 * self_s / n, "ms")
        m["trace.overhead_ratio"] = (traced_p50 / untraced_p50, "ratio")
        return m

    def write_spans(self, path) -> None:
        """One JSON object per stored span: op id, name, start and end in us, parent id."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, span in enumerate(self.spans):
                if span is None:
                    continue
                op, name, start, end, parent = span
                fh.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "op": op,
                            "name": name,
                            "start_us": round(start * 1e6, 3),
                            "end_us": round(end * 1e6, 3),
                            "parent": parent,
                        }
                    )
                    + "\n"
                )
