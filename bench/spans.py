"""In-memory span tracing for the benchmark's traced run.

Spans are recorded from outside the program: the public functions of each
layer are wrapped at the module attribute their caller looks up (`drivers`
and `boundary` import names directly, so `fcuc.drivers.response_metrics` and
`fcuc.boundary.response_metrics` are separate call sites). A span is
`[name, parent index, start s, end s, attrs]`; spans stay in memory and are
written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import time
from contextlib import contextmanager

import fcuc.boundary
import fcuc.drivers
import fcuc.dynamics
import fcuc.studies


def _solve_attrs(result, args, kwargs):
    p = args[0]
    return {
        "cols": p.ncols,
        "rows": p.nrows,
        "binaries": len(p.binary_columns()),
        "status": result.status,
        "nodes": result.nodes,
        "gap": result.gap,
    }


def _sweep_attrs(result, args, kwargs):
    return {"points": int(result.passed.size)}


def _repair_attrs(result, args, kwargs):
    return {"tightened": bool(result.intercept != args[0].intercept)}


def _compliance_attrs(result, args, kwargs):
    return {"passed": bool(result.passed)}


# (module, attribute the caller looks up, span name, extra attrs, attrs from result)
WRAP_POINTS = (
    (fcuc.drivers, "build_fcuc", "ucmodel.build_fcuc", None, None),
    (fcuc.drivers, "solve_milp", "solver.solve_milp", None, _solve_attrs),
    (fcuc.drivers, "decode_solution", "ucmodel.decode_solution", None, None),
    (fcuc.drivers, "online_mix", "ucmodel.online_mix", None, None),
    (fcuc.drivers, "check_compliance", "dynamics.check_compliance", None, _compliance_attrs),
    (fcuc.drivers, "check_feasibility", "ucmodel.check_feasibility", None, None),
    (fcuc.drivers, "sweep_grid", "boundary.sweep_grid", None, _sweep_attrs),
    (fcuc.drivers, "bisect_min_capacity", "boundary.bisect_min_capacity", None, None),
    (fcuc.drivers, "fit_hyperplane", "boundary.fit_hyperplane", None, None),
    (fcuc.drivers, "make_conservative", "boundary.make_conservative", None, _repair_attrs),
    (fcuc.drivers, "response_metrics", "dynamics.response_metrics", {"site": "drivers"}, None),
    (fcuc.boundary, "response_metrics", "dynamics.response_metrics", {"site": "boundary"}, None),
    (fcuc.boundary, "bisect_min_capacity", "boundary.bisect_min_capacity", None, None),
    (fcuc.boundary, "find_edge_points", "boundary.find_edge_points", None, None),
    (fcuc.boundary, "fit_hyperplane", "boundary.fit_hyperplane", None, None),
    (fcuc.boundary, "sweep_grid", "boundary.sweep_grid", None, _sweep_attrs),
    (fcuc.boundary, "make_conservative", "boundary.make_conservative", None, _repair_attrs),
    (fcuc.studies, "bisect_min_capacity", "boundary.bisect_min_capacity", None, None),
    (fcuc.studies, "equivalence_study", "studies.equivalence_study", None, None),
    (fcuc.dynamics, "simulate_response", "dynamics.simulate_response", None, None),
)


class Tracer:
    """Records nested spans; `install` patches the wrap points, `restore`
    puts the original functions back."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, **attrs):
        idx = self._open(name, attrs)
        try:
            yield self.spans[idx][4]
        except BaseException as exc:
            self.spans[idx][4]["error"] = type(exc).__name__
            raise
        finally:
            self._close(idx)

    def _open(self, name: str, attrs: dict) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter() - self.t0, None, dict(attrs)])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][3] = time.perf_counter() - self.t0

    def _wrapper(self, fn, name, extra, from_result):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, **(extra or {})) as attrs:
                result = fn(*args, **kwargs)
                if from_result is not None:
                    attrs.update(from_result(result, args, kwargs))
                return result

        return traced

    def wrap(self, module, attr: str, name: str, extra=None, from_result=None) -> None:
        fn = getattr(module, attr)
        self._saved.append((module, attr, fn))
        setattr(module, attr, self._wrapper(fn, name, extra, from_result))

    def install(self, extra_points=()) -> None:
        for point in (*WRAP_POINTS, *extra_points):
            self.wrap(*point)

    def restore(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    @contextmanager
    def recording(self, root: str, extra_points=()):
        """Wrap the layers and record everything inside one root span."""
        self.install(extra_points)
        try:
            with self.span(root):
                yield
        finally:
            self.restore()

    def write(self, path, **meta) -> None:
        with open(path, "w") as fh:
            json.dump({**meta, "span_fields": ["name", "parent", "start_s", "end_s", "attrs"],
                       "spans": self.spans}, fh)
            fh.write("\n")


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of the traced passes

PER_LAYER_UNITS = {
    "dynamics.response_metrics.calls": "count",
    "dynamics.response_metrics.s": "s",
    "dynamics.response_metrics.us_per_call": "us",
    "dynamics.response_metrics.verify_calls": "count",
    "dynamics.response_metrics.learn_calls": "count",
    "dynamics.rk4_fallbacks": "count",
    "boundary.sweep_grid.calls": "count",
    "boundary.sweep_grid.s": "s",
    "boundary.sweep_grid.points": "count",
    "boundary.bisect_min_capacity.calls": "count",
    "boundary.bisect_min_capacity.s": "s",
    "boundary.bisect_min_capacity.evals_per_call": "count",
    "boundary.bracketing_errors": "count",
    "boundary.make_conservative.calls": "count",
    "boundary.make_conservative.s": "s",
    "boundary.cuts_tightened_frac": "ratio",
    "solver.solve_milp.calls": "count",
    "solver.solve_milp.s": "s",
    "solver.solve_milp.s_p50": "s",
    "solver.nodes": "count",
    "solver.gap_max": "ratio",
    "solver.non_optimal": "count",
    "milp.cols": "count",
    "milp.rows": "count",
    "milp.binaries": "count",
    "ucmodel.build_fcuc.calls": "count",
    "ucmodel.build_fcuc.s": "s",
    "ucmodel.decode_solution.s": "s",
    "ucmodel.online_mix.s": "s",
    "ucmodel.check_feasibility.s": "s",
    "drivers.iterations": "count",
    "drivers.failing_hours": "count",
    "drivers.cuts_learned": "count",
    "drivers.cuts_added": "count",
    "drivers.cut_reuse_ratio": "ratio",
    "drivers.self_s": "s",
    "studies.equivalence_study.s": "s",
    "scenario.load_s": "s",
    "trace.overhead_s": "s",
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans: list[list], overhead_s: float, audited_passes: int) -> dict[str, float]:
    """Per-layer values, per traced pass (totals divided by the number of
    traced passes; ratios and per-call figures over all traced passes).

    Root spans are `pass` (a traced timed pass), `gate` (the correctness
    gate, which audits `audited_passes` passes and holds the audit's
    `check_feasibility` calls) and `setup`.
    """
    root_of: list[int] = []  # a parent is recorded before its children
    for i, s in enumerate(spans):
        root_of.append(i if s[1] == -1 else root_of[s[1]])
    by_root: dict[str, list[list]] = {"pass": [], "gate": [], "setup": []}
    for s, r in zip(spans, root_of):
        by_root[spans[r][0]].append(s)
    passes = sum(1 for s in spans if s[1] == -1 and s[0] == "pass") or 1
    timed = by_root["pass"]

    def named(name):
        return [s for s in timed if s[0] == name]

    def dur(ss):
        return sum(s[3] - s[2] for s in ss)

    def parent_name(s):
        return spans[s[1]][0] if s[1] != -1 else None

    rm = named("dynamics.response_metrics")
    sweeps = named("boundary.sweep_grid")
    bisects = named("boundary.bisect_min_capacity")
    repairs = named("boundary.make_conservative")
    solves = named("solver.solve_milp")
    builds = named("ucmodel.build_fcuc")
    child_s: dict[int, float] = {}
    for s in timed:
        child_s[s[1]] = child_s.get(s[1], 0.0) + s[3] - s[2]
    driver_idx = [i for i, s in enumerate(spans)
                  if s[0].startswith("drivers.run_") and spans[root_of[i]][0] == "pass"]
    driver_spans = [spans[i] for i in driver_idx]
    learned = [s for s in repairs if parent_name(s) == "drivers.run_proposed"]
    cuts_added = sum(s[4].get("cuts_added", 0) for s in driver_spans)
    load_per_setup: dict[int, float] = {
        i: 0.0 for i, s in enumerate(spans) if s[1] == -1 and s[0] == "setup"}
    for s, r in zip(spans, root_of):
        if s[0].startswith("scenario."):
            load_per_setup[r] += s[3] - s[2]
    gaps = [s[4]["gap"] for s in solves if not math.isnan(s[4]["gap"])]
    out = {
        "dynamics.response_metrics.calls": len(rm) / passes,
        "dynamics.response_metrics.s": dur(rm) / passes,
        "dynamics.response_metrics.us_per_call": 1e6 * _ratio(dur(rm), len(rm)),
        "dynamics.response_metrics.verify_calls":
            sum(1 for s in rm if s[4].get("site") == "drivers") / passes,
        "dynamics.response_metrics.learn_calls":
            sum(1 for s in rm if s[4].get("site") == "boundary") / passes,
        "dynamics.rk4_fallbacks": sum(
            1 for s in named("dynamics.simulate_response")
            if parent_name(s) == "dynamics.response_metrics") / passes,
        "boundary.sweep_grid.calls": len(sweeps) / passes,
        "boundary.sweep_grid.s": dur(sweeps) / passes,
        "boundary.sweep_grid.points": sum(s[4].get("points", 0) for s in sweeps) / passes,
        "boundary.bisect_min_capacity.calls": len(bisects) / passes,
        "boundary.bisect_min_capacity.s": dur(bisects) / passes,
        "boundary.bisect_min_capacity.evals_per_call": _ratio(
            sum(1 for s in rm if parent_name(s) == "boundary.bisect_min_capacity"),
            len(bisects)),
        "boundary.bracketing_errors":
            sum(1 for s in bisects if s[4].get("error") == "BracketingError") / passes,
        "boundary.make_conservative.calls": len(repairs) / passes,
        "boundary.make_conservative.s": dur(repairs) / passes,
        "boundary.cuts_tightened_frac":
            _ratio(sum(1 for s in repairs if s[4].get("tightened")), len(repairs)),
        "solver.solve_milp.calls": len(solves) / passes,
        "solver.solve_milp.s": dur(solves) / passes,
        "solver.solve_milp.s_p50":
            statistics.median([s[3] - s[2] for s in solves]) if solves else 0.0,
        "solver.nodes": sum(s[4].get("nodes", 0) for s in solves) / passes,
        "solver.gap_max": max(gaps, default=0.0),
        "solver.non_optimal": sum(1 for s in solves if s[4].get("status") != "optimal") / passes,
        "milp.cols": _ratio(sum(s[4]["cols"] for s in solves), len(solves)),
        "milp.rows": _ratio(sum(s[4]["rows"] for s in solves), len(solves)),
        "milp.binaries": _ratio(sum(s[4]["binaries"] for s in solves), len(solves)),
        "ucmodel.build_fcuc.calls": len(builds) / passes,
        "ucmodel.build_fcuc.s": dur(builds) / passes,
        "ucmodel.decode_solution.s": dur(named("ucmodel.decode_solution")) / passes,
        "ucmodel.online_mix.s": dur(named("ucmodel.online_mix")) / passes,
        "ucmodel.check_feasibility.s": sum(
            s[3] - s[2] for s in by_root["gate"] if s[0] == "ucmodel.check_feasibility"
        ) / max(audited_passes, 1),
        "drivers.iterations": sum(s[4].get("iterations", 0) for s in driver_spans) / passes,
        "drivers.failing_hours": sum(
            1 for s in named("dynamics.check_compliance") if not s[4].get("passed", True)
        ) / passes,
        "drivers.cuts_learned": len(learned) / passes,
        "drivers.cuts_added": cuts_added / passes,
        "drivers.cut_reuse_ratio": _ratio(cuts_added, len(learned)),
        "drivers.self_s": sum(
            spans[i][3] - spans[i][2] - child_s.get(i, 0.0) for i in driver_idx) / passes,
        "studies.equivalence_study.s": dur(named("studies.equivalence_study")) / passes,
        "scenario.load_s":
            statistics.median(load_per_setup.values()) if load_per_setup else 0.0,
        "trace.overhead_s": overhead_s,
    }
    assert set(out) == set(PER_LAYER_UNITS)
    return out
