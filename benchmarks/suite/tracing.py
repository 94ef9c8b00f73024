"""Outside-in tracing for the benchmark suite.

:class:`Tracer` records ``perf_counter_ns`` spans around the simulator's
public calls.  It patches module bindings and instance methods from the
outside, so nothing under ``src/`` changes, and it doubles as a
``ScenarioRunner`` observer that cuts a sweep into cells.  Spans stay in
memory; :meth:`Tracer.write` dumps them as JSON lines at the end.
:func:`layer_metrics` turns them into the per-layer table, in self times.

Wrapped calls:

* ``prepare`` and ``execute_prepared`` at ``repro.scenario.runner``'s
  bindings, and ``ScenarioRunner.run``;
* ``run``, ``run_fast`` and ``drain`` of every prepared or restored model,
  and its source's ``window_arrivals`` and ``arrivals_matrix``, as
  instance attributes.  Per-poll ``maybe_start`` calls are folded into a
  count and a total on the enclosing span instead of one span each;
* ``repro.checkpoint.save``/``restore`` and ``repro.telemetry.export.write_*``.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

from workloads import peak_rss_mb

_ns = time.perf_counter_ns

#: engine labels with per-layer kernel metrics
ENGINES = ("batch_lean", "batch_general", "fast", "checked")
#: slotted-model labels with per-layer throughput metrics
SLOTTED = ("fifo", "crosspoint", "block", "speedup", "output", "shared",
           "voq_pim", "voq_islip", "voq_2drr")


def engine_of(switch: Any) -> str:
    """Engine label read from outside: the kernel type plus the batch
    kernel's lean flag, or plain ``batch`` when that flag is absent."""
    kind = type(switch).__name__
    if kind == "BatchPipelinedSwitch":
        lean = getattr(switch, "_lean", None)
        if lean is None:
            return "batch"
        return "batch_lean" if lean else "batch_general"
    return {"PipelinedSwitch": "checked",
            "FastPipelinedSwitch": "fast"}.get(kind, kind)


def _layer(prep: Any) -> str:
    if prep.kind == "word":
        return "kernel." + engine_of(prep.switch)
    if prep.kind == "slotted":
        arch = prep.scenario.arch
        if arch == "voq":
            from repro.scenario import architectures

            params = {**architectures()["voq"].params, **prep.scenario.params}
            return f"slotted.voq_{params['scheduler']}"
        return "slotted." + arch
    return prep.kind  # "fabric" or "network"


class Tracer:
    """Span recorder, call patcher and sweep observer (see module docstring)."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        #: one entry per job a traced runner executed: name, kind, host
        #: seconds and growth of the process's peak RSS in MB
        self.cells: list[dict[str, Any]] = []
        #: reused / total cells of each sweep that resumed from disk
        self.reuse: list[float] = []
        self._stack: list[dict[str, Any]] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self._cell_start = (0, 0, 0.0)  # (span index, ns, peak RSS MB)

    # -- spans ----------------------------------------------------------------
    def open(self, name: str, **attrs: Any) -> dict[str, Any]:
        parent = self._stack[-1] if self._stack else None
        span = {"id": len(self.spans), "name": name,
                "parent": None if parent is None else parent["id"],
                "cell": None if parent is None else parent["cell"]}
        span.update(attrs)
        self.spans.append(span)
        self._stack.append(span)
        span["start"] = _ns()
        return span

    def close(self, span: dict[str, Any]) -> None:
        span["end"] = _ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[dict[str, Any]]:
        s = self.open(name, **attrs)
        try:
            yield s
        finally:
            self.close(s)

    def wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def write(self, path: Path, workload: str) -> None:
        """Append the spans as JSON lines; ids are unique per workload."""
        with open(path, "a") as f:
            for s in self.spans:
                f.write(json.dumps({"workload": workload, **s}) + "\n")

    # -- ScenarioRunner observer ----------------------------------------------
    def job_live(self, name: str, seed: int, telemetry: Any) -> None:
        """No-op; its presence makes the runner execute in-process jobs
        through its module-level ``prepare``/``execute_prepared`` bindings."""

    def sweep_started(self, total: int, resumed: int) -> None:
        if resumed:
            self.reuse.append(resumed / total)
        self._cell_start = (len(self.spans), _ns(), peak_rss_mb())

    def job_finished(self, name: str, seed: int, result: dict[str, Any]) -> None:
        # At jobs=1 the runner finishes one job before it starts the next,
        # so everything since the previous boundary belongs to this cell.
        first, t0, rss0 = self._cell_start
        now, rss = _ns(), peak_rss_mb()
        for s in self.spans[first:]:
            if s["cell"] is None:
                s["cell"] = name
        self.cells.append({"name": name, "kind": result["kind"],
                           "s": (now - t0) / 1e9, "rss_mb": rss - rss0})
        self._cell_start = (len(self.spans), now, rss)

    # -- patching -------------------------------------------------------------
    def __enter__(self) -> "Tracer":
        from repro import checkpoint
        from repro.scenario import ScenarioRunner, runner
        from repro.telemetry import export

        self._patch(runner, "prepare", self._traced_prepare)
        self._patch(runner, "execute_prepared",
                    lambda fn: self.wrap(fn, "registry.execute_prepared"))
        self._patch(ScenarioRunner, "run", lambda fn: self.wrap(fn, "runner.run"))
        self._patch(checkpoint, "save", self._traced_save)
        self._patch(checkpoint, "restore", self._traced_restore)
        for attr in [a for a in vars(export) if a.startswith("write_")]:
            self._patch(export, attr,
                        lambda fn, attr=attr: self.wrap(fn, "telemetry." + attr))
        return self

    def __exit__(self, *exc: Any) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner: Any, attr: str,
               make: Callable[[Callable[..., Any]], Callable[..., Any]]) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _traced_prepare(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        def prepare(*args: Any, **kwargs: Any) -> Any:
            with self.span("registry.prepare"):
                prep = fn(*args, **kwargs)
            self.instrument(prep.switch, prep.source, _layer(prep))
            return prep
        return prepare

    def _traced_restore(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        def restore(*args: Any, **kwargs: Any) -> Any:
            with self.span("checkpoint.restore"):
                switch = fn(*args, **kwargs)
            self.instrument(switch, None, "kernel." + engine_of(switch))
            return switch
        return restore

    def _traced_save(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        def save(switch: Any, path: Any) -> Any:
            with self.span("checkpoint.save") as s:
                doc = fn(switch, path)
            s["bytes"] = os.path.getsize(path)
            return doc
        return save

    def instrument(self, model: Any, source: Any, layer: str) -> None:
        """Wrap a model's stepping methods and its traffic source's draws."""
        for method in ("run", "run_fast", "drain"):
            fn = getattr(model, method, None)
            if fn is not None:
                setattr(model, method, self._stepper(model, fn, "switch." + method, layer))
        source = source if source is not None else getattr(model, "source", None)
        if source is None:
            return
        for method, name in (("window_arrivals", "source.window_arrivals"),
                             ("arrivals_matrix", "traffic.arrivals_matrix")):
            fn = getattr(source, method, None)
            if fn is not None:
                setattr(source, method, self.wrap(fn, name))
        fn = getattr(source, "maybe_start", None)
        if fn is not None:
            source.maybe_start = self._fold(fn, "source.maybe_start")

    def _stepper(self, model: Any, fn: Callable[..., Any], name: str,
                 layer: str) -> Callable[..., Any]:
        clock = "cycle" if hasattr(model, "cycle") else "slot"

        def traced(*args: Any, **kwargs: Any) -> Any:
            before = getattr(model, clock)
            with self.span(name, layer=layer) as s:
                result = fn(*args, **kwargs)
            s["steps"] = getattr(model, clock) - before
            return result
        return traced

    def _fold(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        stack = self._stack

        def folded(*args: Any) -> Any:
            t0 = _ns()
            result = fn(*args)
            acc = stack[-1].setdefault("folded", {}).setdefault(name, [0, 0])
            acc[0] += 1
            acc[1] += _ns() - t0
            return result
        return folded


def _percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def layer_metrics(tracer: Tracer, *, jobs: int, wall_s: float, serial_s: float,
                  resume_s: float) -> dict[str, float]:
    """Per-layer metrics from a traced pass.

    ``wall_s`` is the fastest untraced wall time at the workload's ``jobs``,
    ``serial_s`` the untraced wall time at ``jobs=1`` and ``resume_s`` the
    fastest untraced resume.  Times are self times in seconds: a span's
    duration minus its child spans and folded calls.  Rates divide steps by
    self time.
    """
    spans = tracer.spans
    child_ns: dict[int, int] = defaultdict(int)
    for s in spans:
        if s["parent"] is not None:
            child_ns[s["parent"]] += s["end"] - s["start"]
    for s in spans:
        folded = sum(ns for _, ns in s.get("folded", {}).values())
        s["self_s"] = (s["end"] - s["start"] - child_ns[s["id"]] - folded) / 1e9
        s["dur_s"] = (s["end"] - s["start"]) / 1e9
    by_name: dict[str, list[dict[str, Any]]] = defaultdict(list)
    by_layer: dict[str, list[dict[str, Any]]] = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
        if "layer" in s:
            by_layer[s["layer"]].append(s)

    def own(group: list[dict[str, Any]]) -> float:
        return sum(s["self_s"] for s in group)

    def dur(group: list[dict[str, Any]]) -> float:
        return sum(s["dur_s"] for s in group)

    def rate(group: list[dict[str, Any]]) -> float:
        t = own(group)
        return sum(s["steps"] for s in group) / t if t else 0.0

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    m: dict[str, float] = {
        "spec.load_s": own(by_name["spec.load"]),
        "registry.validate_s": own(by_name["registry.validate"]),
        "registry.prepare_s": own(by_name["registry.prepare"]),
        "registry.prepare_calls": len(by_name["registry.prepare"]),
        "registry.summarize_s": own(by_name["registry.execute_prepared"]),
        "telemetry.export_s": sum(own(g) for n, g in by_name.items()
                                  if n.startswith("telemetry.")),
        "runner.self_s": own(by_name["runner.run"]),
    }
    cell_s = [c["s"] for c in tracer.cells]
    m.update({
        "runner.cells": len(cell_s),
        "runner.cell_s.p50": _percentile(cell_s, 50),
        "runner.cell_s.p80": _percentile(cell_s, 80),
        "runner.parallel_efficiency": share(sum(cell_s), jobs * wall_s),
        "runner.resume_reuse_ratio": max(tracer.reuse, default=0.0),
        "runner.resume_s": resume_s,
    })
    for engine in ENGINES:
        group = by_layer["kernel." + engine]
        m.update({
            f"kernel.{engine}.run_s": dur(group),
            f"kernel.{engine}.self_s": own(group),
            f"kernel.{engine}.cycles": sum(s["steps"] for s in group),
            f"kernel.{engine}.cycles_per_s": rate(group),
            f"kernel.{engine}.cells": len({s["cell"] for s in group}),
        })
    m["kernel.drain_s"] = dur([s for s in by_name["switch.drain"]
                               if s["layer"].startswith("kernel.")])
    tape = by_name["source.window_arrivals"]
    polls = [s["folded"]["source.maybe_start"] for s in spans
             if "source.maybe_start" in s.get("folded", {})]
    batch_runs = [s for layer, g in by_layer.items()
                  if layer.startswith("kernel.batch") for s in g]
    m.update({
        "sources.window_arrivals_s": dur(tape),
        "sources.window_calls": len(tape),
        "sources.tape_share": share(dur(tape), dur(batch_runs)),
        "sources.maybe_start_s": sum(ns for _, ns in polls) / 1e9,
        "sources.maybe_start_calls": sum(n for n, _ in polls),
    })
    for label in SLOTTED:
        m[f"slotted.{label}.slots_per_s"] = rate(by_layer["slotted." + label])
    slotted_runs = [s for layer, g in by_layer.items()
                    if layer.startswith("slotted.") for s in g]
    matrix = by_name["traffic.arrivals_matrix"]
    m.update({
        "traffic.arrivals_matrix_s": dur(matrix),
        "traffic.share": share(dur(matrix), dur(slotted_runs)),
        "fabric.slots_per_s": rate(by_layer["fabric"]),
        "network.cycles_per_s": rate(by_layer["network"]),
        "checkpoint.save_s": dur(by_name["checkpoint.save"]),
        "checkpoint.saves": len(by_name["checkpoint.save"]),
        "checkpoint.bytes_written": sum(s["bytes"] for s in by_name["checkpoint.save"]),
        "checkpoint.restore_s": dur(by_name["checkpoint.restore"]),
        "checkpoint.restores": len(by_name["checkpoint.restore"]),
    })
    for c in tracer.cells:
        if c["kind"] == "word":
            for key, value in (("host_s", c["s"]), ("maxrss_growth_mb", c["rss_mb"])):
                name = f"cell.{c['name']}.{key}"
                m[name] = m.get(name, 0.0) + value
    m["trace.overhead_ratio"] = share(dur(by_name["runner.run"]), serial_s)
    return m
