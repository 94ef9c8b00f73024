"""Static half of the design-rule checker: the AST lint rules.

Each rule has a stable ``DRC1xx`` code and checks one piece of repository
discipline that keeps the reproduction trustworthy:

* **determinism** (DRC101-DRC104) — the simulation packages (``sim``,
  ``core``, ``switches``, ``fabric``, ``network``) must be bit-repeatable
  per seed, so wall-clock time, the global :mod:`random` module, numpy's
  global RNG state, and iteration over unordered sets are banned there;
  all randomness flows through :func:`repro.sim.rng.make_rng`;
* **telemetry discipline** (DRC111-DRC112) — metrics are created through
  the :class:`~repro.telemetry.metrics.MetricsRegistry`, and every call
  site of a metric name uses one consistent label set, so exported series
  merge instead of fragmenting.

Whether every architecture is reachable from the scenario registry and
seed-reproducible is checked at runtime, not here:
``tests/scenario/test_contracts.py`` runs those contracts over every
registry architecture × traffic kind.

Rules are *modules in, violations out*: per-module rules get one parsed
:class:`LintModule`; project rules (DRC112) get the list of every parsed
module and can cross-reference files.  Suppress a finding on its line with
``# drc: disable=DRC101`` (comma-separate several codes; a bare
``# drc: disable`` silences every rule on that line) — see
:mod:`repro.drc.linter`.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

#: top-level ``repro`` subpackages whose code must be seed-deterministic
DETERMINISM_PACKAGES = frozenset({"sim", "core", "switches", "fabric", "network"})

#: wall-clock calls that make a run irreproducible (DRC101)
_WALL_CLOCK = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns", "datetime.now", "datetime.utcnow",
    "datetime.datetime.now", "datetime.datetime.utcnow",
})

#: the only ``numpy.random`` attributes that do not touch global state (DRC103)
_NUMPY_RNG_OK = frozenset({
    "Generator", "default_rng", "SeedSequence", "BitGenerator",
    "PCG64", "Philox", "SFC64", "MT19937",
})

#: metric classes that must only be instantiated by the registry (DRC111)
_METRIC_CLASSES = frozenset({"CounterMetric", "GaugeMetric", "HistogramMetric"})

#: registry factory method names whose label keywords DRC112 compares
_REGISTRY_FACTORIES = frozenset({"counter", "gauge", "histogram"})

#: non-label keyword arguments of the registry factories
_FACTORY_OPTION_KEYWORDS = frozenset({"edges"})


@dataclass(frozen=True)
class Violation:
    """One finding: where, which rule, and what to do about it."""

    code: str
    path: str  # posix-style path as given to the linter
    line: int  # 1-based
    col: int  # 1-based (SARIF convention)
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


@dataclass
class LintModule:
    """One parsed Python file plus the location facts rules key off."""

    path: Path
    relpath: str  # posix path relative to the lint invocation
    tree: ast.Module
    source: str
    package: str | None  # top-level subpackage under ``repro`` ("core", ...)
    in_src: bool  # lives under src/repro (product code, not tests/examples)

    @classmethod
    def parse(cls, path: Path, relpath: str, source: str) -> "LintModule":
        parts = Path(relpath).parts
        package: str | None = None
        in_src = False
        if "repro" in parts:
            i = parts.index("repro")
            in_src = i > 0 and parts[i - 1] == "src"
            rest = parts[i + 1:]
            package = rest[0] if len(rest) > 1 else ""
        return cls(path=path, relpath=relpath, tree=ast.parse(source),
                   source=source, package=package, in_src=in_src)


class Rule:
    """Base class: per-module or project-wide checks (see module doc).

    ``scope`` decides where the engine runs the rule ("module" rules run
    per file; "project" rules run once over the list of every module).
    """

    code: str = "DRC000"
    name: str = ""
    summary: str = ""
    scope: str = "module"

    def check_module(self, mod: LintModule) -> Iterator[Violation]:
        return iter(())

    def check_project(self, mods: list[LintModule]) -> Iterator[Violation]:
        return iter(())

    def _hit(self, mod: LintModule, node: ast.AST, message: str) -> Violation:
        return Violation(self.code, mod.relpath, getattr(node, "lineno", 1),
                         getattr(node, "col_offset", 0) + 1, message)


RULES: dict[str, Rule] = {}


def register(cls: type[Rule]) -> type[Rule]:
    if cls.code in RULES:
        raise AssertionError(f"duplicate rule code {cls.code}")
    RULES[cls.code] = cls()
    return cls


def rule_catalog() -> list[Rule]:
    """Every registered rule, in code order (for docs, SARIF, ``--help``)."""
    return [RULES[code] for code in sorted(RULES)]


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for an attribute chain rooted at a plain name, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _deterministic_scope(mod: LintModule) -> bool:
    return mod.in_src and mod.package in DETERMINISM_PACKAGES


@register
class WallClockRule(Rule):
    code = "DRC101"
    name = "wall-clock-in-sim"
    summary = ("simulation packages must not read the wall clock; simulated "
               "time is the cycle counter")

    def check_module(self, mod: LintModule) -> Iterator[Violation]:
        if not _deterministic_scope(mod):
            return
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Attribute):
                name = _dotted(node)
                if name in _WALL_CLOCK:
                    yield self._hit(
                        mod, node,
                        f"wall-clock call {name}() in deterministic package "
                        f"{mod.package!r}; simulated time is the cycle counter",
                    )
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if f"time.{alias.name}" in _WALL_CLOCK:
                        yield self._hit(
                            mod, node,
                            f"import of time.{alias.name} in deterministic "
                            f"package {mod.package!r}",
                        )


@register
class GlobalRandomRule(Rule):
    code = "DRC102"
    name = "global-random-module"
    summary = ("the stdlib random module carries hidden global state; use "
               "repro.sim.rng.make_rng(seed)")

    def check_module(self, mod: LintModule) -> Iterator[Violation]:
        if not _deterministic_scope(mod):
            return
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield self._hit(
                            mod, node,
                            "import of the global-state stdlib random module; "
                            "all randomness flows through repro.sim.rng.make_rng",
                        )
            elif isinstance(node, ast.ImportFrom) and node.module == "random":
                yield self._hit(
                    mod, node,
                    "import from the global-state stdlib random module; "
                    "all randomness flows through repro.sim.rng.make_rng",
                )


@register
class NumpyGlobalRandomRule(Rule):
    code = "DRC103"
    name = "numpy-global-rng"
    summary = ("numpy.random.<fn> uses the hidden global generator; take a "
               "Generator from repro.sim.rng.make_rng(seed)")

    def check_module(self, mod: LintModule) -> Iterator[Violation]:
        if not _deterministic_scope(mod):
            return
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Attribute):
                name = _dotted(node)
                if name is None:
                    continue
                for prefix in ("np.random.", "numpy.random."):
                    if name.startswith(prefix):
                        attr = name[len(prefix):].split(".", 1)[0]
                        if attr not in _NUMPY_RNG_OK:
                            yield self._hit(
                                mod, node,
                                f"{name} touches numpy's global RNG state; "
                                f"use a seeded Generator from "
                                f"repro.sim.rng.make_rng",
                            )
                        break
            elif isinstance(node, ast.ImportFrom) and node.module == "numpy.random":
                for alias in node.names:
                    if alias.name not in _NUMPY_RNG_OK:
                        yield self._hit(
                            mod, node,
                            f"import of numpy.random.{alias.name} (global RNG "
                            f"state); use a seeded Generator from "
                            f"repro.sim.rng.make_rng",
                        )


@register
class SetIterationRule(Rule):
    code = "DRC104"
    name = "unordered-set-iteration"
    summary = ("iterating a set makes order hash-dependent; sort first so "
               "runs are bit-identical across processes")

    def _is_set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("set", "frozenset"))

    def check_module(self, mod: LintModule) -> Iterator[Violation]:
        if not _deterministic_scope(mod):
            return
        for node in ast.walk(mod.tree):
            iters: list[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                if self._is_set_expr(it):
                    yield self._hit(
                        mod, it,
                        "iteration over an unordered set; wrap in sorted() so "
                        "the visit order is deterministic",
                    )


@register
class DirectMetricRule(Rule):
    code = "DRC111"
    name = "metric-outside-registry"
    summary = ("metrics are created via MetricsRegistry.counter/gauge/"
               "histogram so handles dedupe and exporters see one catalog")

    def check_module(self, mod: LintModule) -> Iterator[Violation]:
        if not mod.in_src or mod.package == "telemetry":
            return
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else None
            )
            if name in _METRIC_CLASSES:
                yield self._hit(
                    mod, node,
                    f"direct {name}(...) construction outside the telemetry "
                    f"package; get the handle from MetricsRegistry."
                    f"{name.removesuffix('Metric').lower()}(...)",
                )


@dataclass
class _LabelSite:
    mod: LintModule
    node: ast.Call
    labels: tuple[str, ...]


@register
class LabelConsistencyRule(Rule):
    code = "DRC112"
    name = "inconsistent-metric-labels"
    summary = ("every call site of one metric name must use the same label "
               "keys, or exported series fragment")
    scope = "project"

    def check_project(self, mods: list[LintModule]) -> Iterator[Violation]:
        sites: dict[str, list[_LabelSite]] = {}
        for mod in mods:
            if not mod.in_src:
                continue
            for node in ast.walk(mod.tree):
                if not (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in _REGISTRY_FACTORIES
                        and node.args
                        and isinstance(node.args[0], ast.Constant)
                        and isinstance(node.args[0].value, str)):
                    continue
                labels = tuple(sorted(
                    kw.arg for kw in node.keywords
                    if kw.arg is not None and kw.arg not in _FACTORY_OPTION_KEYWORDS
                ))
                if any(kw.arg is None for kw in node.keywords):
                    continue  # **labels: keys are dynamic, nothing to compare
                sites.setdefault(node.args[0].value, []).append(
                    _LabelSite(mod, node, labels)
                )
        for metric, metric_sites in sorted(sites.items()):
            metric_sites.sort(key=lambda s: (s.mod.relpath, s.node.lineno))
            baseline = metric_sites[0]
            for site in metric_sites[1:]:
                if site.labels != baseline.labels:
                    yield self._hit(
                        site.mod, site.node,
                        f"metric {metric!r} created with labels "
                        f"{list(site.labels)} here but {list(baseline.labels)} "
                        f"at {baseline.mod.relpath}:{baseline.node.lineno}; "
                        f"one metric name needs one label set",
                    )
