"""RNG-provenance rules (DRC141-143).

Reproducibility in this repo means *one seed, one stream, one consumer*:
every stochastic component (packet source, traffic model, switch) owns a
``numpy.random.Generator`` constructed from an explicit seed, and
parallel streams come from :func:`repro.sim.rng.spawn`.  Three defect
classes break that silently:

* **DRC141 — shared stream**: the same ``Generator`` object reaches two
  switch/source constructions.  Both components then interleave draws
  from one stream, so results depend on call order and change the moment
  either component draws differently.  (Passing the same *integer seed*
  twice is deliberate — that is how the equivalence benchmarks build
  matched kernels — so only generator *objects* are tracked.)
* **DRC142 — entropy-seeded stream**: a generator constructed from the
  wall clock, OS entropy, or numpy's unseeded default
  (``default_rng()`` with no argument) can never be replayed.
* **DRC143 — stream captured across the worker boundary**: a closure
  that captures a ``Generator`` and is handed to a process pool
  (``submit``/``map``/...) forks the generator state into workers, where
  the streams silently diverge from the sequential run.  Workers must
  construct their own streams from per-task seeds (the
  ``ScenarioRunner`` discipline: module-level workers, seeds in the task
  tuple).

The taint engine is intraprocedural per scope (module body or one
function), with constructor/consumer calls resolved through the project
graph — so aliased imports, ``make_rng`` passthrough (``make_rng(rng)``
returns its argument) and re-exported class names all resolve exactly.
Iteration over ``spawn(rng, n)`` binds a *fresh* stream per element, so
``[Source(g) for g in spawn(rng, n)]`` is clean while two consumers of
one element still flag.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import dataclass

from repro.drc.graph import ProjectGraph
from repro.drc.rules import (
    _WORD_KERNELS,
    LintModule,
    Project,
    Rule,
    Violation,
    register,
)

#: (class name, defining package) roots whose constructions consume streams
_CONSUMER_ROOTS = (
    ("SlottedSwitch", "switches"),
    ("PacketSource", "core"),
    ("TrafficSource", "traffic"),
)

#: worker-dispatch call names that ship a callable across processes
_DISPATCH_METHODS = frozenset({
    "submit", "map", "imap", "imap_unordered", "apply_async",
    "starmap", "starmap_async", "map_async",
})

#: dotted-call prefixes whose result depends on ambient entropy/time
_ENTROPY_PREFIXES = ("time.", "datetime.", "secrets.", "uuid.", "os.")


@dataclass(frozen=True)
class _Origin:
    """One RNG stream construction (or one spawn-list element)."""

    kind: str  # "gen" | "list"
    key: tuple[str, int, int, str]
    line: int


class _ScopeTaint:
    """Taint walk over one scope (module body or one function body)."""

    def __init__(self, analysis: "_RngAnalysis", mod: LintModule) -> None:
        self.analysis = analysis
        self.mod = mod
        self.env: dict[str, _Origin] = {}
        #: origin key -> consumer-construction sites
        self.sites: dict[tuple[str, int, int, str], list[ast.Call]] = {}
        self.origin_lines: dict[tuple[str, int, int, str], int] = {}

    # -- expression classification ----------------------------------------

    def _origin_at(self, node: ast.AST, kind: str, tag: str = "") -> _Origin:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return _Origin(kind, (self.mod.relpath, line, col, tag), line)

    def classify(self, expr: ast.expr,
                 env: dict[str, _Origin]) -> _Origin | None:
        if isinstance(expr, ast.Name):
            return env.get(expr.id)
        if isinstance(expr, ast.Call):
            return self._classify_call(expr, env)
        if isinstance(expr, ast.Subscript):
            base = self.classify(expr.value, env)
            if base is not None and base.kind == "list":
                return _Origin("gen", (*base.key[:3],
                                       ast.dump(expr.slice)), base.line)
            return None
        return None

    def _classify_call(self, call: ast.Call,
                       env: dict[str, _Origin]) -> _Origin | None:
        a = self.analysis
        qname = a.resolve(self.mod, call.func)
        if qname in a.make_rng_fns:
            if call.args:
                passthrough = self.classify(call.args[0], env)
                if passthrough is not None:
                    return passthrough
            return self._origin_at(call, "gen")
        if qname in a.spawn_fns:
            return self._origin_at(call, "list")
        if isinstance(call.func, ast.Attribute) and call.func.attr == "spawn":
            return self._origin_at(call, "list")
        if qname in ("numpy.random.default_rng", "numpy.random.Generator"):
            return self._origin_at(call, "gen")
        return None

    # -- DRC142 ------------------------------------------------------------

    def entropy_findings(self, call: ast.Call) -> Iterator[tuple[ast.AST, str]]:
        a = self.analysis
        qname = a.resolve(self.mod, call.func)
        if qname in ("numpy.random.default_rng", "numpy.random.SeedSequence"):
            if not call.args and not call.keywords:
                yield call, (
                    f"{qname.rsplit('.', 1)[-1]}() without a seed draws OS "
                    f"entropy; every stream must come from an explicit seed "
                    f"(repro.sim.rng.make_rng)"
                )
                return
        if qname == "numpy.random.Generator" and call.args:
            bitgen = call.args[0]
            if (isinstance(bitgen, ast.Call) and not bitgen.args
                    and not bitgen.keywords):
                bg_name = a.resolve(self.mod, bitgen.func)
                if bg_name.startswith("numpy.random."):
                    yield call, (
                        f"Generator({bg_name.rsplit('.', 1)[-1]}()) seeds "
                        f"from OS entropy; pass an explicit seed"
                    )
                    return
        seed_args: list[ast.expr] = []
        if qname in a.make_rng_fns or qname in (
                "numpy.random.default_rng", "numpy.random.SeedSequence",
                "numpy.random.PCG64", "numpy.random.Philox",
                "numpy.random.SFC64", "numpy.random.MT19937"):
            seed_args = list(call.args) + [kw.value for kw in call.keywords]
        for arg in seed_args:
            for sub in ast.walk(arg):
                if not isinstance(sub, ast.Call):
                    continue
                sub_name = a.resolve(self.mod, sub.func)
                if sub_name.startswith(_ENTROPY_PREFIXES):
                    yield call, (
                        f"RNG seed derived from {sub_name}(); wall-clock/"
                        f"entropy seeds make the run unreproducible"
                    )

    # -- statement walk ----------------------------------------------------

    def run(self, stmts: list[ast.stmt]) -> None:
        for stmt in stmts:
            self._stmt(stmt)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return  # nested scopes are processed separately
        if isinstance(stmt, ast.Assign):
            self._scan_expr(stmt.value, self.env)
            origin = self.classify(stmt.value, self.env)
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    if origin is not None:
                        self.env[target.id] = origin
                    else:
                        self.env.pop(target.id, None)
            return
        if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._scan_expr(stmt.value, self.env)
            if isinstance(stmt.target, ast.Name):
                origin = self.classify(stmt.value, self.env)
                if origin is not None:
                    self.env[stmt.target.id] = origin
                else:
                    self.env.pop(stmt.target.id, None)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._scan_expr(stmt.iter, self.env)
            origin = self.classify(stmt.iter, self.env)
            if origin is not None and origin.kind == "list" \
                    and isinstance(stmt.target, ast.Name):
                self.env[stmt.target.id] = _Origin(
                    "gen", (*origin.key[:3], "iter"), origin.line)
            for sub in (*stmt.body, *stmt.orelse):
                self._stmt(sub)
            return
        if isinstance(stmt, (ast.If, ast.While)):
            self._scan_expr(stmt.test, self.env)
            for sub in (*stmt.body, *stmt.orelse):
                self._stmt(sub)
            return
        if isinstance(stmt, ast.With):
            for item in stmt.items:
                self._scan_expr(item.context_expr, self.env)
            for sub in stmt.body:
                self._stmt(sub)
            return
        if isinstance(stmt, ast.Try):
            for sub in (*stmt.body, *stmt.orelse, *stmt.finalbody):
                self._stmt(sub)
            for handler in stmt.handlers:
                for sub in handler.body:
                    self._stmt(sub)
            return
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._scan_expr(child, self.env)

    def _scan_expr(self, expr: ast.expr, env: dict[str, _Origin]) -> None:
        """Record consumer constructions and DRC142 findings inside expr."""
        if isinstance(expr, (ast.Lambda,)):
            return
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                             ast.DictComp)):
            sub_env = dict(env)
            for gen in expr.generators:
                self._scan_expr(gen.iter, env)
                origin = self.classify(gen.iter, env)
                if origin is not None and origin.kind == "list" \
                        and isinstance(gen.target, ast.Name):
                    sub_env[gen.target.id] = _Origin(
                        "gen", (*origin.key[:3], "comp"), origin.line)
            bodies: list[ast.expr] = []
            if isinstance(expr, ast.DictComp):
                bodies = [expr.key, expr.value]
            else:
                bodies = [expr.elt]
            for body in bodies:
                self._scan_expr(body, sub_env)
            return
        if isinstance(expr, ast.Call):
            for finding in self.entropy_findings(expr):
                self.analysis.add(self.mod, "DRC142", *finding)
            qname = self.analysis.resolve(self.mod, expr.func)
            if qname in self.analysis.consumers:
                for arg in (*expr.args,
                            *(kw.value for kw in expr.keywords)):
                    origin = self.classify(arg, env)
                    if origin is not None and origin.kind == "gen":
                        self.sites.setdefault(origin.key, []).append(expr)
                        self.origin_lines[origin.key] = origin.line
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                self._scan_expr(child, env)

    # -- DRC141 finalization -----------------------------------------------

    def shared_stream_findings(self) -> Iterator[tuple[ast.AST, str]]:
        for key, calls in sorted(self.sites.items()):
            if len(calls) < 2:
                continue
            ordered = sorted(calls, key=lambda c: (c.lineno, c.col_offset))
            first = ordered[0]
            for call in ordered[1:]:
                yield call, (
                    f"RNG stream constructed at line "
                    f"{self.origin_lines[key]} already feeds the instance "
                    f"built at line {first.lineno}; sharing one Generator "
                    f"interleaves draws — spawn independent streams with "
                    f"repro.sim.rng.spawn"
                )


class _RngAnalysis:
    """Shared one-pass analysis backing DRC141/142/143."""

    def __init__(self, project: Project) -> None:
        self.graph: ProjectGraph = project.graph
        self.findings: dict[str, list[Violation]] = {
            "DRC141": [], "DRC142": [], "DRC143": [],
        }
        self.consumers = self._consumer_qnames()
        self.make_rng_fns = {
            fn.qname for fn in self.graph.functions.values()
            if fn.name == "make_rng" and fn.module.in_src
            and fn.module.package == "sim"
        }
        self.spawn_fns = {
            fn.qname for fn in self.graph.functions.values()
            if fn.name == "spawn" and fn.module.in_src
            and fn.module.package == "sim"
        }
        self._run(project)

    def _consumer_qnames(self) -> set[str]:
        out: set[str] = set()
        for root_name, package in _CONSUMER_ROOTS:
            for root in self.graph.classes_named(root_name, package=package):
                for qname in self.graph.subclasses_of(root.qname):
                    if self.graph.classes[qname].module.in_src:
                        out.add(qname)
        for info in self.graph.classes.values():
            if (info.name in _WORD_KERNELS and info.module.in_src
                    and info.module.package == "core"):
                out.add(info.qname)
        return out

    def resolve(self, mod: LintModule, func: ast.expr) -> str:
        qname = self.graph.resolve_node(mod, func)
        return qname if qname is not None else ""

    def add(self, mod: LintModule, code: str, node: ast.AST,
            message: str) -> None:
        self.findings[code].append(Violation(
            code, mod.relpath, getattr(node, "lineno", 1),
            getattr(node, "col_offset", 0) + 1, message,
        ))

    def _run(self, project: Project) -> None:
        for mod in project.mods:
            if not mod.in_src:
                continue
            module_stmts = [
                s for s in mod.tree.body
                if not isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef))
            ]
            scope = _ScopeTaint(self, mod)
            scope.run(module_stmts)
            self._finish_scope(mod, scope, None)
            for node in ast.walk(mod.tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    scope = _ScopeTaint(self, mod)
                    scope.run(list(node.body))
                    self._finish_scope(mod, scope, node)

    def _finish_scope(self, mod: LintModule, scope: _ScopeTaint,
                      fnode: ast.FunctionDef | ast.AsyncFunctionDef | None
                      ) -> None:
        for node, message in scope.shared_stream_findings():
            self.add(mod, "DRC141", node, message)
        if fnode is not None:
            for node, message in _worker_closure_findings(scope, fnode):
                self.add(mod, "DRC143", node, message)


def _free_names(node: ast.AST) -> set[str]:
    """Names a nested function reads but does not bind itself."""
    bound: set[str] = set()
    loaded: set[str] = set()
    args = node.args if isinstance(node, (ast.FunctionDef,
                                          ast.AsyncFunctionDef,
                                          ast.Lambda)) else None
    if args is not None:
        for a in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            bound.add(a.arg)
        if args.vararg:
            bound.add(args.vararg.arg)
        if args.kwarg:
            bound.add(args.kwarg.arg)
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            if isinstance(sub.ctx, ast.Store):
                bound.add(sub.id)
            else:
                loaded.add(sub.id)
        elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and sub is not node:
            bound.add(sub.name)
    return loaded - bound


def _worker_closure_findings(
    scope: _ScopeTaint, fnode: ast.FunctionDef | ast.AsyncFunctionDef
) -> Iterator[tuple[ast.AST, str]]:
    """DRC143: closures that capture a tainted stream and are handed to a
    worker-dispatch call inside the same function."""
    tainted_defs: dict[str, int] = {}
    tainted_lambdas: dict[ast.Lambda, int] = {}
    for node in ast.walk(fnode):
        if node is fnode:
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            captured = [
                name for name in sorted(_free_names(node))
                if scope.env.get(name) is not None
            ]
            if not captured:
                continue
            line = scope.env[captured[0]].line
            if isinstance(node, ast.Lambda):
                tainted_lambdas[node] = line
            else:
                tainted_defs[node.name] = line
    if not tainted_defs and not tainted_lambdas:
        return
    for node in ast.walk(fnode):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _DISPATCH_METHODS):
            continue
        for arg in (*node.args, *(kw.value for kw in node.keywords)):
            origin_line: int | None = None
            label = ""
            if isinstance(arg, ast.Name) and arg.id in tainted_defs:
                origin_line = tainted_defs[arg.id]
                label = f"closure {arg.id!r}"
            elif isinstance(arg, ast.Lambda) and arg in tainted_lambdas:
                origin_line = tainted_lambdas[arg]
                label = "lambda"
            if origin_line is not None:
                yield node, (
                    f"{label} captures the RNG stream constructed at line "
                    f"{origin_line} and crosses the worker boundary via "
                    f".{node.func.attr}(); workers must build their own "
                    f"streams from per-task seeds (the ScenarioRunner "
                    f"discipline)"
                )


def _analysis(project: Project) -> _RngAnalysis:
    cached = getattr(project, "_rng_analysis", None)
    if isinstance(cached, _RngAnalysis):
        return cached
    analysis = _RngAnalysis(project)
    project._rng_analysis = analysis  # type: ignore[attr-defined]
    return analysis


@register
class SharedStreamRule(Rule):
    code = "DRC141"
    name = "rng-stream-shared"
    summary = ("one numpy Generator object must not feed two switch/source "
               "instances; spawn independent streams per consumer")
    scope = "project"

    def check_project(self, project: Project) -> Iterator[Violation]:
        yield from _analysis(project).findings["DRC141"]


@register
class EntropySeedRule(Rule):
    code = "DRC142"
    name = "rng-entropy-seed"
    summary = ("RNG streams seeded from the wall clock or OS entropy are "
               "unreproducible; seed explicitly via repro.sim.rng.make_rng")
    scope = "project"

    def check_project(self, project: Project) -> Iterator[Violation]:
        yield from _analysis(project).findings["DRC142"]


@register
class WorkerStreamCaptureRule(Rule):
    code = "DRC143"
    name = "rng-worker-capture"
    summary = ("closures that capture a Generator and cross the worker "
               "boundary fork RNG state; build streams inside the worker "
               "from per-task seeds")
    scope = "project"

    def check_project(self, project: Project) -> Iterator[Violation]:
        yield from _analysis(project).findings["DRC143"]


__all__ = ["SharedStreamRule", "EntropySeedRule", "WorkerStreamCaptureRule"]
