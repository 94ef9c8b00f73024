"""Whole-program symbol/import graph and class-hierarchy resolver.

The per-file rules in :mod:`repro.drc.rules` need only one parsed module;
the project rules (registry coverage, API shape, RNG provenance) need to
answer questions that span files:

* *what does the name ``sw.PipelinedSwitch`` in this module refer to?* —
  import/alias resolution, including relative imports and re-export
  chasing through package ``__init__`` hubs;
* *which classes derive (transitively) from ``SlottedSwitch``?* — exact
  class-hierarchy edges built from resolved base names, replacing the
  old leaf-name matching heuristics;
* *which project symbol does this call name?* — enough resolution for
  the RNG-provenance rules (:mod:`repro.drc.rng_rules`) to recognise
  generator constructors and consumers through aliases and re-exports.

:class:`ProjectGraph` is built once per lint invocation from the parsed
:class:`~repro.drc.rules.LintModule` collection and shared by every
project rule through :class:`~repro.drc.rules.Project`.

Naming: a *module qname* is the dotted import path (``repro.core.switch``,
derived from the relative file path with a leading ``src/`` stripped and
``__init__`` folded into the package); a *symbol qname* appends the
symbol path (``repro.core.switch.PipelinedSwitch``).  :meth:`canonical`
maps any qname onto the defining location, so two modules importing the
same class through different hubs agree on one name.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import PurePosixPath

from repro.drc.rules import LintModule, _dotted

#: re-export chains longer than this are cut (defensive; real hubs are 1-2)
_MAX_CHASE = 16


@dataclass
class ClassInfo:
    """One class definition plus its resolved project base classes."""

    qname: str
    name: str
    module: LintModule
    node: ast.ClassDef
    base_refs: tuple[str, ...]  # raw dotted base names as written
    bases: tuple[str, ...] = ()  # resolved project class qnames

    @property
    def package(self) -> str | None:
        return self.module.package


@dataclass
class FunctionInfo:
    """One function or method definition."""

    qname: str
    name: str
    module: LintModule
    node: ast.FunctionDef | ast.AsyncFunctionDef
    owner: str | None = None  # class qname for methods


def module_qname(relpath: str) -> str:
    """Dotted import path for a file path relative to the lint root."""
    parts = list(PurePosixPath(relpath).with_suffix("").parts)
    while parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


@dataclass
class _ModuleFacts:
    mod: LintModule
    qname: str
    is_package: bool
    env: dict[str, str] = field(default_factory=dict)  # local name -> qname
    defs: set[str] = field(default_factory=set)  # top-level bound names


def _iter_module_level(tree: ast.Module) -> list[ast.stmt]:
    """Statements at module level, descending into if/try blocks but not
    into function bodies (conditional-import idioms stay visible)."""
    out: list[ast.stmt] = []
    stack: list[ast.stmt] = list(tree.body)
    while stack:
        stmt = stack.pop()
        out.append(stmt)
        if isinstance(stmt, (ast.If, ast.Try, ast.For, ast.While, ast.With)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.stmt):
                    stack.append(child)
    return out


def imports_in(stmts: list[ast.stmt], qname: str, is_package: bool) -> dict[str, str]:
    """Alias environment from ``import``/``from`` statements in ``stmts``.

    Maps each locally bound name to the dotted qname it refers to;
    relative imports are resolved against ``qname``/``is_package``.
    """
    env: dict[str, str] = {}
    for stmt in stmts:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                if alias.asname:
                    env[alias.asname] = alias.name
                else:
                    head = alias.name.split(".", 1)[0]
                    env[head] = head
        elif isinstance(stmt, ast.ImportFrom):
            base = _from_base(stmt, qname, is_package)
            if base is None:
                continue
            for alias in stmt.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                env[local] = f"{base}.{alias.name}" if base else alias.name
    return env


def _from_base(stmt: ast.ImportFrom, qname: str, is_package: bool) -> str | None:
    if stmt.level == 0:
        return stmt.module or ""
    parts = qname.split(".") if qname else []
    if not is_package:
        parts = parts[:-1]
    drop = stmt.level - 1
    if drop > len(parts):
        return None
    if drop:
        parts = parts[: len(parts) - drop]
    if stmt.module:
        parts = parts + stmt.module.split(".")
    return ".".join(parts)


class ProjectGraph:
    """Symbol, import, and class-hierarchy graph over a lint invocation."""

    def __init__(self, mods: list[LintModule]) -> None:
        self.modules: dict[str, LintModule] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self._facts: dict[str, _ModuleFacts] = {}
        self._children: dict[str, set[str]] | None = None
        self._methods_cache: dict[str, dict[str, FunctionInfo]] = {}
        for mod in mods:
            qname = module_qname(mod.relpath)
            if not qname:
                continue
            is_package = PurePosixPath(mod.relpath).name == "__init__.py"
            facts = _ModuleFacts(mod=mod, qname=qname, is_package=is_package)
            level = _iter_module_level(mod.tree)
            facts.env = imports_in(level, qname, is_package)
            for stmt in level:
                for name in _bound_names(stmt):
                    facts.defs.add(name)
            self.modules[qname] = mod
            self._facts[qname] = facts
            self._collect_defs(facts)
        self._resolve_bases()

    # -- construction ------------------------------------------------------

    def _collect_defs(self, facts: _ModuleFacts) -> None:
        def visit(body: list[ast.stmt], prefix: str, owner: str | None) -> None:
            for stmt in body:
                if isinstance(stmt, ast.ClassDef):
                    qname = f"{prefix}.{stmt.name}"
                    refs = tuple(r for r in (_dotted(b) for b in stmt.bases)
                                 if r is not None)
                    self.classes[qname] = ClassInfo(
                        qname=qname, name=stmt.name, module=facts.mod,
                        node=stmt, base_refs=refs,
                    )
                    visit(stmt.body, qname, qname)
                elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qname = f"{prefix}.{stmt.name}"
                    self.functions[qname] = FunctionInfo(
                        qname=qname, name=stmt.name, module=facts.mod,
                        node=stmt, owner=owner,
                    )
                    # nested defs are intraprocedural detail, not symbols
                elif isinstance(stmt, (ast.If, ast.Try)):
                    for child in ast.iter_child_nodes(stmt):
                        if isinstance(child, ast.stmt):
                            visit([child], prefix, owner)

        visit(facts.mod.tree.body, facts.qname, None)

    def _resolve_bases(self) -> None:
        for info in self.classes.values():
            modq = module_qname(info.module.relpath)
            resolved: list[str] = []
            for ref in info.base_refs:
                qname = self.resolve(modq, ref)
                if qname in self.classes:
                    resolved.append(qname)
            info.bases = tuple(resolved)

    # -- name resolution ---------------------------------------------------

    def resolve(self, module: str, dotted: str) -> str:
        """Canonical qname for ``dotted`` as written inside ``module``.

        Unresolvable names (builtins, external packages) come back
        unchanged, so callers can still prefix-match ``numpy.`` etc.
        """
        facts = self._facts.get(module)
        if facts is None:
            return self.canonical(dotted)
        head, _, rest = dotted.partition(".")
        if head in facts.env:
            target = facts.env[head] + (f".{rest}" if rest else "")
        elif head in facts.defs:
            target = f"{module}.{dotted}"
        else:
            return self.canonical(dotted)
        return self.canonical(target)

    def canonical(self, qname: str, _depth: int = 0) -> str:
        """Chase re-export hubs so a symbol has one defining qname."""
        if _depth > _MAX_CHASE:
            return qname
        parts = qname.split(".")
        for i in range(len(parts), 0, -1):
            modq = ".".join(parts[:i])
            facts = self._facts.get(modq)
            if facts is None:
                continue
            rest = parts[i:]
            if not rest:
                return modq
            head = rest[0]
            if head in facts.env and head not in facts.defs:
                chased = ".".join([facts.env[head], *rest[1:]])
                return self.canonical(chased, _depth + 1)
            return ".".join([modq, *rest])
        return qname

    def resolve_node(self, mod: LintModule, node: ast.expr,
                     local_env: dict[str, str] | None = None) -> str | None:
        """Canonical qname for a Name/Attribute expression, or None."""
        dotted = _dotted(node)
        if dotted is None:
            return None
        modq = module_qname(mod.relpath)
        if local_env:
            head, _, rest = dotted.partition(".")
            if head in local_env:
                target = local_env[head] + (f".{rest}" if rest else "")
                return self.canonical(target)
        return self.resolve(modq, dotted)

    def module_deps(self, mod: LintModule) -> set[str]:
        """Project modules this file imports (for cache invalidation)."""
        modq = module_qname(mod.relpath)
        facts = self._facts.get(modq)
        if facts is None:
            return set()
        deps: set[str] = set()
        for target in facts.env.values():
            parts = target.split(".")
            for i in range(len(parts), 0, -1):
                prefix = ".".join(parts[:i])
                if prefix in self.modules:
                    deps.add(prefix)
                    break
        deps.discard(modq)
        return deps

    # -- class hierarchy ---------------------------------------------------

    def _child_edges(self) -> dict[str, set[str]]:
        if self._children is None:
            self._children = {}
            for info in self.classes.values():
                for base in info.bases:
                    self._children.setdefault(base, set()).add(info.qname)
        return self._children

    def subclasses_of(self, qname: str, *, strict: bool = False) -> set[str]:
        """Transitive subclass qnames; include ``qname`` unless strict."""
        edges = self._child_edges()
        out: set[str] = set()
        stack = [qname]
        while stack:
            cur = stack.pop()
            for child in edges.get(cur, ()):
                if child not in out:
                    out.add(child)
                    stack.append(child)
        if not strict:
            out.add(qname)
        return out

    def mro(self, qname: str) -> list[ClassInfo]:
        """The class plus its project bases, nearest first (linearized
        breadth-first; good enough for method lookup in this codebase)."""
        out: list[ClassInfo] = []
        seen: set[str] = set()
        queue = [qname]
        while queue:
            cur = queue.pop(0)
            if cur in seen:
                continue
            seen.add(cur)
            info = self.classes.get(cur)
            if info is None:
                continue
            out.append(info)
            queue.extend(info.bases)
        return out

    def methods_of(self, qname: str) -> dict[str, FunctionInfo]:
        """name -> defining FunctionInfo along the project MRO."""
        cached = self._methods_cache.get(qname)
        if cached is not None:
            return cached
        methods: dict[str, FunctionInfo] = {}
        for info in self.mro(qname):
            for stmt in info.node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    methods.setdefault(
                        stmt.name, self.functions[f"{info.qname}.{stmt.name}"]
                    )
        self._methods_cache[qname] = methods
        return methods

    def classes_named(self, name: str, *, package: str | None = None,
                      in_src: bool = True) -> list[ClassInfo]:
        """Every class with this bare name (optionally package-filtered)."""
        out = [
            info for info in self.classes.values()
            if info.name == name
            and (not in_src or info.module.in_src)
            and (package is None or info.module.package == package)
        ]
        out.sort(key=lambda c: c.qname)
        return out


def _bound_names(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    out: list[str] = []
    targets: list[ast.expr] = []
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        targets = [stmt.target]
    for t in targets:
        for node in ast.walk(t):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                out.append(node.id)
    return out
