"""Whole-program graph: qnames, import resolution, class hierarchy."""

from pathlib import Path

from repro.drc.graph import module_qname
from repro.drc.rules import LintModule, Project


def _project(tmp_path: Path, files: dict[str, str]) -> Project:
    mods = []
    for rel, source in files.items():
        p = tmp_path / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(source)
        mods.append(LintModule.parse(p, rel, source))
    return Project(mods)


def test_module_qname_strips_src_and_folds_init():
    assert module_qname("src/repro/core/switch.py") == "repro.core.switch"
    assert module_qname("src/repro/core/__init__.py") == "repro.core"
    assert module_qname("tools/gen.py") == "tools.gen"


def test_resolves_through_reexport_hub(tmp_path):
    graph = _project(tmp_path, {
        "src/repro/core/impl.py": "class Kernel:\n    pass\n",
        "src/repro/core/__init__.py": "from repro.core.impl import Kernel\n",
        "src/repro/app.py": (
            "from repro.core import Kernel\n"
            "class Derived(Kernel):\n    pass\n"
        ),
    }).graph
    derived = graph.classes["repro.app.Derived"]
    assert derived.bases == ("repro.core.impl.Kernel",)
    assert graph.subclasses_of("repro.core.impl.Kernel") == {
        "repro.core.impl.Kernel", "repro.app.Derived"}
    assert graph.subclasses_of("repro.core.impl.Kernel", strict=True) == {
        "repro.app.Derived"}


def test_relative_imports_resolve(tmp_path):
    graph = _project(tmp_path, {
        "src/repro/core/base.py": "class Base:\n    pass\n",
        "src/repro/core/sub.py": (
            "from .base import Base\n"
            "class Sub(Base):\n    pass\n"
        ),
    }).graph
    assert graph.classes["repro.core.sub.Sub"].bases == (
        "repro.core.base.Base",)


def test_methods_of_walks_project_mro(tmp_path):
    graph = _project(tmp_path, {
        "src/repro/core/base.py": (
            "class Base:\n"
            "    def shared(self):\n        pass\n"
            "    def overridden(self):\n        pass\n"
        ),
        "src/repro/core/sub.py": (
            "from repro.core.base import Base\n"
            "class Sub(Base):\n"
            "    def overridden(self):\n        pass\n"
            "    def own(self):\n        pass\n"
        ),
    }).graph
    methods = graph.methods_of("repro.core.sub.Sub")
    assert set(methods) >= {"shared", "overridden", "own"}
    assert methods["overridden"].qname == "repro.core.sub.Sub.overridden"
    assert methods["shared"].qname == "repro.core.base.Base.shared"


def test_classes_named_filters_by_package(tmp_path):
    graph = _project(tmp_path, {
        "src/repro/switches/base.py": "class Root:\n    pass\n",
        "src/repro/core/other.py": "class Root:\n    pass\n",
    }).graph
    hits = graph.classes_named("Root", package="switches")
    assert [c.qname for c in hits] == ["repro.switches.base.Root"]


def test_module_deps_for_cache_invalidation(tmp_path):
    project = _project(tmp_path, {
        "src/repro/core/a.py": "X = 1\n",
        "src/repro/core/b.py": "from repro.core.a import X\nY = X\n",
    })
    graph = project.graph
    b = next(m for m in project.mods if m.relpath.endswith("b.py"))
    assert graph.module_deps(b) == {"repro.core.a"}
