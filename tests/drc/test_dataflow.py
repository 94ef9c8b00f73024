"""Interprocedural dataflow: effect summaries the checkpoint rules ride on."""

from pathlib import Path

from repro.drc.dataflow import DataflowEngine
from repro.drc.rules import LintModule, Project


def _engine(tmp_path: Path, files: dict[str, str]):
    mods = []
    for rel, source in files.items():
        p = tmp_path / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(source)
        mods.append(LintModule.parse(p, rel, source))
    project = Project(mods)
    return project.graph, DataflowEngine(project.graph)


def test_direct_writes_and_alias_mutations(tmp_path):
    graph, engine = _engine(tmp_path, {
        "src/repro/core/k.py": (
            "class K:\n"
            "    def run(self):\n"
            "        self.cycle = 1\n"
            "        q = self.queue\n"
            "        q.append(3)\n"
            "        self.table[0] = 4\n"
        ),
    })
    eff = engine.object_effects("repro.core.k.K", ["run"])
    mutable = eff.mutable_attrs()
    assert set(mutable) == {"cycle", "queue", "table"}


def test_bound_method_alias_follows_not_mutates(tmp_path):
    graph, engine = _engine(tmp_path, {
        "src/repro/core/k.py": (
            "class K:\n"
            "    def _advance(self):\n"
            "        self.pos = self.pos + 1\n"
            "    def run(self):\n"
            "        advance = self._advance\n"
            "        advance()\n"
        ),
    })
    eff = engine.object_effects("repro.core.k.K", ["run"])
    mutable = eff.mutable_attrs()
    # the alias resolves to the method: 'pos' is written, but the alias
    # itself ('_advance') is not a mutation
    assert "pos" in mutable
    assert "_advance" not in mutable


def test_cross_module_helper_mutation(tmp_path):
    graph, engine = _engine(tmp_path, {
        "src/repro/core/helpers.py": (
            "def bump(switch):\n"
            "    switch.count = switch.count + 1\n"
        ),
        "src/repro/core/k.py": (
            "from repro.core.helpers import bump\n"
            "class K:\n"
            "    def run(self):\n"
            "        bump(self)\n"
        ),
    })
    eff = engine.object_effects("repro.core.k.K", ["run"])
    assert "count" in eff.mutable_attrs()


def test_attr_arg_mutates_only_if_callee_mutates(tmp_path):
    graph, engine = _engine(tmp_path, {
        "src/repro/core/helpers.py": (
            "def observe(x):\n"
            "    return len(x)\n"
            "def drain(x):\n"
            "    x.pop()\n"
        ),
        "src/repro/core/k.py": (
            "from repro.core.helpers import drain, observe\n"
            "class K:\n"
            "    def run(self):\n"
            "        observe(self.readonly)\n"
            "        drain(self.consumed)\n"
        ),
    })
    eff = engine.object_effects("repro.core.k.K", ["run"])
    mutable = eff.mutable_attrs()
    assert "consumed" in mutable
    assert "readonly" not in mutable
    assert "readonly" in eff.accessed_attrs()


def test_follow_false_stays_intraprocedural(tmp_path):
    graph, engine = _engine(tmp_path, {
        "src/repro/core/m.py": (
            "def inner(obj):\n"
            "    obj.deep = 1\n"
            "def outer(obj):\n"
            "    obj.shallow = 1\n"
            "    inner(obj)\n"
        ),
    })
    fn = graph.functions["repro.core.m.outer"]
    followed = engine.function_summary(fn)["obj"]
    assert {"shallow", "deep"} <= set(followed.mutable_attrs())
    flat = engine.function_summary(fn, follow=False)["obj"]
    assert "shallow" in flat.mutable_attrs()
    assert "deep" not in flat.mutable_attrs()


def test_recursive_cycle_terminates(tmp_path):
    graph, engine = _engine(tmp_path, {
        "src/repro/core/r.py": (
            "def ping(obj, n):\n"
            "    obj.a = n\n"
            "    if n:\n"
            "        pong(obj, n - 1)\n"
            "def pong(obj, n):\n"
            "    obj.b = n\n"
            "    if n:\n"
            "        ping(obj, n - 1)\n"
        ),
    })
    fn = graph.functions["repro.core.r.ping"]
    eff = engine.function_summary(fn)["obj"]
    assert {"a", "b"} <= set(eff.mutable_attrs())
