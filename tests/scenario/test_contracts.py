"""Runtime contracts: every registry architecture is reachable and
seed-reproducible.

Every contract runs over one explicit cell matrix, :data:`CELLS`: each
``REGISTRY`` architecture × each traffic kind its family accepts.  The
cells ``prepare`` refuses are named in :data:`REFUSED` with the error
each raises; any other exception fails the contracts, so a new refusal
cannot quietly shrink what they check.

* **coverage and API shape** — every public slotted class in
  ``repro.switches`` is concrete and is the switch (or a fabric element)
  of some cell; every word kernel is built by some word cell and has a
  callable ``run``;
* **policy and drop-cause coverage** — the public ``AdmissionPolicy``
  classes are exactly ``POLICIES``, each of which prepares a ``shared``
  and a ``pipelined`` cell; the ``DROP_*`` constants of
  ``repro.telemetry.events`` are exactly ``DROP_CAUSES``;
* **one owner per stream** — each ``numpy.random.Generator`` reachable
  from a prepared cell is held by exactly one object;
* **no global RNG state** — the simulation packages import no stdlib
  ``random`` and touch ``numpy.random`` only through the Generator API;
* **one shape per metric** — with metrics on, every metric name has one
  type and one label-key set across all cells, and every metric object
  reachable from a cell is a value of that cell's registry;
* **no entropy seeds, clocks or set order** — three fresh interpreters,
  with different hash seeds, give byte-identical results;
* **no worker capture** — ``ScenarioRunner`` gives byte-identical results
  at ``jobs=1`` and ``jobs=2``.

The contracts cover every path the registry can build, and the registry
is how every entry point builds a model.  ``test_contract_mutations.py``
breaks a copy of ``src/`` once per contract and requires it to fail.
"""

import ast
import importlib
import inspect
import json
import os
import pkgutil
import random
import subprocess
import sys
from collections import deque
from functools import cache
from numbers import Number
from pathlib import Path
from types import BuiltinMethodType, FunctionType, MethodType, ModuleType

import numpy as np
import pytest

import repro
from repro.core import (
    BatchPipelinedSwitch,
    FastPathUnsupportedError,
    PipelinedSwitch,
    SplitPipelinedBuffer,
    WideMemorySwitch,
)
from repro.fabric import OmegaFabric
from repro.policy import POLICIES, AdmissionPolicy
from repro.scenario import Scenario, ScenarioError, ScenarioRunner
from repro.scenario.registry import REGISTRY, TRAFFIC_KINDS, WORD, prepare
from repro.sim.rng import make_rng, spawn
from repro.switches import SlottedSwitch
from repro.telemetry import events
from repro.telemetry.metrics import CounterMetric, GaugeMetric, HistogramMetric
from tests.checkpoint.test_snapshot import _fields

REPO = Path(__file__).resolve().parents[2]
HORIZON = 300
LOAD = 0.7
SEED = 3
#: a small trace for the ``trace`` cells: link -> [[earliest_cycle, dst]]
TRACE_SCHEDULE = {"0": [[0, 1], [10, 2]], "1": [[5, 3]], "3": [[40, 0]]}

WORD_KERNELS = (PipelinedSwitch, BatchPipelinedSwitch, WideMemorySwitch,
                SplitPipelinedBuffer)


def _loads(kind):
    """Saturating traffic is load 1.0 by definition: its cell at LOAD is
    kept as a named refusal, and the one at 1.0 runs."""
    return (LOAD, 1.0) if kind == "saturating" else (LOAD,)


#: (arch, traffic kind, load) for every architecture × traffic kind
CELLS = [(arch, kind, load)
         for arch in sorted(REGISTRY)
         for kind in TRAFFIC_KINDS[REGISTRY[arch].kind]
         for load in _loads(kind)]

#: the cells ``prepare`` refuses, and the error each raises
REFUSED = {
    ("pipelined_batch", "renewal", LOAD): FastPathUnsupportedError,
    ("pipelined_batch", "trace", LOAD): FastPathUnsupportedError,
    **{(arch, "saturating", LOAD): ScenarioError
       for arch in sorted(REGISTRY) if REGISTRY[arch].kind == WORD},
}

RUNNABLE = [cell for cell in CELLS if cell not in REFUSED]


def scenario(cell, **fields):
    arch, kind, load = cell
    traffic = {"kind": kind, "load": load}
    if kind == "trace":
        traffic["params"] = {"schedule": TRACE_SCHEDULE}
    return Scenario(name=f"{arch}-{kind}-{load}", arch=arch, horizon=HORIZON,
                    traffic=traffic, seeds=[SEED], **fields)


@cache
def prepared():
    """Every runnable cell, prepared (not run): ``[(cell, Prepared)]``."""
    return [(cell, prepare(scenario(cell))) for cell in RUNNABLE]


#: one address per port of the default 8-port switch: every word kernel
#: then drops packets, so the drop counters it registers on first drop
#: meet the slotted family's in the metric contracts
METERED_WORD_PARAMS = {"addresses": 8}

#: the slotted architectures whose drops are settled late, after
#: admission: one concentrator output per port (cause ``knockout``) and a
#: cap of one cell per output queue (cause ``policy``) make them drop, so
#: the counters ``_record_late_drop`` registers on first drop are compared
METERED_LATE_DROP_PARAMS = {
    "knockout": {"l_paths": 1},
    "shared": {"capacity": 8, "policy": "static:cap=1"},
}


@cache
def metered():
    """Every runnable cell of a telemetry-capable architecture, run with
    metrics on: ``[(cell, Prepared)]``."""
    runs = []
    for cell in RUNNABLE:
        adef = REGISTRY[cell[0]]
        if adef.telemetry_ok:
            params = (METERED_WORD_PARAMS if adef.kind == WORD
                      else METERED_LATE_DROP_PARAMS.get(cell[0], {}))
            prep = prepare(scenario(cell, params=params,
                                    telemetry={"metrics": True}))
            prep.execute()
            runs.append((cell, prep))
    return runs


def _cell_id(cell):
    return "-".join(map(str, cell))


def _import_all():
    """Import every ``repro`` module, so every subclass is defined;
    ``repro.__main__`` would run the CLI."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name != "repro.__main__":
            importlib.import_module(info.name)


def _repro_subclasses(root, package):
    """Public transitive subclasses of ``root`` defined under ``package``
    (test modules define subclasses of their own)."""
    found, todo = set(), [root]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in found:
                found.add(sub)
                todo.append(sub)
    return {cls for cls in found
            if cls.__module__.startswith(package + ".")
            and not cls.__name__.startswith("_")}


def _built_types(switch):
    types = {type(switch)}
    if isinstance(switch, OmegaFabric):
        types.update(type(e) for rank in switch.elements for e in rank)
    return types


# -- the matrix itself -------------------------------------------------------

def test_matrix_covers_every_arch_and_kind():
    assert {arch for arch, _, _ in CELLS} == set(REGISTRY)
    assert set(REFUSED) <= set(CELLS)
    for arch, adef in REGISTRY.items():
        assert {k for a, k, _ in CELLS if a == arch} == set(
            TRAFFIC_KINDS[adef.kind]), arch


@pytest.mark.parametrize("cell", sorted(REFUSED), ids=_cell_id)
def test_refused_cells_raise_their_named_error(cell):
    with pytest.raises(REFUSED[cell]):
        prepare(scenario(cell))


# -- DRC121, DRC131: registry coverage and API shape --------------------------

def test_every_slotted_class_is_built_by_a_cell():
    _import_all()
    classes = _repro_subclasses(SlottedSwitch, "repro.switches")
    abstract = sorted(cls.__name__ for cls in classes if inspect.isabstract(cls))
    assert not abstract, (
        f"slotted classes left abstract (missing _admit, _select_departures "
        f"or occupancy): {abstract}")
    built = set().union(*(_built_types(p.switch) for _, p in prepared()))
    orphans = sorted(cls.__name__ for cls in classes - built)
    assert not orphans, f"slotted classes no registry cell builds: {orphans}"


def test_every_word_kernel_is_built_by_a_word_cell():
    by_arch = {}
    for (arch, _, _), prep in prepared():
        by_arch.setdefault(arch, set()).add(type(prep.switch))
    word = set().union(*(types for arch, types in by_arch.items()
                         if REGISTRY[arch].kind == WORD))
    assert word == set(WORD_KERNELS), (
        f"word kernels no word cell builds: "
        f"{sorted(k.__name__ for k in set(WORD_KERNELS) - word)}")
    # pipelined_fast routes each cell to the batch or the checked kernel
    assert by_arch["pipelined_fast"] == {PipelinedSwitch, BatchPipelinedSwitch}
    for kernel in WORD_KERNELS:
        assert callable(getattr(kernel, "run", None)), kernel.__name__


# -- DRC122: policy and drop-cause coverage -----------------------------------

def _policy_spec(key):
    params = ",".join(f"{name}=1" for name in POLICIES[key]._params)
    return f"{key}:{params}" if params else key


def test_every_policy_is_registered_and_prepares():
    _import_all()
    public = _repro_subclasses(AdmissionPolicy, "repro")
    assert public == set(POLICIES.values()), (
        f"policies missing from POLICIES: "
        f"{sorted(c.__name__ for c in public - set(POLICIES.values()))}")
    for key, cls in POLICIES.items():
        # a policy rations a finite pool: the shared cell gets a capacity
        for arch, kind, params in (("shared", "uniform", {"capacity": 32}),
                                   ("pipelined", "renewal_tape", {})):
            prep = prepare(Scenario(
                name=f"{arch}-{key}", arch=arch, horizon=HORIZON,
                params={**params, "policy": _policy_spec(key)},
                traffic={"kind": kind, "load": LOAD}, seeds=[SEED]))
            assert type(prep.switch.policy) is cls, (arch, key)


def test_drop_cause_constants_match_taxonomy():
    causes = {value for name, value in vars(events).items()
              if name.startswith("DROP_") and isinstance(value, str)}
    taxonomy = set(events.DROP_CAUSES)
    assert causes == taxonomy, (
        f"DROP_* causes missing from DROP_CAUSES: {sorted(causes - taxonomy)}; "
        f"DROP_CAUSES entries with no constant: {sorted(taxonomy - causes)}")


# -- DRC141: one owner per stream ----------------------------------------------

_LEAVES = (str, bytes, Number, np.ndarray, type, ModuleType, FunctionType)


def reachable(roots, kind):
    """``(obj, owner, owner path, path)`` for each ``kind`` instance
    reachable from ``roots`` (name -> object) through ``__dict__``,
    ``__slots__``, containers and bound methods.  The owner of an instance
    is the object whose attribute holds it, directly or through
    containers."""
    hits = []
    walked = set()  # objects by id; containers by (id, owner id)

    def visit(obj, owner, owner_path, path):
        if isinstance(obj, kind):
            hits.append((obj, owner, owner_path, path))
        elif isinstance(obj, _LEAVES):
            return
        elif isinstance(obj, (dict, list, tuple, deque, set, frozenset)):
            key = (id(obj), id(owner))
            if key in walked:
                return
            walked.add(key)
            items = obj.items() if isinstance(obj, dict) else enumerate(obj)
            for k, v in items:
                visit(v, owner, owner_path, f"{path}[{k!r}]")
        elif isinstance(obj, (MethodType, BuiltinMethodType)):
            if not isinstance(obj.__self__, ModuleType):
                visit(obj.__self__, owner, owner_path, f"{path}.__self__")
        elif id(obj) not in walked:
            walked.add(id(obj))
            for name, value in _fields(obj).items():
                visit(value, obj, path, f"{path}.{name}")

    for name, root in roots.items():
        visit(root, None, name, name)
    return hits


def generator_owners(roots):
    """id(Generator) -> {id(owner): owner path} over every generator
    :func:`reachable` from ``roots``."""
    owners = {}
    for gen, owner, owner_path, _ in reachable(roots, np.random.Generator):
        owners.setdefault(id(gen), {})[id(owner)] = owner_path
    return owners


def test_each_generator_has_one_owner():
    shared = []
    n_generators = 0
    for cell, prep in prepared():
        owners = generator_owners({"switch": prep.switch, "source": prep.source})
        n_generators += len(owners)
        shared.extend(f"{_cell_id(cell)}: {sorted(paths.values())}"
                      for paths in owners.values() if len(paths) > 1)
    assert n_generators, "the walk reached no generator"
    assert not shared, "generators with several owners:\n  " + "\n  ".join(shared)


class _Holder:
    def __init__(self, rng):
        self.rng = rng


def test_generator_owners_sees_a_shared_stream():
    """One spawned stream handed to two owners, once through a list."""
    stream = spawn(make_rng(7), 4)[0]
    pair = {"a": _Holder(stream), "b": _Holder([stream])}
    assert [len(p) for p in generator_owners(pair).values()] == [2]


def test_generator_owners_integer_seed_twice_is_clean():
    """Two generators from one integer seed are two streams, one owner
    each: kernels compared on equal seeds build them this way."""
    own = {"a": _Holder(make_rng(7)), "b": _Holder(make_rng(7))}
    assert [len(p) for p in generator_owners(own).values()] == [1, 1]


# -- DRC102, DRC103: no global RNG state -------------------------------------

#: the packages whose results must be bit-repeatable per seed
SIM_PACKAGES = ("sim", "core", "switches", "fabric", "network")
#: the ``numpy.random`` names that hold no global state
GENERATOR_API = frozenset({"Generator", "default_rng", "SeedSequence",
                           "BitGenerator", "PCG64", "Philox", "SFC64", "MT19937"})


def _global_rng_uses(tree):
    """``(line, what)`` for each use of global RNG state in one module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            uses = [f"import {a.name}" for a in node.names
                    if a.name.split(".")[0] == "random"]
        elif isinstance(node, ast.ImportFrom) and node.module == "random":
            uses = ["from random import ..."]
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.random":
            uses = [f"from numpy.random import {a.name}" for a in node.names
                    if a.name not in GENERATOR_API]
        elif (isinstance(node, ast.Attribute) and node.attr not in GENERATOR_API
              and isinstance(node.value, ast.Attribute)
              and node.value.attr == "random"
              and isinstance(node.value.value, ast.Name)
              and node.value.value.id in ("np", "numpy")):
            uses = [f"{node.value.value.id}.random.{node.attr}"]
        else:
            continue
        yield from ((node.lineno, use) for use in uses)


def test_sim_packages_use_no_global_rng():
    """Global RNG state escapes the checkpoint codec even when it is
    reseeded for every cell, so the simulation packages draw only from
    seeded Generators.  Reads the tree ``repro`` was imported from."""
    root = Path(repro.__file__).parent
    uses = [f"{path.relative_to(root.parent)}:{line}: {use}"
            for package in SIM_PACKAGES
            for path in sorted((root / package).rglob("*.py"))
            for line, use in _global_rng_uses(ast.parse(path.read_text()))]
    assert not uses, "global RNG state in a simulation package:\n  " + "\n  ".join(uses)


# -- DRC111, DRC112: metric discipline -----------------------------------------

_METRICS = (CounterMetric, GaugeMetric, HistogramMetric)


def test_each_metric_name_has_one_shape():
    """One name, one (type, label keys) across every cell, so exported
    series merge instead of fragmenting."""
    shapes = {}  # name -> {(type, label keys): first cell}
    causes = set()  # drop causes the metered cells counted
    for cell, prep in metered():
        for metric in prep.telemetry.metrics:
            shape = (type(metric).__name__, tuple(k for k, _ in metric.labels))
            shapes.setdefault(metric.name, {}).setdefault(shape, _cell_id(cell))
            causes.add(dict(metric.labels).get("cause"))
    assert shapes, "no cell registered a metric"
    late = {events.DROP_KNOCKOUT, events.DROP_POLICY}
    assert late <= causes, f"no metered cell dropped with {sorted(late - causes)}"
    split = [f"{name}: " + "; ".join(f"{kind}{list(keys)} in {cell}"
                                     for (kind, keys), cell in by_shape.items())
             for name, by_shape in sorted(shapes.items()) if len(by_shape) > 1]
    assert not split, "metric names with several shapes:\n  " + "\n  ".join(split)


def test_every_metric_is_in_its_cell_registry():
    """A metric built outside ``MetricsRegistry`` never reaches an
    exporter, a checkpoint or the drop taxonomy."""
    stray = {}
    n_metrics = 0
    for cell, prep in metered():
        registered = {id(metric) for metric in prep.telemetry.metrics}
        hits = reachable({"switch": prep.switch, "source": prep.source}, _METRICS)
        n_metrics += len(registered)
        for metric, _, _, path in hits:
            if id(metric) not in registered:
                stray.setdefault(id(metric), f"{_cell_id(cell)}: {metric.name} at {path}")
    assert n_metrics, "no cell registered a metric"
    assert not stray, "metrics outside their cell's registry:\n  " + "\n  ".join(
        stray.values())


# -- DRC101, DRC104, DRC142: no entropy seeds, clocks or set order ---------------

_RUN_MATRIX = """
import json
from repro.scenario.registry import run_scenario
from tests.scenario.test_contracts import RUNNABLE, scenario
print(json.dumps([run_scenario(scenario(cell)) for cell in RUNNABLE]))
"""

#: one hash seed per interpreter, so set iteration order differs between
#: them; the fixed pair makes a pinned mutation fail every run, and a fresh
#: seed each run samples further orders
HASH_SEEDS = ("1", "987654", str(random.randrange(1, 2**32)))


def _diverged(results, others):
    """Names of the cells whose results serialize to different bytes: dict
    equality would miss a reordering of keys."""
    return [r["scenario"] for r, s in zip(results, others)
            if json.dumps(r) != json.dumps(s)]


def test_fresh_interpreters_agree():
    """A wall-clock read, an entropy seed or set iteration that reaches a
    result makes the runs disagree."""
    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
    procs = [subprocess.Popen([sys.executable, "-c", _RUN_MATRIX], cwd=REPO,
                              env={**env, "PYTHONHASHSEED": hash_seed},
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)
             for hash_seed in HASH_SEEDS]
    outs = []
    for proc in procs:
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err[-2000:]
        outs.append(json.loads(out))
    assert len(outs[0]) == len(RUNNABLE)
    diverged = {seed: cells for seed, out in zip(HASH_SEEDS[1:], outs[1:])
                if (cells := _diverged(outs[0], out))}
    assert not diverged, (f"results differ between interpreters: PYTHONHASHSEED "
                          f"{HASH_SEEDS[0]} against {diverged}")


# -- DRC143: no worker capture ------------------------------------------------

def test_runner_jobs_agree():
    scenarios = [scenario(cell) for cell in RUNNABLE]
    sequential = ScenarioRunner(jobs=1).run(scenarios)
    parallel = ScenarioRunner(jobs=2).run(scenarios)
    diverged = _diverged(sequential, parallel)
    assert len(parallel) == len(RUNNABLE)
    assert not diverged, f"results differ between jobs=1 and jobs=2: {diverged}"
