"""The architecture registry: every kernel in the repo behind one name.

Each :class:`ArchitectureDef` maps a scenario ``arch`` string to a builder
for one of the four model families:

* ``slotted`` — the §2 cell-per-slot architectures (:mod:`repro.switches`);
* ``word`` — the word/cycle-accurate kernels (:mod:`repro.core`): the
  checked and fast pipelined-memory switches, the wide-memory baseline,
  and the §3.5 split buffer;
* ``fabric`` — the omega multistage fabric, with any slotted architecture
  as its element;
* ``network`` — the [Dally90] wormhole k-ary n-cube.

:func:`prepare` turns a (scenario, seed) pair into a ready-to-run
:class:`Prepared` without running it — benchmarks that need to own the
timing loop build through it; :func:`run_scenario` prepares *and*
executes, returning one JSON-serializable result dict.  Determinism:
``prepare`` resets the global packet-uid counter, so a scenario's result
is bit-identical no matter how many scenarios ran before it in the same
process — the property the parallel sweep runner relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.drc.sanitizer import Sanitizer
from repro.scenario.spec import Scenario, ScenarioError, TrafficSpec, _suggest
from repro.sim.packet import reset_packet_ids
from repro.telemetry import Telemetry

SLOTTED, WORD, FABRIC, NETWORK = "slotted", "word", "fabric", "network"

#: traffic kinds each architecture family understands
TRAFFIC_KINDS: dict[str, tuple[str, ...]] = {
    SLOTTED: ("uniform", "bursty", "hotspot", "rotating", "permutation"),
    WORD: ("renewal", "renewal_tape", "saturating", "trace"),
    FABRIC: ("uniform", "bursty", "hotspot"),
    NETWORK: ("uniform",),
}


@dataclass(frozen=True)
class ArchitectureDef:
    """One registry entry (see module docstring)."""

    name: str
    kind: str  # SLOTTED | WORD | FABRIC | NETWORK
    description: str
    params: Mapping[str, Any]  # allowed config params -> defaults
    build: Callable[..., Any]  # kind-specific builder (see _prepare_* below)
    telemetry_ok: bool = False
    drain_ok: bool = False
    sanitize_ok: bool = False  # kernel has repro.drc sanitizer hook sites


REGISTRY: dict[str, ArchitectureDef] = {}


def _register(arch: ArchitectureDef) -> None:
    if arch.name in REGISTRY:
        raise AssertionError(f"duplicate architecture {arch.name!r}")
    REGISTRY[arch.name] = arch


def architectures() -> dict[str, ArchitectureDef]:
    """Name -> definition for every registered architecture."""
    return dict(REGISTRY)


# -- slotted architectures ---------------------------------------------------

def _slotted(name: str, description: str, build, extra: Mapping[str, Any] = {}):
    _register(ArchitectureDef(
        name=name, kind=SLOTTED, description=description,
        params={"n": 8, "capacity": None, **extra}, build=build,
        telemetry_ok=True, sanitize_ok=True,
    ))


def _build_fifo(p, seed):
    from repro import switches as sw
    return sw.FifoInputQueued(p["n"], p["n"], capacity=p["capacity"], seed=seed)


def _build_windowed(p, seed):
    from repro import switches as sw
    return sw.WindowedInputQueued(p["n"], p["n"], window=p["window"],
                                  capacity=p["capacity"], seed=seed)


def _build_voq(p, seed):
    from repro import switches as sw
    schedulers = {
        "pim": lambda: sw.PIM(iterations=p["iterations"], seed=seed),
        "islip": lambda: sw.Islip(iterations=p["iterations"]),
        "2drr": sw.TwoDimRoundRobin,
        "greedy": lambda: sw.GreedyMaximal(seed=seed),
        "max": sw.MaxSizeMatching,
    }
    try:
        sched = schedulers[p["scheduler"]]()
    except KeyError:
        raise ScenarioError(
            f"unknown voq scheduler {p['scheduler']!r}"
            f"{_suggest(str(p['scheduler']), schedulers)}; "
            f"valid schedulers: {', '.join(sorted(schedulers))}"
        ) from None
    return sw.VoqInputBuffered(p["n"], p["n"], sched,
                               capacity_per_input=p["capacity"])


def _build_output(p, seed):
    from repro import switches as sw
    return sw.OutputQueued(p["n"], p["n"], capacity=p["capacity"], seed=seed)


def _build_shared(p, seed):
    from repro import switches as sw
    return sw.SharedBuffer(p["n"], p["n"], capacity=p["capacity"], seed=seed,
                           policy=p["policy"])


def _build_crosspoint(p, seed):
    from repro import switches as sw
    return sw.CrosspointQueued(p["n"], p["n"], capacity=p["capacity"], seed=seed)


def _build_block(p, seed):
    from repro import switches as sw
    block = p["block"] if p["block"] is not None else max(p["n"] // 2, 1)
    return sw.BlockCrosspoint(p["n"], p["n"], block=block,
                              capacity_per_block=p["capacity"], seed=seed)


def _build_speedup(p, seed):
    from repro import switches as sw
    return sw.SpeedupSwitch(p["n"], p["n"], speedup=p["speedup"],
                            output_capacity=p["capacity"], seed=seed)


def _build_interleaved(p, seed):
    from repro import switches as sw
    # capacity doubles as the bank count here: PRIZMA shares one cell slot
    # per bank, so "buffer capacity" and "m_banks" are the same knob
    m_banks = p["m_banks"] if p["m_banks"] is not None else (
        p["capacity"] or 4 * p["n"])
    return sw.InterleavedSharedBuffer(p["n"], p["n"], m_banks=m_banks, seed=seed)


def _build_knockout(p, seed):
    from repro import switches as sw
    return sw.KnockoutSwitch(p["n"], p["n"], l_paths=p["l_paths"],
                             capacity=p["capacity"], seed=seed)


_slotted("fifo", "FIFO input queueing ([KaHM87] HoL-limited)", _build_fifo)
_slotted("windowed", "input queueing with lookahead window w", _build_windowed,
         {"window": 4})
_slotted("voq", "virtual output queues + matching scheduler", _build_voq,
         {"scheduler": "islip", "iterations": 4})
_slotted("output", "dedicated per-output queues", _build_output)
_slotted("shared", "ideal shared buffer (the paper's target)", _build_shared,
         {"policy": "complete"})
_slotted("crosspoint", "per-crosspoint queues", _build_crosspoint)
_slotted("block", "block-crosspoint queues", _build_block, {"block": None})
_slotted("speedup", "speedup-s fabric + output queues", _build_speedup,
         {"speedup": 2})
_slotted("interleaved", "PRIZMA-style interleaved shared banks",
         _build_interleaved, {"m_banks": None})
_slotted("knockout", "knockout concentrator (L paths)", _build_knockout,
         {"l_paths": 8})


# -- word-level kernels ------------------------------------------------------

_PIPELINED_PARAMS: Mapping[str, Any] = {
    "n": 8, "addresses": 256, "width_bits": 16, "depth": None, "quanta": 1,
    "priority": "reads_first", "cut_through": True, "credit_flow": False,
    "credits_per_input": None, "downstream_credits": None, "downstream_rtt": 0,
    "link_pipeline_stages": 0, "policy": "complete",
}


def _pipelined_config(p):
    from repro.core import PipelinedSwitchConfig
    from repro.core.arbiter import Priority

    try:
        priority = Priority(p["priority"])
    except ValueError:
        raise ScenarioError(
            f"unknown arbitration priority {p['priority']!r}; valid: "
            f"{', '.join(m.value for m in Priority)}"
        ) from None
    return PipelinedSwitchConfig(
        n=p["n"], addresses=p["addresses"], width_bits=p["width_bits"],
        depth=p["depth"], quanta=p["quanta"], priority=priority,
        cut_through=p["cut_through"], credit_flow=p["credit_flow"],
        credits_per_input=p["credits_per_input"],
        downstream_credits=p["downstream_credits"],
        downstream_rtt=p["downstream_rtt"],
        link_pipeline_stages=p["link_pipeline_stages"],
        policy=p["policy"],
    )


def _build_pipelined(p, source, telemetry, sanitizer=None):
    from repro.core import make_pipelined_switch
    return make_pipelined_switch(_pipelined_config(p), source, fast=False,
                                 telemetry=telemetry, sanitizer=sanitizer)


def _build_pipelined_fast(p, source, telemetry, sanitizer=None):
    """The batch kernel whenever it models the cell, else the wave kernel:
    both are bit-identical to the checked one, and the batch kernel skips
    idle cycles.  ``run.kernel`` in the result says which one ran."""
    from repro.core import make_pipelined_switch
    from repro.core.batchpath import batch_refusal

    cfg = _pipelined_config(p)
    kernel = "fast" if batch_refusal(cfg, source, sanitizer) else "batch"
    return make_pipelined_switch(cfg, source, kernel=kernel,
                                 telemetry=telemetry, sanitizer=sanitizer)


#: batch-kernel extras on top of the pipelined config params
_PIPELINED_BATCH_PARAMS: Mapping[str, Any] = {
    **_PIPELINED_PARAMS, "batch_cycles": None,
}


def _build_pipelined_batch(p, source, telemetry, sanitizer=None):
    from repro.core import make_pipelined_switch
    return make_pipelined_switch(_pipelined_config(p), source, kernel="batch",
                                 telemetry=telemetry, sanitizer=sanitizer,
                                 batch_cycles=p["batch_cycles"])


def _wide_config(p):
    from repro.core import WideSwitchConfig
    return WideSwitchConfig(n=p["n"], addresses=p["addresses"],
                            width_bits=p["width_bits"], depth=p["depth"],
                            cut_through=p["cut_through"])


def _build_wide(p, source, telemetry, sanitizer=None):
    from repro.core import WideMemorySwitch
    return WideMemorySwitch(_wide_config(p), source)


def _split_config(p):
    from repro.core import SplitBufferConfig
    return SplitBufferConfig(n=p["n"], addresses_each=p["addresses_each"],
                             width_bits=p["width_bits"])


def _build_split(p, source, telemetry, sanitizer=None):
    from repro.core import SplitPipelinedBuffer
    return SplitPipelinedBuffer(_split_config(p), source)


#: word archs: (config builder, switch builder) — config first so the
#: traffic source can be shaped (packet_words) before the switch exists.
_WORD_BUILDERS = {
    "pipelined": (_pipelined_config, _build_pipelined),
    "pipelined_fast": (_pipelined_config, _build_pipelined_fast),
    "pipelined_batch": (_pipelined_config, _build_pipelined_batch),
    "wide": (_wide_config, _build_wide),
    "split": (_split_config, _build_split),
}

_register(ArchitectureDef(
    name="pipelined", kind=WORD,
    description="checked word-level pipelined-memory switch (paper §3)",
    params=_PIPELINED_PARAMS, build=_WORD_BUILDERS["pipelined"],
    telemetry_ok=True, drain_ok=True, sanitize_ok=True,
))
_register(ArchitectureDef(
    name="pipelined_fast", kind=WORD,
    description="fastest bit-identical kernel: the batch kernel when it "
                "models the cell, else the wave-level fast kernel",
    params=_PIPELINED_PARAMS, build=_WORD_BUILDERS["pipelined_fast"],
    telemetry_ok=True, drain_ok=True, sanitize_ok=True,
))
_register(ArchitectureDef(
    name="pipelined_batch", kind=WORD,
    description="array-batched kernel (bit-identical statistics in "
                "cycle batches)",
    params=_PIPELINED_BATCH_PARAMS, build=_WORD_BUILDERS["pipelined_batch"],
    telemetry_ok=True, drain_ok=True, sanitize_ok=False,
))
_register(ArchitectureDef(
    name="wide", kind=WORD,
    description="wide-memory shared buffer (paper figure 3 baseline)",
    params={"n": 8, "addresses": 256, "width_bits": 16, "depth": None,
            "cut_through": False},
    build=_WORD_BUILDERS["wide"], drain_ok=True,
))
_register(ArchitectureDef(
    name="split", kind=WORD,
    description="two half-depth pipelined memories (paper §3.5)",
    params={"n": 8, "addresses_each": 128, "width_bits": 16},
    build=_WORD_BUILDERS["split"],
))


# -- fabric and network ------------------------------------------------------

def _build_fabric(p, seed):
    from repro.fabric import OmegaFabric

    element = p["element"]
    edef = REGISTRY.get(element)
    if edef is None or edef.kind != SLOTTED:
        slotted = sorted(a.name for a in REGISTRY.values() if a.kind == SLOTTED)
        raise ScenarioError(
            f"fabric element {element!r} is not a slotted architecture"
            f"{_suggest(str(element), slotted)}; valid elements: "
            f"{', '.join(slotted)}"
        )
    eparams = _merged_params(edef, dict(p["element_params"] or {}, n=p["k"]),
                             where=f"fabric element {element!r}")
    return OmegaFabric(p["k"], p["stages"],
                       lambda: edef.build(eparams, seed))


_register(ArchitectureDef(
    name="fabric", kind=FABRIC,
    description="omega multistage fabric of k x k slotted elements",
    params={"k": 8, "stages": 2, "element": "shared", "element_params": None},
    build=_build_fabric, drain_ok=True,
))


def _build_wormhole(p, load, seed):
    from repro.network import KAryNCube, WormholeNetwork

    topo = KAryNCube(p["k"], p["dims"], wrap=p["wrap"])
    return WormholeNetwork(
        topo, lanes=p["lanes"], buffer_flits=p["buffer_flits"],
        message_flits=p["message_flits"], load=load, seed=seed,
        max_source_queue=p["max_source_queue"], dateline=p["dateline"],
    )


_register(ArchitectureDef(
    name="wormhole", kind=NETWORK,
    description="wormhole k-ary n-cube with virtual-channel lanes [Dally90]",
    params={"k": 8, "dims": 2, "lanes": 1, "buffer_flits": 16,
            "message_flits": 20, "wrap": False, "dateline": False,
            "max_source_queue": 64},
    build=_build_wormhole,
))


# -- validation --------------------------------------------------------------

def _arch_def(arch: str) -> ArchitectureDef:
    adef = REGISTRY.get(arch)
    if adef is None:
        names = sorted(REGISTRY)
        raise ScenarioError(
            f"unknown architecture {arch!r}{_suggest(arch, names)}; "
            f"registered architectures: {', '.join(names)}"
        )
    return adef


def _merged_params(adef: ArchitectureDef, params: Mapping[str, Any],
                   where: str) -> dict[str, Any]:
    unknown = set(params) - set(adef.params)
    if unknown:
        bad = sorted(unknown)[0]
        raise ScenarioError(
            f"{where}: unknown parameter {bad!r}{_suggest(bad, adef.params)}; "
            f"parameters of {adef.name!r}: {', '.join(sorted(adef.params))}"
        )
    return {**adef.params, **params}


def validate_scenario(scenario: Scenario) -> ArchitectureDef:
    """Full validation of a scenario against the registry.

    Returns the architecture definition; raises :class:`ScenarioError`
    with an actionable message otherwise.
    """
    scenario.validate()
    adef = _arch_def(scenario.arch)
    _merged_params(adef, scenario.params, where=f"scenario {scenario.name!r}")
    kinds = TRAFFIC_KINDS[adef.kind]
    if scenario.traffic.kind not in kinds:
        raise ScenarioError(
            f"scenario {scenario.name!r}: traffic kind "
            f"{scenario.traffic.kind!r} is not available for {adef.kind} "
            f"architecture {scenario.arch!r}"
            f"{_suggest(scenario.traffic.kind, kinds)}; valid kinds: "
            f"{', '.join(kinds)}"
        )
    if scenario.traffic.batched and adef.kind != SLOTTED:
        raise ScenarioError(
            f"scenario {scenario.name!r}: batched traffic generation applies "
            f"only to slotted architectures, not {scenario.arch!r}"
        )
    if scenario.traffic.kind == "saturating" and scenario.traffic.load != 1.0:
        raise ScenarioError(
            f"scenario {scenario.name!r}: 'saturating' traffic is load 1.0 "
            f"by definition; set traffic.load to 1.0 (got "
            f"{scenario.traffic.load}) or use 'renewal'"
        )
    if scenario.telemetry.enabled and not adef.telemetry_ok:
        ok = sorted(a.name for a in REGISTRY.values() if a.telemetry_ok)
        raise ScenarioError(
            f"scenario {scenario.name!r}: architecture {scenario.arch!r} has "
            f"no telemetry collection sites; telemetry-capable architectures: "
            f"{', '.join(ok)}"
        )
    if scenario.drain and not adef.drain_ok:
        raise ScenarioError(
            f"scenario {scenario.name!r}: architecture {scenario.arch!r} does "
            f"not support drain; drop 'drain' or use one of: "
            f"{', '.join(sorted(a.name for a in REGISTRY.values() if a.drain_ok))}"
        )
    if "policy" in adef.params and scenario.params.get("policy") is not None:
        # Parse the admission-policy spec now so a sweep full of cells fails
        # before any of them runs, with the policy layer's did-you-mean text.
        from repro.core.errors import ConfigError
        from repro.policy import parse_policy

        try:
            parse_policy(scenario.params["policy"])
        except ConfigError as exc:
            raise ScenarioError(f"scenario {scenario.name!r}: {exc}") from exc
    return adef


# -- traffic construction ----------------------------------------------------

def _slotted_source(traffic: TrafficSpec, n: int, seed: int):
    from repro.traffic import (
        BernoulliUniform,
        BurstyOnOff,
        Hotspot,
        RandomPermutation,
        RotatingPermutation,
    )

    p = traffic.params
    if traffic.kind == "uniform":
        return BernoulliUniform(n, n, traffic.load, seed=seed)
    if traffic.kind == "bursty":
        return BurstyOnOff(n, n, traffic.load, p.get("burst", 8), seed=seed)
    if traffic.kind == "hotspot":
        return Hotspot(n, n, traffic.load, hot=p.get("hot", 0),
                       hot_fraction=p.get("hot_fraction", 0.3), seed=seed)
    if traffic.kind == "rotating":
        return RotatingPermutation(n, traffic.load)
    if traffic.kind == "permutation":
        return RandomPermutation(n, traffic.load, seed=seed)
    raise AssertionError(traffic.kind)


def _word_source(traffic: TrafficSpec, cfg, seed: int):
    from repro.core import BatchRenewalSource, RenewalPacketSource, SaturatingSource

    if traffic.kind == "renewal":
        return RenewalPacketSource(
            n_out=cfg.n, packet_words=cfg.packet_words, load=traffic.load,
            width_bits=cfg.width_bits, seed=seed,
        )
    if traffic.kind == "renewal_tape":
        return BatchRenewalSource(
            n_out=cfg.n, packet_words=cfg.packet_words, load=traffic.load,
            width_bits=cfg.width_bits, seed=seed,
        )
    if traffic.kind == "saturating":
        dests = traffic.params.get("dests")
        return SaturatingSource(
            n_out=cfg.n, packet_words=cfg.packet_words, dests=dests,
            width_bits=cfg.width_bits, seed=seed,
        )
    if traffic.kind == "trace":
        from repro.core import TracePacketSource

        raw = traffic.params.get("schedule")
        if not isinstance(raw, dict):
            raise ScenarioError(
                "trace traffic needs params.schedule: a table mapping input "
                "link -> [[earliest_cycle, dst], ...]"
            )
        schedule = {
            int(link): [(int(c), int(d)) for c, d in items]
            for link, items in raw.items()
        }
        return TracePacketSource(
            n_out=cfg.n, packet_words=cfg.packet_words, schedule=schedule,
            width_bits=cfg.width_bits,
        )
    raise AssertionError(traffic.kind)


# -- preparation and execution -----------------------------------------------

@dataclass
class Prepared:
    """A built-but-not-run simulation for one (scenario, seed) pair.

    ``switch`` is the model object (slotted switch, word-level kernel,
    fabric, or network); ``source`` is the external traffic source for the
    families whose run loop takes one (slotted, fabric) and ``None`` where
    the source lives inside the model.  Benchmarks that must own the
    timing loop use these directly; everyone else calls :meth:`execute`.
    """

    scenario: Scenario
    seed: int
    kind: str
    switch: Any
    source: Any
    telemetry: Telemetry | None
    sanitizer: Sanitizer | None = None

    def execute(self) -> dict[str, Any]:
        """Run to the horizon (plus drain, if requested) and summarize."""
        sc = self.scenario
        stats = _EXECUTORS[self.kind](self)
        result: dict[str, Any] = {
            "scenario": sc.name,
            "arch": sc.arch,
            "kind": self.kind,
            "seed": self.seed,
            "horizon": sc.horizon,
            "warmup": sc.effective_warmup,
            "params": dict(sc.params),
            "traffic": sc.traffic.to_dict(),
            "stats": stats,
        }
        if self.kind == WORD:
            result["run"] = {"kernel": kernel_name(self.switch)}
        if self.sanitizer is not None:
            result["sanitizer"] = self.sanitizer.summary()
        if self.telemetry is not None and self.telemetry.enabled:
            result["telemetry"] = {
                "events": len(self.telemetry.events),
                "drop_taxonomy": self.telemetry.events.drop_taxonomy(),
                "occupancy": self.telemetry.occupancy_series(),
            }
            if self.telemetry.series is not None:
                result["telemetry"]["series"] = self.telemetry.series.summary()
        return _jsonable(result)


def kernel_name(switch: Any) -> str:
    """The kernel tier that ran a word cell: ``batch``, ``fast``, or
    ``checked`` for the word-by-word models (the oracle, wide, split)."""
    from repro.core import BatchPipelinedSwitch, FastPipelinedSwitch

    if isinstance(switch, BatchPipelinedSwitch):
        return "batch"
    if isinstance(switch, FastPipelinedSwitch):
        return "fast"
    return "checked"


def telemetry_from_spec(spec) -> Telemetry:
    """Build the telemetry bundle a :class:`TelemetrySpec` asks for.

    The observability-plane channels are constructed here — a
    :class:`~repro.obs.sampling.SampledEventLog` when ``trace_sample`` is
    set (deterministic, seed-stable packet selection) and a
    :class:`~repro.obs.series.SeriesRing` when ``series`` is set — so
    every entry point (CLI, runner workers, checkpoint cold starts) gets
    an identically-shaped bundle from the same spec.
    """
    events = None
    series = None
    if spec.trace_sample:
        from repro.obs.sampling import SampledEventLog

        events = SampledEventLog(spec.trace_sample, spec.trace_seed)
    if spec.series:
        from repro.obs.series import SeriesRing

        series = SeriesRing(spec.series)
    return Telemetry.on(sample_interval=spec.sample_interval, events=events,
                        series=series)


def prepare(
    scenario: Scenario,
    seed: int | None = None,
    telemetry: Telemetry | None = None,
    sanitize: bool = False,
) -> Prepared:
    """Validate and build one (scenario, seed) simulation (see module doc).

    ``seed`` defaults to the scenario's first seed.  ``telemetry`` defaults
    to a fresh bundle when the scenario's telemetry spec asks for one.
    ``sanitize=True`` attaches a :class:`~repro.drc.Sanitizer` (the
    ``--sanitize`` path): the run halts with a structured
    :class:`~repro.drc.SanitizerError` on the first invariant violation.
    Resets the global packet-uid counter, making the build independent of
    whatever ran earlier in this process.
    """
    adef = validate_scenario(scenario)
    seed = scenario.seeds[0] if seed is None else seed
    if telemetry is None and scenario.telemetry.enabled:
        telemetry = telemetry_from_spec(scenario.telemetry)
    sanitizer: Sanitizer | None = None
    if sanitize:
        if not adef.sanitize_ok:
            ok = sorted(a.name for a in REGISTRY.values() if a.sanitize_ok)
            raise ScenarioError(
                f"scenario {scenario.name!r}: architecture {scenario.arch!r} "
                f"has no sanitizer hook sites; sanitize-capable "
                f"architectures: {', '.join(ok)}"
            )
        sanitizer = Sanitizer(telemetry=telemetry)
    params = _merged_params(adef, scenario.params, where=f"scenario {scenario.name!r}")
    reset_packet_ids()
    source: Any = None
    if adef.kind == SLOTTED:
        switch = adef.build(params, seed)
        source = _slotted_source(scenario.traffic, params["n"], seed + 1)
        if telemetry is not None:
            switch.attach_telemetry(telemetry)
        if sanitizer is not None:
            switch.attach_sanitizer(sanitizer)
        switch.stats.warmup = scenario.effective_warmup
    elif adef.kind == WORD:
        make_config, make_switch = adef.build
        cfg = make_config(params)
        word_source = _word_source(scenario.traffic, cfg, seed)
        switch = make_switch(params, word_source, telemetry, sanitizer)
        switch.warmup = scenario.effective_warmup
    elif adef.kind == FABRIC:
        switch = adef.build(params, seed)
        source = _slotted_source(scenario.traffic, switch.n, seed + 1)
        switch.warmup = scenario.effective_warmup
    else:  # NETWORK
        switch = adef.build(params, scenario.traffic.load, seed)
        switch.warmup = scenario.effective_warmup
    return Prepared(scenario=scenario, seed=seed, kind=adef.kind,
                    switch=switch, source=source, telemetry=telemetry,
                    sanitizer=sanitizer)


def prepared_from_switch(scenario: Scenario, seed: int, switch: Any) -> Prepared:
    """Wrap a checkpoint-restored kernel as a :class:`Prepared`.

    The restored switch carries its own telemetry/sanitizer attachments;
    this re-associates them with the scenario so :func:`execute_prepared`
    runs the remaining ``horizon - switch.cycle`` cycles and summarizes
    exactly like an uninterrupted run.  Only word-level architectures can
    be checkpointed, so only they can be wrapped.
    """
    adef = validate_scenario(scenario)
    if adef.kind != WORD:
        raise ScenarioError(
            f"scenario {scenario.name!r}: checkpoint/restore covers "
            f"word-level kernels only; {scenario.arch!r} is a {adef.kind} "
            f"architecture"
        )
    telemetry = switch.telemetry if switch._tel else None
    sanitizer = switch.sanitizer if switch._san else None
    return Prepared(scenario=scenario, seed=seed, kind=adef.kind,
                    switch=switch, source=None, telemetry=telemetry,
                    sanitizer=sanitizer)


def _execute_slotted(prep: Prepared) -> dict[str, Any]:
    sc, sw = prep.scenario, prep.switch
    if sc.traffic.batched:
        sw.run_fast(prep.source, sc.horizon)
    else:
        sw.run(prep.source, sc.horizon)
    stats = sw.stats.summary()
    stats["occupancy"] = sw.occupancy()
    if hasattr(sw, "policy_drops"):  # shared buffer with an admission policy
        stats["policy_drops"] = sw.policy_drops
    return stats


def _execute_word(prep: Prepared) -> dict[str, Any]:
    sc, sw = prep.scenario, prep.switch
    # Checkpoint-restored kernels start mid-horizon: run only the remainder
    # so a resumed execution lands on the same final cycle.
    remaining = sc.horizon - sw.cycle
    if remaining > 0:
        sw.run(remaining)
    if sc.drain:
        sw.drain()
    stats = {
        "offered": sw.stats.offered,
        "delivered": sw.stats.delivered,
        "dropped": sw.stats.dropped,
        "loss_probability": sw.stats.loss_probability,
        "link_utilization": sw.link_utilization,
        "ct_latency_mean": sw.ct_latency.mean,
        "cycles": sw.cycle,
    }
    if getattr(sw, "trace_ended_at", None) is not None:
        # Finite trace ran dry before the horizon (see satellite bugfix):
        # report the truncation instead of silently billing idle cycles.
        stats["trace_ended_at"] = sw.trace_ended_at
    if hasattr(sw, "deadline_overrides"):  # the two pipelined kernels
        stats.update(
            total_latency_mean=sw.total_latency.mean,
            ct_latency_p99=(sw.ct_latency_hist.quantile(0.99)
                            if sw.ct_latency_hist.total else math.nan),
            cut_through_waves=sw.cut_through_waves,
            plain_read_waves=sw.plain_read_waves,
            write_waves=sw.write_waves,
            idle_cycles=sw.idle_cycles,
            deadline_overrides=sw.deadline_overrides,
            overrun_drops=sw.overrun_drops,
            policy_drops=sw.policy_drops,
        )
    elif hasattr(sw, "memory_reads"):  # wide-memory baseline
        stats.update(
            memory_reads=sw.memory_reads, memory_writes=sw.memory_writes,
            cut_throughs=sw.cut_throughs, staging_drops=sw.staging_drops,
        )
    else:  # split buffer
        stats.update(
            cut_through_waves=sw.cut_through_waves,
            plain_read_waves=sw.plain_read_waves,
            write_waves=sw.write_waves,
            drops=sw.drops,
        )
    return stats


def _execute_fabric(prep: Prepared) -> dict[str, Any]:
    sc, fab = prep.scenario, prep.switch
    fab.run(prep.source, sc.horizon)
    if sc.drain:
        fab.drain()
    return dict(fab.summary())


def _execute_network(prep: Prepared) -> dict[str, Any]:
    net = prep.switch
    net.run(prep.scenario.horizon)
    return dict(net.summary())


_EXECUTORS = {
    SLOTTED: _execute_slotted,
    WORD: _execute_word,
    FABRIC: _execute_fabric,
    NETWORK: _execute_network,
}


def run_scenario(
    scenario: Scenario,
    seed: int | None = None,
    telemetry: Telemetry | None = None,
    out_dir: str | Path | None = None,
    sanitize: bool = False,
) -> dict[str, Any]:
    """Build, run and summarize one (scenario, seed) pair.

    With ``out_dir`` set and telemetry requested by the scenario, the
    events/metrics artifacts are written there as
    ``<name>-seed<seed>.events.jsonl`` / ``.metrics.txt`` (the runner
    routes workers through this, so exports happen in the worker that owns
    the telemetry bundle).  ``sanitize=True`` runs with the invariant
    sanitizer attached (see :func:`prepare`) and adds its summary to the
    result.
    """
    prep = prepare(scenario, seed, telemetry, sanitize=sanitize)
    return execute_prepared(prep, out_dir=out_dir)


def execute_prepared(
    prep: Prepared, out_dir: str | Path | None = None
) -> dict[str, Any]:
    """Execute a :class:`Prepared` simulation and export its artifacts.

    The tail half of :func:`run_scenario`, split out so checkpoint-aware
    callers (``repro run --resume``, the sweep runner's warmup-prefix
    forks) can execute a restored switch through the exact same
    summarize-and-export path as a cold one.
    """
    scenario = prep.scenario
    result = prep.execute()
    if out_dir is not None and prep.telemetry is not None and prep.telemetry.enabled:
        from repro.telemetry.export import write_events_jsonl, write_metrics_text

        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        stem = f"{scenario.name}-seed{result['seed']}"
        artifacts = {}
        if scenario.telemetry.events:
            events_path = out / f"{stem}.events.jsonl"
            write_events_jsonl(prep.telemetry.events, events_path)
            artifacts["events"] = events_path.name
        if scenario.telemetry.metrics:
            metrics_path = out / f"{stem}.metrics.txt"
            write_metrics_text(prep.telemetry.metrics, metrics_path)
            artifacts["metrics"] = metrics_path.name
        if scenario.telemetry.trace_sample:
            from repro.obs.spans import spans_from_events, write_spans_jsonl

            cfg = getattr(prep.switch, "config", None)
            if cfg is not None and hasattr(cfg, "depth"):
                spans = spans_from_events(
                    prep.telemetry.events.sorted_events(),
                    depth=cfg.depth, quanta=cfg.quanta,
                    horizon=prep.switch.cycle,
                )
                spans_path = out / f"{stem}.spans.jsonl"
                write_spans_jsonl(spans, spans_path)
                artifacts["spans"] = spans_path.name
        if scenario.telemetry.series and prep.telemetry.series is not None:
            series_path = out / f"{stem}.series.jsonl"
            # Deterministic columns only — rate columns are for live views.
            series_path.write_text(
                prep.telemetry.series.to_jsonl(include_rates=False)
            )
            artifacts["series"] = series_path.name
        if artifacts:
            result["telemetry"]["artifacts"] = artifacts
    return result


def slotted_factory(arch: str, seed: int = 1, **params) -> Callable[[], Any]:
    """A zero-argument factory for a slotted switch, via the registry.

    The harness sweep helpers take switch factories; this builds them from
    registry names so sweeps and benches never touch constructors:
    ``slotted_factory("voq", n=8, scheduler="pim")``.
    """
    adef = _arch_def(arch)
    if adef.kind != SLOTTED:
        raise ScenarioError(
            f"slotted_factory builds slot-level switches; {arch!r} is a "
            f"{adef.kind} architecture — use prepare()/run_scenario() for it"
        )
    merged = _merged_params(adef, params, where=f"slotted_factory({arch!r})")
    return lambda: adef.build(merged, seed)


def _jsonable(value: Any) -> Any:
    """Strict-JSON form: NaN/inf -> None, tuples -> lists, keys -> str."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value
