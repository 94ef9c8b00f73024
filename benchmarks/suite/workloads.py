"""The suite's four workloads: their cells, timed sweeps and correctness gates.

Every call into the simulator goes through a public entry point:
``load_scenarios`` (which expands sweep documents through
``Scenario.expand``), ``validate_scenario``, ``ScenarioRunner``,
``prepare``/``execute_prepared`` and ``repro.checkpoint``.  The spec files
under ``specs/`` are frozen copies: renaming an arch, cell or horizon they
use is a change of the benchmark.

A run of one workload (:func:`execute`) repeats the whole sweep, untraced,
until ``seconds`` have passed.  It reports the median repetition, with
each repetition's time scaled to the reference host's speed by the probes
around it (see :mod:`probe`).  With ``trace`` it then runs one traced pass
at ``jobs=1`` and reports the per-layer table instead of the end-to-end
metrics.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import resource
import shutil
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from statistics import median
from typing import Any, Callable, ContextManager

from probe import probe, scaled
from repro.scenario import Scenario, ScenarioRunner, load_scenarios, validate_scenario
from repro.scenario import runner as scenario_runner

SUITE = Path(__file__).resolve().parent
SPECS = SUITE / "specs"
GOLDEN = SUITE / "golden"

#: ``--smoke`` divides every horizon, checkpoint interval and oracle prefix by this
SMOKE_DIVISOR = 20
#: leading cycles of each accelerated word cell replayed on the checked kernel
ORACLE_CYCLES = 10_000
#: the accelerated kernels the oracle checks against the checked ``pipelined``
ACCELERATED = ("pipelined_fast", "pipelined_batch")
#: seeds whose stats digests ``record-golden`` writes under golden/
GOLDEN_SEEDS = range(1, 11)
#: job ``j`` of a run with ``--seed s`` simulates seed ``s * SEED_STRIDE + j``
SEED_STRIDE = 1000
#: collectors the oracle fingerprint covers besides stats and cycle
WAVE_COUNTERS = ("cut_through_waves", "plain_read_waves", "write_waves",
                 "idle_cycles", "deadline_overrides", "overrun_drops",
                 "policy_drops")


@dataclasses.dataclass(frozen=True)
class Workload:
    specs: tuple[str, ...]
    jobs: int
    checkpoint_every: int | None = None
    #: job indices whose result and checkpoint are rolled back to mid-horizon
    #: before the timed resume
    rollback: tuple[int, ...] = ()


# jobs <= 2: the reference machine has two cores.
WORKLOADS = {
    "batch-kernel": Workload(("batch-kernel.json",), jobs=1),
    "credit-flow": Workload(("credit-flow.json",), jobs=1),
    "families-sweep": Workload(
        ("shootout.json", "fabric.json", "wormhole.json"), jobs=2),
    "checkpoint-resume": Workload(
        ("checkpoint-resume.json",), jobs=2, checkpoint_every=2000,
        rollback=(1, 3, 5)),
}


def load_cells(name: str, seed: int, smoke: bool = False) -> list[Scenario]:
    """The workload's cells with seeds derived from ``seed`` (not validated)."""
    cells = [sc for spec in WORKLOADS[name].specs
             for sc in load_scenarios(SPECS / spec)]
    out = []
    job = seed * SEED_STRIDE
    for sc in cells:
        horizon = max(sc.horizon // SMOKE_DIVISOR, 1) if smoke else sc.horizon
        seeds = tuple(range(job, job + len(sc.seeds)))
        job += len(sc.seeds)
        out.append(dataclasses.replace(sc, horizon=horizon, seeds=seeds))
    return out


def setup(name: str, seed: int, smoke: bool = False) -> list[Scenario]:
    """What one cold start does: load, expand and validate the workload."""
    cells = load_cells(name, seed, smoke)
    for sc in cells:
        validate_scenario(sc)
    return cells


def job_key(name: str, seed: int) -> str:
    """The runner's artifact stem for one (scenario, seed) job."""
    return f"{name}-seed{seed}"


def result_key(result: dict[str, Any]) -> str:
    return job_key(result["scenario"], result["seed"])


def digest(result: dict[str, Any]) -> str:
    """sha256 of the cell's canonical ``stats`` JSON."""
    text = json.dumps(result["stats"], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def steps(result: dict[str, Any]) -> int:
    """Simulated steps: cycles including drain for word kernels, else the horizon."""
    if result["kind"] == "word":
        return result["stats"]["cycles"]
    return result["horizon"]


def fingerprint(switch: Any) -> str:
    """sha256 over a pipelined kernel's stats, latency collectors, wave
    counters and cycle: the state every kernel tier must agree on."""
    doc = {
        "cycle": switch.cycle,
        "stats": dataclasses.asdict(switch.stats),
        "ct_latency": dataclasses.asdict(switch.ct_latency),
        "ct_latency_hist": sorted(switch.ct_latency_hist.counts.items()),
        "total_latency": dataclasses.asdict(switch.total_latency),
        "waves": [getattr(switch, k) for k in WAVE_COUNTERS],
    }
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_golden(name: str, seed: int, smoke: bool,
                golden_dir: Path = GOLDEN) -> dict[str, str] | None:
    """Recorded digests for (workload, seed, mode), or None if unrecorded."""
    path = Path(golden_dir) / f"{name}.json"
    if not path.exists():
        return None
    doc = json.loads(path.read_text())
    return doc["smoke" if smoke else "full"].get(str(seed))


def peak_rss_mb() -> float:
    """Max ``ru_maxrss`` of this process and its reaped children (pool workers)."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024


class Run:
    """One workload at one seed: its cells, timed passes and checks."""

    def __init__(self, name: str, seed: int, smoke: bool, work: Path) -> None:
        self.smoke = smoke
        self.work = work
        self.workload = WORKLOADS[name]
        self.cells = setup(name, seed, smoke)
        self.jobs = [(sc, s) for sc in self.cells for s in sc.seeds]
        every = self.workload.checkpoint_every
        self.every = (max(every // SMOKE_DIVISOR, 1) if smoke else every) if every else None
        self.snapshots = work / "rollback"

    # -- timed passes ---------------------------------------------------------
    def sweep(self, out: Path, jobs: int, observer: Any = None,
              resume: bool = False) -> tuple[list[dict[str, Any]], float]:
        runner = ScenarioRunner(jobs, out_dir=out, checkpoint_every=self.every,
                                resume=resume, observer=observer)
        t0 = time.perf_counter()
        results = runner.run(self.cells)
        return results, time.perf_counter() - t0

    def repetition(self, out: Path, jobs: int, observer: Any = None) -> dict[str, Any]:
        """One timed pass: the sweep, then the rolled-back resume if the workload has one."""
        results, sweep_s = self.sweep(out, jobs, observer)
        rep = {"results": results, "resumed": None, "sweep_s": sweep_s,
               "resume_s": 0.0, "steps": sum(steps(r) for r in results)}
        if self.workload.rollback:
            self.roll_back(out)
            resumed, resume_s = self.sweep(out, jobs, observer, resume=True)
            rep.update(resumed=resumed, resume_s=resume_s,
                       steps=rep["steps"] + self.resume_steps(results))
        rep["wall_s"] = rep["sweep_s"] + rep["resume_s"]
        return rep

    def roll_back(self, out: Path) -> None:
        """Untimed: drop the merged results and the rolled-back cells' results,
        and put mid-horizon snapshots where the runner keeps checkpoints."""
        if not self.snapshots.exists():
            self._make_snapshots()
        (out / "results.json").unlink()
        for i in self.workload.rollback:
            sc, seed = self.jobs[i]
            stem = job_key(sc.name, seed)
            (out / f"{stem}.json").unlink()
            shutil.copyfile(self.snapshots / f"{stem}.ckpt.json",
                            out / "checkpoints" / f"{stem}.ckpt.json")

    def _make_snapshots(self) -> None:
        from repro import checkpoint
        from repro.scenario import prepare

        for i in self.workload.rollback:
            sc, seed = self.jobs[i]
            prep = prepare(sc, seed)
            prep.switch.run(sc.horizon // 2)
            checkpoint.save(prep.switch,
                            self.snapshots / f"{job_key(sc.name, seed)}.ckpt.json")

    def resume_steps(self, results: list[dict[str, Any]]) -> int:
        return sum(steps(results[i]) - self.jobs[i][0].horizon // 2
                   for i in self.workload.rollback)

    # -- correctness ----------------------------------------------------------
    def failures(self, rep: dict[str, Any], expected: dict[str, str]) -> int:
        """Cells of one repetition without a result, with a stats digest other
        than ``expected``, or whose resumed result differs from the sweep's."""
        got = {result_key(r): digest(r) for r in rep["results"]}
        keys = [job_key(sc.name, seed) for sc, seed in self.jobs]
        bad = sum(got.get(k) is None or got[k] != expected.get(k) for k in keys)
        if rep["resumed"] is not None:
            first = {result_key(r): r for r in rep["results"]}
            again = {result_key(r): r for r in rep["resumed"]}
            bad += sum(k not in again or again[k] != first.get(k) for k in keys)
        return bad

    def attempts(self) -> int:
        return len(self.jobs) * (2 if self.workload.rollback else 1)

    def oracle_failures(
        self, scope: Callable[[str], ContextManager[Any]] = lambda name: nullcontext(),
    ) -> list[str]:
        """Accelerated word cells whose leading cycles disagree with the checked kernel.

        Runs through the runner's ``prepare``/``execute_prepared`` bindings,
        so a traced pass sees these kernel runs too."""
        prefix = ORACLE_CYCLES // SMOKE_DIVISOR if self.smoke else ORACLE_CYCLES
        bad = []
        for sc in self.cells:
            if sc.arch not in ACCELERATED:
                continue
            short = dataclasses.replace(sc, horizon=min(prefix, sc.horizon))
            prints = set()
            with scope(sc.name):
                for arch in ("pipelined", sc.arch):
                    prep = scenario_runner.prepare(
                        dataclasses.replace(short, arch=arch), sc.seeds[0])
                    scenario_runner.execute_prepared(prep)
                    prints.add(fingerprint(prep.switch))
            if len(prints) != 1:
                bad.append(sc.name)
        return bad

    def word_cells(self) -> int:
        return sum(sc.arch in ACCELERATED for sc in self.cells)

    # -- measurement ----------------------------------------------------------
    def measure(self, seconds: float,
                golden: dict[str, str] | None) -> dict[str, Any]:
        """Timed repetitions until ``seconds`` have passed, each checked
        untimed and bracketed by host-speed probes."""
        reps: list[dict[str, Any]] = []
        probes = [probe()]
        expected = golden
        attempted = failed = 0
        start = time.perf_counter()
        while not reps or time.perf_counter() - start < seconds:
            out = self.work / f"rep{len(reps)}"
            attempted += self.attempts()
            t0 = time.perf_counter()
            try:
                rep = self.repetition(out, self.workload.jobs)
            except Exception:
                # One raising cell aborts the sweep: every cell of it counts
                # as failed, and repeating it would only fail again.
                traceback.print_exc()
                wall = time.perf_counter() - t0
                failed += self.attempts()
                reps.append({"results": [], "resumed": None, "steps": 0,
                             "sweep_s": wall, "resume_s": 0.0, "wall_s": wall})
                probes.append(probe())
                break
            finally:
                shutil.rmtree(out, ignore_errors=True)
            probes.append(probe())
            if expected is None:
                expected = {result_key(r): digest(r) for r in rep["results"]}
            failed += self.failures(rep, expected)
            reps.append(rep)
        return {"reps": reps, "probes": probes, "attempted": attempted,
                "failed": failed, "peak_rss_mb": peak_rss_mb()}


def execute(name: str, seed: int, seconds: float, smoke: bool, trace: bool,
            work: Path, golden_dir: Path = GOLDEN,
            spans_path: Path | None = None) -> dict[str, Any]:
    """Run one workload (see module docstring); returns the child's result."""
    run = Run(name, seed, smoke, work)
    golden = load_golden(name, seed, smoke, golden_dir)
    m = run.measure(seconds, golden)
    reps = m["reps"]
    walls = [r["wall_s"] for r in reps]
    at_reference = scaled(walls, m["probes"])
    detail: dict[str, Any] = {
        "reps": len(reps),
        "wall_s": walls,
        "probe_s": m["probes"],
        "resume_s": median(scaled([r["resume_s"] for r in reps], m["probes"])),
        "golden_checked": golden is not None,
    }
    attempted, failed = m["attempted"], m["failed"]
    correct = True
    if not trace:
        oracle_bad = run.oracle_failures()
        attempted += run.word_cells()
        failed += len(oracle_bad)
        metrics = {
            "sweep_s": median(at_reference),
            "sim_cycles_per_s": median(r["steps"] / t for r, t in zip(reps, at_reference)),
            "peak_rss_mb": m["peak_rss_mb"],
        }
    else:
        from tracing import Tracer, layer_metrics

        reference = reps[0]
        if run.workload.jobs == 1:
            serial_s = median(walls)
        else:
            out = work / "serial"
            serial_s = run.repetition(out, 1)["wall_s"]
            shutil.rmtree(out, ignore_errors=True)
        tracer = Tracer()
        out = work / "traced"
        with tracer:
            with tracer.span("setup"):
                with tracer.span("spec.load"):
                    cells = load_cells(name, seed, smoke)
                for sc in cells:
                    with tracer.span("registry.validate"):
                        validate_scenario(sc)
            traced = run.repetition(out, 1, observer=tracer)
            oracle_bad = run.oracle_failures(
                lambda cell: tracer.span("oracle", cell=f"oracle:{cell}"))
        shutil.rmtree(out, ignore_errors=True)
        same = (traced["results"] == reference["results"]
                and traced["resumed"] == reference["resumed"])
        attempted += run.attempts() + run.word_cells()
        failed += len(oracle_bad) + (0 if same else run.attempts())
        correct = same
        detail["traced_equals_untraced"] = same
        metrics = layer_metrics(
            tracer, jobs=run.workload.jobs, wall_s=median(walls),
            serial_s=serial_s, resume_s=detail["resume_s"])
        if spans_path is not None:
            tracer.write(spans_path, name)
    detail["oracle_failures"] = oracle_bad
    detail["error_rate"] = failed / attempted
    return {"correct": correct and failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics, "detail": detail}
