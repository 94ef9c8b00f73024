"""Multiprocess sweep runner for scenarios.

:class:`ScenarioRunner` takes a list of scenarios (typically from
:func:`repro.scenario.load_scenarios` or :meth:`Scenario.expand`), fans the
(scenario, seed) jobs across worker processes, and merges results
deterministically: the merged list is ordered by job submission order
(scenario order x seed order), never by completion order, so a
``jobs=8`` sweep is bit-identical to ``jobs=1``.  Each job resets the
global packet-uid counter (see :func:`repro.scenario.registry.prepare`),
so per-job results are independent of scheduling too.

With ``out_dir`` set, every job writes ``<name>-seed<seed>.json`` *as soon
as it completes* and the merge writes ``results.json``; telemetry
artifacts (events JSONL, metrics text) are written by the worker that owns
the bundle.

**Interrupt safety.** A ``KeyboardInterrupt`` (or SIGTERM) mid-sweep no
longer loses the completed cells: per-job artifacts are already on disk,
and the runner additionally writes a ``results.partial.json`` manifest —
completed results in deterministic submission order plus the ``missing``
(name, seed) pairs — before re-raising.  Re-running the same sweep with
``resume=True`` loads the finished cells from their per-job files and runs
only the missing ones; the merged output is bit-identical to an
uninterrupted run (results are deterministic per job, and the merge is
ordered by submission, not completion).  Every artifact is written
atomically (:func:`repro.fileio.write_atomic`); a per-job file that still
does not parse is treated as missing.  Each per-job file carries the
cell's :func:`spec_hash` beside the result, and one stamped for another
spec, or not stamped at all, is stale: the cell re-runs from a cold start.

**Checkpointing.** ``checkpoint_every=k`` snapshots every word-level
kernel to ``<out_dir>/checkpoints/<name>-seed<seed>.ckpt.json`` each ``k``
cycles (see :mod:`repro.checkpoint`); an interrupted cell resumes mid-run
from its snapshot instead of from cycle 0, unless the snapshot is stamped
with another :func:`spec_hash` (the cell was edited under the same name):
then the cell re-runs from cycle 0.  Grids whose cells share an
identical warmup prefix (same config, traffic, seed and explicit warmup —
differing only in name, horizon or drain) are detected automatically and
run the warmup *once*: the group warms one kernel up, snapshots it in
memory, and forks every member from that snapshot.  Restore is
bit-identical, so forked results equal cold-start results exactly.
"""

from __future__ import annotations

import hashlib
import json
import signal
import sys
import threading
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.fileio import write_atomic
from repro.scenario.registry import (
    WORD,
    execute_prepared,
    prepare,
    prepared_from_switch,
    run_scenario,
    validate_scenario,
)
from repro.scenario.spec import Scenario, ScenarioError

#: word-level architectures whose kernels repro.checkpoint can serialize
CHECKPOINTABLE_ARCHS = frozenset(
    {"pipelined", "pipelined_fast", "pipelined_batch"}
)


def _checkpoint_path(out_dir: str | Path, name: str, seed: int) -> Path:
    return Path(out_dir) / "checkpoints" / f"{name}-seed{seed}.ckpt.json"


def _write_json(path: Path, doc: Any) -> None:
    write_atomic(path, json.dumps(doc, indent=2, allow_nan=False) + "\n")


def spec_hash(scenario: Scenario, seed: int) -> str:
    """SHA-256 of the canonical scenario JSON plus the seed.

    The ``seeds`` list is left out: adding a seed to a grid does not
    change the other seeds' cells.
    """
    spec = {k: v for k, v in scenario.to_dict().items() if k != "seeds"}
    canonical = json.dumps({"scenario": spec, "seed": seed}, sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _run_job(job: tuple[dict[str, Any], int, str | None, bool],
             live_cb=None) -> dict[str, Any]:
    """Worker entry point: job is (scenario dict, seed, out_dir or None,
    sanitize flag).

    Module-level (picklable) and dict-based so the parent's Scenario
    objects never need to cross the process boundary.  ``live_cb`` (only
    ever non-None for in-process execution — it cannot pickle) announces
    the job's live telemetry bundle to the metrics endpoint:
    ``live_cb(name, seed, telemetry)`` when the run starts,
    ``live_cb(name, seed, None)`` when it ends.
    """
    scenario_dict, seed, out_dir, sanitize = job
    scenario = Scenario.from_dict(scenario_dict)
    if live_cb is None:
        return run_scenario(scenario, seed, out_dir=out_dir, sanitize=sanitize)
    prep = prepare(scenario, seed, sanitize=sanitize)
    live_cb(scenario.name, seed, prep.telemetry)
    try:
        return execute_prepared(prep, out_dir=out_dir)
    finally:
        live_cb(scenario.name, seed, None)


def _run_job_checkpointed(
    job: tuple[dict[str, Any], int, str, bool, int], live_cb=None
) -> dict[str, Any]:
    """Worker entry point for a periodically-checkpointed job.

    Resumes from ``<out_dir>/checkpoints/<name>-seed<seed>.ckpt.json``
    when it exists (skipping ``prepare()`` entirely — the snapshot carries
    the packet-uid counter, RNG streams and all attachments), then runs in
    ``every``-cycle steps, saving a snapshot after each.  Every snapshot
    is stamped with the cell's :func:`spec_hash`.  A snapshot the
    checkpoint subsystem refuses (say, one from a removed kernel) or one
    stamped for another spec (the grid was edited under the same name)
    costs only that cell's progress: the cell re-runs from cycle 0 and
    the reason goes to stderr.  An unstamped snapshot is resumed.  The
    final summary goes through the same :func:`execute_prepared` path as
    an uninterrupted run, so the result is bit-identical.
    """
    from repro import checkpoint

    scenario_dict, seed, out_dir, sanitize, every = job
    scenario = Scenario.from_dict(scenario_dict)
    ckpt = _checkpoint_path(out_dir, scenario.name, seed)
    key = spec_hash(scenario, seed)
    prep = None
    if ckpt.exists():
        try:
            switch = checkpoint.restore(ckpt, spec_hash=key)
        except (checkpoint.CheckpointUnsupportedError,
                checkpoint.CheckpointStaleError) as exc:
            print(f"repro: {scenario.name}-seed{seed}: re-running from "
                  f"cycle 0: {exc}", file=sys.stderr)
        else:
            prep = prepared_from_switch(scenario, seed, switch)
    if prep is None:
        prep = prepare(scenario, seed, sanitize=sanitize)
    prep.switch.spec_hash = key
    if live_cb is not None:
        live_cb(scenario.name, seed, prep.telemetry)
    try:
        sw = prep.switch
        while sw.cycle < scenario.horizon:
            before = sw.cycle
            sw.run(min(every, scenario.horizon - sw.cycle))
            checkpoint.save(sw, ckpt)
            if sw.cycle == before:
                break  # finite trace ran dry; further cycles cannot change stats
        return execute_prepared(prep, out_dir=out_dir)
    finally:
        if live_cb is not None:
            live_cb(scenario.name, seed, None)


def _run_prefix_group(
    payload: tuple[list[dict[str, Any]], int, str | None], live_cb=None
) -> list[dict[str, Any]]:
    """Worker entry point for a warmup-prefix fork group.

    All members share config, traffic, seed and explicit warmup; they
    differ only in name/horizon/drain.  Warm one kernel to the shared
    warmup, snapshot it in memory, and fork every member from the
    snapshot.  Because restore is bit-identical, each member's result
    equals its cold-start result exactly.
    """
    from repro import checkpoint

    member_dicts, seed, out_dir = payload
    scenarios = [Scenario.from_dict(d) for d in member_dicts]
    prefix = prepare(scenarios[0], seed)
    prefix.switch.run(scenarios[0].effective_warmup)
    doc = checkpoint.snapshot_switch(prefix.switch)
    results = []
    for sc in scenarios:
        member = prepared_from_switch(sc, seed, checkpoint.restore_switch(doc))
        if live_cb is not None:
            live_cb(sc.name, seed, member.telemetry)
        try:
            results.append(execute_prepared(member, out_dir=out_dir))
        finally:
            if live_cb is not None:
                live_cb(sc.name, seed, None)
    return results


def _run_task(task: tuple[str, Any], live_cb=None) -> list[dict[str, Any]]:
    """Dispatch one task; always returns one result per covered job."""
    kind, payload = task
    if kind == "job":
        return [_run_job(payload, live_cb)]
    if kind == "ckpt":
        return [_run_job_checkpointed(payload, live_cb)]
    if kind == "group":
        return _run_prefix_group(payload, live_cb)
    raise AssertionError(kind)


class ScenarioRunner:
    """Run scenarios sequentially (``jobs=1``) or in parallel, same bits.

    ``sanitize=True`` attaches the :mod:`repro.drc` invariant sanitizer to
    every job (each worker gets its own — the sanitizer holds per-run
    state); a violation in any job raises out of :meth:`run`.

    ``checkpoint_every=k`` snapshots checkpointable kernels every ``k``
    cycles and ``resume=True`` reuses finished per-job results (and mid-run
    snapshots) from ``out_dir`` — see the module docstring.  Both require
    ``out_dir``.

    ``observer`` receives progress callbacks (all optional, duck-typed —
    :class:`repro.obs.server.SweepMetricsObserver` is the production
    implementation feeding the ``/metrics`` endpoint):

    * ``sweep_started(total, resumed)`` before execution, after resume
      accounting;
    * ``job_live(name, seed, telemetry_or_None)`` around each in-process
      job carrying a live telemetry bundle (never fires for pool workers —
      their registries arrive via the per-job artifacts instead);
    * ``job_finished(name, seed, result)`` from the parent as each job's
      result is recorded (any ``--jobs``);
    * ``sweep_finished()`` after the merge.

    Observers must not mutate results: the merged output stays bit-identical
    at any ``--jobs`` with or without an observer attached.
    """

    def __init__(self, jobs: int = 1, out_dir: str | Path | None = None,
                 sanitize: bool = False,
                 checkpoint_every: int | None = None,
                 resume: bool = False,
                 observer: Any | None = None):
        if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 1:
            raise ScenarioError(f"jobs must be an integer >= 1, got {jobs!r}")
        if checkpoint_every is not None and (
            not isinstance(checkpoint_every, int)
            or isinstance(checkpoint_every, bool) or checkpoint_every < 1
        ):
            raise ScenarioError(
                f"checkpoint_every must be an integer >= 1 (cycles), got "
                f"{checkpoint_every!r}"
            )
        if (checkpoint_every is not None or resume) and out_dir is None:
            raise ScenarioError(
                "checkpoint_every/resume need out_dir: snapshots and per-job "
                "results live there"
            )
        self.jobs = jobs
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self.sanitize = sanitize
        self.checkpoint_every = checkpoint_every
        self.resume = resume
        self.observer = observer

    def _notify(self, method: str, *args: Any) -> None:
        fn = getattr(self.observer, method, None) if self.observer else None
        if fn is not None:
            fn(*args)

    def run(self, scenarios: Scenario | Iterable[Scenario]) -> list[dict[str, Any]]:
        """Validate everything up front, run all (scenario, seed) jobs.

        Returns one result dict per job in deterministic submission order.
        Raises :class:`ScenarioError` before running anything if any
        scenario is invalid or two jobs would collide on (name, seed).
        On interrupt, writes ``results.partial.json`` (when ``out_dir`` is
        set) and re-raises :class:`KeyboardInterrupt`.
        """
        if isinstance(scenarios, Scenario):
            scenarios = [scenarios]
        scenarios = list(scenarios)
        if not scenarios:
            raise ScenarioError("no scenarios to run")
        for sc in scenarios:
            adef = validate_scenario(sc)
            if self.sanitize and not adef.sanitize_ok:
                raise ScenarioError(
                    f"scenario {sc.name!r}: architecture {sc.arch!r} has no "
                    f"sanitizer hook sites; drop --sanitize or use a "
                    f"sanitize-capable architecture"
                )
            if self.checkpoint_every is not None and (
                adef.kind != WORD or sc.arch not in CHECKPOINTABLE_ARCHS
            ):
                ok = sorted(CHECKPOINTABLE_ARCHS)
                raise ScenarioError(
                    f"scenario {sc.name!r}: --checkpoint-every needs a "
                    f"checkpointable kernel; {sc.arch!r} is not one of "
                    f"{', '.join(ok)}"
                )
        jobs = self._job_list(scenarios)
        if self.out_dir is not None:
            self.out_dir.mkdir(parents=True, exist_ok=True)
        results: list[dict[str, Any] | None] = [None] * len(jobs)
        if self.resume:
            for i, (sc, seed) in enumerate(jobs):
                results[i] = self._finished_result(sc, seed)
        pending = [i for i, r in enumerate(results) if r is None]
        self._notify("sweep_started", len(jobs), len(jobs) - len(pending))
        tasks = self._task_list(jobs, pending)
        self._execute(tasks, jobs, results)
        final = [r for r in results if r is not None]
        assert len(final) == len(jobs)
        if self.out_dir is not None:
            _write_json(self.out_dir / "results.json", final)
            partial = self.out_dir / "results.partial.json"
            if partial.exists():
                partial.unlink()  # the sweep is whole again
        self._notify("sweep_finished")
        return final

    def _finished_result(self, sc: Scenario, seed: int) -> dict[str, Any] | None:
        """The cell's result from an earlier run of the same spec, or None.

        A per-cell file that does not parse (torn by a kill mid-write)
        counts as missing.  One whose ``spec_hash`` stamp is missing or
        names another spec is stale: its checkpoint is deleted too, so the
        re-run starts cold.  The stamp is stripped from a reused result.
        """
        assert self.out_dir is not None
        path = self.out_dir / f"{sc.name}-seed{seed}.json"
        try:
            result = json.loads(path.read_text())
        except (FileNotFoundError, ValueError):  # ValueError: torn JSON
            return None
        if not isinstance(result, dict):
            return None
        if result.pop("spec_hash", None) != spec_hash(sc, seed):
            _checkpoint_path(self.out_dir, sc.name, seed).unlink(missing_ok=True)
            return None
        return result

    # -- task construction ---------------------------------------------------

    def _task_list(
        self,
        jobs: Sequence[tuple[Scenario, int]],
        pending: Sequence[int],
    ) -> list[tuple[tuple[str, Any], list[int]]]:
        """Pending job indices -> (task, covered indices) list.

        Jobs eligible for warmup-prefix forking are grouped (>= 2 members
        sharing everything but name/horizon/drain); the rest become
        singleton tasks, checkpointed when ``checkpoint_every`` is set.
        """
        out = str(self.out_dir) if self.out_dir is not None else None
        groups: dict[tuple[int, str], list[int]] = {}
        for i in pending:
            sc, seed = jobs[i]
            if self._forkable(sc):
                body = {k: v for k, v in sc.to_dict().items()
                        if k not in ("name", "horizon", "drain", "seeds")}
                body["warmup"] = sc.effective_warmup
                key = (seed, json.dumps(body, sort_keys=True))
                groups.setdefault(key, []).append(i)
        grouped: set[int] = set()
        tasks: list[tuple[tuple[str, Any], list[int]]] = []
        for (seed, _), members in sorted(groups.items(),
                                         key=lambda kv: kv[1][0]):
            if len(members) < 2:
                continue
            grouped.update(members)
            payload = ([jobs[i][0].to_dict() for i in members], seed, out)
            tasks.append((("group", payload), list(members)))
        for i in pending:
            if i in grouped:
                continue
            sc, seed = jobs[i]
            if self.checkpoint_every is not None:
                task = ("ckpt", (sc.to_dict(), seed, out, self.sanitize,
                                 self.checkpoint_every))
            else:
                task = ("job", (sc.to_dict(), seed, out, self.sanitize))
            tasks.append((task, [i]))
        tasks.sort(key=lambda t: t[1][0])  # deterministic submission order
        return tasks

    def _forkable(self, sc: Scenario) -> bool:
        """Can this scenario fork from a shared warmup-prefix snapshot?"""
        if self.sanitize or self.checkpoint_every is not None:
            return False  # keep per-job checkpoint/sanitizer semantics simple
        if sc.arch not in CHECKPOINTABLE_ARCHS:
            return False
        if validate_scenario(sc).kind != WORD:
            return False
        warmup = sc.effective_warmup
        return warmup > 0 and sc.horizon >= warmup

    # -- execution -----------------------------------------------------------

    def _execute(
        self,
        tasks: list[tuple[tuple[str, Any], list[int]]],
        jobs: Sequence[tuple[Scenario, int]],
        results: list[dict[str, Any] | None],
    ) -> None:
        """Run tasks, flushing each job's artifact the moment it finishes.

        SIGTERM is mapped to :class:`KeyboardInterrupt`; on either, the
        partial-results manifest is written before re-raising, so a killed
        sweep keeps every finished cell.
        """
        previous = None
        in_main = threading.current_thread() is threading.main_thread()
        if in_main:
            def _terminate(signum, frame):
                raise KeyboardInterrupt
            previous = signal.signal(signal.SIGTERM, _terminate)
        try:
            if self.jobs == 1 or len(tasks) <= 1:
                live_cb = (getattr(self.observer, "job_live", None)
                           if self.observer else None)
                for task, indices in tasks:
                    task_results = (_run_task(task, live_cb)
                                    if live_cb is not None
                                    else _run_task(task))
                    self._record(indices, task_results, jobs, results)
            else:
                workers = min(self.jobs, len(tasks))
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    futures = {pool.submit(_run_task, task): indices
                               for task, indices in tasks}
                    try:
                        outstanding = set(futures)
                        while outstanding:
                            done, outstanding = wait(
                                outstanding, return_when=FIRST_COMPLETED
                            )
                            for fut in done:
                                self._record(futures[fut], fut.result(),
                                             jobs, results)
                    except BaseException:
                        for fut in futures:
                            fut.cancel()
                        raise
        except KeyboardInterrupt:
            self._write_partial_manifest(jobs, results)
            raise
        finally:
            if in_main and previous is not None:
                signal.signal(signal.SIGTERM, previous)

    def _record(
        self,
        indices: Sequence[int],
        task_results: Sequence[dict[str, Any]],
        jobs: Sequence[tuple[Scenario, int]],
        results: list[dict[str, Any] | None],
    ) -> None:
        assert len(indices) == len(task_results)
        for i, result in zip(indices, task_results):
            results[i] = result
            if self.out_dir is not None:
                sc, seed = jobs[i]
                _write_json(self.out_dir / f"{sc.name}-seed{seed}.json",
                            {**result, "spec_hash": spec_hash(sc, seed)})
            self._notify("job_finished", result["scenario"], result["seed"],
                         result)

    def _write_partial_manifest(
        self,
        jobs: Sequence[tuple[Scenario, int]],
        results: Sequence[dict[str, Any] | None],
    ) -> None:
        if self.out_dir is None:
            return
        completed = [r for r in results if r is not None]
        missing = [[sc.name, seed]
                   for (sc, seed), r in zip(jobs, results) if r is None]
        _write_json(self.out_dir / "results.partial.json",
                    {"completed": completed, "missing": missing})

    @staticmethod
    def _job_list(scenarios: Sequence[Scenario]) -> list[tuple[Scenario, int]]:
        jobs: list[tuple[Scenario, int]] = []
        seen: set[tuple[str, int]] = set()
        for sc in scenarios:
            for seed in sc.seeds:
                key = (sc.name, seed)
                if key in seen:
                    raise ScenarioError(
                        f"duplicate job: scenario {sc.name!r} with seed {seed} "
                        f"appears twice; give scenarios unique names (expand() "
                        f"does this for grids) or drop the repeated seed"
                    )
                seen.add(key)
                jobs.append((sc, seed))
        return jobs
