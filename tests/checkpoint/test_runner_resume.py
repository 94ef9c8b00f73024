"""Interrupt safety, checkpointed sweeps and warmup-prefix forks.

Satellite bugfix coverage: a KeyboardInterrupt (or SIGTERM) mid-sweep
keeps every finished cell on disk plus a ``results.partial.json``
manifest, and ``resume=True`` re-runs only the missing cells with a
merged output bit-identical to an uninterrupted sweep.
"""

import json

import pytest

from repro.scenario.runner import ScenarioRunner, _run_task
from repro.scenario.spec import Scenario, ScenarioError


def _scenario(name, horizon, warmup=200, arch="pipelined_fast", load=0.7,
              seed=3, telemetry=False):
    spec = dict(name=name, arch=arch, horizon=horizon, warmup=warmup,
                params={"n": 4, "addresses": 32},
                traffic={"kind": "renewal_tape", "load": load}, seeds=[seed])
    if telemetry:
        spec["telemetry"] = {"metrics": True, "events": True}
    return Scenario.from_dict(spec)


GRID = [_scenario("cell-a", 1000), _scenario("cell-b", 2000),
        _scenario("cell-c", 1500, load=0.9)]


def test_interrupt_flushes_finished_cells_and_manifest(tmp_path, monkeypatch):
    import repro.scenario.runner as runner_mod

    calls = {"n": 0}

    # cell-a and cell-b share a warmup prefix, so the grid becomes two
    # tasks: the (a, b) fork group, then the c singleton — interrupt there
    def interrupting(task):
        calls["n"] += 1
        if calls["n"] == 2:
            raise KeyboardInterrupt
        return _run_task(task)

    monkeypatch.setattr(runner_mod, "_run_task", interrupting)
    runner = ScenarioRunner(jobs=1, out_dir=tmp_path)
    with pytest.raises(KeyboardInterrupt):
        runner.run(GRID)
    manifest = json.loads((tmp_path / "results.partial.json").read_text())
    done_names = [r["scenario"] for r in manifest["completed"]]
    assert done_names == ["cell-a", "cell-b"]
    for name in done_names:
        assert (tmp_path / f"{name}-seed3.json").exists()
    assert manifest["missing"] == [["cell-c", 3]]


def test_resume_runs_only_missing_and_merges_identically(tmp_path):
    full_dir = tmp_path / "full"
    part_dir = tmp_path / "part"
    full = ScenarioRunner(jobs=1, out_dir=full_dir).run(GRID)

    # run only the first two cells, as an interrupted sweep would leave them
    ScenarioRunner(jobs=1, out_dir=part_dir).run(GRID[:2])
    (part_dir / "results.json").unlink()

    ran = []
    orig = ScenarioRunner._task_list

    def spying(self, jobs, pending):
        tasks = orig(self, jobs, pending)
        ran.extend(i for _, idx in tasks for i in idx)
        return tasks

    ScenarioRunner._task_list = spying
    try:
        resumed = ScenarioRunner(jobs=1, out_dir=part_dir, resume=True).run(GRID)
    finally:
        ScenarioRunner._task_list = orig
    assert ran == [2]  # only the missing cell executed
    assert resumed == full
    assert (json.loads((part_dir / "results.json").read_text())
            == json.loads((full_dir / "results.json").read_text()))


def test_checkpoint_every_resumes_mid_run(tmp_path):
    grid = [_scenario("long", 2000, telemetry=True)]
    full = ScenarioRunner(jobs=1, out_dir=tmp_path / "full",
                          checkpoint_every=300).run(grid)
    ckpt = tmp_path / "full" / "checkpoints" / "long-seed3.ckpt.json"
    assert ckpt.exists()

    # interrupt after the first checkpoint step: the snapshot is on disk
    # but the per-job result is not
    part_dir = tmp_path / "part"
    import repro.scenario.runner as runner_mod

    class StopAfterSave(Exception):
        pass

    from repro import checkpoint

    saves = {"n": 0}
    orig_save = checkpoint.save

    def save_once(switch, path):
        saves["n"] += 1
        doc = orig_save(switch, path)
        if saves["n"] == 1:
            raise KeyboardInterrupt
        return doc

    checkpoint.save = save_once
    try:
        with pytest.raises(KeyboardInterrupt):
            ScenarioRunner(jobs=1, out_dir=part_dir,
                           checkpoint_every=300).run(grid)
    finally:
        checkpoint.save = orig_save
    part_ckpt = part_dir / "checkpoints" / "long-seed3.ckpt.json"
    assert part_ckpt.exists()
    assert json.loads(part_ckpt.read_text())["cycle"] == 300

    resumed = ScenarioRunner(jobs=1, out_dir=part_dir, checkpoint_every=300,
                             resume=True).run(grid)
    assert resumed == full


def test_warmup_prefix_fork_matches_cold_runs():
    """Cells sharing (config, traffic, seed, warmup) fork from one warm
    snapshot; results must equal per-cell cold runs exactly."""
    from repro.scenario.registry import run_scenario

    grid = [_scenario("fork-a", 1000, telemetry=True),
            _scenario("fork-b", 2000, telemetry=True)]
    runner = ScenarioRunner(jobs=1)
    tasks = runner._task_list(runner._job_list(grid), [0, 1])
    assert [t[0][0] for t in tasks] == ["group"]  # grouping engaged
    forked = runner.run(grid)
    cold = [run_scenario(sc, 3) for sc in grid]
    assert forked == cold


def test_fork_requires_identical_prefix():
    """Different load (or warmup) means different prefixes: no grouping."""
    runner = ScenarioRunner(jobs=1)
    grid = [_scenario("a", 1000), _scenario("b", 2000, load=0.9)]
    tasks = runner._task_list(runner._job_list(grid), [0, 1])
    assert [t[0][0] for t in tasks] == ["job", "job"]
    grid = [_scenario("a", 1000, warmup=100), _scenario("b", 2000, warmup=200)]
    tasks = runner._task_list(runner._job_list(grid), [0, 1])
    assert [t[0][0] for t in tasks] == ["job", "job"]


def test_checkpoint_flags_validated():
    with pytest.raises(ScenarioError):
        ScenarioRunner(jobs=1, checkpoint_every=100)  # needs out_dir
    with pytest.raises(ScenarioError):
        ScenarioRunner(jobs=1, resume=True)  # needs out_dir
    with pytest.raises(ScenarioError):
        ScenarioRunner(jobs=1, out_dir="x", checkpoint_every=0)
    runner = ScenarioRunner(jobs=1, out_dir="x", checkpoint_every=100)
    with pytest.raises(ScenarioError):
        # slotted architectures have no checkpoint codec: refuse up front
        runner.run([Scenario.from_dict(dict(
            name="slotted", arch="shared", horizon=1000,
            params={"n": 4}, traffic={"kind": "uniform", "load": 0.5},
            seeds=[1]))])


def test_parallel_sweep_with_groups_is_bit_identical(tmp_path):
    grid = GRID + [_scenario("cell-d", 1200)]  # a+b+d share a prefix
    seq = ScenarioRunner(jobs=1).run(grid)
    par = ScenarioRunner(jobs=2, out_dir=tmp_path).run(grid)
    assert par == seq
