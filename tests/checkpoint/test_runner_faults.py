"""Fault injection on the sweep artifacts that resume reads back.

A kill mid-write must not leave a file that crashes the next ``--resume``,
and a finished cell must only be reused for the spec that produced it.
"""

import json

import pytest

from repro import checkpoint, fileio
from repro.scenario import prepare, runner
from repro.scenario.runner import ScenarioRunner
from repro.scenario.spec import Scenario


def _scenario(name, horizon, load=0.7, seed=3):
    return Scenario.from_dict(dict(
        name=name, arch="pipelined_fast", horizon=horizon, warmup=200,
        params={"n": 4, "addresses": 32},
        traffic={"kind": "renewal_tape", "load": load}, seeds=[seed],
    ))


GRID = [_scenario("cell-a", 1000), _scenario("cell-b", 2000),
        _scenario("cell-c", 1500, load=0.9)]


def test_torn_cell_result_is_rerun_on_resume(tmp_path):
    clean = ScenarioRunner(jobs=1, out_dir=tmp_path / "clean").run(GRID)
    out = tmp_path / "torn"
    ScenarioRunner(jobs=1, out_dir=out).run(GRID)
    cell = out / "cell-b-seed3.json"
    text = cell.read_text()
    cell.write_text(text[: len(text) // 2])  # a kill mid-write

    resumed = ScenarioRunner(jobs=1, out_dir=out, resume=True).run(GRID)
    assert resumed == clean
    assert json.loads(cell.read_text()) == {
        **clean[1], "spec_hash": runner.spec_hash(GRID[1], 3)}
    assert (json.loads((out / "results.json").read_text())
            == json.loads((tmp_path / "clean" / "results.json").read_text()))


def test_edited_grid_does_not_reuse_stale_cell(tmp_path):
    out = tmp_path / "sweep"
    ScenarioRunner(jobs=1, out_dir=out, checkpoint_every=400).run(
        [_scenario("cell", 1200, load=0.2)])
    assert (out / "checkpoints" / "cell-seed3.ckpt.json").exists()

    # same name, new load: neither the result nor the finished checkpoint
    # of the load-0.2 run may leak into the load-0.9 cell
    edited = [_scenario("cell", 1200, load=0.9)]
    resumed = ScenarioRunner(jobs=1, out_dir=out, checkpoint_every=400,
                             resume=True).run(edited)
    fresh = ScenarioRunner(jobs=1, out_dir=tmp_path / "fresh").run(edited)
    assert resumed == fresh
    assert resumed[0]["traffic"]["load"] == 0.9


@pytest.mark.parametrize("edit", [{"drain": True}, {"telemetry": {"metrics": True}}],
                         ids=["drain", "telemetry"])
def test_edited_spec_under_finished_result_reruns(tmp_path, edit):
    """``drain`` and ``telemetry`` change a result as surely as ``params``
    do: a finished cell edited in either re-runs."""
    out = tmp_path / "sweep"
    old = _scenario("cell", 1200)
    finished = ScenarioRunner(jobs=1, out_dir=out).run([old])

    edited = [Scenario.from_dict({**old.to_dict(), **edit})]
    resumed = ScenarioRunner(jobs=1, out_dir=out, resume=True).run(edited)
    fresh = ScenarioRunner(jobs=1, out_dir=tmp_path / "fresh").run(edited)
    assert fresh != finished
    assert resumed == fresh


def test_unstamped_cell_result_is_rerun(tmp_path):
    """A per-cell file with no ``spec_hash`` cannot say which spec made
    it, so resume re-runs the cell rather than trust it."""
    clean = ScenarioRunner(jobs=1, out_dir=tmp_path / "clean").run(GRID)
    out = tmp_path / "sweep"
    ScenarioRunner(jobs=1, out_dir=out).run(GRID)
    cell = out / "cell-b-seed3.json"
    doc = json.loads(cell.read_text())
    del doc["spec_hash"]
    doc["stats"]["delivered"] = -1
    cell.write_text(json.dumps(doc))

    resumed = ScenarioRunner(jobs=1, out_dir=out, resume=True).run(GRID)
    assert resumed == clean
    assert json.loads(cell.read_text())["spec_hash"] == runner.spec_hash(GRID[1], 3)


def test_edited_grid_discards_stale_mid_run_checkpoint(tmp_path, capsys):
    """A mid-run checkpoint of a cell since edited under the same name,
    with no result file left to compare: its stamp names the old spec, so
    the cell re-runs from cycle 0 and stderr says why."""
    out = tmp_path / "sweep"
    old = _scenario("cell", 1200, load=0.2)
    ScenarioRunner(jobs=1, out_dir=out, checkpoint_every=400).run([old])
    (out / "results.json").unlink()
    (out / "cell-seed3.json").unlink()
    ckpt = out / "checkpoints" / "cell-seed3.ckpt.json"

    edited = [_scenario("cell", 1200, load=0.9)]
    resumed = ScenarioRunner(jobs=1, out_dir=out, checkpoint_every=400,
                             resume=True).run(edited)
    fresh = ScenarioRunner(jobs=1, out_dir=tmp_path / "fresh").run(edited)
    assert resumed == fresh
    err = capsys.readouterr().err
    assert "cell-seed3: re-running from cycle 0" in err
    assert "another spec" in err
    assert runner.spec_hash(old, 3) != runner.spec_hash(edited[0], 3)
    assert checkpoint.load(ckpt)["spec_hash"] == runner.spec_hash(edited[0], 3)


def test_unstamped_mid_run_checkpoint_is_resumed(tmp_path, capsys,
                                                 monkeypatch):
    """A document without ``spec_hash`` (an older one, or one written with
    plain ``checkpoint.save``) resumes as before: the cell is not rebuilt."""
    clean = ScenarioRunner(jobs=1, out_dir=tmp_path / "clean").run(GRID)
    out = tmp_path / "sweep"
    ScenarioRunner(jobs=1, out_dir=out, checkpoint_every=400).run(GRID)
    (out / "results.json").unlink()
    (out / "cell-b-seed3.json").unlink()
    sw = prepare(GRID[1], 3).switch
    sw.run(800)
    ckpt = out / "checkpoints" / "cell-b-seed3.ckpt.json"
    checkpoint.save(sw, ckpt)
    assert "spec_hash" not in checkpoint.load(ckpt)

    built = []
    monkeypatch.setattr(runner, "prepare",
                        lambda sc, *a, **k: built.append(sc.name)
                        or prepare(sc, *a, **k))
    resumed = ScenarioRunner(jobs=1, out_dir=out, checkpoint_every=400,
                             resume=True).run(GRID)
    assert resumed == clean
    assert built == [] and capsys.readouterr().err == ""


def _jit_doc(doc):
    doc["switch"]["jit"] = True  # the batch kernel's removed array core


def _fast_doc(doc):
    doc["kernel"] = "fast"  # the removed wave-level kernel


@pytest.mark.parametrize("tamper", [_jit_doc, _fast_doc],
                         ids=["jit", "fast-kernel"])
def test_refused_checkpoint_reruns_only_that_cell(tmp_path, capsys, tamper):
    """A checkpoint the codec refuses costs that cell its progress, not the
    sweep: the cell re-runs from cycle 0, stderr names it and the reason,
    and the merged results equal an uninterrupted sweep's."""
    clean = ScenarioRunner(jobs=1, out_dir=tmp_path / "clean").run(GRID)
    out = tmp_path / "sweep"
    ScenarioRunner(jobs=1, out_dir=out, checkpoint_every=400).run(GRID)
    (out / "results.json").unlink()
    (out / "cell-b-seed3.json").unlink()
    # cell-b was killed mid-run, leaving a snapshot of cycle 800
    sw = prepare(GRID[1], 3).switch
    sw.run(800)
    ckpt = out / "checkpoints" / "cell-b-seed3.ckpt.json"
    doc = checkpoint.snapshot_switch(sw)
    tamper(doc)
    ckpt.write_text(json.dumps(doc))

    resumed = ScenarioRunner(jobs=1, out_dir=out, checkpoint_every=400,
                             resume=True).run(GRID)
    assert resumed == clean
    assert (json.loads((out / "results.json").read_text())
            == json.loads((tmp_path / "clean" / "results.json").read_text()))
    err = capsys.readouterr().err
    assert "cell-b-seed3" in err and "re-run the cell from the start" in err
    assert "cell-a" not in err and "cell-c" not in err
    assert checkpoint.load(ckpt)["kernel"] == "batch"  # rewritten by the re-run


def test_write_atomic_keeps_old_file_when_interrupted(tmp_path, monkeypatch):
    target = tmp_path / "results.json"
    target.write_text('{"old": true}\n')

    def killed(src, dst):
        raise KeyboardInterrupt

    monkeypatch.setattr(fileio.os, "replace", killed)
    with pytest.raises(KeyboardInterrupt):
        fileio.write_atomic(target, '{"new": true}\n')
    assert json.loads(target.read_text()) == {"old": True}
