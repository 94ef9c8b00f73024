"""Tests for the parallel ScenarioRunner.

The load-bearing property: a sweep's merged results are bit-identical for
any job count — parallelism must never change the numbers, only the wall
time.  The E13-style grid below mirrors benchmarks/test_e13_architecture_
sweep.py at a test-sized horizon; ``test_contracts.py`` checks the same
property over every registry architecture × traffic kind.
"""

import json

import pytest

from repro.scenario import Scenario, ScenarioError, ScenarioRunner
from repro.scenario.runner import spec_hash


def e13_grid() -> list[Scenario]:
    """The E13 architecture-sweep grid, scaled for a unit test."""
    base = Scenario(
        name="e13", arch="shared", horizon=1_500, params={"n": 4},
        traffic={"kind": "uniform", "load": 0.6}, seeds=[1, 2],
    )
    return base.expand({
        "arch": ["fifo", "voq", "crosspoint", "output", "shared"],
        "traffic.load": [0.6, 0.9],
    })


def test_parallel_sweep_bit_identical_to_sequential():
    scenarios = e13_grid()
    sequential = ScenarioRunner(jobs=1).run(scenarios)
    parallel = ScenarioRunner(jobs=2).run(scenarios)
    assert parallel == sequential
    # merge order is submission order: scenario-major, seed-minor
    assert [(r["scenario"], r["seed"]) for r in sequential] == [
        (sc.name, seed) for sc in scenarios for seed in sc.seeds
    ]


def test_word_kernels_parallel_identical():
    base = Scenario(
        name="kernels", arch="pipelined", horizon=800, params={"n": 4},
        traffic={"kind": "renewal_tape", "load": 0.7}, seeds=[1], drain=True,
    )
    scenarios = base.expand({"arch": ["pipelined", "pipelined_fast", "wide"]})
    sequential = ScenarioRunner(jobs=1).run(scenarios)
    parallel = ScenarioRunner(jobs=3).run(scenarios)
    assert parallel == sequential


def test_artifacts_written_and_merged(tmp_path):
    scenarios = e13_grid()[:2]
    results = ScenarioRunner(jobs=2, out_dir=tmp_path).run(scenarios)
    merged = json.loads((tmp_path / "results.json").read_text())
    assert merged == results
    by_name = {sc.name: sc for sc in scenarios}
    for r in results:
        single = json.loads(
            (tmp_path / f"{r['scenario']}-seed{r['seed']}.json").read_text())
        stamp = spec_hash(by_name[r["scenario"]], r["seed"])
        assert single == {**r, "spec_hash": stamp}


def test_validates_everything_before_running(tmp_path):
    good = e13_grid()[0]
    bad = Scenario(name="bad", arch="nope", horizon=100)
    with pytest.raises(ScenarioError, match="unknown architecture"):
        ScenarioRunner(out_dir=tmp_path).run([good, bad])
    assert not list(tmp_path.iterdir()), "failed validation must not run jobs"


def test_duplicate_name_seed_rejected():
    sc = e13_grid()[0]
    with pytest.raises(ScenarioError, match="duplicate job"):
        ScenarioRunner().run([sc, sc])


def test_empty_run_rejected():
    with pytest.raises(ScenarioError, match="no scenarios"):
        ScenarioRunner().run([])


def test_bad_jobs_rejected():
    with pytest.raises(ScenarioError, match="jobs"):
        ScenarioRunner(jobs=0)


def test_single_scenario_accepted_bare():
    sc = e13_grid()[0]
    results = ScenarioRunner().run(sc)
    assert len(results) == len(sc.seeds)
