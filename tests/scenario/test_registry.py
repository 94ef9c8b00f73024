"""Tests for the architecture registry: coverage of every kernel,
validation errors, and deterministic preparation."""

import dataclasses

import pytest

from repro.scenario import (
    REGISTRY,
    Scenario,
    ScenarioError,
    architectures,
    prepare,
    run_scenario,
    slotted_factory,
    validate_scenario,
)

SLOTTED_ARCHS = sorted(a.name for a in REGISTRY.values() if a.kind == "slotted")
WORD_ARCHS = sorted(a.name for a in REGISTRY.values() if a.kind == "word")


def scenario_for(arch: str, **overrides) -> Scenario:
    """A small runnable scenario for any registered architecture."""
    adef = REGISTRY[arch]
    base = {
        "slotted": dict(params={"n": 4}, traffic={"kind": "uniform", "load": 0.7},
                        horizon=400),
        "word": dict(params={"n": 4},
                     traffic={"kind": "renewal", "load": 0.6}, horizon=400),
        "fabric": dict(params={"k": 4, "stages": 2},
                       traffic={"kind": "uniform", "load": 0.6}, horizon=300),
        "network": dict(params={"k": 4, "dims": 2, "message_flits": 8},
                        traffic={"kind": "uniform", "load": 0.3}, horizon=300),
    }[adef.kind]
    if arch == "pipelined_batch":
        # the batch kernel consumes arrival tapes, not per-cycle polls
        base["traffic"] = {"kind": "renewal_tape", "load": 0.6}
    base.update(name=f"t-{arch}", arch=arch, seeds=[1])
    base.update(overrides)
    return Scenario(**base)


class TestCoverage:
    def test_registry_covers_all_four_kinds(self):
        kinds = {a.kind for a in architectures().values()}
        assert kinds == {"slotted", "word", "fabric", "network"}
        assert len(REGISTRY) >= 16

    @pytest.mark.parametrize("arch", sorted(REGISTRY))
    def test_every_architecture_runs(self, arch):
        result = run_scenario(scenario_for(arch))
        assert result["arch"] == arch
        assert result["seed"] == 1
        stats = result["stats"]
        delivered = stats.get("delivered", stats.get("delivered_fraction"))
        assert delivered > 0

    @pytest.mark.parametrize("sched", ["pim", "islip", "2drr", "greedy", "max"])
    def test_every_voq_scheduler(self, sched):
        sc = scenario_for("voq", params={"n": 4, "scheduler": sched})
        assert run_scenario(sc)["stats"]["delivered"] > 0

    def test_results_are_strict_json(self):
        # zero-traffic runs yield NaN delays; artifacts must stay valid JSON
        import json

        sc = scenario_for("shared", traffic={"kind": "uniform", "load": 0.0})
        result = run_scenario(sc)
        assert result["stats"]["mean_delay"] is None
        json.dumps(result, allow_nan=False)


class TestValidation:
    def test_unknown_arch_suggests_name(self):
        sc = scenario_for("shared")
        sc.arch = "sharedd"
        with pytest.raises(ScenarioError, match="did you mean 'shared'"):
            validate_scenario(sc)

    def test_unknown_param_suggests_name(self):
        sc = scenario_for("pipelined", params={"n": 4, "quantaa": 2})
        with pytest.raises(ScenarioError, match="did you mean 'quanta'"):
            validate_scenario(sc)

    def test_traffic_kind_checked_per_family(self):
        sc = scenario_for("pipelined", traffic={"kind": "uniform", "load": 0.5})
        with pytest.raises(ScenarioError, match="valid kinds.*renewal"):
            validate_scenario(sc)

    def test_batched_traffic_slotted_only(self):
        sc = scenario_for(
            "pipelined", traffic={"kind": "renewal", "load": 0.5, "batched": True})
        with pytest.raises(ScenarioError, match="batched"):
            validate_scenario(sc)

    def test_saturating_traffic_demands_load_one(self):
        sc = scenario_for("pipelined",
                          traffic={"kind": "saturating", "load": 0.5})
        with pytest.raises(ScenarioError, match="load 1.0"):
            validate_scenario(sc)

    def test_telemetry_rejected_where_unsupported(self):
        sc = scenario_for("wide", telemetry={"events": True})
        with pytest.raises(ScenarioError, match="telemetry"):
            validate_scenario(sc)

    def test_drain_rejected_where_unsupported(self):
        sc = scenario_for("split", drain=True)
        with pytest.raises(ScenarioError, match="drain"):
            validate_scenario(sc)

    def test_bad_voq_scheduler_lists_options(self):
        sc = scenario_for("voq", params={"n": 4, "scheduler": "islipp"})
        with pytest.raises(ScenarioError, match="did you mean 'islip'"):
            prepare(sc)

    def test_bad_priority_lists_options(self):
        sc = scenario_for("pipelined", params={"n": 4, "priority": "rds"})
        with pytest.raises(ScenarioError, match="reads_first"):
            prepare(sc)

    def test_fabric_element_must_be_slotted(self):
        sc = scenario_for("fabric",
                          params={"k": 4, "stages": 2, "element": "pipelined"})
        with pytest.raises(ScenarioError, match="slotted"):
            prepare(sc)

    def test_config_error_propagates_from_kernel(self):
        from repro.core import ConfigError

        sc = scenario_for("pipelined", params={"n": 0})
        with pytest.raises(ConfigError, match="n >= 1"):
            prepare(sc)


class TestDeterminism:
    def test_same_scenario_same_bits_regardless_of_history(self):
        sc = scenario_for("pipelined")
        first = run_scenario(sc)
        run_scenario(scenario_for("shared"))  # pollute global packet counter
        assert run_scenario(sc) == first

    def test_checked_and_fast_agree(self):
        tape = {"kind": "renewal_tape", "load": 0.6}
        checked = run_scenario(scenario_for("pipelined", drain=True,
                                            traffic=tape))
        fast = run_scenario(scenario_for("pipelined_fast", drain=True,
                                         traffic=tape))
        assert fast["run"] == {"kernel": "batch"}
        assert checked["stats"] == fast["stats"]

    def test_priority_string_reaches_arbiter(self):
        from repro.core.arbiter import Priority

        sc = scenario_for("pipelined", params={"n": 4, "priority": "oldest_first"})
        prep = prepare(sc)
        assert prep.switch.config.priority is Priority.OLDEST_FIRST


class TestKernelReport:
    """``pipelined_fast`` runs the batch kernel whenever it models the cell
    and the checked kernel otherwise, and every word result says which
    kernel ran."""

    @staticmethod
    def credited(kind):
        return scenario_for("pipelined_fast", horizon=600,
                            params={"n": 4, "addresses": 32,
                                    "credit_flow": True},
                            traffic={"kind": kind, "load": 0.8})

    def test_tape_traffic_runs_batch(self):
        result = run_scenario(self.credited("renewal_tape"))
        assert result["run"] == {"kernel": "batch"}

    @pytest.mark.parametrize("credit_flow", [False, True])
    def test_per_cycle_traffic_runs_checked(self, credit_flow):
        sc = scenario_for("pipelined_fast", horizon=600,
                          params={"n": 4, "addresses": 32,
                                  "credit_flow": credit_flow},
                          traffic={"kind": "renewal", "load": 0.8})
        result = run_scenario(sc)
        assert result["run"] == {"kernel": "checked"}
        oracle = run_scenario(dataclasses.replace(sc, arch="pipelined"))
        assert result["stats"] == oracle["stats"]

    def test_sanitized_cell_runs_checked(self):
        sc = self.credited("renewal_tape")
        result = run_scenario(sc, sanitize=True)
        assert result["run"] == {"kernel": "checked"}
        assert result["stats"] == run_scenario(sc)["stats"]

    @pytest.mark.parametrize("arch,kernel", [
        ("pipelined", "checked"), ("pipelined_batch", "batch"),
        ("wide", "checked"),
    ])
    def test_every_word_result_names_its_kernel(self, arch, kernel):
        assert run_scenario(scenario_for(arch))["run"] == {"kernel": kernel}


class TestSlottedFactory:
    def test_builds_named_switch(self):
        sw = slotted_factory("voq", n=4, scheduler="pim")()
        assert type(sw).__name__ == "VoqInputBuffered"

    def test_rejects_word_archs(self):
        with pytest.raises(ScenarioError, match="slot-level"):
            slotted_factory("pipelined")

    def test_rejects_unknown_params(self):
        with pytest.raises(ScenarioError, match="unknown parameter"):
            slotted_factory("fifo", window=3)


class TestTelemetry:
    def test_telemetry_summary_in_result(self):
        sc = scenario_for("pipelined",
                          telemetry={"events": True, "sample_interval": 64})
        result = run_scenario(sc)
        assert result["telemetry"]["events"] > 0
        assert "last_cycle" in result["telemetry"]["occupancy"]
        # Without `events` there is no event log and no event count; the
        # drop taxonomy comes from the (always live) metrics registry.
        prep = prepare(dataclasses.replace(
            sc, telemetry=dataclasses.replace(sc.telemetry, events=False)))
        assert prep.telemetry.metrics.enabled
        assert not prep.telemetry.events.enabled
        result = prep.execute()
        assert "events" not in result["telemetry"]
        assert result["telemetry"]["drop_taxonomy"] == prep.telemetry.drop_taxonomy()
        assert "last_cycle" in result["telemetry"]["occupancy"]

    def test_telemetry_artifacts_written(self, tmp_path):
        sc = scenario_for("pipelined",
                          telemetry={"events": True, "metrics": True})
        result = run_scenario(sc, out_dir=tmp_path)
        arts = result["telemetry"]["artifacts"]
        assert (tmp_path / arts["events"]).exists()
        assert (tmp_path / arts["metrics"]).exists()
