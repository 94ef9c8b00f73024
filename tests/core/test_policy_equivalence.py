"""Cross-kernel equivalence of the admission-policy layer.

Two contracts, both bit-level:

* **CompleteSharing is the seed.**  A config with ``policy="complete"``
  (or none at all) must be indistinguishable from the pre-policy kernels
  in every statistic, telemetry stream and drop taxonomy — the policy
  plane must cost the default path nothing.
* **Non-trivial policies are kernel-invariant.**  StaticThreshold,
  DynamicThreshold and PortReservation must produce identical decision
  streams — stats, ``policy_drops``, ``DROP_POLICY`` events — on the
  checked, fast and batch kernels, at every ``batch_cycles``.
"""

from __future__ import annotations

import pytest

from repro.core import (
    BatchPipelinedSwitch,
    BatchRenewalSource,
    FastPipelinedSwitch,
    PipelinedSwitch,
    PipelinedSwitchConfig,
    SaturatingSource,
)
from repro.core.errors import ConfigError
from repro.policy import AdmissionPolicy
from repro.sim.packet import reset_packet_ids
from repro.telemetry import DROP_POLICY, Telemetry

POLICIES = [
    "complete",
    "static:cap=4",
    "dynamic:alpha=1.0",
    "dynamic:alpha=0.75",
    "reservation:reserve=2",
]

BATCH_SIZES = (1, 7, 256)


def _source(cfg, load, seed):
    if load >= 1.0:
        return SaturatingSource(n_out=cfg.n, packet_words=cfg.packet_words,
                                seed=seed)
    return BatchRenewalSource(n_out=cfg.n, packet_words=cfg.packet_words,
                              load=load, width_bits=cfg.width_bits, seed=seed)


def _fingerprint(sw) -> dict:
    return {
        "stats": sw.stats,
        "ct_latency": sw.ct_latency,
        "total_latency": sw.total_latency,
        "cut_through_waves": sw.cut_through_waves,
        "plain_read_waves": sw.plain_read_waves,
        "write_waves": sw.write_waves,
        "idle_cycles": sw.idle_cycles,
        "overrun_drops": sw.overrun_drops,
        "policy_drops": sw.policy_drops,
        "cycle": sw.cycle,
    }


def _run(kernel, cfg_kwargs, load, seed, *, batch=None, telemetry=None,
         cycles=1500):
    reset_packet_ids()
    cfg = PipelinedSwitchConfig(**cfg_kwargs)
    src = _source(cfg, load, seed)
    if kernel is BatchPipelinedSwitch:
        kwargs = {}
        if batch is not None:
            kwargs["batch_cycles"] = batch
        sw = BatchPipelinedSwitch(cfg, src, telemetry=telemetry, **kwargs)
    else:
        sw = kernel(cfg, src, telemetry=telemetry)
    sw.warmup = 200
    sw.run(cycles)
    sw.drain()
    return sw


# a droppy shape: small buffer, hot destinations, saturating inputs
DROPPY = dict(n=4, addresses=16)
RENEWAL = dict(n=8, addresses=32)


class TestKernelInvariance:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("cfg_kwargs,load,seed", [
        pytest.param(DROPPY, 1.0, 3, id="4x4-saturated"),
        pytest.param(RENEWAL, 0.8, 1, id="8x8-renewal"),
    ])
    def test_policy_bit_identical_across_kernels(self, policy, cfg_kwargs,
                                                 load, seed):
        kwargs = {**cfg_kwargs, "policy": policy}
        fp = _fingerprint(_run(PipelinedSwitch, kwargs, load, seed))
        fast_fp = _fingerprint(_run(FastPipelinedSwitch, kwargs, load, seed))
        assert fast_fp == fp, f"fast diverged under {policy}"
        for batch in BATCH_SIZES:
            got = _fingerprint(_run(BatchPipelinedSwitch, kwargs, load, seed,
                                    batch=batch))
            assert got == fp, f"batch={batch} diverged under {policy}"

    def test_non_trivial_policies_actually_refuse(self):
        """Guard: the droppy shape exercises every policy's refusal path,
        otherwise the invariance test would vacuously pass."""
        for policy in POLICIES[1:]:
            sw = _run(PipelinedSwitch, {**DROPPY, "policy": policy}, 1.0, 3)
            assert sw.policy_drops > 0, f"{policy} never refused"

    def test_complete_sharing_is_the_seed(self):
        seed_fp = _fingerprint(_run(PipelinedSwitch, RENEWAL, 0.8, 1))
        got = _fingerprint(_run(PipelinedSwitch,
                                {**RENEWAL, "policy": "complete"}, 0.8, 1))
        assert got == seed_fp
        assert got["policy_drops"] == 0


class TestPolicyTelemetry:
    @pytest.mark.parametrize("policy", ["static:cap=4", "dynamic:alpha=1.0"])
    def test_drop_policy_events_identical(self, policy):
        kwargs = {**DROPPY, "policy": policy}
        tels = []
        for kernel in (PipelinedSwitch, FastPipelinedSwitch,
                       BatchPipelinedSwitch):
            tel = Telemetry.on(sample_interval=32)
            _run(kernel, kwargs, 1.0, 3, telemetry=tel)
            tels.append(tel)
        ref = tels[0]
        taxonomy = ref.events.drop_taxonomy()
        assert taxonomy.get(DROP_POLICY, 0) > 0
        for tel in tels[1:]:
            assert tel.events.sorted_events() == ref.events.sorted_events()
            assert tel.events.drop_taxonomy() == taxonomy
            assert tel.metrics.as_dict() == ref.metrics.as_dict()

    def test_peak_occupancy_gauge_exported(self):
        tel = Telemetry.on(sample_interval=32)
        sw = _run(FastPipelinedSwitch, RENEWAL, 0.8, 1, telemetry=tel)
        value = tel.metrics.as_dict()["repro_buffer_peak_occupancy"]
        assert value > 0
        assert value == sw._peak_occ


class TestRefusals:
    def test_custom_policy_runs_on_batch_engines(self):
        """A policy outside the built-ins needs only ``admit``: the batch
        kernel's single window engine runs it with telemetry off and on."""
        class Opaque(AdmissionPolicy):
            @property
            def spec(self):
                return "opaque"

            def admit(self, dst, free, held, quanta):
                return True

        cfg = PipelinedSwitchConfig(n=4, addresses=16, policy=Opaque())
        for telemetry in (None, Telemetry.on(sample_interval=32)):
            reset_packet_ids()
            sw = BatchPipelinedSwitch(cfg, _source(cfg, 1.0, 3),
                                      telemetry=telemetry)
            assert sw._lean is True
            sw.run(200)
            assert sw.stats.delivered > 0

    def test_credit_flow_conflicts_with_dropping_policy(self):
        with pytest.raises(ConfigError, match="credit_flow"):
            PipelinedSwitchConfig(n=4, addresses=16, credit_flow=True,
                                  credits_per_input=2,
                                  policy="dynamic:alpha=1.0")

    def test_config_normalizes_and_validates_policy(self):
        cfg = PipelinedSwitchConfig(n=4, addresses=16, policy="static:cap=4")
        assert isinstance(cfg.policy, AdmissionPolicy)
        assert cfg.policy.spec == "static:cap=4"
        with pytest.raises(ConfigError, match="reservation"):
            PipelinedSwitchConfig(n=8, addresses=16,
                                  policy="reservation:reserve=4")
