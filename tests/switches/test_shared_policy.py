"""Admission policies on the slot-level SharedBuffer.

The slotted model consults the same policy objects as the word-level
kernels, per cell, in `_select_departures` — after the pool-full check,
so a `policy` drop is always a deliberate refusal, never a disguised
capacity drop.  CompleteSharing must leave the seed behaviour untouched.
"""

import pytest

from repro.core.errors import ConfigError
from repro.switches import SharedBuffer
from repro.telemetry import DROP_POLICY, Telemetry
from repro.traffic import BernoulliUniform, Hotspot


def _run(policy, *, capacity=24, n=4, load=0.9, slots=4000, seed=9,
         traffic=None, telemetry=None):
    sw = SharedBuffer(n, n, capacity=capacity, seed=seed, policy=policy)
    if telemetry is not None:
        sw.attach_telemetry(telemetry)
    src = traffic or Hotspot(n, n, load, hot=0, hot_fraction=0.6, seed=seed)
    sw.run(src, slots)
    return sw


class TestSharedBufferPolicy:
    def test_complete_sharing_matches_seed(self):
        seed_sw = SharedBuffer(4, 4, capacity=24, seed=9)
        src = BernoulliUniform(4, 4, 0.9, seed=9)
        seed_sw.run(src, 4000)
        pol_sw = _run("complete", traffic=BernoulliUniform(4, 4, 0.9, seed=9))
        assert pol_sw.stats.summary() == seed_sw.stats.summary()
        assert pol_sw.policy_drops == 0

    def test_dynamic_threshold_protects_cold_outputs(self):
        """Under a hotspot, complete sharing lets the hot output starve
        everyone; a dynamic threshold must deliver strictly more."""
        complete = _run("complete")
        dynamic = _run("dynamic:alpha=1.0")
        assert dynamic.policy_drops > 0
        assert dynamic.stats.delivered > complete.stats.delivered

    def test_policy_drop_cause_in_taxonomy(self):
        tel = Telemetry.on(sample_interval=64)
        sw = _run("static:cap=3", telemetry=tel)
        assert sw.policy_drops > 0
        taxonomy = tel.drop_taxonomy()
        assert taxonomy.get(DROP_POLICY, 0) == sw.policy_drops

    def test_refusal_is_not_a_capacity_drop(self):
        """With an ample pool every drop is a deliberate policy refusal —
        the static cap bounds occupancy at n*cap, far below capacity, so
        the pool-full branch can never fire."""
        sw = SharedBuffer(4, 4, capacity=100, seed=9, policy="static:cap=2")
        src = Hotspot(4, 4, 0.9, hot=0, hot_fraction=0.6, seed=9)
        sw.run(src, 2000)
        assert sw.policy_drops > 0
        assert sw.stats.dropped == sw.policy_drops

    def test_infinite_pool_refuses_non_trivial_policy(self):
        with pytest.raises(ConfigError, match="finite"):
            SharedBuffer(4, 4, capacity=None, policy="dynamic:alpha=1.0")
        SharedBuffer(4, 4, capacity=None, policy="complete")  # fine

    def test_impossible_reservation_refused_at_construction(self):
        with pytest.raises(ConfigError, match="addresses"):
            SharedBuffer(8, 8, capacity=8, policy="reservation:reserve=2")
