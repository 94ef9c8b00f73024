"""Checkpoint/restore of the admission-policy plane.

The snapshot format carries the policy as its canonical spec string plus
a ``policy_state`` hook (format v2); resume must be bit-identical under
every policy on every kernel, version-1 documents (written before the
policy layer existed) must restore exactly as complete sharing, and a
stateless policy handed leftover state must refuse loudly.
"""

import json

import pytest

from repro.checkpoint import (
    SNAPSHOT_VERSION,
    fingerprint,
    restore_switch,
    snapshot_switch,
)
from repro.core import (
    BatchPipelinedSwitch,
    BatchRenewalSource,
    PipelinedSwitch,
    PipelinedSwitchConfig,
)
from repro.core.errors import ConfigError
from repro.sim.packet import reset_packet_ids
from tests.checkpoint.test_snapshot import as_version2

KERNELS = {
    "checked": PipelinedSwitch,
    "batch": BatchPipelinedSwitch,
}


def _build(kernel, policy, seed=11):
    reset_packet_ids()
    cfg = PipelinedSwitchConfig(n=4, addresses=16, policy=policy)
    src = BatchRenewalSource(4, cfg.packet_words, load=0.9, seed=seed)
    return KERNELS[kernel](cfg, src)


@pytest.mark.parametrize("kernel", sorted(KERNELS))
@pytest.mark.parametrize("policy", ["complete", "dynamic:alpha=0.75",
                                    "reservation:reserve=2"])
def test_resume_bit_identical_under_policy(kernel, policy):
    ref = _build(kernel, policy)
    ref.run(3000)
    ref.drain()
    want = fingerprint(ref)

    sw = _build(kernel, policy)
    sw.run(1100)
    doc = json.loads(json.dumps(snapshot_switch(sw)))  # real JSON round trip
    assert doc["version"] == SNAPSHOT_VERSION
    assert doc["config"]["policy"] == policy
    sw2 = restore_switch(doc)
    assert sw2.policy.spec == sw.policy.spec
    sw2.run(3000 - 1100)
    sw2.drain()
    assert fingerprint(sw2) == want


def test_policy_drops_counter_round_trips():
    sw = _build("batch", "static:cap=2")
    sw.run(2500)
    assert sw.policy_drops > 0
    doc = snapshot_switch(sw)
    sw2 = restore_switch(doc)
    assert sw2.policy_drops == sw.policy_drops


def test_v1_document_restores_as_complete_sharing():
    """A pre-policy (version 1) snapshot has no policy spec, no
    policy_state, and six-element wave counters; it must restore exactly
    as the seed semantics: complete sharing, zero policy drops."""
    sw = _build("batch", "complete")
    sw.run(800)
    doc = as_version2(snapshot_switch(sw), sw.source)
    doc["version"] = 1
    del doc["config"]["policy"]
    del doc["policy_state"]
    doc["switch"]["waves"] = doc["switch"]["waves"][:6]
    doc["switch"].pop("peak", None)
    sw2 = restore_switch(doc)
    assert sw2.policy.spec == "complete"
    assert sw2.policy_drops == 0
    # and it keeps running from the restored point
    sw2.run(100)


def test_stateless_policy_refuses_leftover_state():
    sw = _build("checked", "dynamic:alpha=1.0")
    sw.run(200)
    doc = snapshot_switch(sw)
    assert doc["policy_state"] is None
    doc["policy_state"] = {"ema": 3}
    with pytest.raises(ConfigError, match="stateless"):
        restore_switch(doc)
