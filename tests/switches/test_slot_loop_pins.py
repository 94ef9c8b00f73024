"""Recorded digests of the slot loop with every collection branch on.

The benchmark suite runs slotted cells with telemetry and the sanitizer
off, so the event, metric, occupancy-sample and sanitizer branches of
``SlottedSwitch.step`` never run there.  Each case below runs a 400-slot
cell with an event log, occupancy sampling and the sanitizer attached,
and compares the sha256 of everything those branches produce (event log,
drop taxonomy, occupancy samples, metrics, stats, sanitizer summary)
with ``fixtures/slot_loop_digests.json``.

The fixture changes only with an intended change of slot-loop behaviour.
To re-record it::

    PYTHONPATH=src python tests/switches/test_slot_loop_pins.py \\
        > tests/switches/fixtures/slot_loop_digests.json
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.drc import Sanitizer
from repro.scenario import Scenario, prepare
from repro.switches import CrosspointQueued
from repro.telemetry import EventLog, MetricsRegistry, Telemetry

FIXTURE = Path(__file__).parent / "fixtures" / "slot_loop_digests.json"
HORIZON = 400
TELEMETRY = {"events": True, "sample_interval": 8}


def _slotted(arch, params, batched=False):
    return Scenario.from_dict({
        "name": "pin", "arch": arch, "horizon": HORIZON, "seeds": [3],
        "params": params, "telemetry": TELEMETRY,
        "traffic": {"kind": "uniform", "load": 0.95, "batched": batched},
    })


def _channels(tel):
    return {
        "events": [e.as_dict() for e in tel.events],
        "drop_taxonomy": tel.drop_taxonomy(),
        "samples": tel.samples,
        "metrics": tel.metrics.as_dict(),
    }


def _slotted_doc(scenario):
    prep = prepare(scenario, sanitize=True)
    result = prep.execute()
    return {"result": result, **_channels(prep.telemetry)}


def _oldest_first_doc():
    """Crosspoint queues served oldest-first: the registry builds only
    round-robin service, so the switch is swapped into a prepared cell."""
    prep = prepare(_slotted("crosspoint", {"n": 8, "capacity": 2}), sanitize=True)
    switch = CrosspointQueued(8, 8, capacity=2, service="oldest_first")
    switch.attach_telemetry(prep.telemetry)
    switch.attach_sanitizer(prep.sanitizer)
    prep.switch = switch
    return {"result": prep.execute(), **_channels(prep.telemetry)}


def _fabric_doc():
    """A 16-port omega fabric of finite shared elements, each element with
    its own event log and sanitizer (every element runs its own slot loop)."""
    prep = prepare(Scenario.from_dict({
        "name": "pin", "arch": "fabric", "horizon": HORIZON, "seeds": [3],
        "params": {"k": 4, "stages": 2, "element": "shared",
                   "element_params": {"capacity": 4}},
        "traffic": {"kind": "uniform", "load": 0.8}, "drain": True,
    }))
    elements = [e for rank in prep.switch.elements for e in rank]
    bundles = []
    for element in elements:
        tel = Telemetry(MetricsRegistry(), EventLog(), TELEMETRY["sample_interval"])
        element.attach_telemetry(tel)
        element.attach_sanitizer(Sanitizer(telemetry=tel))
        bundles.append(tel)
    stats = prep.execute()["stats"]
    return {
        "stats": stats,
        "elements": [
            {"sanitizer": e.sanitizer.summary(), **_channels(tel)}
            for e, tel in zip(elements, bundles)
        ],
    }


CASES = {
    "voq-pim": lambda: _slotted_doc(_slotted(
        "voq", {"n": 8, "scheduler": "pim", "capacity": 4})),
    "voq-islip": lambda: _slotted_doc(_slotted(
        "voq", {"n": 8, "scheduler": "islip", "capacity": 4})),
    "voq-2drr": lambda: _slotted_doc(_slotted(
        "voq", {"n": 8, "scheduler": "2drr", "capacity": 4})),
    "shared-late-drops": lambda: _slotted_doc(_slotted(
        "shared", {"n": 4, "capacity": 6}, batched=True)),
    "fabric-shared": _fabric_doc,
    "crosspoint-drops": lambda: _slotted_doc(_slotted(
        "crosspoint", {"n": 4, "capacity": 2})),
    "block-drops": lambda: _slotted_doc(_slotted(
        "block", {"n": 8, "block": 2, "capacity": 4})),
    "output-late-drops": lambda: _slotted_doc(_slotted(
        "output", {"n": 4, "capacity": 3}, batched=True)),
    "crosspoint-oldest-first": _oldest_first_doc,
}


def digest(case: str) -> str:
    doc = CASES[case]()
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_slot_loop_matches_recorded_digest(case):
    assert digest(case) == json.loads(FIXTURE.read_text())[case]


def test_cases_exercise_every_branch():
    """The pinned cells must reach the drop and sanitizer paths at all."""
    shared = _slotted_doc(_slotted("shared", {"n": 4, "capacity": 6}, batched=True))
    assert shared["drop_taxonomy"].get("buffer_full", 0) > 0  # late drops
    assert shared["result"]["sanitizer"]["cycles_checked"] == HORIZON
    voq = _slotted_doc(_slotted("voq", {"n": 8, "scheduler": "pim", "capacity": 4}))
    assert voq["result"]["stats"]["dropped"] > 0  # admission-time drops
    assert len(voq["samples"]) == HORIZON // TELEMETRY["sample_interval"]
    for case in ("crosspoint-drops", "block-drops", "crosspoint-oldest-first"):
        assert CASES[case]()["result"]["stats"]["dropped"] > 0, case
    output = CASES["output-late-drops"]()
    assert output["drop_taxonomy"].get("buffer_full", 0) > 0, "output late drops"
    fabric = _fabric_doc()
    assert sum(el["drop_taxonomy"].get("buffer_full", 0)
               for el in fabric["elements"]) > 0


if __name__ == "__main__":
    print(json.dumps({case: digest(case) for case in sorted(CASES)}, indent=2))
