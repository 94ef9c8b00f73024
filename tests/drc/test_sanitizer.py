"""Unit and integration tests for the runtime invariant sanitizer.

The seeded-fault tests against the checked kernel live in
``tests/core/test_failure_injection.py``; this file covers the sanitizer
as a component (hooks, halt modes, pickling, telemetry export), the
arch parity guarantee (a sanitized ``pipelined_fast`` cell runs on the
checked kernel and reports the ``pipelined`` cell's summary), and the
scenario-layer plumbing (``--sanitize``
through ``run_scenario`` and parallel ``ScenarioRunner`` sweeps).
"""

import pickle

import pytest

from repro.drc.sanitizer import (
    BANK_CONFLICT,
    CONSERVATION,
    DOUBLE_INITIATION,
    INVARIANTS,
    NULL_SANITIZER,
    NullSanitizer,
    Sanitizer,
    SanitizerError,
)
from repro.scenario import Scenario, ScenarioError, ScenarioRunner, run_scenario
from repro.telemetry import Telemetry
from repro.telemetry.export import render_prometheus


# -- the sanitizer as a component ---------------------------------------------

def test_double_initiation_detected():
    san = Sanitizer()
    san.wave_initiated(5, 1)
    san.wave_initiated(6, 2)  # next cycle: fine
    with pytest.raises(SanitizerError) as ei:
        san.wave_initiated(6, 3)
    assert ei.value.code == DOUBLE_INITIATION
    assert ei.value.cycle == 6
    assert ei.value.context == {"first_packet": 2, "second_packet": 3}


def test_bank_conflict_detected_and_state_rolls_per_cycle():
    san = Sanitizer()
    san.bank_access(1, 0, 4, 10, 0)
    san.bank_access(1, 1, 4, 10, 0)  # different bank, same cycle: fine
    san.bank_access(2, 0, 4, 10, 0)  # same bank, next cycle: fine
    with pytest.raises(SanitizerError) as ei:
        san.bank_access(2, 0, 5, 11, 0)
    assert ei.value.code == BANK_CONFLICT
    assert ei.value.context["bank"] == 0


def test_address_mismatch_keyed_per_quantum():
    san = Sanitizer()
    san.bank_access(1, 0, 4, 10, 0)
    san.bank_access(2, 1, 4, 10, 0)   # quantum 0 stays at address 4
    san.bank_access(9, 0, 7, 10, 1)   # quantum 1 may live elsewhere
    with pytest.raises(SanitizerError) as ei:
        san.bank_access(10, 1, 5, 10, 1)
    err = ei.value
    assert err.code == "DRC203"
    assert err.context["expected_addr"] == 7
    assert err.context["actual_addr"] == 5


def test_conservation_checked_at_end_cycle():
    san = Sanitizer()
    san.packet_injected(0, 1)
    san.packet_injected(0, 2)
    san.end_cycle(0, in_flight=2)  # both buffered: fine
    san.packet_delivered(3, 1)
    with pytest.raises(SanitizerError) as ei:
        san.end_cycle(3, in_flight=0)  # packet 2 vanished
    assert ei.value.code == CONSERVATION
    assert ei.value.context == {
        "injected": 2, "delivered": 1, "dropped": 0, "in_flight": 0,
    }


def test_error_message_and_invariant_text():
    err = SanitizerError(BANK_CONFLICT, 42, "bank M3 accessed twice", bank=3)
    assert "DRC201 at cycle 42" in str(err)
    assert "bank=3" in str(err)
    assert INVARIANTS[BANK_CONFLICT] in str(err)
    assert err.invariant == INVARIANTS[BANK_CONFLICT]


def test_sanitizer_error_pickles_with_context():
    """Sweeps ferry violations across the process pool."""
    err = SanitizerError(CONSERVATION, 7, "ledger off by one",
                         injected=3, delivered=2, dropped=0, in_flight=0)
    clone = pickle.loads(pickle.dumps(err))
    assert isinstance(clone, SanitizerError)
    assert clone.code == err.code
    assert clone.cycle == 7
    assert clone.context == err.context
    assert str(clone) == str(err)


def test_null_sanitizer_is_inert():
    assert NULL_SANITIZER.enabled is False
    assert isinstance(NULL_SANITIZER, NullSanitizer)
    NULL_SANITIZER.wave_initiated(0, 1)
    NULL_SANITIZER.wave_initiated(0, 2)  # no double-initiation bookkeeping
    NULL_SANITIZER.bank_access(0, 0, 0, 1, 0)
    NULL_SANITIZER.bank_access(0, 0, 1, 2, 0)  # no conflict either
    NULL_SANITIZER.end_cycle(0, 99)
    assert NULL_SANITIZER.summary()["violations"] == 0


def test_violation_counters_exported_through_telemetry():
    tel = Telemetry.on()
    san = Sanitizer(telemetry=tel, halt=False)
    san.wave_initiated(1, 1)
    san.wave_initiated(1, 2)
    san.wave_initiated(1, 3)
    san.end_cycle(1, 0)
    text = render_prometheus(tel.metrics)
    assert 'repro_sanitizer_violations_total{code="DRC202"} 2' in text
    assert "repro_sanitizer_cycles_total 1" in text


# -- scenario-layer plumbing --------------------------------------------------

def _scenario(arch: str = "pipelined", **over) -> Scenario:
    spec = dict(
        name="san", arch=arch, horizon=600, params={"n": 2, "addresses": 16},
        traffic={"kind": "renewal", "load": 0.7}, seeds=[3],
    )
    spec.update(over)
    return Scenario(**spec)


def test_run_scenario_sanitize_reports_summary():
    result = run_scenario(_scenario(), seed=3, sanitize=True)
    assert result["sanitizer"]["violations"] == 0
    assert result["sanitizer"]["cycles_checked"] == 600
    assert result["sanitizer"]["injected"] > 0


def test_run_scenario_without_sanitize_has_no_summary():
    result = run_scenario(_scenario(), seed=3)
    assert "sanitizer" not in result


def test_slotted_architecture_sanitized():
    result = run_scenario(
        _scenario(arch="shared", params={"n": 4},
                  traffic={"kind": "uniform", "load": 0.7}),
        seed=3, sanitize=True,
    )
    assert result["sanitizer"]["violations"] == 0
    assert result["sanitizer"]["injected"] > 0


def test_sanitize_rejected_for_uninstrumented_architecture():
    with pytest.raises(ScenarioError, match="sanitize"):
        run_scenario(_scenario(arch="wide"), seed=3, sanitize=True)
    with pytest.raises(ScenarioError, match="sanitize"):
        ScenarioRunner(jobs=1, sanitize=True).run(_scenario(arch="wide"))


def test_sanitized_fast_arch_runs_checked_kernel():
    """The batch kernel refuses sanitizers, so a sanitized ``pipelined_fast``
    cell runs on the checked kernel, tape traffic included: the same
    ledger as ``pipelined``, zero violations."""
    spec = dict(horizon=2_000, params={"n": 4, "addresses": 16},
                traffic={"kind": "renewal_tape", "load": 0.9})
    checked = run_scenario(_scenario(**spec), seed=11, sanitize=True)
    fast = run_scenario(_scenario(arch="pipelined_fast", **spec), seed=11,
                        sanitize=True)
    assert fast["run"] == {"kernel": "checked"}
    assert fast["sanitizer"] == checked["sanitizer"]
    assert fast["stats"] == checked["stats"]
    assert checked["sanitizer"]["violations"] == 0
    assert checked["sanitizer"]["injected"] > 100


def test_parallel_sanitized_sweep_bit_identical():
    scenarios = _scenario().expand({"arch": ["pipelined", "pipelined_fast"],
                                    "traffic.load": [0.5, 0.9]})
    sequential = ScenarioRunner(jobs=1, sanitize=True).run(scenarios)
    parallel = ScenarioRunner(jobs=2, sanitize=True).run(scenarios)
    assert parallel == sequential
    assert all(r["sanitizer"]["violations"] == 0 for r in sequential)


def test_sanitized_results_match_unsanitized_numbers():
    """The sanitizer observes; it must never change the simulation."""
    plain = run_scenario(_scenario(), seed=3)
    sanitized = dict(run_scenario(_scenario(), seed=3, sanitize=True))
    sanitized.pop("sanitizer")
    assert sanitized == plain
