"""Property test: Scenario -> dump -> load -> re-run is bit-identical.

A scenario file must be a *complete* description of a run: serializing a
scenario to JSON or TOML, loading it back, and re-running it has to
reproduce the original statistics bit for bit — and the telemetry event
stream too — on both the checked and the batch kernel.  Drift here means
the spec is lossy and saved experiment files silently lie.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.scenario import Scenario, load_scenarios, prepare, run_scenario  # noqa: E402

SETTINGS = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

@st.composite
def scenarios(draw) -> Scenario:
    arch = draw(st.sampled_from(["pipelined", "pipelined_fast"]))
    # the batch kernel models only the paper's reads-first arbitration;
    # the ablation policies exist on the checked kernel alone
    priority = "reads_first" if arch == "pipelined_fast" else draw(
        st.sampled_from(["reads_first", "writes_first", "oldest_first"]))
    return Scenario(
        name="prop",
        arch=arch,
        horizon=draw(st.integers(min_value=200, max_value=600)),
        params={
            "n": draw(st.sampled_from([2, 4])),
            "addresses": draw(st.sampled_from([16, 32])),
            "quanta": draw(st.sampled_from([1, 2])),
            "cut_through": draw(st.booleans()),
            "priority": priority,
        },
        traffic={
            "kind": "renewal_tape",
            "load": draw(st.sampled_from([0.4, 0.8, 1.0])),
        },
        seeds=tuple(draw(st.lists(st.integers(min_value=0, max_value=50),
                                  min_size=1, max_size=2, unique=True))),
        warmup=draw(st.sampled_from([None, 0, 50])),
        drain=draw(st.booleans()),
    )


@pytest.mark.parametrize("suffix", [".json", ".toml"])
@SETTINGS
@given(scenario=scenarios(), data=st.data())
def test_dump_load_rerun_bit_identical(tmp_path_factory, suffix, scenario, data):
    seed = data.draw(st.sampled_from(scenario.seeds), label="seed")
    path = tmp_path_factory.mktemp("rt") / f"scenario{suffix}"
    scenario.dump(path)
    loaded = load_scenarios(path)
    assert loaded == [scenario], "serialization must be lossless"

    first = run_scenario(scenario, seed)
    again = run_scenario(loaded[0], seed)
    assert again == first, "a reloaded scenario must reproduce the run"


@SETTINGS
@given(scenario=scenarios())
def test_reloaded_telemetry_events_identical(tmp_path_factory, scenario):
    from repro.telemetry import Telemetry

    path = tmp_path_factory.mktemp("tel") / "scenario.json"
    scenario.dump(path)
    loaded = load_scenarios(path)[0]

    streams = []
    for sc in (scenario, loaded):
        tel = Telemetry.on(sample_interval=32)
        prep = prepare(sc, telemetry=tel)
        prep.execute()
        streams.append((tel.events.sorted_events(), tel.samples,
                        tel.metrics.as_dict()))
    assert streams[0] == streams[1]
