"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


@pytest.mark.parametrize(
    "arch", ["fifo", "voq", "output", "shared", "crosspoint", "block",
             "speedup", "interleaved", "knockout"],
)
def test_simulate_every_architecture(arch, capsys):
    rc = main(["simulate", "--arch", arch, "-n", "4", "--load", "0.5",
               "--slots", "1500"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "throughput" in out
    assert "4x4" in out


@pytest.mark.parametrize("sched", ["pim", "islip", "2drr", "greedy", "max"])
def test_simulate_voq_schedulers(sched, capsys):
    rc = main(["simulate", "--arch", "voq", "--scheduler", sched, "-n", "4",
               "--load", "0.5", "--slots", "800"])
    assert rc == 0


def test_simulate_bursty(capsys):
    rc = main(["simulate", "--arch", "shared", "-n", "4", "--load", "0.5",
               "--slots", "1500", "--burst", "6"])
    assert rc == 0


def test_pipelined_command(capsys):
    rc = main(["pipelined", "-n", "2", "--load", "0.4", "--cycles", "4000",
               "--addresses", "32"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "link utilization" in out
    assert "cut-through" in out


def test_pipelined_with_credits_and_quanta(capsys):
    rc = main(["pipelined", "-n", "2", "--load", "0.8", "--cycles", "4000",
               "--addresses", "32", "--quanta", "2", "--credits"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "dropped packets      0" in out.replace("  ", " ") or "0" in out


def test_wormhole_command(capsys):
    rc = main(["wormhole", "--k", "4", "--dims", "2", "--lanes", "2",
               "--load", "0.3", "--cycles", "2000", "--message", "8"])
    assert rc == 0
    assert "delivered_fraction" in capsys.readouterr().out


def test_wormhole_torus_dateline(capsys):
    rc = main(["wormhole", "--k", "4", "--dims", "2", "--lanes", "2",
               "--load", "0.3", "--cycles", "2000", "--message", "8",
               "--wrap", "--dateline"])
    assert rc == 0
    assert "torus" in capsys.readouterr().out


@pytest.mark.parametrize("chip", ["1", "2", "3"])
def test_vlsi_reports(chip, capsys):
    rc = main(["vlsi", "--chip", chip])
    assert rc == 0
    assert "paper" in capsys.readouterr().out


def test_vlsi_comparisons(capsys):
    rc = main(["vlsi", "--chip", "3", "--comparisons"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PRIZMA" in out
    assert "16x" in out


def test_sizing_command(capsys):
    rc = main(["sizing", "-n", "8", "--load", "0.7", "--target", "1e-2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "shared buffering" in out
    assert "input smoothing" in out


@pytest.mark.parametrize("kernel", ["checked", "batch"])
def test_trace_command_writes_valid_chrome_trace(kernel, tmp_path, capsys):
    from repro.telemetry.export import validate_chrome_trace

    out = tmp_path / "trace.json"
    rc = main(["trace", kernel, "--cycles", "200", "-n", "4",
               "--addresses", "32", "--out", str(out)])
    assert rc == 0
    import json

    trace = json.loads(out.read_text())
    validate_chrome_trace(trace)
    names = {e["args"]["name"] for e in trace["traceEvents"]
             if e["ph"] == "M" and e["name"] == "thread_name"}
    assert {"M0", "in0", "out0"} <= names
    assert "perfetto" in capsys.readouterr().out


def test_trace_checked_and_batch_agree(tmp_path):
    import json

    outs = []
    for kernel in ("checked", "batch"):
        out = tmp_path / f"{kernel}.json"
        rc = main(["trace", kernel, "--cycles", "150", "-n", "2",
                   "--addresses", "16", "--out", str(out)])
        assert rc == 0
        outs.append(json.loads(out.read_text()))
    assert outs[0] == outs[1]


def test_trace_rejects_removed_fast_kernel(capsys):
    with pytest.raises(SystemExit) as info:
        main(["trace", "fast", "--cycles", "50"])
    assert info.value.code == 2
    assert "invalid choice: 'fast'" in capsys.readouterr().err


def test_pipelined_fast_flag_prints_identical_table(capsys):
    """``pipelined --fast`` runs the batch kernel on the same tape traffic
    and prints the checked kernel's table, digit for digit."""
    argv = ["pipelined", "-n", "4", "--load", "0.8", "--cycles", "3000",
            "--addresses", "32", "--quanta", "2"]
    outs = []
    for extra in ([], ["--fast"], ["--credits"], ["--credits", "--fast"]):
        assert main(argv + extra) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert outs[2] == outs[3]
    assert outs[0] != outs[2]


def test_pipelined_telemetry_outputs(tmp_path, capsys):
    import json

    metrics = tmp_path / "metrics.txt"
    events = tmp_path / "events.jsonl"
    rc = main(["pipelined", "-n", "2", "--load", "0.4", "--cycles", "2000",
               "--addresses", "32", "--metrics", str(metrics),
               "--events", str(events), "--sample-interval", "64"])
    assert rc == 0
    assert "occupancy:" in capsys.readouterr().out
    assert "repro_port_arrivals_total" in metrics.read_text()
    lines = events.read_text().strip().splitlines()
    assert lines and all(json.loads(l)["kind"] for l in lines)


def test_simulate_telemetry_outputs(tmp_path):
    events = tmp_path / "events.jsonl"
    rc = main(["simulate", "--arch", "shared", "-n", "4", "--load", "0.9",
               "--slots", "1000", "--capacity", "8", "--events", str(events)])
    assert rc == 0
    text = events.read_text()
    assert '"kind":"drop"' in text and '"cause":"buffer_full"' in text


def test_bench_json_artifact(tmp_path):
    import json

    out = tmp_path / "bench.json"
    rc = main(["bench", "--cycles", "400", "--json", str(out)])
    assert rc == 0
    artifact = json.loads(out.read_text())
    assert artifact["smoke"] is True
    assert len(artifact["results"]) == 1
    row = artifact["results"][0]
    # same row schema as benchmarks/BENCH_fastpath.json
    assert set(row) == {"experiment", "traffic", "cycles", "checked_seconds",
                        "checked_cycles_per_sec", "delivered", "dropped",
                        "batch"}
    assert set(row["batch"]) == {"traffic", "cycles", "batch_window",
                                 "batch_seconds", "batch_cycles_per_sec",
                                 "batch_speedup", "delivered", "dropped",
                                 "identical"}
    assert row["traffic"] == row["batch"]["traffic"] == "renewal_tape"
    assert row["batch"]["identical"] is True
    assert (row["batch"]["delivered"], row["batch"]["dropped"]) == (
        row["delivered"], row["dropped"])
    assert row["batch"]["batch_speedup"] > 0


def test_pipelined_invalid_config_clean_error(capsys):
    rc = main(["pipelined", "-n", "0", "--cycles", "100"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "repro: error:" in err
    assert "n >= 1" in err
    assert "Traceback" not in err


def test_pipelined_invalid_quanta_clean_error(capsys):
    rc = main(["pipelined", "-n", "2", "--cycles", "100", "--quanta", "-1"])
    assert rc == 2
    assert "repro: error:" in capsys.readouterr().err


def test_run_scenario_file(tmp_path, capsys):
    from repro.scenario import Scenario

    path = tmp_path / "one.json"
    Scenario(name="one", arch="shared", horizon=800, params={"n": 4},
             traffic={"kind": "uniform", "load": 0.7}).dump(path)
    rc = main(["run", str(path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "one" in out and "shared" in out


def test_run_missing_file_clean_error(capsys):
    rc = main(["run", "no-such-file.json"])
    assert rc == 2
    assert "cannot read scenario file" in capsys.readouterr().err


def test_run_horizon_override_and_artifacts(tmp_path, capsys):
    import json

    from repro.scenario import Scenario

    path = tmp_path / "one.json"
    Scenario(name="one", arch="shared", horizon=50_000, params={"n": 4},
             traffic={"kind": "uniform", "load": 0.7}).dump(path)
    out_dir = tmp_path / "out"
    rc = main(["run", str(path), "--horizon", "500", "--out", str(out_dir)])
    assert rc == 0
    merged = json.loads((out_dir / "results.json").read_text())
    assert merged[0]["horizon"] == 500
    assert merged[0]["warmup"] == 100


def test_run_policy_override(tmp_path, capsys):
    import json

    from repro.scenario import Scenario

    path = tmp_path / "one.json"
    Scenario(name="one", arch="pipelined_fast", horizon=2000,
             params={"n": 4, "addresses": 16},
             traffic={"kind": "renewal_tape", "load": 0.9}).dump(path)
    out_dir = tmp_path / "out"
    rc = main(["run", str(path), "--policy", "static:cap=2",
               "--out", str(out_dir)])
    assert rc == 0
    merged = json.loads((out_dir / "results.json").read_text())
    assert merged[0]["params"]["policy"] == "static:cap=2"
    assert merged[0]["stats"]["policy_drops"] > 0


def test_run_bad_policy_clean_error(tmp_path, capsys):
    from repro.scenario import Scenario

    path = tmp_path / "one.json"
    Scenario(name="one", arch="pipelined_fast", horizon=500,
             params={"n": 4, "addresses": 16},
             traffic={"kind": "renewal_tape", "load": 0.5}).dump(path)
    rc = main(["run", str(path), "--policy", "dynamc:alpha=1.0"])
    assert rc == 2
    assert "did you mean 'dynamic'" in capsys.readouterr().err


def test_bench_policy_flag(capsys):
    rc = main(["bench", "--cycles", "400", "--kernel", "both",
               "--policy", "dynamic:alpha=1.0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "batch" in out


def test_sweep_parallel_matches_sequential_artifacts(tmp_path):
    import json

    doc = {
        "base": {"name": "grid", "arch": "shared", "horizon": 600,
                 "params": {"n": 4},
                 "traffic": {"kind": "uniform", "load": 0.5}},
        "grid": {"arch": ["shared", "output"], "traffic.load": [0.5, 0.9]},
    }
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(doc))
    out_seq, out_par = tmp_path / "seq", tmp_path / "par"
    assert main(["run", str(path), "--jobs", "1", "--out", str(out_seq)]) == 0
    assert main(["sweep", str(path), "--jobs", "2", "--out", str(out_par)]) == 0
    seq = json.loads((out_seq / "results.json").read_text())
    par = json.loads((out_par / "results.json").read_text())
    assert seq == par
    assert len(seq) == 4


# -- --sanitize plumbing through the CLI --------------------------------------

def test_run_scenario_with_sanitize(tmp_path, capsys):
    from repro.scenario import Scenario

    path = tmp_path / "one.json"
    Scenario(name="one", arch="pipelined", horizon=600,
             params={"n": 2, "addresses": 16},
             traffic={"kind": "renewal", "load": 0.7}).dump(path)
    rc = main(["run", str(path), "--sanitize"])
    assert rc == 0
    assert "one" in capsys.readouterr().out


def test_run_sanitize_rejects_uninstrumented_arch(tmp_path, capsys):
    from repro.scenario import Scenario

    path = tmp_path / "one.json"
    Scenario(name="one", arch="wide", horizon=600,
             params={"n": 2, "addresses": 16},
             traffic={"kind": "renewal", "load": 0.7}).dump(path)
    rc = main(["run", str(path), "--sanitize"])
    assert rc == 2
    assert "sanitize" in capsys.readouterr().err


def test_pipelined_command_with_sanitize(capsys):
    rc = main(["pipelined", "-n", "2", "--load", "0.6", "--cycles", "2000",
               "--addresses", "32", "--sanitize"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "sanitizer:" in out
    assert "violations=0" in out.replace(" ", "")


def test_simulate_command_with_sanitize(capsys):
    rc = main(["simulate", "--arch", "shared", "-n", "4", "--load", "0.5",
               "--slots", "1000", "--sanitize"])
    assert rc == 0
    assert "sanitizer:" in capsys.readouterr().out
