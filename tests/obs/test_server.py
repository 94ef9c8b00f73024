"""The /metrics endpoint and sweep aggregation, driven like a scraper would.

These tests run real sweeps through ScenarioRunner with the observer
attached and scrape over actual HTTP (loopback, ephemeral ports), because
the aggregation bugs worth catching — duplicate TYPE lines, worker
registries missing, resume double-counting — only appear on the wire.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.obs import promparse
from repro.obs.server import MetricsServer, serve_run_metrics
from repro.scenario import Scenario, ScenarioRunner


def _scenarios(seeds=(1, 2), horizon=3000):
    return [Scenario(
        name="obs-sweep", arch="pipelined_fast", horizon=horizon,
        params={"n": 4, "addresses": 64},
        traffic={"kind": "renewal_tape", "load": 0.7},
        seeds=list(seeds),
        telemetry={"metrics": True, "sample_interval": 64, "series": 128},
    )]


def _scrape(url: str) -> str:
    with urllib.request.urlopen(url, timeout=5) as resp:
        assert resp.headers["Content-Type"].startswith("text/plain")
        return resp.read().decode()


class TestMetricsServer:
    def test_serves_parseable_merged_document(self):
        with MetricsServer(0) as server:
            server.add_provider(lambda: "# TYPE a gauge\na 1\n")
            server.add_provider(lambda: "# TYPE b_total counter\nb_total 2\n")
            fams = promparse.parse(_scrape(server.url))
            assert [f.name for f in fams] == ["a", "b_total"]

    def test_unknown_path_404(self):
        with MetricsServer(0) as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                _scrape(server.url.replace("/metrics", "/nope"))
            assert err.value.code == 404

    def test_broken_provider_drops_out_not_down(self):
        with MetricsServer(0) as server:
            server.add_provider(lambda: "# TYPE a gauge\na 1\n")
            server.add_provider(lambda: "not { valid")
            fams = promparse.parse(_scrape(server.url))
            assert [f.name for f in fams] == ["a"]


class TestSweepAggregation:
    def test_progress_and_cells_after_sweep(self, tmp_path):
        server, obs = serve_run_metrics(0, out_dir=tmp_path)
        try:
            runner = ScenarioRunner(jobs=1, out_dir=tmp_path, observer=obs)
            runner.run(_scenarios())
            fams = {f.name: f for f in promparse.parse(_scrape(server.url))}
            assert fams["repro_sweep_cells_total"].samples[0].value == 2
            assert fams["repro_sweep_cells_done"].samples[0].value == 2
            assert fams["repro_sweep_cells_inflight"].samples[0].value == 0
            cells = {s.labels["cell"]
                     for s in fams["repro_buffer_occupancy"].samples}
            assert cells == {"obs-sweep-seed1", "obs-sweep-seed2"}
        finally:
            server.stop()

    def test_results_identical_with_and_without_endpoint_any_jobs(
            self, tmp_path):
        """Observability must not perturb the simulation: merged results are
        bit-identical with the endpoint on or off, at any --jobs."""
        outcomes = []
        for jobs, serve in ((1, False), (1, True), (2, True)):
            out = tmp_path / f"j{jobs}-{serve}"
            server = obs = None
            if serve:
                server, obs = serve_run_metrics(0, out_dir=out)
            try:
                ScenarioRunner(jobs=jobs, out_dir=out,
                               observer=obs).run(_scenarios())
            finally:
                if server is not None:
                    server.stop()
            outcomes.append((out / "results.json").read_text())
        assert outcomes[0] == outcomes[1] == outcomes[2]

    def test_worker_process_registries_arrive_via_artifacts(self, tmp_path):
        """--jobs 2 runs cells in pool workers whose registries the server
        process never sees live; they must still show up per cell."""
        server, obs = serve_run_metrics(0, out_dir=tmp_path)
        try:
            ScenarioRunner(jobs=2, out_dir=tmp_path,
                           observer=obs).run(_scenarios())
            fams = {f.name: f for f in promparse.parse(_scrape(server.url))}
            cells = {s.labels["cell"]
                     for s in fams["repro_buffer_occupancy"].samples}
            assert cells == {"obs-sweep-seed1", "obs-sweep-seed2"}
        finally:
            server.stop()

    def test_resumed_sweep_counts_reloaded_cells(self, tmp_path):
        first = ScenarioRunner(jobs=1, out_dir=tmp_path)
        first.run(_scenarios(seeds=(1,)))
        server, obs = serve_run_metrics(0, out_dir=tmp_path)
        try:
            runner = ScenarioRunner(jobs=1, out_dir=tmp_path, resume=True,
                                    observer=obs)
            results = runner.run(_scenarios(seeds=(1, 2, 3)))
            assert len(results) == 3
            fams = {f.name: f for f in promparse.parse(_scrape(server.url))}
            assert fams["repro_sweep_cells_total"].samples[0].value == 3
            assert fams["repro_sweep_cells_resumed"].samples[0].value == 1
            assert fams["repro_sweep_cells_done"].samples[0].value == 3
        finally:
            server.stop()

    def test_live_registry_visible_mid_run(self, tmp_path):
        """At --jobs 1 the in-process cell's registry is scraped live;
        job_live exposes it while the cell executes."""
        server, obs = serve_run_metrics(0, out_dir=tmp_path)
        seen: list[dict] = []

        class Probe:
            """Wraps the real observer, scraping while a cell is live."""

            def __getattr__(self, name):
                return getattr(obs, name)

            def job_live(self, name, seed, telemetry):
                obs.job_live(name, seed, telemetry)
                if telemetry is not None:
                    seen.append(obs.progress())
                    fams = {f.name: f
                            for f in promparse.parse(_scrape(server.url))}
                    cells = {s.labels.get("cell") for f in fams.values()
                             for s in f.samples if "cell" in s.labels}
                    seen.append(sorted(cells))

        try:
            ScenarioRunner(jobs=1, out_dir=tmp_path,
                           observer=Probe()).run(_scenarios(seeds=(1,)))
        finally:
            server.stop()
        assert seen[0]["inflight"] == 1
        assert "obs-sweep-seed1" in seen[1]


class TestTopDashboard:
    def test_once_against_live_server(self, tmp_path, capsys):
        import io

        from repro.obs.top import run_top

        server, obs = serve_run_metrics(0, out_dir=tmp_path)
        try:
            ScenarioRunner(jobs=1, out_dir=tmp_path,
                           observer=obs).run(_scenarios(seeds=(1,)))
            out = io.StringIO()
            assert run_top(server.url, once=True, out=out) == 0
            text = out.getvalue()
            assert "1/1 cells" in text
            assert "obs-sweep-seed1" in text
            assert "drop taxonomy" in text
            assert "\x1b[" not in text  # --once never clears the screen
        finally:
            server.stop()

    def test_peak_occupancy_column(self):
        """The dashboard surfaces the repro_buffer_peak_occupancy gauge
        as its own column, from canned families (no server needed)."""
        from repro.obs.promparse import parse
        from repro.obs.top import _Snapshot, render_dashboard

        families = parse(
            "# TYPE repro_cycle gauge\n"
            "repro_cycle 500\n"
            "# TYPE repro_buffer_occupancy gauge\n"
            "repro_buffer_occupancy 7\n"
            "# TYPE repro_buffer_peak_occupancy gauge\n"
            "repro_buffer_peak_occupancy 13\n"
        )
        text = render_dashboard(_Snapshot(families, 0.0), None)
        header = next(l for l in text.splitlines() if "cycles/s" in l)
        assert "peak" in header
        row = next(l for l in text.splitlines() if "(run)" in l)
        assert "13" in row and "7" in row

    def test_rates_appear_on_second_scrape(self, tmp_path):
        import io

        from repro.obs.top import run_top

        server, obs = serve_run_metrics(0, out_dir=tmp_path)
        try:
            ScenarioRunner(jobs=1, out_dir=tmp_path,
                           observer=obs).run(_scenarios(seeds=(1,)))
            out = io.StringIO()
            assert run_top(server.url, interval=0.01, iterations=2,
                           out=out) == 0
            # first refresh has no deltas ('-'), second derives rates
            refreshes = out.getvalue().count("cycles/s")
            assert refreshes == 2
        finally:
            server.stop()

    def test_unreachable_endpoint_exits_nonzero(self, capsys):
        from repro.obs.top import run_top

        assert run_top("http://127.0.0.1:9/metrics", once=True) == 1
        assert "cannot scrape" in capsys.readouterr().err


def test_cli_sweep_serve_metrics_smoke(tmp_path):
    """`repro run --serve-metrics 0` end to end through the CLI entry."""
    from repro.cli import main

    spec = _scenarios(seeds=(1,))[0].to_dict()
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(spec))
    rc = main(["run", str(path), "--out", str(tmp_path / "out"),
               "--serve-metrics", "0"])
    assert rc == 0
    assert (tmp_path / "out" / "results.json").exists()
