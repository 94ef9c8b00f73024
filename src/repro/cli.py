"""Command-line interface: run the paper's systems without writing code.

Examples
--------
Run a slot-level architecture under uniform traffic::

    python -m repro simulate --arch shared -n 8 --load 0.9 --slots 20000

Run the word-level pipelined-memory switch (the paper's contribution)::

    python -m repro pipelined -n 8 --load 0.6 --cycles 100000 --credits

Drive the wormhole network ([Dally90] comparison)::

    python -m repro wormhole --k 8 --dims 2 --lanes 1 --load 1.0

Print a Telegraphos silicon report or the [HlKa88] buffer sizing::

    python -m repro vlsi --chip 3
    python -m repro sizing -n 16 --load 0.8 --target 1e-3

Export a Perfetto-loadable trace of the bank pipeline (figure 5, live)::

    python -m repro trace batch --cycles 2000 --out trace.json

Run a declarative scenario file, or sweep a whole grid across processes::

    python -m repro run examples/scenarios/cut_through.json
    python -m repro sweep examples/scenarios/shootout.json --jobs 4 --out out/

Run with the invariant sanitizer attached (:mod:`repro.drc`)::

    python -m repro run examples/scenarios/cut_through.json --sanitize

Every command builds its switches through the scenario registry
(:mod:`repro.scenario`), so a CLI invocation and the equivalent scenario
file produce bit-identical statistics.
"""

from __future__ import annotations

import argparse
import sys

from repro.switches.harness import format_table


def _add_telemetry_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("telemetry")
    g.add_argument("--metrics", metavar="FILE", default=None,
                   help="write Prometheus-style text metrics to FILE")
    g.add_argument("--events", metavar="FILE", default=None,
                   help="write the JSONL packet-lifecycle event stream to FILE")
    g.add_argument("--sample-interval", type=int, default=0, metavar="CYCLES",
                   help="sample buffer occupancy every CYCLES cycles "
                        "(0 = no sampling)")


def _telemetry_from_args(args, events: bool = False):
    """The bundle the telemetry flags ask for, or None if they ask for
    nothing; ``events=True`` records the event log even without
    ``--events``."""
    from repro.scenario import TelemetrySpec
    from repro.scenario.registry import telemetry_from_spec

    spec = TelemetrySpec(metrics=bool(args.metrics),
                         events=events or bool(args.events),
                         sample_interval=args.sample_interval)
    return telemetry_from_spec(spec) if spec.enabled else None


def _export_telemetry(tel, args) -> None:
    from repro.telemetry.export import write_events_jsonl, write_metrics_text

    if tel is None:
        return
    # write every requested file before printing anything: a consumer
    # closing stdout early (| head) must not cost the later artifacts
    if args.events:
        write_events_jsonl(tel.events, args.events)
    if args.metrics:
        write_metrics_text(tel.metrics, args.metrics)
    if args.events:
        print(f"events: {len(tel.events)} -> {args.events}")
    if args.metrics:
        print(f"metrics -> {args.metrics}")
    if args.sample_interval:
        series = tel.occupancy_series()
        print("occupancy: "
              + ", ".join(f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}"
                          for k, v in series.items()))


def _add_sanitize_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sanitize", action="store_true",
                   help="attach the repro.drc invariant sanitizer: check the "
                        "paper's structural invariants every cycle and halt "
                        "with a structured error on the first violation")


def _print_sanitizer_summary(sanitizer) -> None:
    if sanitizer is not None:
        print("sanitizer: "
              + ", ".join(f"{k}={v}" for k, v in sanitizer.summary().items()))


def _add_simulate(sub: argparse._SubParsersAction) -> None:
    from repro.scenario.registry import REGISTRY, SLOTTED

    p = sub.add_parser("simulate", help="run a slot-level switch architecture")
    p.add_argument("--arch", required=True,
                   choices=sorted(a.name for a in REGISTRY.values()
                                  if a.kind == SLOTTED))
    p.add_argument("-n", type=int, default=8, help="switch size (n x n)")
    p.add_argument("--load", type=float, default=0.8)
    p.add_argument("--slots", type=int, default=20_000)
    p.add_argument("--capacity", type=int, default=None,
                   help="buffer capacity in cells (architecture-specific unit)")
    p.add_argument("--scheduler", default="islip",
                   choices=["pim", "islip", "2drr", "greedy", "max"],
                   help="VOQ scheduler (voq architecture only)")
    p.add_argument("--burst", type=float, default=None,
                   help="mean burst length for bursty on/off traffic")
    p.add_argument("--seed", type=int, default=1)
    _add_telemetry_flags(p)
    _add_sanitize_flag(p)
    p.set_defaults(func=cmd_simulate)


def cmd_simulate(args) -> int:
    from repro.scenario import Scenario, prepare

    traffic = {"kind": "uniform", "load": args.load}
    if args.burst:
        traffic = {"kind": "bursty", "load": args.load,
                   "params": {"burst": args.burst}}
    params = {"n": args.n, "capacity": args.capacity}
    if args.arch == "voq":
        params["scheduler"] = args.scheduler
    scenario = Scenario(
        name=f"simulate-{args.arch}", arch=args.arch, horizon=args.slots,
        params=params, traffic=traffic, seeds=[args.seed],
    )
    tel = _telemetry_from_args(args)
    prep = prepare(scenario, telemetry=tel, sanitize=args.sanitize)
    stats = prep.switch.run(prep.source, args.slots)
    rows = [[k, v] for k, v in stats.summary().items()]
    print(format_table(["metric", "value"], rows,
                       title=f"{args.arch} {args.n}x{args.n} @ load {args.load}"))
    _print_sanitizer_summary(prep.sanitizer)
    _export_telemetry(tel, args)
    return 0


def _add_pipelined(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("pipelined", help="run the word-level pipelined-memory switch")
    p.add_argument("-n", type=int, default=8)
    p.add_argument("--load", type=float, default=0.6)
    p.add_argument("--cycles", type=int, default=100_000)
    p.add_argument("--addresses", type=int, default=256)
    p.add_argument("--width", type=int, default=16, help="word width in bits")
    p.add_argument("--quanta", type=int, default=1,
                   help="packet size in buffer-width quanta (§3.5)")
    p.add_argument("--credits", action="store_true",
                   help="credit-based (lossless) flow control")
    p.add_argument("--no-cut-through", action="store_true")
    p.add_argument("--fast", action="store_true",
                   help="batch kernel (bit-identical statistics, no "
                        "per-word invariant checking; --sanitize keeps the "
                        "checked kernel)")
    p.add_argument("--seed", type=int, default=1)
    _add_telemetry_flags(p)
    _add_sanitize_flag(p)
    p.set_defaults(func=cmd_pipelined)


def _pipelined_scenario(args, arch: str, warmup: int):
    """The Scenario behind a ``repro pipelined`` / ``repro trace`` call.

    Traffic is the per-link renewal tape, which every kernel consumes, so
    the batch kernel can run the cell and both kernels see one stream."""
    from repro.scenario import Scenario

    return Scenario(
        name="pipelined-cli",
        arch=arch,
        horizon=args.cycles,
        params={
            "n": args.n, "addresses": args.addresses, "width_bits": args.width,
            "quanta": args.quanta, "credit_flow": args.credits,
            "cut_through": not args.no_cut_through,
        },
        traffic={"kind": "renewal_tape", "load": args.load},
        seeds=[args.seed],
        warmup=warmup,
        drain=not args.credits,
    )


def cmd_pipelined(args) -> int:
    from repro.scenario import prepare

    tel = _telemetry_from_args(args)
    scenario = _pipelined_scenario(
        args, arch="pipelined_fast" if args.fast else "pipelined",
        warmup=args.cycles // 10)
    prep = prepare(scenario, telemetry=tel, sanitize=args.sanitize)
    switch, cfg = prep.switch, prep.switch.config
    switch.run(args.cycles)
    if not args.credits:
        switch.drain()
    rows = [
        ["offered packets", switch.stats.offered],
        ["delivered packets", switch.stats.delivered],
        ["dropped packets", switch.stats.dropped],
        ["link utilization", round(switch.link_utilization, 4)],
        ["mean cut-through latency (cycles)", round(switch.ct_latency.mean, 2)],
        ["cut-through waves", switch.cut_through_waves],
        ["plain read waves", switch.plain_read_waves],
        ["write waves", switch.write_waves],
    ]
    print(format_table(
        ["metric", "value"], rows,
        title=(f"pipelined memory {cfg.n}x{cfg.n}, {cfg.depth} stages, "
               f"{cfg.packet_words}-word packets, load {args.load}"),
    ))
    _print_sanitizer_summary(prep.sanitizer)
    _export_telemetry(tel, args)
    return 0


def _add_bench(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "bench",
        help="time the pipelined switch kernels on a fixed E15-shaped workload",
    )
    p.add_argument("--cycles", type=int, default=30_000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--kernel", choices=["checked", "batch", "both"],
                   default="both",
                   help="which kernel(s) to run (both = checked+batch)")
    p.add_argument("--batch-cycles", type=int, default=None,
                   help="batch kernel window size (default 4096)")
    p.add_argument("--policy", metavar="SPEC", default=None,
                   help="admission policy for every kernel (e.g. "
                        "dynamic:alpha=1.0); default complete sharing")
    p.add_argument("--profile", action="store_true",
                   help="run under cProfile and print the top 20 functions "
                        "by cumulative time (forces a single kernel; "
                        "default checked)")
    p.add_argument("--json", metavar="FILE", default=None,
                   help="also write the timings as a JSON artifact in the "
                        "benchmarks/BENCH_fastpath.json row schema")
    p.set_defaults(func=cmd_bench)


def cmd_bench(args) -> int:
    import time

    from repro.core import DEFAULT_BATCH_CYCLES
    from repro.scenario import Scenario, prepare

    if args.cycles < 1:
        raise SystemExit(f"repro bench: error: --cycles must be >= 1, got {args.cycles}")

    kernels = ["checked", "batch"] if args.kernel == "both" else [args.kernel]

    # E15 scenario 1 shape: 8x8, 128 addresses, drop-tail, load 0.6.  Both
    # kernels consume the same pre-drawn arrival tape (BatchRenewalSource
    # polls scalar-wise for the checked kernel), so delivered/dropped are
    # comparable across them.
    arch_names = {"checked": "pipelined", "batch": "pipelined_batch"}
    scenario = Scenario(
        name="bench-e15", arch="pipelined", horizon=args.cycles,
        params={"n": 8, "addresses": 128},
        traffic={"kind": "renewal_tape", "load": 0.6},
        seeds=[args.seed], warmup=args.cycles // 10,
    )
    cfg = prepare(scenario).switch.config

    def build(kernel: str):
        import dataclasses

        params = dict(scenario.params)
        if args.policy is not None:
            params["policy"] = args.policy
        if kernel == "batch" and args.batch_cycles is not None:
            params["batch_cycles"] = args.batch_cycles
        sc = dataclasses.replace(scenario, arch=arch_names[kernel],
                                 params=params)
        return prepare(sc).switch

    if args.profile:
        import cProfile
        import pstats

        kernel = "checked" if args.kernel == "both" else args.kernel
        switch = build(kernel)
        prof = cProfile.Profile()
        prof.enable()
        switch.run(args.cycles)
        prof.disable()
        print(f"{kernel} kernel, {args.cycles} cycles "
              f"({cfg.n}x{cfg.n}, {cfg.depth} stages, load 0.6)")
        pstats.Stats(prof).sort_stats("cumulative").print_stats(20)
        return 0

    rows = []
    timings = {}
    outcomes = {}
    for kernel in kernels:
        # the batch kernel finishes quickly enough for scheduling noise
        # to dominate a single run; keep the cleanest of three
        repeats = 1 if kernel == "checked" else 3
        elapsed = float("inf")
        for _ in range(repeats):
            switch = build(kernel)
            t0 = time.perf_counter()
            switch.run(args.cycles)
            elapsed = min(elapsed, time.perf_counter() - t0)
        timings[kernel] = elapsed
        outcomes[kernel] = (switch.stats.delivered, switch.stats.dropped)
        rows.append([
            kernel, round(elapsed, 3), round(args.cycles / elapsed),
            switch.stats.delivered, switch.stats.dropped,
        ])
    print(format_table(
        ["kernel", "seconds", "cycles/s", "delivered", "dropped"], rows,
        title=(f"E15-shaped workload: {cfg.n}x{cfg.n}, {cfg.depth} stages, "
               f"load 0.6, {args.cycles} cycles"),
    ))
    if len(timings) == 2:
        print(f"batch speedup over checked: "
              f"{timings['checked'] / timings['batch']:.1f}x")
    if args.json:
        import json
        import platform

        # the row schema benchmarks/record.py writes
        delivered, dropped = outcomes[kernels[0]]
        result = {
            "experiment": f"bench-e15-n{cfg.n}-seed{args.seed}",
            "traffic": scenario.traffic.kind,
            "cycles": args.cycles,
            "checked_seconds": timings.get("checked"),
            "checked_cycles_per_sec": (
                args.cycles / timings["checked"] if "checked" in timings
                else None
            ),
            "delivered": delivered,
            "dropped": dropped,
            "batch": None,
        }
        if "batch" in timings:
            delivered, dropped = outcomes["batch"]
            result["batch"] = {
                "traffic": scenario.traffic.kind,
                "cycles": args.cycles,
                "batch_window": args.batch_cycles or DEFAULT_BATCH_CYCLES,
                "batch_seconds": timings["batch"],
                "batch_cycles_per_sec": args.cycles / timings["batch"],
                "batch_speedup": (
                    timings["checked"] / timings["batch"]
                    if "checked" in timings else None
                ),
                "delivered": delivered,
                "dropped": dropped,
                "identical": (
                    outcomes["checked"] == outcomes["batch"]
                    if "checked" in outcomes else None
                ),
            }
        artifact = {
            "smoke": args.cycles < 30_000,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "results": [result],
        }
        with open(args.json, "w") as fh:
            json.dump(artifact, fh, indent=1)
            fh.write("\n")
        print(f"json -> {args.json}")
    return 0


def _add_trace(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "trace",
        help="run a pipelined-switch kernel and export a Chrome/Perfetto "
             "trace of the bank pipeline (open at https://ui.perfetto.dev)",
    )
    p.add_argument("kernel", choices=["checked", "batch"],
                   help="which kernel to trace (the streams are equivalent; "
                        "'checked' additionally cross-checks the closed-form "
                        "trace against the word-level WaveTracer)")
    p.add_argument("--out", default="trace.json", metavar="FILE",
                   help="Chrome-trace JSON output path (default %(default)s)")
    p.add_argument("-n", type=int, default=4)
    p.add_argument("--load", type=float, default=0.6)
    p.add_argument("--cycles", type=int, default=200)
    p.add_argument("--addresses", type=int, default=64)
    p.add_argument("--width", type=int, default=16, help="word width in bits")
    p.add_argument("--quanta", type=int, default=1,
                   help="packet size in buffer-width quanta (§3.5)")
    p.add_argument("--credits", action="store_true",
                   help="credit-based (lossless) flow control")
    p.add_argument("--no-cut-through", action="store_true")
    p.add_argument("--seed", type=int, default=1)
    _add_telemetry_flags(p)
    p.set_defaults(func=cmd_trace)


def cmd_trace(args) -> int:
    from repro.scenario import prepare
    from repro.telemetry.export import (
        chrome_trace_from_events,
        validate_chrome_trace,
        write_chrome_trace,
    )

    tel = _telemetry_from_args(args, events=True)
    arch = "pipelined_batch" if args.kernel == "batch" else "pipelined"
    scenario = _pipelined_scenario(args, arch=arch, warmup=0)
    prep = prepare(scenario, telemetry=tel)
    switch, cfg = prep.switch, prep.switch.config
    switch.run(args.cycles)
    if not args.credits:
        switch.drain()
    trace = chrome_trace_from_events(
        tel.events, depth=cfg.depth, quanta=cfg.quanta, n=cfg.n,
        horizon=switch.cycle, link_pipeline_stages=cfg.link_pipeline_stages,
    )
    validate_chrome_trace(trace)
    write_chrome_trace(trace, args.out)
    counts = tel.events.counts_by_kind()
    summary = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    print(f"{args.kernel} kernel, {switch.cycle} cycles: {summary}")
    print(f"trace: {len(trace['traceEvents'])} events -> {args.out} "
          f"(open at https://ui.perfetto.dev)")
    _export_telemetry(tel, args)
    return 0


def _add_wormhole(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("wormhole", help="run the wormhole k-ary n-cube network")
    p.add_argument("--k", type=int, default=8)
    p.add_argument("--dims", type=int, default=2)
    p.add_argument("--lanes", type=int, default=1)
    p.add_argument("--buffer", type=int, default=16, help="flits per input port")
    p.add_argument("--message", type=int, default=20, help="flits per message")
    p.add_argument("--load", type=float, default=1.0)
    p.add_argument("--cycles", type=int, default=10_000)
    p.add_argument("--wrap", action="store_true", help="torus instead of mesh")
    p.add_argument("--dateline", action="store_true",
                   help="dateline virtual channels (torus deadlock avoidance)")
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=cmd_wormhole)


def cmd_wormhole(args) -> int:
    from repro.scenario import Scenario, prepare

    scenario = Scenario(
        name="wormhole-cli", arch="wormhole", horizon=args.cycles,
        params={"k": args.k, "dims": args.dims, "lanes": args.lanes,
                "buffer_flits": args.buffer, "message_flits": args.message,
                "wrap": args.wrap, "dateline": args.dateline},
        traffic={"kind": "uniform", "load": args.load},
        seeds=[args.seed],
        warmup=args.cycles // 5,
    )
    net = prepare(scenario).switch
    net.run(args.cycles)
    rows = [[k, round(v, 4) if isinstance(v, float) else v]
            for k, v in net.summary().items()]
    topo_name = f"{args.k}-ary {args.dims}-{'cube (torus)' if args.wrap else 'mesh'}"
    print(format_table(["metric", "value"], rows, title=f"wormhole on {topo_name}"))
    return 0


def _add_vlsi(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("vlsi", help="print silicon reports (paper §4-§5)")
    p.add_argument("--chip", type=int, choices=[1, 2, 3], default=3,
                   help="Telegraphos prototype number")
    p.add_argument("--comparisons", action="store_true",
                   help="also print the §5 comparisons")
    p.set_defaults(func=cmd_vlsi)


def cmd_vlsi(args) -> int:
    from repro.vlsi.telegraphos import (
        telegraphos1_report,
        telegraphos2_report,
        telegraphos3_report,
    )

    report = {1: telegraphos1_report, 2: telegraphos2_report,
              3: telegraphos3_report}[args.chip]()
    pub, mod = report["published"], report["model"]
    rows = [[k, pub[k], round(mod[k], 3) if isinstance(mod[k], float) else mod[k]]
            for k in pub]
    print(format_table(["figure", "paper", "model"], rows,
                       title=f"Telegraphos {args.chip}"))
    if args.comparisons:
        from repro.vlsi.comparisons import pipelined_vs_prizma, pipelined_vs_wide

        wide = pipelined_vs_wide()
        prizma = pipelined_vs_prizma()
        print()
        print(format_table(
            ["comparison", "value"],
            [
                ["pipelined peripheral (mm^2)", round(wide["pipelined_peripheral_mm2"], 1)],
                ["wide-memory peripheral (mm^2)", round(wide["wide_peripheral_mm2"], 1)],
                ["peripheral saving", f"{wide['peripheral_saving']:.0%}"],
                ["PRIZMA / pipelined crossbar cost", f"{prizma['crosspoint_ratio']:.0f}x"],
                ["shift-register / RAM bit area", f"{prizma['shift_register_penalty']:.0f}x"],
            ],
            title="Section 5 comparisons",
        ))
    return 0


def _add_sizing(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("sizing", help="[HlKa88] buffer sizing for a loss target")
    p.add_argument("-n", type=int, default=16)
    p.add_argument("--load", type=float, default=0.8)
    p.add_argument("--target", type=float, default=1e-3)
    p.set_defaults(func=cmd_sizing)


def cmd_sizing(args) -> int:
    from repro.analysis.buffer_sizing import hlka88_comparison

    r = hlka88_comparison(args.n, args.load, args.target)
    rows = [
        ["shared buffering", r["shared_total"], f"{r['shared_per_output']:.1f}/output"],
        ["output queueing", r["output_total"], f"{r['output_per_output']}/output"],
        ["input smoothing", r["smoothing_total"], f"{r['smoothing_per_input']}/input"],
    ]
    print(format_table(
        ["architecture", "total cells", "per port"], rows,
        title=(f"buffers for loss <= {args.target:g}, {args.n}x{args.n}, "
               f"load {args.load}"),
    ))
    return 0


def _add_scenario_flags(p: argparse.ArgumentParser, default_jobs) -> None:
    p.add_argument("files", nargs="+", metavar="FILE",
                   help="scenario file (JSON or TOML): a single scenario, a "
                        "{base, grid} sweep document, or a list of either")
    p.add_argument("--jobs", type=int, default=default_jobs,
                   help="worker processes (results are bit-identical for any "
                        "job count; default %(default)s)")
    p.add_argument("--out", metavar="DIR", default=None,
                   help="write per-scenario result JSON (plus any telemetry "
                        "artifacts) and a merged results.json to DIR")
    p.add_argument("--horizon", type=int, default=None, metavar="SLOTS",
                   help="override every scenario's horizon (warmup reverts "
                        "to the horizon//5 default); for smoke runs")
    p.add_argument("--policy", metavar="SPEC", default=None,
                   help="override every scenario's admission policy "
                        "(e.g. complete, static:cap=8, dynamic:alpha=1.0, "
                        "reservation:reserve=2); scenarios whose arch has "
                        "no policy parameter are rejected")
    p.add_argument("--checkpoint-every", type=int, default=None,
                   metavar="CYCLES",
                   help="snapshot each word-level kernel to "
                        "DIR/checkpoints/<name>-seed<seed>.ckpt.json every "
                        "CYCLES cycles (requires --out; see repro.checkpoint)")
    p.add_argument("--resume", action="store_true",
                   help="reuse finished per-job results and mid-run snapshots "
                        "from --out: only the missing (scenario, seed) cells "
                        "run, and the merged results.json is bit-identical "
                        "to an uninterrupted sweep")
    p.add_argument("--serve-metrics", type=int, default=None, metavar="PORT",
                   help="serve a Prometheus /metrics endpoint on "
                        "127.0.0.1:PORT while the run executes: sweep "
                        "progress, live per-cell registries (--jobs 1), and "
                        "finished-cell metrics aggregated across workers "
                        "(0 = ephemeral port; watch with 'repro top PORT')")
    _add_sanitize_flag(p)


def _add_run(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("run", help="run scenario file(s) through the registry")
    _add_scenario_flags(p, default_jobs=1)
    p.set_defaults(func=cmd_run)


def _add_sweep(sub: argparse._SubParsersAction) -> None:
    import os

    p = sub.add_parser(
        "sweep",
        help="expand and run scenario grid(s) across worker processes",
    )
    _add_scenario_flags(p, default_jobs=min(os.cpu_count() or 1, 8))
    p.set_defaults(func=cmd_run)


def _scenario_result_rows(results) -> list[list]:
    rows = []
    for r in results:
        s = r["stats"]
        loss = s.get("loss_probability")
        rows.append([
            r["scenario"], r["arch"], r["seed"],
            s.get("offered", s.get("offered_fraction", "-")),
            s.get("delivered", s.get("delivered_fraction", "-")),
            s.get("dropped", "-"),
            round(loss, 6) if isinstance(loss, float) else "-",
        ])
    return rows


def cmd_run(args) -> int:
    import dataclasses

    from repro.scenario import ScenarioError, ScenarioRunner, load_scenarios

    scenarios = []
    for file in args.files:
        try:
            scenarios.extend(load_scenarios(file))
        except OSError as exc:
            raise ScenarioError(f"cannot read scenario file {file!r}: {exc}")
    if args.horizon is not None:
        scenarios = [dataclasses.replace(sc, horizon=args.horizon, warmup=None)
                     for sc in scenarios]
    if args.policy is not None:
        scenarios = [dataclasses.replace(
            sc, params={**sc.params, "policy": args.policy})
            for sc in scenarios]
    server = observer = None
    if args.serve_metrics is not None:
        from repro.obs.server import serve_run_metrics

        server, observer = serve_run_metrics(args.serve_metrics,
                                             out_dir=args.out)
        print(f"metrics: {server.url}", file=sys.stderr)
    runner = ScenarioRunner(jobs=args.jobs, out_dir=args.out,
                            sanitize=args.sanitize,
                            checkpoint_every=args.checkpoint_every,
                            resume=args.resume,
                            observer=observer)
    try:
        results = runner.run(scenarios)
    finally:
        if server is not None:
            server.stop()
    print(format_table(
        ["scenario", "arch", "seed", "offered", "delivered", "dropped", "loss"],
        _scenario_result_rows(results),
        title=f"{len(results)} run(s) from {len(scenarios)} scenario(s)",
    ))
    if args.out:
        print(f"results -> {runner.out_dir / 'results.json'}")
    return 0


def _add_top(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "top",
        help="live terminal dashboard over a repro /metrics endpoint "
             "(throughput, queue-depth heatmap, drop taxonomy, sweep progress)",
    )
    p.add_argument("target", nargs="?", default="9109", metavar="PORT|URL",
                   help="port on localhost, or a full /metrics URL "
                        "(default %(default)s)")
    p.add_argument("--interval", type=float, default=1.0, metavar="SECONDS",
                   help="refresh interval (default %(default)s)")
    p.add_argument("--once", action="store_true",
                   help="print one dashboard and exit (no screen clearing)")
    p.add_argument("--iterations", type=int, default=None, metavar="N",
                   help="exit after N refreshes (default: until Ctrl-C)")
    p.set_defaults(func=cmd_top)


def cmd_top(args) -> int:
    from repro.obs.top import run_top

    target = args.target
    if target.isdigit():
        target = f"http://127.0.0.1:{target}/metrics"
    return run_top(target, interval=args.interval, once=args.once,
                   iterations=args.iterations)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Pipelined Memory Shared Buffer reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_simulate(sub)
    _add_pipelined(sub)
    _add_bench(sub)
    _add_trace(sub)
    _add_wormhole(sub)
    _add_vlsi(sub)
    _add_sizing(sub)
    _add_run(sub)
    _add_sweep(sub)
    _add_top(sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    from repro.core import ConfigError
    from repro.drc.sanitizer import SanitizerError
    from repro.scenario import ScenarioError

    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, ConfigError) as exc:
        # invalid configs/scenarios are user errors: one actionable line on
        # stderr, argparse-style exit code, no traceback
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    except SanitizerError as exc:
        # an invariant violation is a *finding*, not a crash: surface the
        # structured message and a distinct exit code
        print(f"repro: sanitizer: {exc}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        # an interrupted sweep already flushed its finished cells and the
        # results.partial.json manifest (see ScenarioRunner); exit with the
        # conventional SIGINT code so wrappers can tell "killed" from
        # "failed" and re-run with --resume
        print("repro: interrupted (finished cells and results.partial.json "
              "are on disk; re-run with --resume)", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
