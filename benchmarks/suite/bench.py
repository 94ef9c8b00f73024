#!/usr/bin/env python3
"""Benchmark suite for the repro simulator: end-to-end host metrics and an
outside-in per-layer trace.  See README.md beside this file.

    python3 benchmarks/suite/bench.py run [--workload NAME]... [--seed N]
        [--seconds S] [--trace [0|1]] [--smoke] [--out FILE]
    python3 benchmarks/suite/bench.py compare A/*.json -- B/*.json
    python3 benchmarks/suite/bench.py record-golden [--workload NAME]...
    python3 benchmarks/suite/bench.py record-baseline

Run from the repository root.  The simulator is imported from ``src/`` of
the checkout this file lives in; every workload runs in a fresh child
interpreter, in its own process group, under a time limit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import Any, Iterator

from probe import probe, scaled

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"
BASELINE = SUITE / "BENCH_layers.json"
#: scratch space for sweep outputs, removed when a run ends
WORK = ROOT / ".suite-work"

#: every single-workload invocation must end within 180 s
WORKLOAD_LIMIT_S = 170
#: cold starts per ``setup_s`` sample (median reported)
SETUP_STARTS = 15
SMOKE_SETUP_STARTS = 3
#: interleaved runs ``record-baseline`` makes per series
SPREAD_SEEDS = range(1, 11)
BASELINE_RUNS = 5


def load_benchmark() -> dict[str, Any]:
    return json.loads(BENCHMARK.read_text())


def require_sources() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"bench: no simulator sources at {SRC}; run from a full checkout")


@contextmanager
def scratch(kind: str) -> Iterator[Path]:
    """A private directory under WORK, removed afterwards with WORK if empty."""
    work = WORK / f"{kind}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with suppress(OSError):
            WORK.rmdir()


def child_env(work: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["TMPDIR"] = str(work)
    return env


def call(cmd: list[str], env: dict[str, str], deadline: float) -> str:
    """Run ``cmd`` in its own process group and return its stdout.

    On timeout or interrupt the whole group (the child and its pool
    workers) is killed and reaped before this returns or raises."""
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                          start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode:
        sys.exit(f"bench: `{' '.join(cmd[2:])}` exited with {proc.returncode}")
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 work: Path, golden: Path | None = None,
                 spans: Path | None = None) -> dict[str, Any]:
    """One workload: cold starts for ``setup_s`` (untraced only), then the
    measuring child.  Returns the child's result with ``setup_s`` added."""
    deadline = time.monotonic() + WORKLOAD_LIMIT_S
    env = child_env(work)
    me = [sys.executable, str(Path(__file__).resolve())]
    common = ["--workload", name, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    setup: list[float] = []
    if not trace:
        probes = [probe()]
        for _ in range(SMOKE_SETUP_STARTS if smoke else SETUP_STARTS):
            t0 = time.perf_counter()
            call(me + ["setup"] + common, env, deadline)
            setup.append(time.perf_counter() - t0)
            probes.append(probe())
    cmd = me + ["child"] + common + ["--seconds", str(seconds), "--work", str(work)]
    if trace:
        cmd.append("--trace")
    if golden is not None:
        cmd += ["--golden", str(golden)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    result = json.loads(call(cmd, env, deadline).splitlines()[-1])
    if not trace:
        result["metrics"]["setup_s"] = statistics.median(scaled(setup, probes))
        result["detail"].update(setup_s=setup, setup_probe_s=probes)
    return result


def contract_line(result: dict[str, Any], specs: list[dict[str, Any]]) -> dict[str, Any]:
    """The result as the suite's last stdout line, with every metric of ``specs``."""
    got = result["metrics"]
    want = [s["name"] for s in specs]
    if sorted(got) != sorted(want):
        missing, extra = set(want) - set(got), set(got) - set(want)
        sys.exit(f"bench: metric set mismatch; missing {sorted(missing)}, extra {sorted(extra)}")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {s["name"]: {"value": got[s["name"]], "unit": s["unit"]} for s in specs},
    }


def meta() -> dict[str, Any]:
    rev = "unknown"
    if (ROOT / ".git").exists():  # never look above the checkout
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                 capture_output=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "machine": platform.machine(), "git_rev": rev}


# -- run ---------------------------------------------------------------------

def cmd_run(args: argparse.Namespace, bench: dict[str, Any]) -> int:
    require_sources()
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    names = args.workload or [w["name"] for w in bench["workloads"]]
    spans = Path(args.out + ".spans.jsonl") if args.out and args.trace else None
    if spans is not None:
        spans.write_text("")
    doc = {"meta": meta(), "seed": args.seed, "seconds": seconds,
           "trace": bool(args.trace), "smoke": args.smoke, "workloads": {}}
    with scratch("run") as work:
        for name in names:
            result = run_workload(name, args.seed, seconds, bool(args.trace),
                                  args.smoke, work, args.golden, spans)
            line = contract_line(result, specs)
            for metric, v in line["metrics"].items():
                print(f"{name:18} {metric:44} {v['value']:>16.6g} {v['unit']}")
            print(f"{name:18} {'error_rate':44} {result['detail']['error_rate']:>16.6g} "
                  f"fraction ({result['failed']}/{result['attempted']} failed)")
            print(json.dumps(line), flush=True)
            doc["workloads"][name] = {**line, "detail": result["detail"]}
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


# -- compare -----------------------------------------------------------------

def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> tuple[str, int]:
    """Verdict of ``change`` against ``parent`` and the pairs it won.

    Worse: the change's median is worse by more than ``bound`` of the
    parent's.  Otherwise, when either side's spread (IQR / median) exceeds
    the bound, unresolved unless every change run beats every parent run.
    Otherwise better when the change wins at least 9/10 of the pairs and
    the medians differ by more than the parent's IQR; else unchanged."""
    sign = 1 if better == "lower" else -1  # sign * (parent - change) > 0: change better
    q1a, ma, q3a = _quartiles(parent)
    q1b, mb, q3b = _quartiles(change)
    won = sum(sign * (a - b) > 0 for a, b in zip(parent, change))
    gap = sign * (ma - mb)
    if -gap > bound * abs(ma):
        return "worse", won
    spread = max((q3a - q1a) / abs(ma) if ma else math.inf,
                 (q3b - q1b) / abs(mb) if mb else math.inf)
    if spread > bound:
        beats_all = all(sign * (a - b) > 0 for a in parent for b in change)
        return ("better" if beats_all else "unresolved"), won
    if won >= 0.9 * min(len(parent), len(change)) and gap > q3a - q1a:
        return "better", won
    return "unchanged", won


def collect(runs: list[dict[str, dict[str, Any]]]) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> values, from the ``workloads`` tables of runs."""
    values: dict[tuple[str, str], list[float]] = {}
    for run in runs:
        for wl, r in run.items():
            for metric, v in r["metrics"].items():
                values.setdefault((wl, metric), []).append(
                    v["value"] if isinstance(v, dict) else v)
    return values


def compare(parent: list[dict[str, Any]], change: list[dict[str, Any]],
            bench: dict[str, Any]) -> list[dict[str, Any]]:
    a, b = collect(parent), collect(change)
    rows = []
    workloads = [w["name"] for w in bench["workloads"]]
    for wl in workloads:
        for spec in bench["end_to_end"]:
            key = (wl, spec["name"])
            if key not in a or key not in b:
                continue
            v, won = verdict(a[key], b[key], spec["better"], spec["bound"])
            rows.append({"workload": wl, "metric": spec["name"], "unit": spec["unit"],
                         "parent": _quartiles(a[key]), "change": _quartiles(b[key]),
                         "won": won, "pairs": min(len(a[key]), len(b[key])),
                         "bound": spec["bound"], "verdict": v})
    return rows


def cmd_compare(argv: list[str], bench: dict[str, Any]) -> int:
    if "--" not in argv:
        sys.exit("usage: bench.py compare PARENT.json... -- CHANGE.json...")
    cut = argv.index("--")

    def load(files: list[str]) -> list[dict[str, Any]]:
        return [json.loads(Path(f).read_text())["workloads"] for f in files]

    rows = compare(load(argv[:cut]), load(argv[cut + 1:]), bench)
    print(f"{'workload':18} {'metric':18} {'parent q1/median/q3':>32} "
          f"{'change q1/median/q3':>32} {'won':>6} verdict")
    for r in rows:
        pa = "/".join(f"{x:.4g}" for x in r["parent"])
        ch = "/".join(f"{x:.4g}" for x in r["change"])
        print(f"{r['workload']:18} {r['metric']:18} {pa:>32} {ch:>32} "
              f"{r['won']:>2}/{r['pairs']:<3} {r['verdict']} (bound {r['bound']:.0%})")
    return 0


# -- recording ---------------------------------------------------------------

def cmd_record_golden(args: argparse.Namespace, bench: dict[str, Any]) -> int:
    """Write golden/<workload>.json: per-cell stats digests for seeds 1-10,
    full size and smoke, from one sweep each."""
    require_sources()
    sys.path.insert(0, str(SRC))
    import workloads as wl

    with scratch("golden") as work:
        for name in args.workload or [w["name"] for w in bench["workloads"]]:
            doc: dict[str, dict[str, dict[str, str]]] = {"full": {}, "smoke": {}}
            for mode, smoke in (("full", False), ("smoke", True)):
                for seed in wl.GOLDEN_SEEDS:
                    run = wl.Run(name, seed, smoke, work)
                    results, _ = run.sweep(work / "sweep", run.workload.jobs)
                    shutil.rmtree(work / "sweep")
                    doc[mode][str(seed)] = {wl.result_key(r): wl.digest(r) for r in results}
                    print(f"{name} {mode} seed {seed}: {len(results)} cells", flush=True)
            (wl.GOLDEN / f"{name}.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


def _summary(runs: list[dict[str, Any]], bench: dict[str, Any]) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for spec in bench["end_to_end"]:
        for wl in runs[0]:
            values = [r[wl]["metrics"][spec["name"]] for r in runs]
            q1, med, q3 = _quartiles(values)
            out.setdefault(wl, {})[spec["name"]] = {
                "unit": spec["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med, "bound": spec["bound"], "values": values}
    return out


def cmd_record_baseline(args: argparse.Namespace, bench: dict[str, Any]) -> int:
    """Interleaved untraced rounds over all workloads: one per seed in
    SPREAD_SEEDS (run-to-run spread against each bound), then 2 x
    BASELINE_RUNS at seed 1 alternating A, B (baseline = A; compare A vs B
    must find nothing); then one traced round at seed 1."""
    require_sources()
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]

    def one_round(seed: int, trace: bool = False) -> dict[str, Any]:
        out = {n: run_workload(n, seed, seconds, trace, False, work) for n in names}
        print(f"round seed={seed} trace={trace} done", file=sys.stderr, flush=True)
        return out

    with scratch("baseline") as work:
        spread = [one_round(seed) for seed in SPREAD_SEEDS]
        pairs = [one_round(1) for _ in range(2 * BASELINE_RUNS)]
        traced = one_round(1, trace=True)
    a, b = pairs[0::2], pairs[1::2]
    rows = compare(a, b, bench)
    doc = {
        "meta": {**meta(), "run_seconds": seconds},
        "baseline": {"seed": 1, "runs": BASELINE_RUNS, "workloads": _summary(a, bench)},
        "spread": {"seeds": list(SPREAD_SEEDS), "workloads": _summary(spread, bench)},
        "self_compare": [{k: r[k] for k in ("workload", "metric", "won", "pairs", "verdict")}
                         for r in rows],
        "layers": {wl: r["metrics"] for wl, r in traced.items()},
        "correct": all(r[wl]["correct"] for r in spread + pairs + [traced] for wl in r),
    }
    BASELINE.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {BASELINE}")
    return 0


# -- internal: one cold start, one measuring child -----------------------------

def cmd_setup(args: argparse.Namespace, bench: dict[str, Any]) -> int:
    import workloads

    workloads.setup(args.workload, args.seed, args.smoke)
    return 0


def cmd_child(args: argparse.Namespace, bench: dict[str, Any]) -> int:
    import repro

    if Path(repro.__file__).resolve().parents[1] != SRC:
        sys.exit(f"bench: imported repro from {repro.__file__}, not {SRC}")
    import workloads

    result = workloads.execute(
        args.workload, args.seed, args.seconds, args.smoke, args.trace,
        Path(args.work) / args.workload,
        golden_dir=Path(args.golden) if args.golden else workloads.GOLDEN,
        spans_path=Path(args.spans) if args.spans else None)
    if args.trace:
        # Every workload reports every listed layer: 0 where it has none.
        # Values for labels the list lacks (say a `batch` engine whose lean
        # flag vanished) stay visible in the detail.
        listed = [s["name"] for s in bench["per_layer"]]
        layers = result["metrics"]
        result["metrics"] = {n: layers.get(n, 0) for n in listed}
        result["detail"]["unlisted"] = {k: v for k, v in layers.items() if k not in listed}
    print(json.dumps(result))
    return 0


def main(argv: list[str]) -> int:
    bench = load_benchmark()
    if argv[:1] == ["compare"]:
        return cmd_compare(argv[1:], bench)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(prog="bench.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)

    run = sub.add_parser("run", help="run workloads and print every metric")
    run.add_argument("--workload", action="append", choices=names)
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--seconds", type=float,
                     help="measuring time per workload (default: BENCHMARK.json run_seconds)")
    run.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                     help="report per-layer metrics from a traced pass")
    run.add_argument("--smoke", action="store_true", help="horizons / 20, for tests")
    run.add_argument("--out", help="write every result to this JSON file")
    run.add_argument("--golden", help="directory of golden digests (default: golden/)")

    sub.add_parser("compare", help="PARENT.json... -- CHANGE.json...")
    golden = sub.add_parser("record-golden", help="rewrite golden/ digests")
    golden.add_argument("--workload", action="append", choices=names)
    sub.add_parser("record-baseline", help="rewrite BENCH_layers.json")

    for internal in ("setup", "child"):
        p = sub.add_parser(internal)
        p.add_argument("--workload", required=True, choices=names)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--smoke", action="store_true")
    child = sub.choices["child"]
    child.add_argument("--seconds", type=float, required=True)
    child.add_argument("--work", required=True)
    child.add_argument("--trace", action="store_true")
    child.add_argument("--golden")
    child.add_argument("--spans")

    args = parser.parse_args(argv)
    commands = {"run": cmd_run, "record-golden": cmd_record_golden,
                "record-baseline": cmd_record_baseline,
                "setup": cmd_setup, "child": cmd_child}
    return commands[args.cmd](args, bench)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
