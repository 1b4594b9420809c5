"""Clearing benchmark: time to clear a market day, split by layer.

    python3 perfbench/run.py --workload feeder-clear --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  With ``--trace 0`` the run repeats the
workload's clearing untraced for ``--seconds`` and reports the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced clearings and
reports the per-layer metrics.  ``clear_s`` and ``setup_s`` are wall times
scaled to the reference machine speed (see calibrate.py); the raw wall
times are ``wall.clear_s`` and ``wall.setup_s``.  Metric names and units
come from ``BENCHMARK.json``.  Every clearing passes the correctness gate and must
repeat the first clearing's fingerprint, or it counts as failed.  The last
line of standard output is the JSON result; a record of the run, with the
environment and every span, is written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import gate
from calibrate import REFERENCE_PYTHON_S, SpeedSampler
from tracer import Tracer
from workloads import HORIZON, ROOT, WORKLOADS, add_source, clear, make_scenario, pick

SETUP_PROBES = 7       # child processes timed for setup_s
MIN_CLEARINGS = 2      # a run always repeats the clearing once
OUT_DIR = Path(__file__).with_name("out")
# units of the printed metrics that BENCHMARK.json does not list
EXTRA_UNITS = {"ops_failed": "ratio", "dso.hour_ms.phigh_pct": "%", "prosumer.solve_ms.phigh_pct": "%"}


def time_setup(workload: str, generator_seed: int) -> tuple[float, float]:
    """Seconds from spawning a fresh interpreter until its scenario is ready,
    and the child's machine-speed kernel time right after."""
    script = Path(__file__).with_name("workloads.py")
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(script), workload, str(generator_seed)],
        stdout=subprocess.PIPE,
        text=True,
    ) as child:
        line = child.stdout.readline()
        ready = time.perf_counter() - t0
        kernel_s = child.stdout.read()
    if child.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up child failed with exit code {child.returncode}")
    return ready, float(kernel_s)


def high_percentile(n: int) -> int:
    """Highest percentile with at least ten of ``n`` samples beyond it."""
    return max(50, math.floor(100 * (1 - 10 / n))) if n else 50


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(tracer: Tracer, fingerprint: dict) -> dict[str, float]:
    """Per-layer metrics: medians of times over the traced clearings, counts
    from the first (the run checks that every traced clearing repeats them)."""
    runs = [tracer.summary(r) for r in range(tracer.run)]
    med = lambda f: statistics.median(f(s) for s in runs)
    first = runs[0]
    calls, stats = first["calls"], first["stats"]
    hours = [d * 1e3 for s in runs for d in s["durations"]["dso.socp"]]
    solves = [d * 1e3 for s in runs for d in s["durations"]["prosumer"]]
    socp_s = {layer: med(lambda s: s["self_s"][f"{layer}.socp"]) for layer in ("dso", "miqp", "oracle")}
    m = {
        "trace.clear_s": med(lambda s: sum(s["durations"]["market"] + s["durations"]["oracle"])),
        "market.outer_passes": fingerprint.get("outer_passes", 0),
        "market.inner_passes": sum(fingerprint.get("inner_passes", [])),
        "market.messages": calls["market.bus"],
        "market.self_s": med(lambda s: s["self_s"]["market"] + s["self_s"]["market.bus"]),
        "market.bus_s": med(lambda s: s["self_s"]["market.bus"]),
        "dso.calls": calls["dso"],
        "dso.self_s": med(lambda s: s["self_s"]["dso"]),
        "dso.assemble_s": med(lambda s: s["self_s"]["dso.assemble"]),
        "dso.hour_ms.p50": percentile(hours, 50),
        "dso.hour_ms.phigh": percentile(hours, high_percentile(len(hours))),
        "dso.hour_ms.phigh_pct": high_percentile(len(hours)),
        "dso.hour_samples": len(hours),
        "prosumer.solves": calls["prosumer"],
        "prosumer.self_s": med(lambda s: s["self_s"]["prosumer"]),
        "prosumer.build_s": med(lambda s: s["self_s"]["prosumer.build"]),
        "prosumer.solve_ms.p50": percentile(solves, 50),
        "prosumer.solve_ms.phigh": percentile(solves, high_percentile(len(solves))),
        "prosumer.solve_ms.phigh_pct": high_percentile(len(solves)),
        "prosumer.solve_samples": len(solves),
        "miqp.self_s": med(lambda s: s["self_s"]["miqp"]),
        "miqp.nodes": stats["miqp.nodes"],
        "miqp.fallbacks": stats["miqp.fallbacks"],
        "miqp.socp_failed": stats["miqp.socp_failed"],
        "miqp.schedules_per_solve": (
            calls["prosumer"] / calls["miqp.socp"] if calls["miqp.socp"] else 0.0
        ),
        "lmo.calls": calls["lmo"],
        "lmo.busy_s": med(lambda s: s["self_s"]["lmo"]),
        "oracle.self_s": med(lambda s: s["self_s"]["oracle"]),
        "oracle.socp_vars": stats["oracle.socp_vars"],
        "oracle.socp_rows": stats["oracle.socp_rows"],
        "dso.socp_vars": stats["dso.socp_vars"],
        "dso.socp_rows": stats["dso.socp_rows"],
        "trace.spans": sum(calls.values()),
        "trace.self_sum_s": med(lambda s: sum(s["self_s"].values())),
    }
    for layer in ("dso", "miqp", "oracle"):
        iters = stats[f"{layer}.socp_iters"]
        m[f"{layer}.socp_calls"] = calls[f"{layer}.socp"]
        m[f"{layer}.socp_iters"] = iters
        m[f"{layer}.socp_s"] = socp_s[layer]
        m[f"{layer}.socp_ms_per_iter"] = socp_s[layer] * 1e3 / iters if iters else 0.0
    return m


def clear_once(workload, scenario, reference, tracer: Tracer | None):
    """One clearing: (wall seconds, reference-speed seconds or None when
    traced, result or None, gate issues)."""
    probe = tracer if tracer is not None else SpeedSampler()
    result, issues = None, []
    t0 = time.perf_counter()
    with probe:
        try:
            result = clear(workload, scenario)
        except Exception as exc:  # a clearing that raises is a failed operation
            issues = [f"{type(exc).__name__}: {exc}"]
    wall = time.perf_counter() - t0
    if result is not None:
        issues = gate.check(workload, scenario, result, reference)
    if tracer is not None:
        return wall, None, result, issues
    return probe.net(wall), probe.scale(wall), result, issues


def traced_counts(tracer: Tracer, run: int) -> dict:
    s = tracer.summary(run)
    return {"calls": dict(s["calls"]), "stats": dict(s["stats"])}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="lemclear clearing benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_file = ROOT / "BENCHMARK.json"
    if not add_source() or not spec_file.is_file():
        print("perfbench: run from a checkout holding src/lemclear and BENCHMARK.json",
              file=sys.stderr)
        return 2
    import lemclear

    if not Path(lemclear.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: lemclear imported from {lemclear.__file__}, not src/", file=sys.stderr)
        return 2
    import scipy

    bench = json.loads(spec_file.read_text())
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = EXTRA_UNITS | {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    workload = WORKLOADS[args.workload]
    generator_seed, reference = pick(workload, args.seed)
    env = {
        "workload": workload.name,
        "seed": args.seed,
        "generator_seed": generator_seed,
        "held_out_seed": workload.held_out_seed,
        "horizon": HORIZON,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "trace": args.trace,
    }
    print(json.dumps({"env": env}))

    setup = [time_setup(workload.name, generator_seed) for _ in range(SETUP_PROBES)]
    scenario_s = []
    for _ in range(3):
        t0 = time.perf_counter()
        scenario = make_scenario(workload, generator_seed)
        scenario_s.append(time.perf_counter() - t0)
    if len(scenario.prosumers) != workload.prosumers:
        print(f"perfbench: generator seed {generator_seed} hosts {len(scenario.prosumers)} "
              f"prosumers, the pool expects {workload.prosumers}", file=sys.stderr)
        return 1

    tracer = Tracer()
    untraced: list[float] = []
    scaled: list[float] = []
    failures: list[str] = []
    attempted = 0
    first_fp = first_counts = None
    start = time.perf_counter()
    while len(untraced) < MIN_CLEARINGS or (
        time.perf_counter() - start + statistics.median(untraced) * (1 + args.trace) <= args.seconds
    ):
        for traced in (False, True) if args.trace else (False,):
            seconds, at_reference, result, issues = clear_once(
                workload, scenario, reference, tracer if traced else None)
            attempted += 1
            if not traced:
                untraced.append(seconds)
                scaled.append(at_reference)
            if result is not None:
                fp = gate.fingerprint(workload, result)
                first_fp = first_fp or fp
                if fp != first_fp:
                    issues.append(f"fingerprint {fp} differs from the first clearing's {first_fp}")
                del result
            if traced:
                counts = traced_counts(tracer, tracer.run - 1)
                first_counts = first_counts or counts
                if counts != first_counts:
                    issues.append(f"counts {counts} differ from the first traced clearing's {first_counts}")
            if issues:
                failures.append(f"clearing {attempted}{' (traced)' if traced else ''}: {'; '.join(issues)}")

    failed = len(failures)
    clear_s = statistics.median(untraced)
    metrics = layer_metrics(tracer, first_fp or {}) if args.trace else {}
    if args.trace:
        metrics["trace.untraced_clear_s"] = clear_s
        metrics["trace.overhead_s"] = metrics["trace.clear_s"] - clear_s
        metrics["io_cli.scenario_s"] = statistics.median(scenario_s)
    metrics.update({
        "clear_s": statistics.median(scaled),
        "setup_s": statistics.median(wall * REFERENCE_PYTHON_S / k for wall, k in setup),
        "wall.clear_s": clear_s,
        "wall.setup_s": statistics.median(wall for wall, _ in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops_failed": failed / attempted,
    })

    for f in failures:
        print(f"FAILED {f}", file=sys.stderr)
    for name in sorted(metrics):
        print(f"{name:32s} {metrics[name]:<12.6g} {units[name]}")
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(
        {"env": env, "metrics": metrics, "untraced_s": untraced, "scaled_s": scaled,
         "setup_s": setup, "failures": failures, "fingerprint": first_fp},
        indent=1))
    if args.trace:
        with open(OUT_DIR / f"{stem}-spans.jsonl", "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"perfbench: BENCHMARK.json names metrics the run lacks: {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
