#!/usr/bin/env python3
"""Benchmark for repairkit's three jobs: corpus build, triage and decoding.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run from the root of a checkout; repairkit is imported from ``src/``.  One
run is one fresh process running one workload: set-up, then whole rounds
of operations until ``--seconds`` have passed (closed loop, one client),
checking every output.  The last line of standard output is a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``.  ``--workload all`` runs every workload in its own
process, untraced and then traced, and prints each metric with its unit
and the tracing overhead.  See README.md next to this file.
"""

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("corpus", "triage", "repair")
SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "latency_p90_ms": "ms",
}

# Every traced run reports all of these; a layer the workload does not run
# reads 0.  Times cover the whole run; counts, and ratios of counts, cover
# the first round, whose inputs depend only on the seed, so they repeat
# exactly however fast the machine is.
COUNT_UNITS = {"count", "ratio", "passes/ktok", "positions/ktok"}
PER_LAYER = {
    "dataset.load_s": "s",
    "dataset.pair_s": "s",
    "dataset.filter_s": "s",
    "diffs.led_calls": "count",
    "source.parse_s": "s",
    "source.parse_calls": "count",
    "diffs.align_s": "s",
    "diffs.align_calls": "count",
    "source.facts_s": "s",
    "source.facts_calls": "count",
    "mask.build_self_s": "s",
    "dataset.records_self_s": "s",
    "dataset.write_s": "s",
    "triage.compile_ms_p50": "ms",
    "triage.run_test_ms_p50": "ms",
    "triage.tests_run": "count",
    "triage.jail_ms_p50": "ms",
    "triage.timeout_wait_s": "s",
    "oracle.decoding.verify_passes": "count",
    "oracle.decoding.fallback_passes": "count",
    "oracle.decoding.draft_offered_tokens": "count",
    "oracle.decoding.draft_accepted_tokens": "count",
    "oracle.decoding.draft_accept_ratio": "ratio",
    "oracle.decoding.realign_calls": "count",
    "oracle.decoding.realign_hits": "count",
    "oracle.decoding.realign_s": "s",
    "oracle.decoding.loop_self_s": "s",
    "oracle.decoding.fast_passes_per_ktok": "passes/ktok",
    "oracle.backends.fast_positions_per_ktok": "positions/ktok",
    "oracle.backends.fast_forward_s": "s",
    "oracle.backends.greedy_forward_s": "s",
    "oracle.backends.greedy_positions": "count",
    "oracle.decoding.greedy_tokens_per_s": "tokens/s",
    "random.decoding.verify_passes": "count",
    "random.decoding.fallback_passes": "count",
    "random.decoding.draft_offered_tokens": "count",
    "random.decoding.draft_accepted_tokens": "count",
    "random.decoding.draft_accept_ratio": "ratio",
    "random.decoding.realign_calls": "count",
    "random.decoding.realign_hits": "count",
    "random.decoding.realign_s": "s",
    "random.decoding.loop_self_s": "s",
    "random.decoding.fast_passes_per_ktok": "passes/ktok",
    "random.backends.fast_positions_per_ktok": "positions/ktok",
    "random.backends.fast_forward_s": "s",
    "random.backends.greedy_forward_s": "s",
    "random.backends.greedy_positions": "count",
    "random.decoding.greedy_tokens_per_s": "tokens/s",
    "trace.throughput_per_s": "1/s",
}


def _metrics(values: dict, units: dict) -> dict:
    if set(values) != set(units):
        raise ValueError(f"metrics {sorted(set(values) ^ set(units))} are not in the table")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


_IMPORT_PROBE = ("import time; t = time.perf_counter(); import repairkit; "
                 "print(time.perf_counter() - t)")


def import_seconds() -> float:
    """Time to import repairkit in a fresh interpreter (median of a few)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                              capture_output=True, text=True, check=True)
        times.append(float(proc.stdout))
    return statistics.median(times)


def run_one(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    import checks
    import workloads
    from tracing import Tracer

    import_s = import_seconds()
    wl = workloads.WORKLOADS[workload]
    setups = []
    for _ in range(SETUP_REPEATS):
        ctx = workloads.Ctx(seed, work, None)
        t0 = perf_counter()
        wl.setup(ctx)
        setups.append(perf_counter() - t0)

    tracer = Tracer() if trace else None
    ctx.tracer = tracer
    if tracer is not None:
        wl.trace_points(tracer)
        tracer.active = True
    rounds: list[list] = []
    correct = True
    try:
        t0 = perf_counter()
        while not rounds or perf_counter() - t0 < seconds:
            rounds.append(wl.round(ctx, len(rounds)))
            if tracer is not None and len(rounds) == 1:
                first_round = wl.layers(tracer, ctx.state)
        if tracer is not None:
            tracer.unwrap_all()
            if hasattr(wl, "finish"):
                wl.finish(ctx)
    except checks.CheckError as exc:
        print(f"perfbench: {workload}: check failed: {exc}", file=sys.stderr)
        correct = False
    finally:
        if tracer is not None:
            tracer.unwrap_all()

    ops = [op for rnd in rounds for op in rnd]
    done = [op for op in ops if not op.failed]
    result = {"correct": correct and bool(done), "attempted": max(len(ops), 1),
              "failed": len(ops) - len(done)}
    if not done:
        result["metrics"] = {}
        return result
    throughput = sum(op.items for op in done) / sum(op.latency_s for op in done)
    if tracer is None:
        lat = [op.latency_s for op in done]
        result["metrics"] = _metrics({
            "setup_s": import_s + statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "throughput_per_s": throughput,
            "latency_p90_ms": 1000.0 * statistics.quantiles(lat, n=10)[-1],
        }, END_TO_END)
    else:
        values = dict.fromkeys(PER_LAYER, 0)
        values.update(wl.layers(tracer, ctx.state))
        values.update((k, v) for k, v in first_round.items() if PER_LAYER[k] in COUNT_UNITS)
        values["trace.throughput_per_s"] = throughput
        result["metrics"] = _metrics(values, PER_LAYER)
        tracer.write(HERE / "out" / f"trace-{workload}-seed{seed}.jsonl")
    return result


def run_all(args: argparse.Namespace) -> int:
    """Every workload in a fresh process, untraced then traced."""
    summary: dict = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        rows = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            res = json.loads(lines[-1]) if lines else {"correct": False, "attempted": 0,
                                                       "failed": 0, "metrics": {}}
            rows[trace] = res
            summary["correct"] &= res["correct"] and proc.returncode == 0
            if trace == 0:
                summary["attempted"] += res["attempted"]
                summary["failed"] += res["failed"]
            print(f"{workload} (trace {trace}): correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}")
            for name, m in res["metrics"].items():
                print(f"  {name:<36} {m['value']:>16.6g} {m['unit']}")
                summary["metrics"][f"{workload}/{name}"] = m
        plain = rows[0]["metrics"].get("throughput_per_s", {}).get("value")
        traced = rows[1]["metrics"].get("trace.throughput_per_s", {}).get("value")
        if plain and traced:
            print(f"  tracing overhead: {100.0 * (plain / traced - 1.0):.1f}% "
                  "(untraced over traced throughput)")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    if not (ROOT / "src" / "repairkit" / "__init__.py").is_file():
        print(f"perfbench: no repairkit sources under {ROOT / 'src'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    # keep every scratch file, the compiler's included, inside the checkout
    work = HERE / ".work" / str(os.getpid())
    work.mkdir(parents=True)
    tempfile.tempdir = str(work)
    os.environ["TMPDIR"] = str(work)
    try:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except Exception:  # the program under test raised: report, do not hide it
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):   # other runs may still use it
            (HERE / ".work").rmdir()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
