#!/usr/bin/env python3
"""Compare two checkouts on one perfbench workload in alternating pairs.

Each pair runs ``perfbench/run.py --trace 0`` once from each checkout, each
run in a fresh process, and the side that runs first alternates from pair
to pair.  For every end-to-end metric of ``BENCHMARK.json`` (read from the
parent checkout, which also says which direction is better) it prints each
side's median and quartiles, the pairs the change won and lost (ties count
for neither), and whether the change gains: at least 10 pairs ran, it won
at least 9 pairs in 10, and its median beats the parent's by more than the
parent's interquartile range.  The last column judges regressions against
the metric's ``bound``: ``worse`` when the change's median is worse than the
parent's by more than ``bound`` times the parent's median, else
``unresolved`` when the parent's interquartile range is wider than that,
unless every change run beats every parent run, else ``ok``.  Every run
lasts the parent's ``run_seconds``, and ``--workload`` must name one of its
``workloads``.  ``--record PATH`` appends the comparison to ``PATH`` as one
line of JSON: each side's commit (``+dirty`` when its tracked files differ
from it), the date, the core count, the Python version, the workload, seed,
run length and pair count, and per metric each side's quartiles, the wins,
losses and both verdicts.
Exits 1 if a run fails, and 2 on a bad argument.

    python3 scripts/ab.py PARENT_DIR CHANGE_DIR --workload repair \\
        --pairs 10 --seed 11 --record BENCH_repair.json
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple, Sequence


class Row(NamedTuple):
    """One metric over all pairs: ``(q1, median, q3)`` per side."""

    name: str
    unit: str
    better: str
    parent: tuple[float, float, float]
    change: tuple[float, float, float]
    wins: int
    losses: int
    gain: bool
    verdict: str  # "worse", "unresolved" or "ok" against the metric's bound


def _quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return (values[0],) * 3
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(pairs: Sequence[tuple[dict, dict]], metrics: Sequence[dict]) -> list[Row]:
    """Rows for ``metrics`` (BENCHMARK.json's ``end_to_end`` entries) over
    ``pairs`` of ``(parent, change)`` metric values by name."""
    rows = []
    for m in metrics:
        name, sign = m["name"], 1 if m["better"] == "higher" else -1
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
        losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
        pq, cq = _quartiles(parent), _quartiles(change)
        gain = (len(pairs) >= 10 and 10 * wins >= 9 * len(pairs)
                and sign * (cq[1] - pq[1]) > pq[2] - pq[0])
        allowed = m["bound"] * abs(pq[1])
        if sign * (cq[1] - pq[1]) < -allowed:
            verdict = "worse"
        elif (pq[2] - pq[0] > allowed
              and not min(sign * c for c in change) > max(sign * p for p in parent)):
            verdict = "unresolved"
        else:
            verdict = "ok"
        rows.append(Row(name, m["unit"], m["better"], pq, cq, wins, losses, gain, verdict))
    return rows


def format_rows(rows: Sequence[Row], n_pairs: int) -> str:
    lines = [f"{'metric (unit)':<24} {'better':<7} {'parent q1/median/q3':>32} "
             f"{'change q1/median/q3':>32}  wins/losses  gain  regression"]
    for r in rows:
        sides = ["/".join(f"{v:.4g}" for v in q) for q in (r.parent, r.change)]
        lines.append(f"{f'{r.name} ({r.unit})':<24} {r.better:<7} {sides[0]:>32} {sides[1]:>32}  "
                     f"{r.wins:>4}/{r.losses:<2} of {n_pairs}  {'yes' if r.gain else 'no':<4}"
                     f"  {r.verdict}")
    return "\n".join(lines)


def record(rows: Sequence[Row], **run: object) -> dict:
    """One comparison as a JSON object: the fields of ``run`` (commits,
    date, machine, workload...), then each row's numbers under its name."""
    return {**run, "metrics": {
        r.name: {"unit": r.unit, "better": r.better, "parent": list(r.parent),
                 "change": list(r.change), "wins": r.wins, "losses": r.losses,
                 "gain": r.gain, "regression": r.verdict} for r in rows}}


def _commit(checkout: Path) -> str:
    """``checkout``'s HEAD commit, ``+dirty`` if its tracked files differ from it."""
    git = ["git", "-C", str(checkout)]
    head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True,
                          check=False).stdout.strip()
    dirty = subprocess.run(git + ["diff", "--quiet", "HEAD"], capture_output=True,
                           check=False).returncode != 0
    return (head or "unknown") + ("+dirty" if dirty else "")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """End-to-end metric values of one untraced run from ``checkout``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=4 * seconds + 300, check=False)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct") or result.get("failed"):
        raise RuntimeError(f"{checkout}: run exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--record", type=Path, metavar="PATH",
                    help="append the comparison to PATH as one line of JSON")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    for side in (args.parent, args.change):
        if not (side / "perfbench" / "run.py").is_file():
            ap.error(f"{side} has no perfbench/run.py")
    bench = json.loads((args.parent / "BENCHMARK.json").read_text("utf-8"))
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workload not in workloads:
        ap.error(f"--workload must be one of {', '.join(workloads)}")
    metrics, seconds = bench["end_to_end"], bench["run_seconds"]

    sides = [("parent", args.parent), ("change", args.change)]
    pairs = []
    for i in range(args.pairs):
        values = {}
        for label, checkout in sides if i % 2 == 0 else sides[::-1]:
            try:
                values[label] = run_once(checkout, args.workload, args.seed, seconds)
            except (RuntimeError, subprocess.TimeoutExpired) as exc:
                print(f"ab: pair {i + 1}: {exc}", file=sys.stderr)
                return 1
        pairs.append((values["parent"], values["change"]))
        print(f"pair {i + 1} ({next(iter(values))} first): " +
              "  ".join(f"{m['name']} {values['parent'][m['name']]:.4g} -> "
                        f"{values['change'][m['name']]:.4g}" for m in metrics),
              flush=True)
    rows = summarize(pairs, metrics)
    print(format_rows(rows, len(pairs)))
    if args.record:
        run = {"parent": _commit(args.parent), "change": _commit(args.change),
               "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
               "cores": os.cpu_count(), "python": platform.python_version(),
               "workload": args.workload, "seed": args.seed, "seconds": seconds,
               "pairs": len(pairs)}
        with args.record.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(record(rows, **run)) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
