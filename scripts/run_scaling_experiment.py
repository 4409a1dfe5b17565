#!/usr/bin/env python3
"""Sweep target length and diff-region count; report decode step efficiency.

Uses the scripted oracle backend, so forward-pass counts are exact and the
whole run is deterministic.  The headline shape: passes for the accelerated
decoder stay flat as the target grows, so step efficiency scales linearly
with length, and extra diff regions cost a few extra passes each.

    python3 scripts/run_scaling_experiment.py
    python3 scripts/run_scaling_experiment.py --lengths 200,500,1000,2000 \
        --regions 1,2,4,8 --json results.json
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from repairkit.backends import make_repair_oracle
from repairkit.decoding import (DecodeLimits, DraftSource, accelerated_decode,
                                ar_decode, compute_metrics)
from repairkit.synthetic import make_pair


def run_cell(length: int, regions: int, seed: int) -> dict:
    pair = make_pair(length, regions, random.Random(seed))
    backend = make_repair_oracle(pair.buggy_tokens, pair.target_tokens)
    prompt = backend.prompt
    source = DraftSource.from_tokens(pair.buggy_tokens)
    limits = DecodeLimits(max_tokens=length + 8)
    ar = ar_decode(backend, prompt, limits.max_tokens)
    acc = accelerated_decode(backend, prompt, source, limits)
    report = compute_metrics(ar, acc)
    return {
        "length": length,
        "regions": regions,
        "forward_passes_ar": ar.stats.forward_passes,
        "forward_passes_acc": acc.stats.forward_passes,
        "step_efficiency": report.step_efficiency,
        "speedup": report.speedup,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--lengths", default="200,500,1000,2000",
                    help="comma-separated target lengths in tokens")
    ap.add_argument("--regions", default="1,2,4,8",
                    help="comma-separated diff-region counts")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--json", help="also write raw rows to this file")
    args = ap.parse_args(argv)

    lengths = [int(x) for x in args.lengths.split(",")]
    regions = [int(x) for x in args.regions.split(",")]

    rows = [run_cell(length, r, args.seed)
            for length in lengths for r in regions]

    print(f"{'length':>7} {'regions':>7} {'ar':>6} {'fast':>6} {'eff':>9} {'speedup':>9}")
    for row in rows:
        print(f"{row['length']:>7} {row['regions']:>7} {row['forward_passes_ar']:>6} "
              f"{row['forward_passes_acc']:>6} {row['step_efficiency']:>9.2f} "
              f"{row['speedup']:>9.2f}")

    if args.json:
        with open(args.json, "w") as fh:
            json.dump(rows, fh, indent=2)
            fh.write("\n")
        print(f"wrote {len(rows)} rows to {args.json}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
