#!/usr/bin/env python3
"""Fuzz the accelerated decoder against plain autoregressive decoding.

Every trial draws a seeded hash backend (worst case for draft reuse: the
next token depends on the whole prefix), a random prompt, a random buggy
draft and a greedy bridge length from 0 to 5, then checks the two decoders
emit identical tokens.  Every other trial's vocabulary has no statement
boundary, so the bridge keeps doubling.  Exits non-zero on the first
divergence, and with 2 on an out-of-range option.

    python3 scripts/fuzz_losslessness.py --trials 2000 --seed 1
"""

from __future__ import annotations

import argparse
import random
import sys
import time

from repairkit.backends import SeededRandomBackend
from repairkit.decoding import (DecodeLimits, DraftSource, accelerated_decode,
                                ar_decode)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--max-tokens", type=int, default=256)
    ap.add_argument("--max-draft", type=int, default=500)
    args = ap.parse_args(argv)
    if args.trials < 1:
        ap.error("--trials must be >= 1")
    if args.max_tokens < 1:
        ap.error("--max-tokens must be >= 1")
    if args.max_draft < 0:
        ap.error("--max-draft must be >= 0")

    master = random.Random(args.seed)
    letters = [f"t{i}" for i in range(9)]
    start = time.perf_counter()
    for trial in range(args.trials):
        backend_seed = master.randrange(2**32)
        vocab = letters[: master.randrange(4, 10)]
        if trial % 2:
            vocab += [";", "{", "}"]
        prompt = [master.choice(vocab) for _ in range(master.randrange(1, 8))]
        draft = [master.choice(vocab)
                 for _ in range(master.randrange(0, args.max_draft + 1))]
        fallback_run = master.randrange(0, 6)
        backend = SeededRandomBackend(backend_seed, vocab)
        ar = ar_decode(backend, prompt, max_tokens=args.max_tokens)
        acc = accelerated_decode(backend, prompt, DraftSource.from_tokens(draft),
                                 DecodeLimits(max_tokens=args.max_tokens,
                                              fallback_run=fallback_run))
        if ar.tokens != acc.tokens:
            print(f"DIVERGED at trial {trial}: backend seed {backend_seed}, "
                  f"prompt {prompt!r}, draft of {len(draft)} tokens, "
                  f"fallback_run {fallback_run}", file=sys.stderr)
            return 1
    elapsed = time.perf_counter() - start
    print(f"{args.trials} trials lossless in {elapsed:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
