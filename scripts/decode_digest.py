#!/usr/bin/env python3
"""Print one sha256 per seed over what `repairkit bench` and `repair` report.

For each seed S in 1..N the script writes the first ``PAIRS`` repair pairs
of perfbench's generated archive ``gen.make_archive(S, 10_000, 3, funcs=3)``
into a directory DIR as ``NN.buggy.c`` and ``NN.fixed.c`` and runs, through
``cli.main``,

    repairkit bench DIR --json

and, for every pair,

    repairkit repair NN.buggy.c --backend oracle --target NN.fixed.c --compare --json
    repairkit repair NN.buggy.c --backend random --seed S --max-tokens 256 --compare --json

The digest covers each run's exit code and stdout, so two checkouts that
print the same digests decode the same tokens with the same stats, metrics
and bench reports on these pairs:

    PYTHONPATH=src python3 scripts/decode_digest.py --seeds 4
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

from repairkit import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PAIRS = 12
RANDOM_MAX_TOKENS = 256


def _run(argv: list[str]) -> bytes:
    """Exit code and stdout of one ``repairkit`` run."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return f"{code}\n{buf.getvalue()}".encode()


def seed_digest(gen, seed: int, work: Path) -> str:
    """sha256 over the bench run and every pair's repair runs for one seed.

    Runs inside ``work`` with relative paths, so no report depends on where
    ``work`` is.
    """
    arc = gen.make_archive(seed, 10_000, 3, funcs=3)
    pairs = work / "pairs"
    pairs.mkdir()
    stems = []
    for i, (buggy, fixed) in enumerate(list(arc.repairs.values())[:PAIRS]):
        stem = f"{i:02d}"
        (pairs / f"{stem}.buggy.c").write_text(buggy)
        (pairs / f"{stem}.fixed.c").write_text(fixed)
        stems.append(stem)
    h = hashlib.sha256()
    cwd = os.getcwd()
    os.chdir(work)
    try:
        h.update(_run(["bench", "pairs", "--json"]))
        for stem in stems:
            buggy, fixed = f"pairs/{stem}.buggy.c", f"pairs/{stem}.fixed.c"
            h.update(_run(["repair", buggy, "--backend", "oracle", "--target", fixed,
                           "--compare", "--json"]))
            h.update(_run(["repair", buggy, "--backend", "random", "--seed", str(seed),
                           "--max-tokens", str(RANDOM_MAX_TOKENS), "--compare", "--json"]))
    finally:
        os.chdir(cwd)
    return h.hexdigest()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=4, help="digest seeds 1..N (default 4)")
    args = ap.parse_args(argv)

    # import the generator without leaving bytecode in the benchmark's tree
    sys.dont_write_bytecode = True
    sys.path.append(str(PERFBENCH))
    import gen

    for seed in range(1, args.seeds + 1):
        with tempfile.TemporaryDirectory() as tmp:
            print(f"seed {seed}: {seed_digest(gen, seed, Path(tmp))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
