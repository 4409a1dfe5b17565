#!/usr/bin/env python3
"""Print one sha256 per seed over everything `repairkit dataset` writes.

For each seed S in 1..N the script builds perfbench's generated archive
``gen.make_archive(S, 0, PROBLEMS)`` and runs, through ``cli.main``,

    repairkit dataset ARCHIVE --out corpus.jsonl --stats stats.json --max-led 10 --seed S
    repairkit dataset ARCHIVE --out corpus.jsonl --json --max-led 10 --seed S

and then, so that every mask path is covered, the first command again with
each of the fixed option sets in ``VARIANTS``: ``--strategy M1``, ``M2`` and
``M3``, and ``--granularity token`` under each ``--aggregation``.  The digest
covers every run's stdout, corpus and stats file, so two checkouts that print
the same digests build byte-identical corpora and statistics on these
archives:

    PYTHONPATH=src python3 scripts/corpus_digest.py --seeds 16
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
MAX_LED = 10
PROBLEMS = 3
VARIANTS = (
    ["--strategy", "M1"],
    ["--strategy", "M2"],
    ["--strategy", "M3"],
    ["--granularity", "token", "--aggregation", "floor"],
    ["--granularity", "token", "--aggregation", "cap"],
)


def _dataset(argv: list[str]) -> bytes:
    """stdout of one ``repairkit dataset`` run; a nonzero exit is an error."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["dataset", *argv])
    if code != 0:
        raise SystemExit(f"repairkit dataset {' '.join(argv)} exited {code}")
    return buf.getvalue().encode()


def seed_digest(gen, seed: int, work: Path) -> str:
    """sha256 over the outputs of every dataset run on one seed's archive.

    Runs inside ``work`` with relative paths, so the human summary that
    names the corpus file is the same wherever ``work`` is.
    """
    gen.make_archive(seed, 0, PROBLEMS).write(work / "archive")
    common = ["archive", "--out", "corpus.jsonl", "--max-led", str(MAX_LED),
              "--seed", str(seed)]
    h = hashlib.sha256()
    cwd = os.getcwd()
    os.chdir(work)
    try:
        h.update(_dataset([*common, "--stats", "stats.json"]))
        h.update(Path("corpus.jsonl").read_bytes())
        h.update(Path("stats.json").read_bytes())
        h.update(_dataset([*common, "--json"]))
        h.update(Path("corpus.jsonl").read_bytes())
        for variant in VARIANTS:
            h.update(_dataset([*common, "--stats", "stats.json", *variant]))
            h.update(Path("corpus.jsonl").read_bytes())
            h.update(Path("stats.json").read_bytes())
    finally:
        os.chdir(cwd)
    return h.hexdigest()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=16, help="digest seeds 1..N (default 16)")
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
