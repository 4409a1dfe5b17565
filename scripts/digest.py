#!/usr/bin/env python3
"""Print one sha256 per seed over what repairkit writes for one artifact.

    PYTHONPATH=src python3 scripts/digest.py {corpus,triage,decode,mask} [--seeds N]

For each seed S in 1..N the script builds inputs with perfbench's generator
``gen`` (imported without writing to ``perfbench/``) and runs repairkit on
them through ``cli.main`` in a fresh temporary directory, with relative paths
so that no output depends on where it is.  Equal digests mean byte-identical
outputs on these inputs.

corpus (16 seeds by default), on the archive ``gen.make_archive(S, 0, 3)``:

    repairkit dataset ARCHIVE --out corpus.jsonl --stats stats.json --max-led 10 --seed S
    repairkit dataset ARCHIVE --out corpus.jsonl --json --max-led 10 --seed S

then the first command again with each option set in ``VARIANTS``, so that
every mask path is covered: ``--strategy M1``, ``M2`` and ``M3``, and
``--granularity token`` under each ``--aggregation``.  It hashes every run's
stdout, corpus and stats file; a nonzero exit is an error.

triage (2 seeds), for every submission SUB of ``gen.make_triage_suite(S)``
(100 planted accepted, SE, PE, CE and TLE submissions over five problems)
with its problem's metadata META, and a config CFG that sets ``timeout_s = 0.5``:

    repairkit triage SUB --meta META --config CFG --json --prompt

decode (4 seeds), with the first 12 repair pairs of
``gen.make_archive(S, 10_000, 3, funcs=3)`` written into DIR as
``NN.buggy.c`` and ``NN.fixed.c``, runs bench once and both repairs per pair:

    repairkit bench DIR --json
    repairkit repair NN.buggy.c --backend oracle --target NN.fixed.c --compare --json
    repairkit repair NN.buggy.c --backend random --seed S --max-tokens 256 --compare --json

mask (4 seeds), on the same 12 pairs, runs for each pair, each strategy
STRAT in M1..M4 and each option set OPTS in ``MASK_OPTIONS`` (none,
``--granularity token``, ``--aggregation cap``, and both):

    repairkit mask NN.buggy.c NN.fixed.c --strategy STRAT --seed S OPTS
    repairkit mask NN.buggy.c NN.fixed.c --strategy STRAT --seed S OPTS --json

triage, decode and mask hash each run's exit code and stdout (bug types,
verdicts, diagnostics, prompts; decoded tokens, stats, metrics, bench
reports; mask tables with each statement's role, and mask records).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Iterator

from repairkit import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
VARIANTS = (
    ["--strategy", "M1"],
    ["--strategy", "M2"],
    ["--strategy", "M3"],
    ["--granularity", "token", "--aggregation", "floor"],
    ["--granularity", "token", "--aggregation", "cap"],
)
MASK_OPTIONS = (
    [],
    ["--granularity", "token"],
    ["--aggregation", "cap"],
    ["--granularity", "token", "--aggregation", "cap"],
)


def _run(argv: list[str], check: bool = False) -> bytes:
    """Exit code and stdout of one run; with ``check``, stdout alone and exit 0."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if check and code != 0:
        raise SystemExit(f"repairkit {' '.join(argv)} exited {code}")
    return (buf.getvalue() if check else f"{code}\n{buf.getvalue()}").encode()


def corpus(gen, seed: int) -> Iterator[bytes]:
    gen.make_archive(seed, 0, 3).write(Path("archive"))
    common = ["dataset", "archive", "--out", "corpus.jsonl", "--max-led", "10",
              "--seed", str(seed)]
    for extra in (["--stats", "stats.json"], ["--json"],
                  *(["--stats", "stats.json", *variant] for variant in VARIANTS)):
        yield _run([*common, *extra], check=True)
        yield Path("corpus.jsonl").read_bytes()
        if "--stats" in extra:
            yield Path("stats.json").read_bytes()


def triage(gen, seed: int) -> Iterator[bytes]:
    suite = gen.make_triage_suite(seed)
    Path("executor.cfg").write_text("timeout_s = 0.5\n")
    for name, meta in suite.metas.items():
        Path(f"meta-{name}.json").write_text(json.dumps(meta, indent=2))
    for case in suite.cases:
        Path("sub.c").write_text(case.code)
        yield _run(["triage", "sub.c", "--meta", f"meta-{case.problem}.json",
                    "--config", "executor.cfg", "--json", "--prompt"])


def _write_pairs(gen, seed: int) -> list[tuple[str, str]]:
    """The first 12 repair pairs of a multi-function archive, as files in
    ``pairs/``; their (buggy, fixed) paths."""
    pairs = list(gen.make_archive(seed, 10_000, 3, funcs=3).repairs.values())[:12]
    Path("pairs").mkdir()
    paths = []
    for i, (buggy, fixed) in enumerate(pairs):
        buggy_path, fixed_path = f"pairs/{i:02d}.buggy.c", f"pairs/{i:02d}.fixed.c"
        Path(buggy_path).write_text(buggy)
        Path(fixed_path).write_text(fixed)
        paths.append((buggy_path, fixed_path))
    return paths


def decode(gen, seed: int) -> Iterator[bytes]:
    paths = _write_pairs(gen, seed)
    yield _run(["bench", "pairs", "--json"])
    for buggy, fixed in paths:
        yield _run(["repair", buggy, "--backend", "oracle", "--target", fixed,
                    "--compare", "--json"])
        yield _run(["repair", buggy, "--backend", "random", "--seed", str(seed),
                    "--max-tokens", "256", "--compare", "--json"])


def mask(gen, seed: int) -> Iterator[bytes]:
    for buggy, fixed in _write_pairs(gen, seed):
        for strategy in ("M1", "M2", "M3", "M4"):
            for options in MASK_OPTIONS:
                argv = ["mask", buggy, fixed, "--strategy", strategy,
                        "--seed", str(seed), *options]
                yield _run(argv)
                yield _run([*argv, "--json"])


# artifact name -> (what to run and hash for one seed, default seed count)
ARTIFACTS = {"corpus": (corpus, 16), "triage": (triage, 2), "decode": (decode, 4),
             "mask": (mask, 4)}


def seed_digest(artifact, gen, seed: int) -> str:
    """sha256 over what ``artifact`` yields for one seed, run in a fresh directory."""
    h = hashlib.sha256()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for chunk in artifact(gen, seed):
                h.update(chunk)
        finally:
            os.chdir(cwd)
    return h.hexdigest()


def _import_gen():
    """perfbench's generator, imported without leaving bytecode in its tree."""
    saved_path, saved_bytecode = list(sys.path), sys.dont_write_bytecode
    sys.path.append(str(PERFBENCH))
    sys.dont_write_bytecode = True
    try:
        import gen
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_bytecode
    return gen


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("artifact", choices=ARTIFACTS)
    ap.add_argument("--seeds", type=int,
                    help="digest seeds 1..N (default: corpus 16, triage 2, "
                         "decode 4, mask 4)")
    args = ap.parse_args(argv)
    if args.seeds is not None and args.seeds < 1:
        ap.error("--seeds must be >= 1")
    artifact, default_seeds = ARTIFACTS[args.artifact]
    gen = _import_gen()
    for seed in range(1, (args.seeds or default_seeds) + 1):
        print(f"seed {seed}: {seed_digest(artifact, gen, seed)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
