#!/usr/bin/env python3
"""Print one sha256 per seed over everything `repairkit triage` reports.

For each seed S in 1..N the script builds perfbench's generated suite
``gen.make_triage_suite(S)`` (100 planted accepted, SE, PE, CE and TLE
submissions over five problems) and runs, through ``cli.main``, for every
submission SUB with its problem's metadata META,

    repairkit triage SUB --meta META --config CFG --json --prompt

where CFG sets ``timeout_s = 0.5``.  The digest covers each run's exit code
and stdout, so two checkouts that print the same digests name the same bug
types, test verdicts, diagnostics and prompts on these submissions:

    PYTHONPATH=src python3 scripts/triage_digest.py --seeds 2
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

from repairkit import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TIMEOUT_S = 0.5


def _triage(argv: list[str]) -> bytes:
    """Exit code and stdout of one ``repairkit triage`` run."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["triage", *argv])
    return f"{code}\n{buf.getvalue()}".encode()


def seed_digest(gen, seed: int, work: Path) -> str:
    """sha256 over the triage runs of every submission in one seed's suite.

    Runs inside ``work`` with relative paths, so no report depends on where
    ``work`` is.
    """
    suite = gen.make_triage_suite(seed)
    (work / "executor.cfg").write_text(f"timeout_s = {TIMEOUT_S}\n")
    for name, meta in suite.metas.items():
        (work / f"meta-{name}.json").write_text(json.dumps(meta, indent=2))
    h = hashlib.sha256()
    cwd = os.getcwd()
    os.chdir(work)
    try:
        for case in suite.cases:
            Path("sub.c").write_text(case.code)
            h.update(_triage(["sub.c", "--meta", f"meta-{case.problem}.json",
                              "--config", "executor.cfg", "--json", "--prompt"]))
    finally:
        os.chdir(cwd)
    return h.hexdigest()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=2, help="digest seeds 1..N (default 2)")
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
