"""Correctness checks, one set per workload.

Each check compares an output of the program with what the generator
planted (its ledger, the planted class), with an independent recomputation,
or with a property the method must have.  None compares with a saved copy
of an earlier output.  A failed check raises :class:`CheckError`.
"""

from __future__ import annotations

import json
import math
from typing import Callable, Sequence

PROMPT_SECTIONS = ("Problem Description", "Input/Output Format", "Example IOs",
                   "Bug Type", "Buggy Code")


class CheckError(AssertionError):
    pass


def _fail(msg: str) -> None:
    raise CheckError(msg)


# -- corpus -----------------------------------------------------------------


def check_corpus(records: list[dict], expected_ids: Sequence[str],
                 parse: Callable) -> None:
    """Records of one `dataset` run against the archive's ledger.

    * ids are the planted repairs (the rewrites are gone), in pair-id order;
    * a fixed-side statement whose normalized text occurs nowhere in the
      buggy file cannot align as a match, so its raw weight is exactly 1;
    * under M4 every ``k`` is positive and they sum to 1.
    """
    ids = [r["pair_id"] for r in records]
    if ids != sorted(expected_ids):
        _fail(f"record ids {ids} != planted repairs {sorted(expected_ids)}")
    for rec in records:
        pid = rec["pair_id"]
        buggy_norm = {s.normalized for s in parse(rec["buggy_code"]).statements}
        fixed = parse(rec["fixed_code"]).statements
        stmts = rec["statements"]
        if len(stmts) != len(fixed):
            _fail(f"{pid}: {len(stmts)} weighted statements, {len(fixed)} parsed")
        for st, rs in zip(fixed, stmts):
            if st.normalized not in buggy_norm and rs["weight_raw"] != 1.0:
                _fail(f"{pid}: new statement {st.normalized!r} has raw weight "
                      f"{rs['weight_raw']}, not 1.0")
        ks = [rs["k"] for rs in stmts]
        if rec["strategy"] == "M4" and not all(k is not None and k > 0 for k in ks):
            _fail(f"{pid}: non-positive k under M4")
        if not math.isclose(math.fsum(ks), 1.0, rel_tol=0.0, abs_tol=1e-9):
            _fail(f"{pid}: k sums to {math.fsum(ks)!r}")


def check_corpus_stats(stats: dict, expected_ids: Sequence[str],
                       rewrites: Sequence[str]) -> None:
    if stats["pairs"] != len(expected_ids):
        _fail(f"stats count {stats['pairs']} pairs, ledger plants {len(expected_ids)}")
    if stats["dropped_restructuring"] != len(rewrites):
        _fail(f"stats drop {stats['dropped_restructuring']} pairs, "
              f"ledger plants {len(rewrites)} rewrites")


def check_same_bytes(traced: bytes, untraced: bytes) -> None:
    if traced != untraced:
        _fail("traced and untraced runs wrote different corpora")


def read_jsonl(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


# -- triage -----------------------------------------------------------------


def check_triage(planted: str, bug_type: str | None, prompt: str, code: str) -> None:
    """Class equals the planted class; the prompt has its five sections in
    order, naming that class and carrying the submission."""
    got = "accepted" if bug_type is None else bug_type
    if got != planted:
        _fail(f"classified {got}, planted {planted}")
    pos = -1
    bodies = {}
    heads = [f"## {name}\n" for name in PROMPT_SECTIONS]
    for k, head in enumerate(heads):
        at = prompt.find(head, pos + 1)
        if at <= pos:
            _fail(f"prompt section {PROMPT_SECTIONS[k]!r} missing or out of order")
        pos = at
    for k, head in enumerate(heads):
        start = prompt.index(head) + len(head)
        end = prompt.index(heads[k + 1]) if k + 1 < len(heads) else len(prompt)
        bodies[PROMPT_SECTIONS[k]] = prompt[start:end].strip("\n")
    if bodies["Bug Type"] != (bug_type or "N/A"):
        _fail(f"prompt names bug type {bodies['Bug Type']!r}, not {bug_type!r}")
    if bodies["Buggy Code"] != code.rstrip():
        _fail("prompt does not carry the submission verbatim")


# -- repair -----------------------------------------------------------------


def check_lossless(greedy: Sequence[str], fast: Sequence[str]) -> None:
    if list(greedy) != list(fast):
        at = next((i for i, (a, b) in enumerate(zip(greedy, fast)) if a != b),
                  min(len(greedy), len(fast)))
        _fail(f"fast output differs from greedy at token {at}")


def check_target(greedy: Sequence[str], target: Sequence[str], eos: str) -> None:
    if list(greedy) != list(target) + [eos]:
        _fail(f"greedy output ({len(greedy)} tokens) is not the scripted "
              f"target ({len(target)} tokens) plus EOS")


def check_greedy_sample(forward: Callable, prompt: Sequence[str],
                        out: Sequence[str], positions: Sequence[int]) -> None:
    """Recompute sampled greedy tokens with a fresh forward pass each."""
    for i in positions:
        want = forward(list(prompt) + list(out[:i]))[-1]
        if out[i] != want:
            _fail(f"greedy token {i} is {out[i]!r}, forward predicts {want!r}")


def check_pass_count(proxy_passes: int, stats_passes: int, what: str) -> None:
    if proxy_passes != stats_passes:
        _fail(f"{what}: proxy saw {proxy_passes} forward passes, "
              f"DecodeStats says {stats_passes}")


def sample_positions(n: int, k: int = 8) -> list[int]:
    if n <= k:
        return list(range(n))
    return sorted({round(j * (n - 1) / (k - 1)) for j in range(k)})
