"""Synthetic repair pairs for benchmarks and tests.

Token programs are sequences of 5-token statements (``vN = vN + ;``) whose
text round-trips through the tokenizer, so they work both as token streams
for the decode engine and as source text for the corpus pipeline.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .decoding import BOUNDARY_TOKENS

__all__ = [
    "SyntheticPair",
    "token_program",
    "perturb_statements",
    "make_pair",
    "render_tokens",
]

STATEMENT_TOKENS = 5


@dataclass(frozen=True)
class SyntheticPair:
    name: str
    buggy_tokens: tuple[str, ...]
    target_tokens: tuple[str, ...]
    diff_statements: tuple[int, ...]


def token_program(n_tokens: int) -> list[str]:
    """A program of exactly ``n_tokens`` tokens (multiple of 5)."""
    if n_tokens % STATEMENT_TOKENS:
        raise ValueError(f"token count must be a multiple of {STATEMENT_TOKENS}")
    toks: list[str] = []
    for i in range(n_tokens // STATEMENT_TOKENS):
        toks += [f"v{i}", "=", f"v{i}", "+", ";"]
    return toks


def perturb_statements(tokens: list[str], indices: list[int]) -> list[str]:
    """Replace each 5-token statement in ``indices`` with a fresh one."""
    out = list(tokens)
    for j in indices:
        base = j * STATEMENT_TOKENS
        if base + STATEMENT_TOKENS > len(out):
            raise ValueError(f"statement {j} out of range")
        out[base:base + STATEMENT_TOKENS] = [f"v{j}", "=", f"w{j}", "*", ";"]
    return out


def make_pair(n_tokens: int, n_regions: int, rng: random.Random,
              name: str = "synthetic", min_gap: int = 3) -> SyntheticPair:
    """Pair with ``n_regions`` single-statement diff regions, well separated."""
    buggy = token_program(n_tokens)
    n_stmts = n_tokens // STATEMENT_TOKENS
    if n_regions * min_gap > n_stmts:
        raise ValueError("too many regions for program size")
    chosen: list[int] = []
    candidates = list(range(n_stmts))
    rng.shuffle(candidates)
    for c in candidates:
        if all(abs(c - p) >= min_gap for p in chosen):
            chosen.append(c)
            if len(chosen) == n_regions:
                break
    if len(chosen) < n_regions:
        raise ValueError("could not place regions with the requested gap")
    chosen.sort()
    target = perturb_statements(buggy, chosen)
    return SyntheticPair(
        name=name,
        buggy_tokens=tuple(buggy),
        target_tokens=tuple(target),
        diff_statements=tuple(chosen),
    )


def render_tokens(tokens: list[str] | tuple[str, ...]) -> str:
    """Token stream as source text, one statement per line."""
    lines: list[str] = []
    cur: list[str] = []
    for tok in tokens:
        cur.append(tok)
        if tok in BOUNDARY_TOKENS:
            lines.append(" ".join(cur))
            cur = []
    if cur:
        lines.append(" ".join(cur))
    return "\n".join(lines) + ("\n" if lines else "")
