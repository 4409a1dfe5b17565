"""Independent reference implementations used to cross-check the fast paths.

Everything here is deliberately written a different way from the library
code (recursive where the library iterates, exhaustive where it prunes) so a
shared bug is unlikely.
"""

from __future__ import annotations

import math
import sys
import zlib
from functools import lru_cache

from repairkit import decoding
from repairkit.decoding import (BOUNDARY_TOKENS, DEFAULT_COST, DecodeLimits,
                                DecodeResult, DecodeStats, DraftSource)
from repairkit.errors import BackendContractError, RepairKitError


def lev_ref(a: str, b: str) -> int:
    """Recursive memoized edit distance (the library uses a two-row table)."""

    @lru_cache(maxsize=None)
    def go(i: int, j: int) -> int:
        if i == len(a):
            return len(b) - j
        if j == len(b):
            return len(a) - i
        if a[i] == b[j]:
            return go(i + 1, j + 1)
        return 1 + min(go(i + 1, j), go(i, j + 1), go(i + 1, j + 1))

    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, len(a) + len(b) + 100))
    try:
        return go(0, 0)
    finally:
        sys.setrecursionlimit(old)


def lev_tokens_ref(a: list[str], b: list[str]) -> int:
    @lru_cache(maxsize=None)
    def go(i: int, j: int) -> int:
        if i == len(a):
            return len(b) - j
        if j == len(b):
            return len(a) - i
        if a[i] == b[j]:
            return go(i + 1, j + 1)
        return 1 + min(go(i + 1, j), go(i, j + 1), go(i + 1, j + 1))

    return go(0, 0)


def lev_table_ref(a, b) -> int:
    """Unit-cost edit distance over any two sequences, by the two-row table.

    No equal-ends trim and no bit vectors; iterative, so it checks the
    library's kernel on inputs too long for the recursive references.
    """
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        cur = [i]
        for j, y in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y)))
        prev = cur
    return prev[-1]


def sim_ref(dist: float) -> float:
    # direct transcription: 1 / (1 + log d + 1), log natural, d=0 -> 1
    if dist == 0:
        return 1.0
    return 1.0 / (1.0 + math.log(dist) + 1.0)


def relatedness_ref(e: str, sources: list[str]) -> float:
    return sum(sim_ref(lev_ref(e, m)) for m in sources)


def weight_ref(e: str, sources: list[str], clamp: str = "floor") -> float:
    s = relatedness_ref(e, sources)
    if clamp == "cap":
        return s if s < 1.0 else 1.0
    return s if s > 1.0 else 1.0


def masked_loss_ref(losses: list[float], weights: list[float]) -> float:
    total = 0.0
    for loss, w in zip(losses, weights):
        total += loss * w
    return total


def align_cost_ref(a: list[str], b: list[str]) -> float:
    """Cheapest monotone alignment cost, explored exhaustively with memo.

    Substituting x for y costs lev(x, y) / max(len) (0 for equal strings),
    inserting or deleting costs 1.
    """

    def sub_cost(x: str, y: str) -> float:
        if x == y:
            return 0.0
        return lev_ref(x, y) / max(len(x), len(y), 1)

    @lru_cache(maxsize=None)
    def go(i: int, j: int) -> float:
        if i == len(a) and j == len(b):
            return 0.0
        best = math.inf
        if i < len(a) and j < len(b):
            best = min(best, sub_cost(a[i], b[j]) + go(i + 1, j + 1))
        if i < len(a):
            best = min(best, 1.0 + go(i + 1, j))
        if j < len(b):
            best = min(best, 1.0 + go(i, j + 1))
        return best

    return go(0, 0)


def align_pairs_ref(a: list[str], b: list[str]) -> list[tuple]:
    """The full-table statement alignment, as ``(op, buggy, fixed)`` triples.

    This is the O(n*m) DP and traceback that ``align_statements`` trims: the
    same float recurrence, the diagonal preferred, then deletion, then
    insertion, with a 1e-12 tie tolerance.  It fixes which of several
    cost-optimal alignments is the right one, which ``align_cost_ref`` does not.
    """

    def sub_cost(x: str, y: str) -> float:
        if x == y:
            return 0.0
        return lev_ref(x, y) / max(len(x), len(y), 1)

    n, m = len(a), len(b)
    cost = [[0.0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        cost[i][0] = float(i)
    for j in range(1, m + 1):
        cost[0][j] = float(j)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            cost[i][j] = min(
                cost[i - 1][j - 1] + sub_cost(a[i - 1], b[j - 1]),
                cost[i - 1][j] + 1.0,
                cost[i][j - 1] + 1.0,
            )

    pairs: list[tuple] = []
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0:
            diag = cost[i - 1][j - 1] + sub_cost(a[i - 1], b[j - 1])
            if abs(cost[i][j] - diag) < 1e-12:
                op = "match" if a[i - 1] == b[j - 1] else "replace"
                pairs.append((op, i - 1, j - 1))
                i -= 1
                j -= 1
                continue
        if i > 0 and abs(cost[i][j] - (cost[i - 1][j] + 1.0)) < 1e-12:
            pairs.append(("delete", i - 1, None))
            i -= 1
            continue
        pairs.append(("insert", None, j - 1))
        j -= 1
    return pairs[::-1]


def seeded_random_ref(seed: int, vocab: list[str], tokens: list[str]) -> list[str]:
    """``SeededRandomBackend.forward`` as a scalar Horner loop over the prefix.

    Every call hashes the whole context from scratch; the library hashes
    only the positions past the prefix it shares with its previous pass.
    ``vocab`` must include EOS.
    """
    mask = (1 << 64) - 1
    mult = 0x9E3779B97F4A7C15
    h = 0
    out = []
    for tok in tokens:
        h = (h * mult + zlib.crc32(tok.encode("utf-8", "replace")) + seed) & mask
        x = h ^ (h >> 33)
        x = (x * 0xFF51AFD7ED558CCD) & mask
        x ^= x >> 29
        out.append(vocab[x % len(vocab)])
    return out


def oracle_forward_ref(scripts: list[tuple[list[str], list[str]]], eos: str,
                       tokens: list[str]) -> list[str]:
    """``TargetOracleBackend.forward`` after ``script(p, t)`` for each pair.

    The prompt matcher walks every prompt in sorted order and the predictions
    are built one position at a time; the library slices a stored stream.
    A later script of the same prompt replaces the earlier one.
    """
    targets = {tuple(p): tuple(t) for p, t in scripts}
    complete = partial = None
    for prompt in sorted(targets):
        if len(prompt) <= len(tokens):
            if tuple(tokens[:len(prompt)]) == prompt:
                if complete is None or len(prompt) > len(complete):
                    complete = prompt
        elif prompt[:len(tokens)] == tuple(tokens):
            if partial is None or len(prompt) > len(partial):
                partial = prompt
    prompt = complete if complete is not None else partial
    if prompt is None:
        raise RepairKitError("no scripted target matches this prompt")
    target = targets[prompt]
    preds = []
    for i in range(len(tokens)):
        pos = i + 1 - len(prompt)
        if pos < 0:
            preds.append(prompt[i + 1])
        elif pos < len(target):
            preds.append(target[pos])
        else:
            preds.append(eos)
    return preds


def ngram_forward_ref(model, tokens: list[str]) -> list[str]:
    """``NGramBackend.forward`` handing each position its whole prefix."""
    return [model._predict_one(tokens[:i + 1]) for i in range(len(tokens))]


def normalize_ref(text: str) -> str:
    """Whitespace-canonical output, built by a character walk."""
    out_lines = []
    for line in text.split("\n"):
        chars: list[str] = []
        prev_space = False
        for ch in line:
            if ch in (" ", "\t"):
                if not prev_space:
                    chars.append(" ")
                prev_space = True
            else:
                chars.append(ch)
                prev_space = False
        while chars and chars[-1] == " ":
            chars.pop()
        out_lines.append("".join(chars))
    while out_lines and out_lines[-1] == "":
        out_lines.pop()
    return "\n".join(out_lines)


def led_ref(a: str, b: str) -> int:
    la = tuple(ln.strip() for ln in a.splitlines())
    lb = tuple(ln.strip() for ln in b.splitlines())

    @lru_cache(maxsize=None)
    def go(i: int, j: int) -> int:
        if i == len(la):
            return len(lb) - j
        if j == len(lb):
            return len(la) - i
        if la[i] == lb[j]:
            return go(i + 1, j + 1)
        return 1 + min(go(i + 1, j), go(i, j + 1), go(i + 1, j + 1))

    return go(0, 0)


def accelerated_decode_ref(model, prompt, buggy, limits: DecodeLimits,
                           cost_model=DEFAULT_COST) -> DecodeResult:
    """Draft-accelerated decoding with one ``emit`` call per token.

    Each token is appended on its own, bumps its own ``DecodeStats`` bucket
    and checks both stop conditions (EOS, the cap); the exhausted-draft tail
    and the fallback bridge are separate loops.  The library accepts a
    verified slice at once and counts it afterwards.  Drafts come from
    ``decoding.draft_generate``, looked up at call time like the library's.
    """
    source = DraftSource.from_tokens(buggy)
    eos = model.eos_token
    ctx = list(prompt)
    out: list[str] = []
    stats = DecodeStats()
    anchor = 0
    finished = False

    def forward(tokens):
        stats.forward_passes += 1
        stats.sim_cost += cost_model.cost(len(tokens))
        return model.forward(tokens)

    def emit(tok: str, bucket: str) -> bool:
        nonlocal finished
        out.append(tok)
        ctx.append(tok)
        stats.tokens_emitted += 1
        setattr(stats, bucket, getattr(stats, bucket) + 1)
        if tok == eos:
            finished = True
            return True
        return len(out) >= limits.max_tokens

    while not finished and len(out) < limits.max_tokens:
        draft, anchor = decoding.draft_generate(source, out, anchor)
        if not draft:
            while not emit(forward(ctx)[-1], "ar_fallback_tokens"):
                pass
            break

        preds = forward(ctx + draft)
        for i in range(max(len(prompt) - 1, 0), len(ctx) - 1):
            if preds[i] != ctx[i + 1]:
                raise BackendContractError(f"position {i + 1} re-predicted")
        base = len(ctx) - 1
        cand = preds[base:base + len(draft)]
        k = 0
        while k < len(draft) and cand[k] == draft[k]:
            k += 1

        stop = False
        for j in range(k):
            stop = emit(draft[j], "draft_accepted")
            anchor += 1
            if stop:
                break
        if stop:
            break
        correction = cand[k] if k < len(draft) else preds[-1]
        if emit(correction, "corrections"):
            break
        if correction in BOUNDARY_TOKENS:
            continue

        for _ in range(limits.fallback_run):
            tok = forward(ctx)[-1]
            if emit(tok, "ar_fallback_tokens"):
                stop = True
                break
            if tok in BOUNDARY_TOKENS:
                break
        if stop:
            break

    return DecodeResult(out, stats, truncated=not (out and out[-1] == eos))
