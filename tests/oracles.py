"""Independent reference implementations used to cross-check the fast paths.

Everything here is deliberately written a different way from the library
code (recursive where the library iterates, exhaustive where it prunes) so a
shared bug is unlikely.
"""

from __future__ import annotations

import math
import re
import sys
import zlib
from functools import lru_cache

from repairkit import decoding
from repairkit.decoding import (BOUNDARY_TOKENS, DEFAULT_COST, DecodeLimits,
                                DecodeResult, DecodeStats, DraftSource)
from repairkit.errors import BackendContractError, RepairKitError
from repairkit.source import (_ASSIGN_OPS, _CONTROL_PAREN, _CONTROL_WORDS,
                              _IDENT_RE, _TOKEN_RE, _TYPE_WORDS, _WS_RE,
                              ROOT_BLOCK, SourceUnit, Statement, Token)


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
    The bridge starts at ``fallback_run`` tokens, doubles after a round
    that accepted no draft token and closed no statement, and is reset by
    any other round.
    """
    source = DraftSource.from_tokens(buggy)
    eos = model.eos_token
    ctx = list(prompt)
    out: list[str] = []
    stats = DecodeStats()
    anchor = 0
    bridge = limits.fallback_run
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
            bridge = limits.fallback_run
            continue

        closed = False
        for _ in range(bridge):
            tok = forward(ctx)[-1]
            if emit(tok, "ar_fallback_tokens"):
                stop = True
                break
            if tok in BOUNDARY_TOKENS:
                closed = True
                break
        if stop:
            break
        if k == 0 and not closed:
            bridge += bridge
        else:
            bridge = limits.fallback_run

    return DecodeResult(out, stats, truncated=not (out and out[-1] == eos))


class _ScannerRef:
    """``parse``'s scanner taken one character per step.

    No run skipping: every blank and every character without a role is its
    own loop iteration.  A preprocessor line continues over a backslash
    followed by LF or by CRLF.
    """

    def __init__(self, text: str):
        self.text = text
        self.n = len(text)
        self.spans: list[tuple[int, int, int]] = []
        self.comments: list[tuple[int, int]] = []
        self.degraded = False
        self.block_parent: dict[int, int | None] = {ROOT_BLOCK: None}
        self.stack = [ROOT_BLOCK]
        self.next_block = ROOT_BLOCK + 1

    def peek_code(self, i: int) -> str | None:
        text, n = self.text, self.n
        while i < n:
            c = text[i]
            if c in " \t\r\n\f\v":
                i += 1
            elif text.startswith("//", i):
                j = text.find("\n", i)
                i = n if j == -1 else j
            elif text.startswith("/*", i):
                j = text.find("*/", i + 2)
                i = n if j == -1 else j + 2
            else:
                return c
        return None

    def run(self) -> None:
        text, n = self.text, self.n
        i = 0
        start: int | None = None
        last_sig = 0
        paren = init_brace = 0
        saw_assign = in_pp = False

        def close(end: int) -> None:
            nonlocal start, paren, init_brace, saw_assign, in_pp
            if start is not None and end > start:
                self.spans.append((start, end, self.stack[-1]))
            start = None
            paren = init_brace = 0
            saw_assign = in_pp = False

        def mark(pos: int) -> None:
            nonlocal start, last_sig
            if start is None:
                start = pos
            last_sig = pos + 1

        while i < n:
            c = text[i]
            if c in " \t\r\f\v":
                i += 1
            elif c == "\n":
                if in_pp:
                    close(last_sig)
                i += 1
            elif text.startswith("//", i):
                j = text.find("\n", i)
                j = n if j == -1 else j
                self.comments.append((i, j))
                i = j
            elif text.startswith("/*", i):
                j = text.find("*/", i + 2)
                if j == -1:
                    self.comments.append((i, n))
                    self.degraded = True
                    i = n
                else:
                    self.comments.append((i, j + 2))
                    i = j + 2
            elif in_pp and (text.startswith("\\\n", i) or text.startswith("\\\r\n", i)):
                mark(i)
                i += 2 if text[i + 1] == "\n" else 3
            elif c in "\"'":
                mark(i)
                j = i + 1
                closed = False
                while j < n:
                    if text[j] == "\\" and j + 1 < n:
                        j += 2
                        continue
                    if text[j] == c:
                        closed = True
                        break
                    if text[j] == "\n":
                        break
                    j += 1
                if closed:
                    mark(j)
                    i = j + 1
                else:
                    self.degraded = True
                    end = min(j, n)
                    if end > i:
                        mark(end - 1)
                    close(last_sig)
                    i = end
            elif c == "#" and start is None:
                mark(i)
                in_pp = True
                i += 1
            elif in_pp:
                mark(i)
                i += 1
            elif c == "(":
                mark(i)
                paren += 1
                i += 1
            elif c == ")":
                mark(i)
                if paren > 0:
                    paren -= 1
                i += 1
                if paren == 0 and start is not None:
                    head = _IDENT_RE.findall(text[start:i])[:2]
                    control = bool(head) and (
                        head[0] in _CONTROL_PAREN
                        or (head[0] == "else" and len(head) > 1
                            and head[1] in _CONTROL_PAREN))
                    if control or self.peek_code(i) == "{":
                        close(i)
            elif c == ";" and paren == 0 and init_brace == 0:
                mark(i)
                close(i + 1)
                i += 1
            elif c == "{" and paren == 0:
                if saw_assign:
                    init_brace += 1
                    mark(i)
                else:
                    close(last_sig)
                    self.spans.append((i, i + 1, self.stack[-1]))
                    bid = self.next_block
                    self.next_block += 1
                    self.block_parent[bid] = self.stack[-1]
                    self.stack.append(bid)
                i += 1
            elif c == "}" and paren == 0:
                if init_brace > 0:
                    init_brace -= 1
                    mark(i)
                else:
                    close(last_sig)
                    if len(self.stack) > 1:
                        self.stack.pop()
                    else:
                        self.degraded = True
                    self.spans.append((i, i + 1, self.stack[-1]))
                i += 1
            elif c == "=" and paren == 0 and init_brace == 0:
                prev = text[i - 1] if i > 0 else ""
                nxt = text[i + 1] if i + 1 < n else ""
                if nxt != "=" and prev not in "<>!=":
                    saw_assign = True
                mark(i)
                i += 1
            else:
                mark(i)
                i += 1

        if start is not None:
            self.degraded = True
            offset = start
            for line in text[start:last_sig].split("\n"):
                stripped = line.strip(" \t\r\f\v")
                if stripped:
                    lo = offset + len(line) - len(line.lstrip(" \t\r\f\v"))
                    self.spans.append((lo, lo + len(stripped), self.stack[-1]))
                offset += len(line) + 1
        if len(self.stack) > 1:
            self.degraded = True


def _code_segments_ref(start: int, end: int,
                       comments: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The parts of [start, end) outside every comment, each comment checked."""
    segments, pos = [], start
    for cs, ce in comments:
        if ce <= start or cs >= end:
            continue
        if cs > pos:
            segments.append((pos, cs))
        pos = max(pos, min(ce, end))
    if pos < end:
        segments.append((pos, end))
    return segments


def _classify_ref(norm: str) -> str:
    if not norm:
        return "other"
    if norm.startswith("#"):
        return "preprocessor"
    if norm in ("{", "}"):
        return "brace"
    m = _IDENT_RE.match(norm)
    first = m.group(0) if m else ""
    if first == "return":
        return "return"
    if first in _CONTROL_WORDS:
        return "control-header"
    if first in _TYPE_WORDS:
        return "declaration"
    if re.match(r"[A-Za-z_]\w*\s*[*\s]\s*\**\s*[A-Za-z_]\w*", norm):
        return "declaration"
    if any(t in _ASSIGN_OPS or t in ("++", "--") for t in _TOKEN_RE.findall(norm)):
        return "assignment"
    if re.match(r"[A-Za-z_]\w*\s*\(", norm):
        return "call"
    return "other"


def parse_ref(text: str) -> SourceUnit:
    """``parse`` with the one-character scanner and per-statement comment walks.

    Every statement scans the whole comment list, and the tokens are sorted
    whether or not the file has comments.
    """
    scanner = _ScannerRef(text)
    scanner.run()
    comments = sorted(scanner.comments)
    statements, tokens = [], []
    for idx, (s, e, block) in enumerate(sorted(scanner.spans)):
        segments = _code_segments_ref(s, e, comments)
        # a comment is a space, so the code parts joined by spaces, collapsed
        norm = _WS_RE.sub(" ", " ".join(text[lo:hi] for lo, hi in segments)).strip()
        statements.append(Statement(idx, s, e, text[s:e], norm, _classify_ref(norm), block))
        for lo, hi in segments:
            tokens.extend(Token(m.start(), m.end(), m.group(0), False, idx)
                          for m in _TOKEN_RE.finditer(text, lo, hi))
    tokens.extend(Token(cs, ce, text[cs:ce], True, None) for cs, ce in comments)
    tokens.sort(key=lambda t: (t.start, t.end))
    return SourceUnit(text, tuple(statements), tuple(tokens),
                      dict(scanner.block_parent), scanner.degraded)
