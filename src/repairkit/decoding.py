"""Greedy decoding with and without draft acceleration.

The accelerated decoder treats the buggy file as a draft of the fix: each
iteration realigns the not-yet-consumed tail of the buggy token stream
against the output produced so far, verifies that whole tail with a single
forward pass, accepts the longest prefix that agrees with the model's own
greedy predictions plus one correction token, and bridges disagreements
with a short run of plain autoregressive steps.  The bridge is 5 steps at
first and doubles after each round that accepted no draft token and closed
no statement, so a model that ignores the draft pays about log2(T / 5)
verify passes for T tokens; any progress resets it.  Every accepted token
is conditioned on an already-verified prefix, so the output is
token-for-token identical to plain greedy decoding — only the number of
forward passes changes.

Backends expose one method: ``forward(tokens)`` returns, for every position
``i``, the greedy next token after ``tokens[:i+1]``.  They must be
deterministic and causal.  Both decoders check every pass's prediction
count, and every verify pass re-checks the prediction at each emitted
position from the first on (``BackendContractError``); :func:`compute_metrics`
refuses two runs that differ (``LosslessnessError``).  :func:`ar_decode`,
the reference, checks only the count.

Greedy steps hand ``forward`` a :class:`Prefix` of the decoder's context
buffer, which only ever grows: the entries a ``Prefix`` covers never change
afterwards, so a backend may check or hash a buffer once and reuse that work
for every later ``Prefix`` of it.  Given a ``Prefix``, a backend may answer
with a ``Prefix`` of its own grow-only buffer; the decoders only read a
pass's result.  Verify passes hand an :class:`Extended`: a ``Prefix`` of the
same context buffer followed by a draft that is not committed.  A backend
may serve its context from the per-buffer cache, as a KV cache serves the
accepted context, and must not cache the draft as part of the buffer; it
may answer with any sequence, even one that computes a draft position's
prediction only when it is read.  The decoder reads the context's
predictions once, then the draft's only up to the first disagreement plus
one correction, in chunks that double.  A backend that does not know
``Extended`` may treat it as any sequence.  The decoders and the mock
backends build the views they own unchecked, since each knows its ``n`` is
in range; a ``Prefix`` built by anyone else checks its arguments.
"""

from __future__ import annotations

import math
from itertools import chain, islice
from typing import NamedTuple, Protocol, Sequence

from .errors import (BackendContractError, Checked, DegenerateInputError,
                     LosslessnessError)

__all__ = [
    "BOUNDARY_TOKENS",
    "ModelBackend",
    "Prefix",
    "Extended",
    "DecodeLimits",
    "DecodeStats",
    "DecodeResult",
    "DraftSource",
    "repair_prompt",
    "longest_matching_prefix",
    "draft_generate",
    "ar_decode",
    "accelerated_decode",
    "EfficiencyReport",
    "compute_metrics",
    "aggregate_reports",
]

# Tokens that close a statement for draft-alignment purposes.
BOUNDARY_TOKENS = frozenset((";", "{", "}"))

# The first greedy bridge after a draft miss, in tokens.
_BRIDGE = 5

# The draft tokens a verify pass reads first; each later read ends twice as far in.
_FIRST_READ = 8


class Prefix:
    """A read-only view of the first ``n`` entries of the list ``buffer``.

    Its maker promises that those entries never change: the buffer may only
    grow.  Indexing stops at ``n`` whatever the buffer's length, and a slice
    is a new list.
    """

    __slots__ = ("buffer", "n")

    def __init__(self, buffer: list, n: int):
        # a backend slices the buffer and compares the slice with its own lists
        if not isinstance(buffer, list):
            raise TypeError(f"a Prefix views a list, not a {type(buffer).__name__}")
        if not isinstance(n, int):
            raise TypeError(f"a Prefix length is an int, not a {type(n).__name__}")
        if not 0 <= n <= len(buffer):
            raise ValueError(f"a prefix of {n} entries of a buffer of {len(buffer)}")
        self.buffer = buffer
        self.n = n

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int | slice):
        # an exact int, the decoders' own read, skips the slice test
        if i.__class__ is not int and isinstance(i, slice):
            start, stop, step = i.indices(self.n)
            if start < 0:  # a negative step from before the first entry: empty
                return []
            return self.buffer[start:stop if stop >= 0 else None:step]
        n = self.n
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("Prefix index out of range")
        return self.buffer[i]

    def __iter__(self):
        return islice(self.buffer, self.n)


def _prefix(buffer: list, n: int) -> Prefix:
    """``Prefix(buffer, n)`` without its checks, for a maker that knows
    ``buffer`` is a list of at least ``n`` entries."""
    view = object.__new__(Prefix)
    view.buffer = buffer
    view.n = n
    return view


class Extended:
    """A read-only sequence: the :class:`Prefix` ``context``, then the list
    ``draft``, which is not committed to the context's buffer.

    Indexing and slicing read the context's buffer or the draft without
    joining them; a slice is a new list.
    """

    __slots__ = ("context", "draft")

    def __init__(self, context: Prefix, draft: list):
        if not isinstance(context, Prefix):
            raise TypeError(f"an Extended context is a Prefix, not a {type(context).__name__}")
        if not isinstance(draft, list):
            raise TypeError(f"an Extended draft is a list, not a {type(draft).__name__}")
        self.context = context
        self.draft = draft

    def __len__(self) -> int:
        return self.context.n + len(self.draft)

    def __getitem__(self, i: int | slice):
        n = self.context.n
        if isinstance(i, slice):
            start, stop, step = i.indices(len(self))
            if step != 1:
                return [self[j] for j in range(start, stop, step)]
            if stop <= n:
                return self.context[start:stop]
            return self.context[start:n] + self.draft[max(start - n, 0):stop - n]
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("Extended index out of range")
        return self.context.buffer[i] if i < n else self.draft[i - n]

    def __iter__(self):
        return chain(self.context, self.draft)


class ModelBackend(Protocol):
    """Anything with a greedy ``forward`` pass and an EOS token.

    ``forward`` may be given a :class:`Prefix` of a grow-only buffer, and
    may then cache work per buffer and answer with a ``Prefix`` of a
    grow-only buffer of its own.  It may be given an :class:`Extended`, a
    ``Prefix`` plus a draft: it may serve the ``Prefix`` from that cache and
    answer with a sequence that computes the draft's predictions as they are
    read, but must not cache the draft as part of the buffer.  Any other
    sequence, a list say, it answers from scratch or from caches of its own.
    Callers only read the result.
    """

    eos_token: str
    concurrent_safe: bool

    def forward(self, tokens: Sequence[str]) -> Sequence[str]:
        """Greedy next-token prediction for every prefix of ``tokens``."""
        ...


def _pass_cost(context_length: int) -> float:
    """Simulated cost of one forward pass: deterministic, unlike model time."""
    return 1.0 + 0.001 * context_length


class _DecodeLimits(NamedTuple):
    max_tokens: int = 4192


class DecodeLimits(Checked, _DecodeLimits):
    __slots__ = ()

    def _check(self) -> None:
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")


class DecodeStats(NamedTuple):
    """Counters of one decode, built once when the decode returns."""

    forward_passes: int = 0
    tokens_emitted: int = 0
    draft_accepted: int = 0
    corrections: int = 0
    ar_fallback_tokens: int = 0
    sim_cost: float = 0.0


class DecodeResult(NamedTuple):
    tokens: list[str]
    stats: DecodeStats
    truncated: bool = False


class DraftSource(NamedTuple):
    """The buggy token stream plus its statement chunks: ``(start, end)``
    ranges that end at a boundary token, then any unterminated tail."""

    tokens: tuple[str, ...]
    chunks: tuple[tuple[int, int], ...]

    @classmethod
    def from_tokens(cls, tokens: Sequence[str]) -> "DraftSource":
        toks = tuple(tokens)
        chunks: list[tuple[int, int]] = []
        start = 0
        for i, tok in enumerate(toks):
            if tok in BOUNDARY_TOKENS:
                chunks.append((start, i + 1))
                start = i + 1
        if start < len(toks):
            chunks.append((start, len(toks)))
        return cls(tokens=toks, chunks=tuple(chunks))


def repair_prompt(buggy_tokens: Sequence[str],
                  bug_type: str | None = None) -> list[str]:
    """The decoding prompt ``<fix> [<bug:TYPE>] buggy tokens... <sep>``."""
    head = ["<fix>"]
    if bug_type:
        head.append(f"<bug:{bug_type}>")
    return head + list(buggy_tokens) + ["<sep>"]


def longest_matching_prefix(a: Sequence[str], b: Sequence[str]) -> int:
    n = min(len(a), len(b))
    for i in range(n):
        if a[i] != b[i]:
            return i
    return n


def draft_generate(source: DraftSource, emitted: Sequence[str],
                   anchor: int) -> tuple[list[str], int]:
    """Next draft and anchor.

    With no output yet the whole buggy stream is the draft.  Otherwise the
    last complete statement of the output is searched for in the buggy
    stream at or after the anchor; on a hit the draft resumes right after
    it, on a miss the anchor stays put (freshly inserted code has no
    counterpart to align to).
    """
    tokens = source.tokens
    if not emitted:
        return list(tokens), 0

    last_b = next(
        (i for i in range(len(emitted) - 1, -1, -1)
         if emitted[i] in BOUNDARY_TOKENS),
        None,
    )
    if last_b is not None:
        start = next(
            (i + 1 for i in range(last_b - 1, -1, -1)
             if emitted[i] in BOUNDARY_TOKENS),
            0,
        )
        chunk = tuple(emitted[start:last_b + 1])
        for s, e in source.chunks:
            if s >= anchor and tokens[s:e] == chunk:
                return list(tokens[e:]), e
    return list(tokens[anchor:]), anchor


def _miscount(got: int, n: int) -> BackendContractError:
    return BackendContractError(f"forward returned {got} predictions for {n} tokens")


def _forward(model: ModelBackend, tokens: Sequence[str]) -> Sequence[str]:
    """``model.forward(tokens)``, held to one prediction per position."""
    preds = model.forward(tokens)
    if len(preds) != len(tokens):
        raise _miscount(len(preds), len(tokens))
    return preds


def ar_decode(model: ModelBackend, prompt: Sequence[str],
              max_tokens: int = DecodeLimits._field_defaults["max_tokens"]
              ) -> DecodeResult:
    """Plain greedy decoding: one forward pass per emitted token."""
    if not prompt:
        raise DegenerateInputError("prompt is empty")
    DecodeLimits(max_tokens)  # checks the cap
    eos, forward = model.eos_token, model.forward
    ctx = list(prompt)  # grows only, so each pass may see a Prefix of it
    n = len(ctx)
    stop = n + max_tokens
    out: list[str] = []
    sim_cost = 0.0
    while n < stop:
        preds = forward(_prefix(ctx, n))
        if len(preds) != n:
            raise _miscount(len(preds), n)
        sim_cost += _pass_cost(n)
        tok = preds[-1]
        out.append(tok)
        ctx.append(tok)
        n += 1
        if tok == eos:
            break
    emitted = len(out)
    stats = DecodeStats(forward_passes=emitted, tokens_emitted=emitted,
                        ar_fallback_tokens=emitted, sim_cost=sim_cost)
    return DecodeResult(out, stats, truncated=(not out or out[-1] != eos))


def _check_consistency(preds: Sequence[str], ctx: Sequence[str],
                       n_prompt: int) -> None:
    # Predictions from the first emitted token on must reproduce the output,
    # or the backend is not deterministic+causal (lo >= 0: both decoders
    # refuse an empty prompt).  One slice compare; a failure walks positions.
    lo = n_prompt - 1
    if preds[lo:len(ctx) - 1] == ctx[lo + 1:]:
        return
    for i in range(lo, len(ctx) - 1):
        if preds[i] != ctx[i + 1]:
            raise BackendContractError(
                f"backend re-predicted position {i + 1} as {preds[i]!r} "
                f"but previously emitted {ctx[i + 1]!r}"
            )


def _agreement(preds: Sequence[str], start: int, draft: list[str]) -> int:
    """How many of ``draft``'s first tokens ``preds[start:]`` repeats, read
    in slices of 8, 8, 16, 32... tokens so that the read stops within one
    slice past the first disagreement."""
    k, end = 0, min(_FIRST_READ, len(draft))
    while k < len(draft):
        got = preds[start + k:start + end]
        if got != draft[k:end]:
            return k + longest_matching_prefix(got, draft[k:end])
        k, end = end, min(2 * end, len(draft))
    return k


def accelerated_decode(model: ModelBackend, prompt: Sequence[str],
                       source: DraftSource,
                       limits: DecodeLimits | None = None) -> DecodeResult:
    """Greedy decoding accelerated by the buggy-code draft.

    Output is bit-identical to :func:`ar_decode` with the same model,
    prompt and ``limits.max_tokens``.
    """
    if not prompt:
        raise DegenerateInputError("prompt is empty")
    limits = limits or DecodeLimits()
    eos, cap, forward = model.eos_token, limits.max_tokens, model.forward
    ctx = list(prompt)  # grows only, so greedy steps may see a Prefix of it
    out: list[str] = []
    passes = draft_accepted = corrections = fallback_tokens = 0
    sim_cost = 0.0
    anchor = 0
    bridge = _BRIDGE

    while len(out) < cap and not (out and out[-1] == eos):
        draft, anchor = draft_generate(source, out, anchor)
        run = cap - len(out)
        if draft:
            # One forward pass verifies the whole draft against the context:
            # preds[n - 1 + j] is the model's next token after ctx + draft[:j].
            n = len(ctx)
            preds = _forward(model, Extended(Prefix(ctx, n), draft))
            passes += 1
            sim_cost += _pass_cost(n + len(draft))
            _check_consistency(preds, ctx, len(prompt))
            k = _agreement(preds, n - 1, draft)
            # The agreeing prefix plus one correction token: the correction
            # is conditioned on the verified prefix, so it is free progress.
            new = preds[n - 1:n + k]
            if eos in new:
                new = new[:new.index(eos) + 1]
            new = new[:run]
            accepted = min(k, len(new))
            draft_accepted += accepted
            corrections += len(new) - accepted
            anchor += accepted
            out += new
            ctx += new
            if new[-1] == eos or new[-1] in BOUNDARY_TOKENS:
                bridge = _BRIDGE
                continue  # finished, or statement closed: realign immediately
            run = min(run - len(new), bridge)
        # Plain greedy steps.  With a draft they bridge the divergence and
        # stop early at a statement boundary so realignment can kick in;
        # with the draft exhausted they decode the remainder.
        n = len(ctx)
        for _ in range(run):
            preds = forward(_prefix(ctx, n))
            if len(preds) != n:
                raise _miscount(len(preds), n)
            passes += 1
            sim_cost += _pass_cost(n)
            tok = preds[-1]
            out.append(tok)
            ctx.append(tok)
            n += 1
            fallback_tokens += 1
            if tok == eos or (draft and tok in BOUNDARY_TOKENS):
                break
        if draft:
            # A round that accepted nothing and closed no statement means the
            # model is ignoring the draft: bridge twice as far before the
            # next verify pass re-offers it.
            stalled = not k and out[-1] not in BOUNDARY_TOKENS
            bridge = bridge * 2 if stalled else _BRIDGE

    stats = DecodeStats(passes, len(out), draft_accepted, corrections,
                        fallback_tokens, sim_cost)
    return DecodeResult(out, stats, truncated=not (out and out[-1] == eos))


class EfficiencyReport(NamedTuple):
    """Accelerated-vs-greedy efficiency of one program.  ``speedup``,
    ``tokens_per_s`` and ``avg_time`` are in simulated units
    (``DecodeStats.sim_cost``), ``1 + 0.001 * context tokens`` per forward
    pass, not seconds."""

    tokens: int
    forward_passes_ar: int
    forward_passes_acc: int
    step_efficiency: float
    speedup: float
    tokens_per_s: float
    avg_time: float


def compute_metrics(ar: DecodeResult, acc: DecodeResult,
                    time_source: str = "sim") -> EfficiencyReport:
    """Efficiency of the accelerated run relative to the AR baseline.

    Refuses to report when the two runs disagree on a single token.
    ``time_source`` must be ``"sim"``; it stays only for the perfbench
    ``repair`` workload and the acceptance test, which still pass it."""
    if ar.tokens != acc.tokens:
        raise LosslessnessError(
            "accelerated output differs from autoregressive output "
            f"({len(ar.tokens)} vs {len(acc.tokens)} tokens)"
        )
    if time_source != "sim":
        raise ValueError(f"unknown time source {time_source!r}")
    t_ar = max(ar.stats.sim_cost, 1e-12)
    t_acc = max(acc.stats.sim_cost, 1e-12)
    return EfficiencyReport(
        tokens=len(acc.tokens),
        forward_passes_ar=ar.stats.forward_passes,
        forward_passes_acc=acc.stats.forward_passes,
        step_efficiency=ar.stats.forward_passes / max(acc.stats.forward_passes, 1),
        speedup=t_ar / t_acc,
        tokens_per_s=acc.stats.tokens_emitted / t_acc,
        avg_time=t_acc,
    )


def aggregate_reports(reports: Sequence[EfficiencyReport]) -> dict:
    """Corpus roll-up: the mean of per-program ratios, not a ratio of sums."""
    if not reports:
        raise DegenerateInputError("no reports to aggregate")
    n = len(reports)
    # fsum / n is statistics.fmean's own formula
    return {
        "programs": n,
        "mean_step_efficiency": math.fsum(r.step_efficiency for r in reports) / n,
        "mean_speedup": math.fsum(r.speedup for r in reports) / n,
        "mean_tokens_per_s": math.fsum(r.tokens_per_s for r in reports) / n,
        "mean_avg_time": math.fsum(r.avg_time for r in reports) / n,
        "total_tokens": sum(r.tokens for r in reports),
    }
