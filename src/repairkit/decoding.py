"""Greedy decoding with and without draft acceleration.

The accelerated decoder treats the buggy file as a draft of the fix: each
iteration realigns the not-yet-consumed tail of the buggy token stream
against the output produced so far, verifies that whole tail with a single
forward pass, accepts the longest prefix that agrees with the model's own
greedy predictions plus one correction token, and bridges disagreements
with a short run of plain autoregressive steps.  The bridge is
``DecodeLimits.fallback_run`` steps at first and doubles after each round
that accepted no draft token and closed no statement, so a model that
ignores the draft pays about log2(T / fallback_run) verify passes for T
tokens; any progress resets it.  Every accepted token is conditioned on an
already-verified prefix, so the output is token-for-token identical to
plain greedy decoding — only the number of forward passes changes.

Backends expose one method: ``forward(tokens)`` returns, for every position
``i``, the greedy next token after ``tokens[:i+1]``.  They must be
deterministic and causal; the verification pass re-checks previously
emitted positions for free and aborts with ``BackendContractError`` when a
backend drifts.  Both decoders also raise it for a pass that returns a
different number of predictions than it was given tokens.
"""

from __future__ import annotations

import statistics
from dataclasses import asdict, dataclass
from time import perf_counter
from typing import Protocol, Sequence

from .errors import BackendContractError, DegenerateInputError, LosslessnessError

__all__ = [
    "BOUNDARY_TOKENS",
    "ModelBackend",
    "CostModel",
    "DEFAULT_COST",
    "DecodeLimits",
    "DecodeStats",
    "DecodeResult",
    "DraftSource",
    "repair_prompt",
    "chunk_token_ranges",
    "longest_matching_prefix",
    "draft_generate",
    "ar_decode",
    "accelerated_decode",
    "probe_backend",
    "EfficiencyReport",
    "compute_metrics",
    "aggregate_reports",
]

# Tokens that close a statement for draft-alignment purposes.
BOUNDARY_TOKENS = frozenset((";", "{", "}"))


class ModelBackend(Protocol):
    eos_token: str
    concurrent_safe: bool

    def forward(self, tokens: Sequence[str]) -> list[str]:
        """Greedy next-token prediction for every prefix of ``tokens``."""
        ...


@dataclass(frozen=True)
class CostModel:
    """Simulated cost of one forward pass: ``base + per_context_token * n``.

    Keeps benchmark reports deterministic and lets context-length effects be
    studied without real model timings.
    """

    base: float = 1.0
    per_context_token: float = 0.001

    def cost(self, context_length: int) -> float:
        return self.base + self.per_context_token * context_length


DEFAULT_COST = CostModel()


@dataclass(frozen=True)
class DecodeLimits:
    """``fallback_run`` is the first greedy bridge after a draft miss; the
    bridge doubles while the model ignores the draft (0 disables it)."""

    max_tokens: int = 4192
    fallback_run: int = 5

    def __post_init__(self) -> None:
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")
        if self.fallback_run < 0:
            raise ValueError("fallback_run must be >= 0")


@dataclass
class DecodeStats:
    forward_passes: int = 0
    tokens_emitted: int = 0
    draft_accepted: int = 0
    corrections: int = 0
    ar_fallback_tokens: int = 0
    wall_time: float = 0.0
    sim_cost: float = 0.0


@dataclass
class DecodeResult:
    tokens: list[str]
    stats: DecodeStats
    truncated: bool = False


def chunk_token_ranges(tokens: Sequence[str]) -> tuple[tuple[int, int], ...]:
    """Split a token stream into statement-ish chunks ending at boundaries."""
    ranges: list[tuple[int, int]] = []
    start = 0
    for i, tok in enumerate(tokens):
        if tok in BOUNDARY_TOKENS:
            ranges.append((start, i + 1))
            start = i + 1
    if start < len(tokens):
        ranges.append((start, len(tokens)))
    return tuple(ranges)


@dataclass(frozen=True)
class DraftSource:
    """The buggy token stream plus its statement chunking."""

    tokens: tuple[str, ...]
    chunks: tuple[tuple[int, int], ...]

    @classmethod
    def from_tokens(cls, tokens: Sequence[str]) -> "DraftSource":
        toks = tuple(tokens)
        return cls(tokens=toks, chunks=chunk_token_ranges(toks))


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


def _forward(model: ModelBackend, tokens: Sequence[str]) -> list[str]:
    """``model.forward(tokens)``, held to one prediction per position."""
    preds = model.forward(tokens)
    if len(preds) != len(tokens):
        raise BackendContractError(
            f"forward returned {len(preds)} predictions for {len(tokens)} tokens"
        )
    return preds


def _dyn_cost(stats: DecodeStats, model_cost: CostModel, n: int) -> None:
    stats.forward_passes += 1
    stats.sim_cost += model_cost.cost(n)


def ar_decode(model: ModelBackend, prompt: Sequence[str],
              max_tokens: int = 4192,
              cost_model: CostModel = DEFAULT_COST) -> DecodeResult:
    """Plain greedy decoding: one forward pass per emitted token."""
    if not prompt:
        raise DegenerateInputError("prompt is empty")
    if max_tokens < 1:
        raise ValueError("max_tokens must be >= 1")
    eos = model.eos_token
    ctx = list(prompt)
    out: list[str] = []
    stats = DecodeStats()
    t0 = perf_counter()
    while len(out) < max_tokens:
        preds = _forward(model, ctx)
        _dyn_cost(stats, cost_model, len(ctx))
        tok = preds[-1]
        out.append(tok)
        ctx.append(tok)
        stats.tokens_emitted += 1
        stats.ar_fallback_tokens += 1
        if tok == eos:
            break
    stats.wall_time = perf_counter() - t0
    return DecodeResult(out, stats, truncated=(not out or out[-1] != eos))


def _check_consistency(preds: Sequence[str], ctx: Sequence[str],
                       n_prompt: int) -> None:
    # Predictions over the already-emitted region must reproduce it exactly;
    # anything else means the backend is not deterministic+causal.  One
    # slice comparison checks it; only a failure walks the positions.
    lo = max(n_prompt - 1, 0)
    if preds[lo:len(ctx) - 1] == ctx[lo + 1:]:
        return
    for i in range(lo, len(ctx) - 1):
        if preds[i] != ctx[i + 1]:
            raise BackendContractError(
                f"backend re-predicted position {i + 1} as {preds[i]!r} "
                f"but previously emitted {ctx[i + 1]!r}"
            )


def accelerated_decode(model: ModelBackend, prompt: Sequence[str],
                       source: DraftSource | Sequence[str],
                       limits: DecodeLimits | None = None,
                       cost_model: CostModel = DEFAULT_COST) -> DecodeResult:
    """Greedy decoding accelerated by the buggy-code draft.

    Output is bit-identical to :func:`ar_decode` with the same model,
    prompt and ``limits.max_tokens``.
    """
    if not prompt:
        raise DegenerateInputError("prompt is empty")
    limits = limits or DecodeLimits()
    if not isinstance(source, DraftSource):
        source = DraftSource.from_tokens(source)
    eos, cap = model.eos_token, limits.max_tokens
    ctx = list(prompt)
    out: list[str] = []
    stats = DecodeStats()
    anchor = 0
    bridge = limits.fallback_run
    t0 = perf_counter()

    while len(out) < cap and not (out and out[-1] == eos):
        draft, anchor = draft_generate(source, out, anchor)
        run = cap - len(out)
        if draft:
            # One forward pass verifies the whole draft against the context:
            # cand[j] is the model's next token after ctx + draft[:j].
            inp = ctx + draft
            preds = _forward(model, inp)
            _dyn_cost(stats, cost_model, len(inp))
            _check_consistency(preds, ctx, len(prompt))
            cand = preds[len(ctx) - 1:]
            k = longest_matching_prefix(cand, draft)
            # The agreeing prefix plus one correction token: the correction
            # is conditioned on the verified prefix, so it is free progress.
            new = cand[:k + 1]
            if eos in new:
                new = new[:new.index(eos) + 1]
            new = new[:run]
            accepted = min(k, len(new))
            stats.draft_accepted += accepted
            stats.corrections += len(new) - accepted
            anchor += accepted
            out += new
            ctx += new
            if new[-1] == eos or new[-1] in BOUNDARY_TOKENS:
                bridge = limits.fallback_run
                continue  # finished, or statement closed: realign immediately
            run = min(run - len(new), bridge)
        # Plain greedy steps.  With a draft they bridge the divergence and
        # stop early at a statement boundary so realignment can kick in;
        # with the draft exhausted they decode the remainder.
        for _ in range(run):
            preds = _forward(model, ctx)
            _dyn_cost(stats, cost_model, len(ctx))
            tok = preds[-1]
            out.append(tok)
            ctx.append(tok)
            stats.ar_fallback_tokens += 1
            if tok == eos or (draft and tok in BOUNDARY_TOKENS):
                break
        if draft:
            # A round that accepted nothing and closed no statement means the
            # model is ignoring the draft: bridge twice as far before the
            # next verify pass re-offers it.
            stalled = not k and out[-1] not in BOUNDARY_TOKENS
            bridge = bridge * 2 if stalled else limits.fallback_run

    stats.tokens_emitted = len(out)
    stats.wall_time = perf_counter() - t0
    return DecodeResult(out, stats, truncated=not (out and out[-1] == eos))


def probe_backend(model: ModelBackend, sample: Sequence[str]) -> None:
    """Cheap determinism/causality probe; raises BackendContractError."""
    sample = list(sample)
    if len(sample) < 2:
        raise ValueError("probe sample needs at least 2 tokens")
    first = _forward(model, sample)
    if model.forward(sample) != first:
        raise BackendContractError("backend is not deterministic")
    for cut in {1, len(sample) // 2, len(sample) - 1}:
        if model.forward(sample[:cut]) != first[:cut]:
            raise BackendContractError(
                f"prediction before position {cut} depends on later tokens"
            )


@dataclass(frozen=True)
class EfficiencyReport:
    tokens: int
    forward_passes_ar: int
    forward_passes_acc: int
    step_efficiency: float
    speedup: float
    tokens_per_s: float
    avg_time: float
    time_source: str = "wall"

    def as_dict(self) -> dict:
        return asdict(self)


def _time_of(result: DecodeResult, source: str) -> float:
    t = result.stats.wall_time if source == "wall" else result.stats.sim_cost
    return max(t, 1e-12)


def compute_metrics(ar: DecodeResult, acc: DecodeResult,
                    time_source: str = "wall") -> EfficiencyReport:
    """Efficiency of the accelerated run relative to the AR baseline.

    Refuses to report when the two runs disagree on a single token."""
    if ar.tokens != acc.tokens:
        raise LosslessnessError(
            "accelerated output differs from autoregressive output "
            f"({len(ar.tokens)} vs {len(acc.tokens)} tokens)"
        )
    if time_source not in ("wall", "sim"):
        raise ValueError(f"unknown time source {time_source!r}")
    t_ar = _time_of(ar, time_source)
    t_acc = _time_of(acc, time_source)
    return EfficiencyReport(
        tokens=len(acc.tokens),
        forward_passes_ar=ar.stats.forward_passes,
        forward_passes_acc=acc.stats.forward_passes,
        step_efficiency=ar.stats.forward_passes / max(acc.stats.forward_passes, 1),
        speedup=t_ar / t_acc,
        tokens_per_s=acc.stats.tokens_emitted / t_acc,
        avg_time=t_acc,
        time_source=time_source,
    )


def aggregate_reports(reports: Sequence[EfficiencyReport]) -> dict:
    """Corpus roll-up: the mean of per-program ratios, not a ratio of sums."""
    if not reports:
        raise DegenerateInputError("no reports to aggregate")
    return {
        "programs": len(reports),
        "mean_step_efficiency": statistics.fmean(r.step_efficiency for r in reports),
        "mean_speedup": statistics.fmean(r.speedup for r in reports),
        "mean_tokens_per_s": statistics.fmean(r.tokens_per_s for r in reports),
        "mean_avg_time": statistics.fmean(r.avg_time for r in reports),
        "total_tokens": sum(r.tokens for r in reports),
    }
