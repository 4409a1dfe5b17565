"""Modification-focused loss masks over the fixed side of a repair pair.

A mask assigns one weight per fixed-side statement.  Construction runs up to
three steps:

1. statements the fix actually touched get weight 1;
2. statements semantically tied to them (assign to a touched variable,
   define a called function, or share the touched statement's control-flow
   block) get a similarity-derived weight;
3. everything else gets a small seeded random padding weight drawn from
   ``[0.05, sigma]``.

Strategy ``M1`` runs step 1 only, ``M2`` steps 1+3, ``M3`` steps 1+2 and
``M4`` all three.  Under ``M3`` the statements neither touched nor expanded
still receive their raw similarity mass so every weight stays positive.
The final mask is normalized to sum to 1.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from typing import Sequence

from .diffs import AlignedDiff, align_statements, levenshtein
from .errors import DegenerateInputError
from .source import (SourceUnit, Statement, extract_facts, parse,
                     same_block_statements)
from .source import _TOKEN_RE  # reuse the lexer for token-granular distances

__all__ = [
    "PADDING_FLOOR",
    "MaskConfig",
    "MaskVector",
    "similarity_from_distance",
    "statement_distance",
    "similarity",
    "expansion_weight",
    "expansion_members",
    "build_mask",
    "broadcast_to_tokens",
    "repair_loss",
]

PADDING_FLOOR = 0.05

STRATEGIES = ("M1", "M2", "M3", "M4")


@dataclass(frozen=True)
class MaskConfig:
    strategy: str = "M4"
    sigma: float = 0.6
    rng_seed: int = 0
    dist_granularity: str = "char"          # or "token"
    expansion_aggregation: str = "floor"    # max(1, sum) — or "cap": min(1, sum)

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if not 0.0 < self.sigma <= 1.0:
            raise ValueError("sigma must be in (0, 1]")
        if self.dist_granularity not in ("char", "token"):
            raise ValueError(f"unknown granularity {self.dist_granularity!r}")
        if self.expansion_aggregation not in ("floor", "cap"):
            raise ValueError(f"unknown aggregation {self.expansion_aggregation!r}")


@dataclass(frozen=True)
class MaskVector:
    strategy: str
    sigma: float
    seed: int
    raw: tuple[float, ...]
    normalized: tuple[float, ...] | None
    token_k: tuple[float, ...] | None
    roles: tuple[str, ...]   # per statement: modified/expanded/relatedness/padding/zero
    flags: tuple[str, ...]

    @property
    def degenerate(self) -> bool:
        return self.normalized is None


def similarity_from_distance(dist: float) -> float:
    """Similarity of two statements at edit distance ``dist``.

    1 / (1 + log(dist) + 1), natural log; a distance of zero maps to 1.
    """
    if dist <= 0:
        return 1.0
    return 1.0 / (2.0 + math.log(dist))


def _stmt_text(s: Statement | str) -> str:
    return s.normalized if isinstance(s, Statement) else s


def statement_distance(e: Statement | str, m: Statement | str,
                       cfg: MaskConfig | None = None) -> int:
    cfg = cfg or MaskConfig()
    a, b = _stmt_text(e), _stmt_text(m)
    if cfg.dist_granularity == "token":
        return levenshtein(_TOKEN_RE.findall(a), _TOKEN_RE.findall(b))
    return levenshtein(a, b)


def similarity(e: Statement | str, m: Statement | str,
               cfg: MaskConfig | None = None) -> float:
    return similarity_from_distance(statement_distance(e, m, cfg))


def _relatedness(e: Statement | str, sources: Sequence[str],
                 cfg: MaskConfig) -> float:
    return sum(similarity(e, s, cfg) for s in sources)


def expansion_weight(e: Statement | str, sources: Sequence[str],
                     cfg: MaskConfig | None = None) -> float:
    """Aggregate similarity of ``e`` against every modified statement."""
    cfg = cfg or MaskConfig()
    total = _relatedness(e, sources, cfg)
    if cfg.expansion_aggregation == "cap":
        return min(1.0, total)
    return max(1.0, total)


def _modification_sources(diff: AlignedDiff) -> list[str]:
    sources = [diff.fixed.statements[i].normalized for i in diff.modified]
    for deleted in diff.deletion_anchors.values():
        sources.extend(diff.buggy.statements[d].normalized for d in deleted)
    return sources


def expansion_members(diff: AlignedDiff) -> set[int]:
    """Fixed-side statements the mask expands onto (step 2 membership).

    The facts are those of ``diff.fixed``, extracted only when the fix
    modified a statement: a deletion alone adds just its anchor.
    """
    unit = diff.fixed
    touched = set(diff.modified)
    members = set(diff.deletion_anchors)
    if touched:
        facts = extract_facts(unit)
        for idx in touched:
            for var in facts.variables_by_statement[idx]:
                members |= facts.assignments.get(var, frozenset())
            for fn in facts.calls_by_statement[idx]:
                if fn in facts.definitions:
                    lo, hi = facts.definitions[fn]
                    members.update(range(lo, hi + 1))
            members.update(s.index for s in
                           same_block_statements(unit, unit.statements[idx]))
    return members - touched


def _padding_value(seed: int, index: int, sigma: float) -> float:
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    rnd = random.Random(int.from_bytes(digest[:8], "big"))
    lo = min(PADDING_FLOOR, sigma)
    return lo + (sigma - lo) * rnd.random()


def build_mask(buggy: SourceUnit | str, fixed: SourceUnit | str,
               cfg: MaskConfig | None = None) -> MaskVector:
    cfg = cfg or MaskConfig()
    if isinstance(buggy, str):
        buggy = parse(buggy)
    if isinstance(fixed, str):
        fixed = parse(fixed)

    diff = align_statements(buggy, fixed)
    n = len(fixed.statements)

    flags: list[str] = []
    if buggy.degraded or fixed.degraded:
        flags.append("degraded_parse")
    if diff.identical:
        flags.append("no_modification")
    if n == 0:
        flags.append("no_fixed_statements")

    raw = [0.0] * n
    roles = ["zero"] * n

    for idx in diff.modified:
        raw[idx] = 1.0
        roles[idx] = "modified"

    sources = _modification_sources(diff)

    if cfg.strategy in ("M3", "M4") and sources:
        for idx in expansion_members(diff):
            raw[idx] = expansion_weight(fixed.statements[idx], sources, cfg)
            roles[idx] = "expanded"

    if cfg.strategy in ("M2", "M4"):
        for idx in range(n):
            if roles[idx] == "zero":
                raw[idx] = _padding_value(cfg.rng_seed, idx, cfg.sigma)
                roles[idx] = "padding"
    elif cfg.strategy == "M3" and sources:
        for idx in range(n):
            if roles[idx] == "zero":
                raw[idx] = _relatedness(fixed.statements[idx], sources, cfg)
                roles[idx] = "relatedness"

    total = sum(raw)
    if total > 0.0:
        normalized: tuple[float, ...] | None = tuple(w / total for w in raw)
    else:
        normalized = None
        flags.append("degenerate")

    token_k = None
    if normalized is not None:
        token_k = broadcast_to_tokens(normalized, fixed)

    return MaskVector(
        strategy=cfg.strategy,
        sigma=cfg.sigma,
        seed=cfg.rng_seed,
        raw=tuple(raw),
        normalized=normalized,
        token_k=token_k,
        roles=tuple(roles),
        flags=tuple(flags),
    )


def broadcast_to_tokens(mask: MaskVector | Sequence[float],
                        fixed: SourceUnit) -> tuple[float, ...]:
    """Spread statement weights over tokens.

    Each statement's weight is split equally among its code tokens; comment
    tokens get the padding floor.  The result is renormalized to sum to 1.
    """
    if isinstance(mask, MaskVector):
        if mask.normalized is None:
            raise DegenerateInputError("mask has no normalized weights")
        k = mask.normalized
    else:
        k = tuple(mask)
    if len(k) != len(fixed.statements):
        raise ValueError(
            f"mask length {len(k)} != statement count {len(fixed.statements)}"
        )

    counts: dict[int, int] = {}
    for tok in fixed.tokens:
        if not tok.is_comment and tok.statement is not None:
            counts[tok.statement] = counts.get(tok.statement, 0) + 1

    weights: list[float] = []
    for tok in fixed.tokens:
        if tok.is_comment or tok.statement is None:
            weights.append(PADDING_FLOOR)
        else:
            weights.append(k[tok.statement] / counts[tok.statement])
    total = sum(weights)
    if total <= 0.0:
        return tuple(weights)
    return tuple(w / total for w in weights)


def repair_loss(per_unit_losses: Sequence[float], mask: MaskVector,
                level: str = "statement") -> float:
    """Mask-weighted total loss: sum of per-unit losses times their weights."""
    if level == "statement":
        k = mask.normalized
    elif level == "token":
        k = mask.token_k
    else:
        raise ValueError(f"unknown loss level {level!r}")
    if k is None:
        raise DegenerateInputError("mask carries no usable weights")
    if len(per_unit_losses) != len(k):
        raise ValueError(
            f"got {len(per_unit_losses)} losses for {len(k)} weights"
        )
    return sum(l * w for l, w in zip(per_unit_losses, k))
