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
``M4`` all three (``STRATEGIES``).  Under ``M3`` the statements neither
touched nor expanded still receive their raw similarity mass so every
weight stays positive.  The final mask is normalized to sum to 1.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import NamedTuple, Sequence

from .diffs import AlignedDiff, align_statements, levenshtein
from .errors import Checked, DegenerateInputError
from .source import SourceUnit, extract_facts, parse
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

# each strategy's steps after step 1: (expand to related statements, pad the rest)
STRATEGIES = {"M1": (False, False), "M2": (False, True),
              "M3": (True, False), "M4": (True, True)}
GRANULARITIES = ("char", "token")
AGGREGATIONS = ("floor", "cap")  # clamp the summed similarity: max(1, s) or min(1, s)


class _MaskConfig(NamedTuple):
    strategy: str = "M4"
    sigma: float = 0.6
    rng_seed: int = 0
    dist_granularity: str = "char"
    expansion_aggregation: str = "floor"


class MaskConfig(Checked, _MaskConfig):
    __slots__ = ()

    def _check(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if not 0.0 < self.sigma <= 1.0:
            raise ValueError("sigma must be in (0, 1]")
        if self.dist_granularity not in GRANULARITIES:
            raise ValueError(f"unknown granularity {self.dist_granularity!r}")
        if self.expansion_aggregation not in AGGREGATIONS:
            raise ValueError(f"unknown aggregation {self.expansion_aggregation!r}")


class MaskVector(NamedTuple):
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


def statement_distance(e: str, m: str, cfg: MaskConfig | None = None) -> int:
    """Edit distance of two statement texts, by character or by token."""
    cfg = cfg or MaskConfig()
    if cfg.dist_granularity == "token":
        return levenshtein(_TOKEN_RE.findall(e), _TOKEN_RE.findall(m))
    return levenshtein(e, m)


def similarity(e: str, m: str, cfg: MaskConfig | None = None) -> float:
    return similarity_from_distance(statement_distance(e, m, cfg))


def _relatedness(e: str, sources: Sequence[str], cfg: MaskConfig) -> float:
    # a repeated source is measured once and summed as often as it appears
    sims = {s: similarity(e, s, cfg) for s in dict.fromkeys(sources)}
    return sum(sims[s] for s in sources)


def _clamp(total: float, cfg: MaskConfig) -> float:
    if cfg.expansion_aggregation == "cap":
        return min(1.0, total)
    return max(1.0, total)


def expansion_weight(e: str, sources: Sequence[str],
                     cfg: MaskConfig | None = None) -> float:
    """Aggregate similarity of ``e`` against every modified statement."""
    cfg = cfg or MaskConfig()
    return _clamp(_relatedness(e, sources, cfg), cfg)


def _modification_sources(diff: AlignedDiff) -> list[str]:
    sources = [diff.fixed.statements[i].normalized for i in diff.modified]
    for deleted in diff.deletion_anchors.values():
        sources.extend(diff.buggy.statements[d].normalized for d in deleted)
    return sources


def expansion_members(diff: AlignedDiff) -> set[int]:
    """Fixed-side statements the mask expands onto (step 2 membership).

    Each deletion's anchor, and for the modified statements, the statements
    that assign their variables, the definitions of the functions they call
    and every statement of their blocks; the modified statements themselves
    are left out.  Facts come from ``diff.fixed``, and only when the fix
    modified a statement.
    """
    stmts = diff.fixed.statements
    touched = set(diff.modified)
    members = set(diff.deletion_anchors)
    if touched:
        facts = extract_facts(diff.fixed)
        for idx in touched:
            for var in facts.variables_by_statement[idx]:
                members |= facts.assignments.get(var, frozenset())
            for fn in facts.calls_by_statement[idx]:
                if fn in facts.definitions:
                    lo, hi = facts.definitions[fn]
                    members.update(range(lo, hi + 1))
        blocks = {stmts[idx].block_id for idx in touched}
        members.update(s.index for s in stmts if s.block_id in blocks)
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

    flags: list[str] = []
    if buggy.degraded or fixed.degraded:
        flags.append("degraded_parse")
    if diff.identical:
        flags.append("no_modification")
    if not fixed.statements:
        flags.append("no_fixed_statements")

    sources = _modification_sources(diff)
    expand, pad = STRATEGIES[cfg.strategy]
    expand = expand and bool(sources)
    modified = set(diff.modified)
    members = expansion_members(diff) if expand else set()

    # a statement text's relatedness to the sources, measured once per build
    related: dict[str, float] = {}

    def relatedness(text: str) -> float:
        total = related.get(text)
        if total is None:
            total = related[text] = _relatedness(text, sources, cfg)
        return total

    # each statement's role, in order of precedence, and its raw weight
    raw: list[float] = []
    roles: list[str] = []
    for idx, stmt in enumerate(fixed.statements):
        if idx in modified:
            role, weight = "modified", 1.0
        elif idx in members:
            role, weight = "expanded", _clamp(relatedness(stmt.normalized), cfg)
        elif pad:
            role, weight = "padding", _padding_value(cfg.rng_seed, idx, cfg.sigma)
        elif expand:
            role, weight = "relatedness", relatedness(stmt.normalized)
        else:
            role, weight = "zero", 0.0
        roles.append(role)
        raw.append(weight)

    total = sum(raw)
    normalized: tuple[float, ...] | None = None
    token_k: tuple[float, ...] | None = None
    if total > 0.0:
        normalized = tuple(w / total for w in raw)
        token_k = broadcast_to_tokens(normalized, fixed)
    else:
        flags.append("degenerate")

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


def broadcast_to_tokens(k: Sequence[float], fixed: SourceUnit) -> tuple[float, ...]:
    """Spread the statement weights ``k`` of ``fixed`` over its tokens.

    Each statement's weight is split equally among its code tokens; comment
    tokens get the padding floor.  The result is renormalized to sum to 1.
    """
    if len(k) != len(fixed.statements):
        raise ValueError(
            f"mask length {len(k)} != statement count {len(fixed.statements)}"
        )

    # a token has no statement exactly when it is a comment
    counts: dict[int, int] = {}
    for tok in fixed.tokens:
        if tok.statement is not None:
            counts[tok.statement] = counts.get(tok.statement, 0) + 1

    weights = [PADDING_FLOOR if tok.statement is None
               else k[tok.statement] / counts[tok.statement] for tok in fixed.tokens]
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
