"""Statement-level alignment between a buggy file and its fixed version.

The alignment is an edit-distance DP over statement sequences: substituting
one statement for another costs the character-level Levenshtein distance of
their normalized texts scaled to [0, 1], insertions and deletions cost 1.
Statements whose normalized texts are equal align as matches, so
whitespace-only edits never count as modifications.  Of the cost-optimal
alignments, the one returned is the full table's traceback from the end that
prefers a diagonal step, then a deletion, then an insertion.

Repair pairs differ in a few statements, so the full table is never built;
the shortcuts below return exactly the pairs it would:

* Equal statements at the end are trimmed.  The traceback starts there and
  takes each as a zero-cost diagonal step.
* Equal statements at the start are trimmed and the DP runs on the middle.
  Its table equals that corner of the full one, whose first row and column
  are 0, 1, 2, ... as well.  Where the traceback leaves the middle along an
  edge with deletions (or insertions) pending, ``cost[i][j] == |i - j|``
  in the full table because the prefixes are equal.  There its choices
  reduce to a walk: match equal statements, else delete while ``i > j`` and
  insert while ``j > i``.  A plain trim would instead match the prefix
  first and put those edits on different statements.
* A cell skips the substitution cost when the length difference of the two
  statements alone makes the diagonal worse than the best indel step (or,
  in the traceback, than the cell's value) by more than 1e-9.  Such a
  diagonal can change neither a min nor a tie test at 1e-12.

``levenshtein`` likewise trims equal ends before its DP, which for unit
costs never changes the distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .source import CodeFacts, SourceUnit, parse

__all__ = [
    "AlignPair",
    "AlignedDiff",
    "levenshtein",
    "align_statements",
    "line_edit_distance",
]


def levenshtein(a: Sequence, b: Sequence) -> int:
    """Edit distance (insert/delete/substitute, unit costs) between sequences."""
    if a == b:
        return 0
    # equal ends never need an edit: run the DP on the differing middle only
    lo, end_a, end_b = 0, len(a), len(b)
    while lo < end_a and lo < end_b and a[lo] == b[lo]:
        lo += 1
    while end_a > lo and end_b > lo and a[end_a - 1] == b[end_b - 1]:
        end_a -= 1
        end_b -= 1
    a, b = a[lo:end_a], b[lo:end_b]
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        cur = [i]
        append = cur.append
        for j, y in enumerate(b, 1):
            append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y)))
        prev = cur
    return prev[-1]


@lru_cache(maxsize=65536)
def _cached_char_distance(a: str, b: str) -> int:
    return levenshtein(a, b)


def _substitution_cost(a: str, b: str) -> float:
    if a == b:
        return 0.0
    denom = max(len(a), len(b), 1)
    return _cached_char_distance(a, b) / denom


@dataclass(frozen=True)
class AlignPair:
    """One aligned step: op is 'match', 'replace', 'insert' or 'delete'.

    ``buggy`` / ``fixed`` are statement indices into the respective units;
    the side an insert/delete lacks is None.
    """

    op: str
    buggy: int | None
    fixed: int | None


@dataclass(frozen=True)
class AlignedDiff:
    buggy: SourceUnit
    fixed: SourceUnit
    pairs: tuple[AlignPair, ...]
    modified: tuple[int, ...]          # fixed-side statements touched by replace/insert
    modified_vars: frozenset[str]
    modified_calls: frozenset[str]
    deletion_anchors: dict[int, tuple[int, ...]]  # fixed stmt -> deleted buggy stmts
    facts: CodeFacts                   # extract_facts(fixed)

    @property
    def identical(self) -> bool:
        return all(p.op == "match" for p in self.pairs)


def _diagonal(d: float, x: str, y: str, bound: float) -> float:
    """``d`` plus the cost of substituting ``y`` for ``x``, or inf when that
    provably exceeds ``bound`` by more than 1e-9.

    The character distance is at least the length difference, so when
    ``|len(x) - len(y)| / denom`` alone passes ``bound - d`` the Levenshtein
    call cannot change a min against ``bound`` or a tie test at 1e-12.
    """
    denom = max(len(x), len(y), 1)
    if abs(len(x) - len(y)) > int((bound - d + 1e-9) * denom):
        return math.inf
    return d + _substitution_cost(x, y)


def _align_pairs(a: list[str], b: list[str]) -> list[AlignPair]:
    n, m = len(a), len(b)
    suffix = 0
    while suffix < n and suffix < m and a[n - 1 - suffix] == b[m - 1 - suffix]:
        suffix += 1
    n -= suffix
    m -= suffix
    p = 0
    while p < n and p < m and a[p] == b[p]:
        p += 1

    # cost[i][j]: min cost aligning a[:p + i] with b[:p + j]
    rows, cols = n - p, m - p
    cost = [[float(j) for j in range(cols + 1)]]
    for i in range(1, rows + 1):
        prev_row = cost[-1]
        row = [float(i)]
        x = a[p + i - 1]
        for j in range(1, cols + 1):
            indel = min(prev_row[j], row[j - 1]) + 1.0
            row.append(min(_diagonal(prev_row[j - 1], x, b[p + j - 1], indel), indel))
        cost.append(row)

    # traceback, preferring diagonal steps for a deterministic alignment
    pairs: list[AlignPair] = []
    i, j = rows, cols
    while i > 0 and j > 0:
        x, y = a[p + i - 1], b[p + j - 1]
        diag = _diagonal(cost[i - 1][j - 1], x, y, cost[i][j])
        if abs(cost[i][j] - diag) < 1e-12:
            op = "match" if x == y else "replace"
            pairs.append(AlignPair(op, p + i - 1, p + j - 1))
            i -= 1
            j -= 1
        elif abs(cost[i][j] - (cost[i - 1][j] + 1.0)) < 1e-12:
            pairs.append(AlignPair("delete", p + i - 1, None))
            i -= 1
        else:
            pairs.append(AlignPair("insert", None, p + j - 1))
            j -= 1
    # Where the full table has min(i, j) <= p its cost is exactly |i - j|,
    # because a[:p] == b[:p]; its traceback there reduces to this walk.
    i += p
    j += p
    while i > 0 or j > 0:
        if i > 0 and j > 0 and a[i - 1] == b[j - 1]:
            pairs.append(AlignPair("match", i - 1, j - 1))
            i -= 1
            j -= 1
        elif i > j:
            pairs.append(AlignPair("delete", i - 1, None))
            i -= 1
        else:
            pairs.append(AlignPair("insert", None, j - 1))
            j -= 1
    pairs.reverse()
    pairs.extend(AlignPair("match", n + k, m + k) for k in range(suffix))
    return pairs


def align_statements(buggy: SourceUnit | str, fixed: SourceUnit | str) -> AlignedDiff:
    # Looked up at call time because perfbench's tracer wraps
    # repairkit.source.extract_facts; a module-level binding here would
    # bypass that wrap and drop source.facts_calls from traced corpus runs.
    from .source import extract_facts

    if isinstance(buggy, str):
        buggy = parse(buggy)
    if isinstance(fixed, str):
        fixed = parse(fixed)

    pairs = _align_pairs([s.normalized for s in buggy.statements],
                         [s.normalized for s in fixed.statements])

    modified = tuple(
        p.fixed for p in pairs if p.op in ("replace", "insert") and p.fixed is not None
    )

    facts = extract_facts(fixed)
    mod_vars: set[str] = set()
    mod_calls: set[str] = set()
    for idx in modified:
        mod_vars |= facts.variables_by_statement.get(idx, frozenset())
        mod_calls |= facts.calls_by_statement.get(idx, frozenset())

    anchors: dict[int, list[int]] = {}
    for pos, p in enumerate(pairs):
        if p.op != "delete" or p.buggy is None:
            continue
        anchor = None
        for q in pairs[pos + 1:]:
            if q.fixed is not None:
                anchor = q.fixed
                break
        if anchor is None:
            for q in reversed(pairs[:pos]):
                if q.fixed is not None:
                    anchor = q.fixed
                    break
        if anchor is not None:
            anchors.setdefault(anchor, []).append(p.buggy)

    return AlignedDiff(
        buggy=buggy,
        fixed=fixed,
        pairs=tuple(pairs),
        modified=modified,
        modified_vars=frozenset(mod_vars),
        modified_calls=frozenset(mod_calls),
        deletion_anchors={k: tuple(v) for k, v in anchors.items()},
        facts=facts,
    )


def line_edit_distance(buggy_text: str, fixed_text: str) -> int:
    """Levenshtein distance over the sequences of whitespace-trimmed lines."""
    a = [ln.strip() for ln in buggy_text.splitlines()]
    b = [ln.strip() for ln in fixed_text.splitlines()]
    return levenshtein(a, b)
