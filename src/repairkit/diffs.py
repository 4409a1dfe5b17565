"""Statement-level alignment between a buggy file and its fixed version.

``AlignedDiff`` holds the alignment only: the two parsed units, the aligned
pairs, the fixed-side statements they modify and the anchors of deleted
statements.  What the fix means for the rest of the file (which statements
share its variables, calls or block) is the mask's decision; see
``mask.expansion_members``.

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
* The character distance is at least the length difference, which bounds
  the diagonal from below.  A cell of the table skips the substitution cost
  when that bound already reaches the best indel step: the cell then holds
  the indel cost, the same float the min would give.

``levenshtein`` is the exact unit-cost edit distance, computed with the
bit-parallel kernel of Myers (JACM 1999) in the global-distance form given
by Hyyro (2001).  Equal ends are trimmed first, which for unit costs never
changes the distance.  The shorter middle becomes the pattern: each of its
symbols maps to a bit mask of the positions where it occurs, and one
column of the DP table is carried as two vectors of vertical differences
in Python ints.  Each element of the longer side then costs about fifteen
integer operations on ints of the pattern's length, instead of a pass over
the pattern.  Elements are looked up in those masks, so they must be
hashable: the characters of a string, tokens or lines.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .source import SourceUnit, parse

__all__ = [
    "AlignPair",
    "AlignedDiff",
    "levenshtein",
    "align_statements",
    "line_edit_distance",
]


def levenshtein(a: Sequence, b: Sequence) -> int:
    """Edit distance (insert/delete/substitute, unit costs) between sequences.

    ``a`` and ``b`` are strings or sequences of hashable elements (tokens,
    lines).  The distance is exact; see the module docstring for the
    bit-parallel kernel.
    """
    if a == b:
        return 0
    # equal ends never need an edit: run the kernel on the differing middle only
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
    # bit i of peq[y] is set where b[i] == y; b is the pattern, a the text
    peq: dict = {}
    bit = 1
    for y in b:
        peq[y] = peq.get(y, 0) | bit
        bit <<= 1
    mask = bit - 1                 # one bit per pattern position
    last = bit >> 1                # the row of the full pattern
    # pv/mv: positions where the column grows/shrinks by one going down;
    # the first column is 0, 1, 2, ... so every step grows.
    pv, mv, dist = mask, 0, len(b)
    get = peq.get
    for x in a:
        eq = get(x, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)       # bits past the pattern are cut after the shift
        mh = pv & xh
        if ph & last:
            dist += 1
        elif mh & last:
            dist -= 1
        # row 0 of the table is 0, 1, 2, ...: its horizontal step is +1
        ph = ((ph << 1) | 1) & mask
        pv = ((mh << 1) | ~(xv | ph)) & mask
        mv = ph & xv
    return dist


class AlignPair(NamedTuple):
    """One aligned step: op is 'match', 'replace', 'insert' or 'delete'.

    ``buggy`` / ``fixed`` are statement indices into the respective units;
    the side an insert/delete lacks is None.
    """

    op: str
    buggy: int | None
    fixed: int | None


class AlignedDiff(NamedTuple):
    buggy: SourceUnit
    fixed: SourceUnit
    pairs: tuple[AlignPair, ...]
    modified: tuple[int, ...]          # fixed-side statements touched by replace/insert
    deletion_anchors: dict[int, tuple[int, ...]]  # fixed stmt -> deleted buggy stmts

    @property
    def identical(self) -> bool:
        return all(p.op == "match" for p in self.pairs)


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
    b_mid = b[p:m]
    b_lens = [len(y) for y in b_mid]
    for i in range(1, rows + 1):
        prev_row = cost[-1]
        left = float(i)
        row = [left]
        x = a[p + i - 1]
        len_x = len(x)
        for d, up, y, len_y in zip(prev_row, prev_row[1:], b_mid, b_lens):
            # min(min(up, left) + 1.0, d + the substitution cost of y for x)
            indel = (left if left < up else up) + 1.0
            denom = (len_x if len_x > len_y else len_y) or 1
            if d + abs(len_x - len_y) / denom >= indel:
                left = indel
            else:
                diag = d + 0.0 if x == y else d + levenshtein(x, y) / denom
                left = indel if indel < diag else diag
            row.append(left)
        cost.append(row)

    # traceback, preferring diagonal steps for a deterministic alignment
    pairs: list[AlignPair] = []
    i, j = rows, cols
    while i > 0 and j > 0:
        x, y = a[p + i - 1], b[p + j - 1]
        diag = cost[i - 1][j - 1]
        if x != y:
            diag += levenshtein(x, y) / max(len(x), len(y), 1)
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
    if isinstance(buggy, str):
        buggy = parse(buggy)
    if isinstance(fixed, str):
        fixed = parse(fixed)

    pairs = _align_pairs([s.normalized for s in buggy.statements],
                         [s.normalized for s in fixed.statements])

    modified = tuple(
        p.fixed for p in pairs if p.op in ("replace", "insert") and p.fixed is not None
    )

    # a deleted statement anchors at the next fixed-side statement, else at
    # the last one: hold deletions until a fixed-side statement comes
    anchors: dict[int, list[int]] = {}
    held: list[int] = []
    for p in pairs:
        if p.fixed is None:
            held.append(p.buggy)
        elif held:
            anchors.setdefault(p.fixed, []).extend(held)
            held = []
    if held and len(held) < len(pairs):
        # the trailing deletions: pairs[-len(held) - 1] is the last fixed-side one
        anchors.setdefault(pairs[-len(held) - 1].fixed, []).extend(held)

    return AlignedDiff(
        buggy=buggy,
        fixed=fixed,
        pairs=tuple(pairs),
        modified=modified,
        deletion_anchors={k: tuple(v) for k, v in anchors.items()},
    )


def line_edit_distance(buggy_text: str, fixed_text: str) -> int:
    """Levenshtein distance over the sequences of whitespace-trimmed lines."""
    a = [ln.strip() for ln in buggy_text.splitlines()]
    b = [ln.strip() for ln in fixed_text.splitlines()]
    return levenshtein(a, b)
