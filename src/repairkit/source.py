"""Statement-level model of C source files.

Splits a source file into a flat sequence of statements (the unit that
diffing, weighting and draft alignment all operate on), tokenizes it, and
extracts the light static facts the mask builder needs: which identifiers a
statement mentions, which functions it calls, where functions are defined
and which statements assign to which variables.

The segmentation is a scanner, not a grammar: statement boundaries are
``;``, ``{``, ``}``, the end of a preprocessor line, and the closing
parenthesis of a control header.  String/char literals and comments are
honoured so punctuation inside them never splits a statement.  Anything the
scanner cannot make sense of falls back to line-based segmentation for that
region and the unit is flagged ``degraded``.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Mapping, NamedTuple

__all__ = [
    "Token",
    "Statement",
    "SourceUnit",
    "CodeFacts",
    "parse",
    "extract_facts",
    "same_block_statements",
]

ROOT_BLOCK = 0

# Keywords that open a parenthesised control header; the header ends at the
# matching close paren ("if (x)" is one statement, its body another).
_CONTROL_PAREN = {"if", "while", "for", "switch"}

_CONTROL_WORDS = {"if", "else", "while", "for", "switch", "do", "case", "default"}

_TYPE_WORDS = {
    "void", "char", "short", "int", "long", "float", "double", "signed",
    "unsigned", "struct", "union", "enum", "const", "static", "extern",
    "register", "volatile", "typedef", "inline", "_Bool",
}

KEYWORDS = _CONTROL_WORDS | _TYPE_WORDS | {
    "auto", "break", "continue", "goto", "return", "sizeof", "restrict",
    "_Complex", "_Imaginary",
}

_ASSIGN_OPS = {
    "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=",
}

_TOKEN_RE = re.compile(
    r"""
      [A-Za-z_]\w*
    | \d+(?:\.\d*)?(?:[eE][+-]?\d+)?[uUlLfF]*
    | \.\d+(?:[eE][+-]?\d+)?[fFlL]*
    | "(?:\\.|[^"\\\n])*"?
    | '(?:\\.|[^'\\\n])*'?
    | <<=|>>=|\.\.\.
    | ->|\+\+|--|<<|>>|<=|>=|==|!=|&&|\|\||[+\-*/%&|^!<>=]=
    | [^\s]
    """,
    re.VERBOSE,
)

_IDENT_RE = re.compile(r"[A-Za-z_]\w*")
_WS_RE = re.compile(r"\s+")
_DECL_RE = re.compile(r"[A-Za-z_]\w*\s*[*\s]\s*\**\s*[A-Za-z_]\w*")
_CALL_RE = re.compile(r"[A-Za-z_]\w*\s*\(")

# The scanner takes a run of blanks, or a run of characters outside _BLANKS
# and _ROLES (which only extend the open statement), in one step.  Blanks are
# spelled out rather than ``\s``, which would also take ``\xa0``, ``\x85``,
# ``\x1c``-``\x1f`` and ``\u2028``: the scanner treats those as significant.
_BLANKS = " \t\r\f\v"
_ROLES = "\n/\\\"'#();{}="
_BLANK_RUN = re.compile(f"[{re.escape(_BLANKS)}]+")
_PLAIN_RUN = re.compile(f"[^{re.escape(_BLANKS + _ROLES)}]+")


class Token(NamedTuple):
    """One lexical token; ``statement`` is the owning statement index.

    Comment tokens carry ``statement=None`` — they sit between or inside
    statement spans but belong to none of them.
    """

    start: int
    end: int
    text: str
    is_comment: bool = False
    statement: int | None = None


class Statement(NamedTuple):
    index: int
    start: int
    end: int
    text: str
    normalized: str
    kind: str
    block_id: int


@dataclass(frozen=True)
class SourceUnit:
    text: str
    statements: tuple[Statement, ...]
    tokens: tuple[Token, ...]
    block_parent: Mapping[int, int | None]
    degraded: bool = False

    def code_tokens(self) -> list[Token]:
        """Non-comment tokens."""
        return [t for t in self.tokens if not t.is_comment]

    def token_texts(self) -> list[str]:
        return [t.text for t in self.code_tokens()]


@dataclass
class CodeFacts:
    """Per-statement identifier facts, all keyed by statement index."""

    variables_by_statement: dict[int, frozenset[str]] = field(default_factory=dict)
    calls_by_statement: dict[int, frozenset[str]] = field(default_factory=dict)
    definitions: dict[str, tuple[int, int]] = field(default_factory=dict)
    assignments: dict[str, frozenset[int]] = field(default_factory=dict)


class _Scanner:
    """Single pass over the text producing statement spans and comment spans."""

    def __init__(self, text: str):
        self.text = text
        self.n = len(text)
        self.spans: list[tuple[int, int, int]] = []  # (start, end, block_id)
        self.comments: list[tuple[int, int]] = []
        self.degraded = False
        self.block_parent: dict[int, int | None] = {ROOT_BLOCK: None}
        self._stack = [ROOT_BLOCK]
        self._next_block = ROOT_BLOCK + 1

    # -- helpers ---------------------------------------------------------

    def _skip_line_comment(self, i: int) -> int:
        j = self.text.find("\n", i)
        if j == -1:
            j = self.n
        self.comments.append((i, j))
        return j

    def _skip_block_comment(self, i: int) -> int:
        j = self.text.find("*/", i + 2)
        if j == -1:
            self.comments.append((i, self.n))
            self.degraded = True
            return self.n
        self.comments.append((i, j + 2))
        return j + 2

    def _peek_code(self, i: int) -> str | None:
        """Next significant character at or after ``i`` (skips ws/comments)."""
        text, n = self.text, self.n
        while i < n:
            c = text[i]
            if c in " \t\r\n\f\v":
                i += 1
            elif c == "/" and text.startswith("//", i):
                j = text.find("\n", i)
                i = n if j == -1 else j
            elif c == "/" and text.startswith("/*", i):
                j = text.find("*/", i + 2)
                i = n if j == -1 else j + 2
            else:
                return c
        return None

    def _open_block(self) -> int:
        bid = self._next_block
        self._next_block += 1
        self.block_parent[bid] = self._stack[-1]
        self._stack.append(bid)
        return bid

    def _close_block(self) -> None:
        if len(self._stack) > 1:
            self._stack.pop()
        else:
            self.degraded = True

    # -- main loop -------------------------------------------------------

    def run(self) -> None:
        text, n = self.text, self.n
        blank_run, plain_run = _BLANK_RUN.match, _PLAIN_RUN.match
        i = 0
        start: int | None = None   # first significant byte of the open statement
        last_sig = 0               # one past the last significant byte
        paren = 0
        init_brace = 0             # brace depth inside an initializer
        saw_assign = False
        in_pp = False

        def close(end: int) -> None:
            nonlocal start, paren, init_brace, saw_assign, in_pp
            if start is not None and end > start:
                self.spans.append((start, end, self._stack[-1]))
            start = None
            paren = 0
            init_brace = 0
            saw_assign = False
            in_pp = False

        def mark(pos: int) -> None:
            nonlocal start, last_sig
            if start is None:
                start = pos
            last_sig = pos + 1

        while i < n:
            c = text[i]

            if c in _BLANKS:
                i = blank_run(text, i).end()
                continue

            if c not in _ROLES:
                # a run of characters that only extend the open statement
                if start is None:
                    start = i
                i = last_sig = plain_run(text, i).end()
                continue

            if c == "\n":
                if in_pp:
                    close(last_sig)
                i += 1
                continue

            if c == "/" and text.startswith("//", i):
                i = self._skip_line_comment(i)
                continue
            if c == "/" and text.startswith("/*", i):
                i = self._skip_block_comment(i)
                continue

            if c == "\\" and in_pp:
                mark(i)
                # a line continuation, LF or CRLF, keeps the directive open
                if text.startswith("\\\n", i):
                    i += 2
                elif text.startswith("\\\r\n", i):
                    i += 3
                else:
                    i += 1
                continue

            if c in "\"'":
                quote = c
                mark(i)
                j = i + 1
                closed = False
                while j < n:
                    d = text[j]
                    if d == "\\" and j + 1 < n:
                        j += 2
                        continue
                    if d == quote:
                        closed = True
                        break
                    if d == "\n":
                        break
                    j += 1
                if closed:
                    mark(j)
                    i = j + 1
                    continue
                # Unterminated literal: close the statement at the line end.
                self.degraded = True
                end = min(j, n)
                mark(end - 1) if end > i else None
                close(last_sig)
                i = end
                continue

            if c == "#" and start is None:
                mark(i)
                in_pp = True
                i += 1
                continue

            if in_pp:
                mark(i)
                i += 1
                continue

            if c == "(":
                mark(i)
                paren += 1
                i += 1
                continue

            if c == ")":
                mark(i)
                if paren > 0:
                    paren -= 1
                i += 1
                if paren == 0 and start is not None:
                    words = _IDENT_RE.findall(text[start:i], 0)
                    head = [w for w in words[:2]]
                    is_control = bool(head) and (
                        head[0] in _CONTROL_PAREN
                        or (head[0] == "else" and len(head) > 1 and head[1] in _CONTROL_PAREN)
                    )
                    if is_control or self._peek_code(i) == "{":
                        close(i)
                continue

            if c == ";" and paren == 0 and init_brace == 0:
                mark(i)
                close(i + 1)
                i += 1
                continue

            if c == "{" and paren == 0:
                if saw_assign:
                    init_brace += 1
                    mark(i)
                    i += 1
                    continue
                close(last_sig)
                self.spans.append((i, i + 1, self._stack[-1]))
                self._open_block()
                i += 1
                continue

            if c == "}" and paren == 0:
                if init_brace > 0:
                    init_brace -= 1
                    mark(i)
                    i += 1
                    continue
                close(last_sig)
                self._close_block()
                self.spans.append((i, i + 1, self._stack[-1]))
                i += 1
                continue

            if c == "=" and paren == 0 and init_brace == 0:
                prev = text[i - 1] if i > 0 else ""
                nxt = text[i + 1] if i + 1 < n else ""
                if nxt != "=" and prev not in "<>!=":
                    saw_assign = True
                mark(i)
                i += 1
                continue

            mark(i)
            i += 1

        if start is not None:
            # Unterminated trailing region: one statement per line.
            self.degraded = True
            self._fallback_lines(start, last_sig)
        if len(self._stack) > 1:
            self.degraded = True

    def _fallback_lines(self, start: int, end: int) -> None:
        region = self.text[start:end]
        offset = start
        for line in region.split("\n"):
            lo, hi = 0, len(line)
            while lo < hi and line[lo] in " \t\r\f\v":
                lo += 1
            while hi > lo and line[hi - 1] in " \t\r\f\v":
                hi -= 1
            if hi > lo:
                self.spans.append((offset + lo, offset + hi, self._stack[-1]))
            offset += len(line) + 1


def _normalize_span(text: str, start: int, end: int,
                    comments: list[tuple[int, int]]) -> str:
    """Span text with comments replaced by a space and whitespace collapsed.

    ``comments`` are the sorted comments that overlap [start, end).
    """
    parts = []
    pos = start
    for cs, ce in comments:
        parts.append(text[pos:max(cs, pos)])
        parts.append(" ")
        pos = min(ce, end)
    parts.append(text[pos:end])
    return _WS_RE.sub(" ", "".join(parts)).strip()


def _classify(normalized: str) -> str:
    if not normalized:
        return "other"
    if normalized.startswith("#"):
        return "preprocessor"
    if normalized in ("{", "}"):
        return "brace"
    m = _IDENT_RE.match(normalized)
    first = m.group(0) if m else ""
    if first == "return":
        return "return"
    if first in _CONTROL_WORDS:
        return "control-header"
    if first in _TYPE_WORDS:
        return "declaration"
    if _DECL_RE.match(normalized):
        return "declaration"
    toks = _TOKEN_RE.findall(normalized)
    if any(t in _ASSIGN_OPS or t in ("++", "--") for t in toks):
        return "assignment"
    if _CALL_RE.match(normalized):
        return "call"
    return "other"


def _tokenize_code(text: str, start: int, end: int,
                   comments: list[tuple[int, int]], stmt: int) -> list[Token]:
    """Tokenize the non-comment slices of [start, end).

    ``comments`` are the sorted comments that overlap [start, end).
    """
    pos = start
    segments: list[tuple[int, int]] = []
    for cs, ce in comments:
        if cs > pos:
            segments.append((pos, cs))
        pos = min(ce, end)
    if pos < end:
        segments.append((pos, end))
    return [Token(m.start(), m.end(), m.group(0), False, stmt)
            for lo, hi in segments for m in _TOKEN_RE.finditer(text, lo, hi)]


def parse(text: str) -> SourceUnit:
    scanner = _Scanner(text)
    scanner.run()
    # comments are disjoint, so sorted by start they are sorted by end too
    comments = sorted(scanner.comments)
    comment_ends = [ce for _, ce in comments]

    statements = []
    tokens: list[Token] = []
    for idx, (s, e, block) in enumerate(sorted(scanner.spans)):
        # the comments overlapping [s, e): a run from the first that ends past s
        lo = hi = bisect_right(comment_ends, s)
        while hi < len(comments) and comments[hi][0] < e:
            hi += 1
        inside = comments[lo:hi]
        norm = _normalize_span(text, s, e, inside)
        statements.append(
            Statement(idx, s, e, text[s:e], norm, _classify(norm), block)
        )
        tokens.extend(_tokenize_code(text, s, e, inside, idx))
    if comments:
        # spans are sorted and disjoint: only comments can be out of order
        for cs, ce in comments:
            tokens.append(Token(cs, ce, text[cs:ce], True, None))
        tokens.sort(key=itemgetter(0, 1))

    return SourceUnit(
        text=text,
        statements=tuple(statements),
        tokens=tuple(tokens),
        block_parent=dict(scanner.block_parent),
        degraded=scanner.degraded,
    )


def _statement_token_texts(unit: SourceUnit) -> dict[int, list[str]]:
    by_stmt: dict[int, list[str]] = {s.index: [] for s in unit.statements}
    for tok in unit.tokens:
        if not tok.is_comment and tok.statement is not None:
            by_stmt[tok.statement].append(tok.text)
    return by_stmt


def extract_facts(unit: SourceUnit) -> CodeFacts:
    facts = CodeFacts()
    by_stmt = _statement_token_texts(unit)
    assign_sets: dict[str, set[int]] = {}

    for stmt in unit.statements:
        toks = by_stmt[stmt.index]
        calls: set[str] = set()
        variables: set[str] = set()
        for pos, t in enumerate(toks):
            if not _IDENT_RE.fullmatch(t) or t in KEYWORDS:
                continue
            if pos + 1 < len(toks) and toks[pos + 1] == "(":
                calls.add(t)
            else:
                variables.add(t)
        facts.calls_by_statement[stmt.index] = frozenset(calls)
        facts.variables_by_statement[stmt.index] = frozenset(variables)

        if stmt.kind == "declaration":
            for v in variables:
                assign_sets.setdefault(v, set()).add(stmt.index)
        elif stmt.kind == "assignment":
            for v in _assignment_targets(toks):
                assign_sets.setdefault(v, set()).add(stmt.index)

    facts.assignments = {v: frozenset(s) for v, s in assign_sets.items()}
    facts.definitions = _find_definitions(unit, by_stmt)
    return facts


def _assignment_targets(toks: list[str]) -> set[str]:
    idents_before: set[str] = set()
    for pos, t in enumerate(toks):
        if t in _ASSIGN_OPS:
            return {
                x for x in toks[:pos]
                if _IDENT_RE.fullmatch(x) and x not in KEYWORDS
            }
        if _IDENT_RE.fullmatch(t) and t not in KEYWORDS:
            idents_before.add(t)
    # no plain assignment operator: ++/-- statement
    return idents_before


def _find_definitions(unit: SourceUnit,
                      by_stmt: dict[int, list[str]]) -> dict[str, tuple[int, int]]:
    defs: dict[str, tuple[int, int]] = {}
    stmts = unit.statements
    for stmt in stmts:
        toks = by_stmt[stmt.index]
        if not toks or toks[-1] != ")":
            continue
        if stmt.kind in ("control-header", "brace", "preprocessor"):
            continue
        nxt = stmt.index + 1
        if nxt >= len(stmts) or stmts[nxt].normalized != "{":
            continue
        try:
            first_paren = toks.index("(")
        except ValueError:
            continue
        name = next(
            (t for t in reversed(toks[:first_paren])
             if _IDENT_RE.fullmatch(t) and t not in KEYWORDS),
            None,
        )
        if name is None:
            continue
        depth = 0
        end = nxt
        for j in range(nxt, len(stmts)):
            if stmts[j].normalized == "{":
                depth += 1
            elif stmts[j].normalized == "}":
                depth -= 1
                if depth == 0:
                    end = j
                    break
        else:
            end = len(stmts) - 1
        defs.setdefault(name, (stmt.index, end))
    return defs


def same_block_statements(unit: SourceUnit, stmt: Statement) -> list[Statement]:
    """Other statements living directly in ``stmt``'s control-flow block."""
    return [
        s for s in unit.statements
        if s.block_id == stmt.block_id and s.index != stmt.index
    ]
