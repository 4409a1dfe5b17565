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
region and the unit is flagged ``degraded``.  A run of blanks, a run of plain
characters, a literal, a comment and a directive's line continuation each
take one compiled-pattern step; only the characters that open or close a
statement are taken one at a time.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from operator import itemgetter
from typing import Mapping, NamedTuple

__all__ = [
    "Token",
    "Statement",
    "SourceUnit",
    "CodeFacts",
    "parse",
    "extract_facts",
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
# A string or char literal, which a backslash escapes past any character;
# group 1 is the closing quote, empty when a newline or the end of the text
# comes first.
_LITERAL = {q: re.compile(rf"{q}(?:\\[\s\S]?|[^{q}\\\n])*({q}?)") for q in "\"'"}
# A comment; group 1 is set when a block comment has no "*/" and so runs to
# the end of the text.
_COMMENT = re.compile(r"//[^\n]*|/\*(?:.*?\*/|(.*))", re.DOTALL)
# A backslash in a directive, with the line end (LF or CRLF) it continues over.
_CONTINUATION = re.compile(r"\\(?:\r?\n)?")
# What may sit between a header's ")" and its "{": blanks and newlines (spelled
# out, as for _BLANKS) and comments.
_GAP = re.compile(rf"(?:[ \t\r\n\f\v]+|{_COMMENT.pattern})*", re.DOTALL)
# One line's code in a fallback region: its first to its last character
# outside _BLANKS.
_CODE_CHAR = f"[^{re.escape(_BLANKS)}\\n]"
_LINE_CODE = re.compile(f"{_CODE_CHAR}(?:[^\\n]*{_CODE_CHAR})?")


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


class SourceUnit(NamedTuple):
    text: str
    statements: tuple[Statement, ...]
    tokens: tuple[Token, ...]
    degraded: bool = False

    def code_tokens(self) -> list[Token]:
        """Non-comment tokens."""
        return [t for t in self.tokens if not t.is_comment]

    def token_texts(self) -> list[str]:
        return [t.text for t in self.code_tokens()]


class CodeFacts(NamedTuple):
    """What :func:`extract_facts` finds: each statement's variables and
    calls, each defined function's (header, closing ``}``) statement span,
    and the statements that assign each variable."""

    variables_by_statement: Mapping[int, frozenset[str]]
    calls_by_statement: Mapping[int, frozenset[str]]
    definitions: Mapping[str, tuple[int, int]]
    assignments: Mapping[str, frozenset[int]]


def _scan(text: str) -> tuple[list[tuple[int, int, int]], list[tuple[int, int]], bool]:
    """One pass over the text: the statement spans ``(start, end, block_id)``,
    the comment spans ``(start, end)`` and whether the unit is degraded.

    Both lists are disjoint and in text order, so callers need not sort
    them: a statement's span is emitted when it closes, before the next one
    opens, and the scan skips over each comment as it finds it."""
    n = len(text)
    blank_run, plain_run = _BLANK_RUN.match, _PLAIN_RUN.match
    spans: list[tuple[int, int, int]] = []
    comments: list[tuple[int, int]] = []
    degraded = False
    stack = [ROOT_BLOCK]       # the open blocks' ids, innermost last
    next_block = ROOT_BLOCK + 1
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
            spans.append((start, end, stack[-1]))
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

        if c == "/":
            m = _COMMENT.match(text, i)
            if m:
                comments.append(m.span())
                if m.group(1) is not None:
                    degraded = True
                i = m.end()
                continue

        if c == "\\" and in_pp:
            mark(i)
            i = _CONTINUATION.match(text, i).end()
            continue

        if c in "\"'":
            m = _LITERAL[c].match(text, i)
            if start is None:
                start = i
            i = last_sig = m.end()
            if not m.group(1):
                # Unterminated literal: close the statement at the line end.
                degraded = True
                close(i)
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
                head = _IDENT_RE.findall(text[start:i])[:2]
                is_control = bool(head) and (
                    head[0] in _CONTROL_PAREN
                    or (head[0] == "else" and len(head) > 1 and head[1] in _CONTROL_PAREN)
                )
                if is_control or text.startswith("{", _GAP.match(text, i).end()):
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
            spans.append((i, i + 1, stack[-1]))
            stack.append(next_block)
            next_block += 1
            i += 1
            continue

        if c == "}" and paren == 0:
            if init_brace > 0:
                init_brace -= 1
                mark(i)
                i += 1
                continue
            close(last_sig)
            if len(stack) > 1:
                stack.pop()
            else:
                degraded = True
            spans.append((i, i + 1, stack[-1]))
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
        degraded = True
        spans.extend((m.start(), m.end(), stack[-1])
                     for m in _LINE_CODE.finditer(text, start, last_sig))
    return spans, comments, degraded or len(stack) > 1


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


def parse(text: str) -> SourceUnit:
    spans, comments, degraded = _scan(text)
    # comments are found left to right and are disjoint: sorted by start and end
    comment_ends = [ce for _, ce in comments]

    statements = []
    tokens: list[Token] = []
    for idx, (s, e, block) in enumerate(spans):
        # the code segments: the parts of [s, e) outside the run of comments
        # from the first that ends past s (a comment may run past e)
        segments = []
        pos = s
        k = bisect_right(comment_ends, s)
        while k < len(comments) and comments[k][0] < e:
            cs, ce = comments[k]
            if cs > pos:
                segments.append((pos, cs))
            pos = ce
            k += 1
        if pos < e:
            segments.append((pos, e))
        # a comment counts as a space
        norm = _WS_RE.sub(" ", " ".join(text[lo:hi] for lo, hi in segments)).strip()
        statements.append(
            Statement(idx, s, e, text[s:e], norm, _classify(norm), block)
        )
        tokens.extend(Token(m.start(), m.end(), m.group(0), False, idx)
                      for lo, hi in segments
                      for m in _TOKEN_RE.finditer(text, lo, hi))
    if comments:
        # spans are sorted and disjoint: only comments can be out of order
        for cs, ce in comments:
            tokens.append(Token(cs, ce, text[cs:ce], True, None))
        tokens.sort(key=itemgetter(0, 1))

    return SourceUnit(
        text=text,
        statements=tuple(statements),
        tokens=tuple(tokens),
        degraded=degraded,
    )


def extract_facts(unit: SourceUnit) -> CodeFacts:
    """The facts of ``unit``'s statements, gathered in one loop over them.

    In a statement's code tokens, a non-keyword identifier is a call when
    ``(`` follows it and a variable otherwise.  A declaration assigns its
    variables; an assignment assigns the identifiers before its first
    assignment operator, or all of them when it has none (``i++;``).  A
    statement other than a control header, brace or directive that ends in
    ``)`` and is followed by a ``{`` statement defines the last identifier
    before its first ``(``, if any; the definition runs to the ``}`` that
    brings the brace depth back to zero, or to the last statement.  The
    first definition of a name wins.
    """
    stmts = unit.statements
    n = len(stmts)
    by_stmt: list[list[str]] = [[] for _ in stmts]
    for tok in unit.tokens:
        if tok.statement is not None:
            by_stmt[tok.statement].append(tok.text)
    calls_by_statement: dict[int, frozenset[str]] = {}
    variables_by_statement: dict[int, frozenset[str]] = {}
    definitions: dict[str, tuple[int, int]] = {}
    assign_sets: dict[str, set[int]] = {}

    for stmt, toks in zip(stmts, by_stmt):
        idx, kind = stmt.index, stmt.kind
        calls, variables, targets = set(), set(), set()
        lhs = kind == "assignment"   # still before the first assignment operator
        last = len(toks) - 1
        for pos, t in enumerate(toks):
            if not _IDENT_RE.fullmatch(t) or t in KEYWORDS:
                if lhs and t in _ASSIGN_OPS:
                    lhs = False
                continue
            if lhs:
                targets.add(t)
            if pos < last and toks[pos + 1] == "(":
                calls.add(t)
            else:
                variables.add(t)
        calls_by_statement[idx] = frozenset(calls)
        variables_by_statement[idx] = frozenset(variables)

        if kind == "declaration":
            targets = variables
        for v in targets:
            assign_sets.setdefault(v, set()).add(idx)

        if (last < 0 or toks[last] != ")"
                or kind in ("control-header", "brace", "preprocessor")
                or idx + 1 >= n or stmts[idx + 1].normalized != "{"
                or "(" not in toks):
            continue
        name = next((t for t in reversed(toks[:toks.index("(")])
                     if _IDENT_RE.fullmatch(t) and t not in KEYWORDS), None)
        if name is None or name in definitions:
            continue
        depth = 0
        for end in range(idx + 1, n):   # ends at the last statement if unclosed
            norm = stmts[end].normalized
            depth += (norm == "{") - (norm == "}")
            if depth == 0:
                break
        definitions[name] = (idx, end)

    return CodeFacts(variables_by_statement, calls_by_statement, definitions,
                     {v: frozenset(s) for v, s in assign_sets.items()})
