import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repairkit.source import ROOT_BLOCK, Statement, Token, extract_facts, parse

from conftest import gen_program, perturb_program
from oracles import extract_facts_ref, parse_ref


def texts(code):
    return [s.text for s in parse(code).statements]


def test_minimal_main():
    assert texts("int main(){return 0;}") == ["int main()", "{", "return 0;", "}"]


def test_declaration_and_calls_split_on_semicolons():
    code = "int a = 1; foo(a); a++;"
    assert texts(code) == ["int a = 1;", "foo(a);", "a++;"]


@pytest.mark.parametrize("header", [
    "if (a > 0)",
    "while (a < 10)",
    "for (i = 0; i < n; i++)",
    "switch (a)",
])
def test_control_headers_are_their_own_statements(header):
    code = f"{header} {{ a = 1; }}"
    got = texts(code)
    assert got[0] == header
    assert got[1:] == ["{", "a = 1;", "}"]


def test_for_header_semicolons_stay_inside_the_header():
    # the two semicolons inside for(...) must not end statements
    got = texts("for (i = 0; i < n; i++) x = x + i;")
    assert got == ["for (i = 0; i < n; i++)", "x = x + i;"]


def test_else_if_header():
    code = "if (a) { b = 1; } else if (c) { b = 2; }"
    got = texts(code)
    assert "else if (c)" in got


def test_preprocessor_lines_with_continuation():
    code = "#define MAX(a, b) \\\n    ((a) > (b) ? (a) : (b))\nint x;\n"
    got = texts(code)
    assert got[0].startswith("#define MAX")
    assert "((a) > (b)" in got[0]
    assert got[1] == "int x;"


def test_crlf_continuation_keeps_the_define_whole():
    lf = ("#define ADD(a, b) \\\n    ((a) + (b))\n"
          "int main(void)\n{\n    return ADD(1, 2);\n}\n")
    crlf = lf.replace("\n", "\r\n")
    norms = [s.normalized for s in parse(lf).statements]
    assert norms[:2] == ["#define ADD(a, b) \\ ((a) + (b))", "int main(void)"]
    assert [s.normalized for s in parse(crlf).statements] == norms


def test_strings_and_comments_do_not_break_statements():
    code = 'printf("a;b{c}"); /* x; y */ int z = 1; // trailing;\n'
    got = texts(code)
    assert got == ['printf("a;b{c}");', "int z = 1;"]


def test_initializer_braces_stay_in_the_declaration():
    code = "int a[3] = {1, 2, 3}; foo();"
    assert texts(code) == ["int a[3] = {1, 2, 3};", "foo();"]


def test_unterminated_string_degrades_but_still_covers_text():
    unit = parse('int a = 1;\nprintf("oops\nint b = 2;\n')
    assert unit.degraded


def test_unbalanced_braces_degrade():
    assert parse("int main() { if (x) { y = 1;\n").degraded
    assert not parse("int main() { return 0; }").degraded


def _coverage_spans(code):
    unit = parse(code)
    return unit, [(s.start, s.end) for s in unit.statements]


@settings(max_examples=60)
@given(st.integers(0, 2**32))
def test_every_code_byte_lands_in_exactly_one_statement(seed):
    """Round-trip invariant on generated programs."""
    code = gen_program(random.Random(seed))
    unit, spans = _coverage_spans(code)
    comment_ranges = [(t.start, t.end) for t in unit.tokens if t.is_comment]
    for i, ch in enumerate(code):
        if ch.isspace():
            continue
        if any(s <= i < e for s, e in comment_ranges):
            continue
        owners = sum(1 for s, e in spans if s <= i < e)
        assert owners == 1, f"byte {i} ({ch!r}) owned by {owners} statements"


@settings(max_examples=30)
@given(st.text(alphabet=st.characters(min_codepoint=9, max_codepoint=126),
               max_size=200))
def test_parse_never_crashes_on_arbitrary_text(text):
    unit = parse(text)
    for s in unit.statements:
        assert 0 <= s.start <= s.end <= len(unit.text)


# C-like fragments and the characters that stress the scanner: unterminated
# literals and comments, backslash-newlines (LF and CRLF) inside literals and
# directives, '#' mid-statement, '=' beside comparison operators, initializer
# braces, and characters that \s counts as whitespace but the scanner does not.
_FRAGMENTS = [
    "int a = 1;", "a = b;", "x == y", "i <= n", "a != b", "b >= c", "a += 2;",
    "foo(x, y);", "if (a)", "else if (b)", "for (i = 0; i < n; i++)",
    "while (x)", "return 0;", "int f(void)", "{", "}", "(", ")", ";", "=",
    "==", "<=", "!=", "int v[2] = {1, 2};", "= {", "#include <stdio.h>",
    "#define M(x) \\\n (x)", "#define N 1 \\\r\n + 2", "#", " # ", "\\",
    "\\\n", "\\\r\n", '"', "'", '"a;b{c}"', "'}'", '"x\\\ny"', "'\\\r\n'",
    '"\\"', "/*", "*/", "/* c; */", "// c {\n", "//", "/", "*", "x", "y1",
    "3.5e2f", "->", "...", " ", "  ", "\t", "\n", "\r\n", "\r", "\xa0",
    "\x0b", "\x0c", "\x1c", "\x1d", "\x1f", "\x85", "\u2028",
]


_FRAGMENT_TEXT = st.lists(st.sampled_from(_FRAGMENTS), max_size=40).map("".join)


@settings(max_examples=400)
@given(_FRAGMENT_TEXT)
# unterminated regions, parsed one statement per line
@example("x = 1\nreturn")
@example("int f(void)\n  y\\")
@example("a = b\n\tcall(n)  \r\n")
# what may sit between a header's ")" and its "{"
@example("a = f(x) /* c */ { y; }")
@example("a = f(x) // c\n{ y; }")
@example("a = f(x) /* c")
@example("a = f(x)\xa0{ y; }")
# a literal that ends in a lone backslash; a block comment over a newline; a
# continuation over a bare CR; a "*/" that overlaps its own "/*"
@example('"ab\\')
@example("/* a\n b */ c;")
@example("#define X \\\r")
@example("/*/ x; */ y;")
def test_parse_matches_the_one_character_scanner(text):
    got, want = parse(text), parse_ref(text)
    assert got == want


@settings(max_examples=200)
@given(_FRAGMENT_TEXT)
def test_a_token_has_no_statement_exactly_when_it_is_a_comment(text):
    # extract_facts and broadcast_to_tokens group tokens on this alone
    for tok in parse(text).tokens:
        assert (tok.statement is None) == tok.is_comment


def _program(seed):
    rng = random.Random(seed)
    code = gen_program(rng)
    return perturb_program(rng, code) if seed % 2 else code


# what extract_facts reads beyond the scanner's fragments: calls, ++/--,
# compound and chained assignments, definition headers, and a declarator in
# parentheses whose header has no name
_FACT_FRAGMENTS = _FRAGMENTS + [
    "x++;", "--y;", "a -= b;", "m <<= 2;", "x = f(y) = 2;", "f(a)[i] = 1;",
    "int (*p)(int);", "int (*p)(int)", "int g(int a)", "g(", "return g(x);",
]


@settings(max_examples=400)
@given(st.one_of(st.integers(0, 2**32).map(_program),
                 st.lists(st.sampled_from(_FACT_FRAGMENTS), max_size=40).map("".join)))
# an unclosed call in a definition, then a stray block: the brace walk ends
# the definition at statement 3, not at the end of the file
@example("int f() {\n g(\n}\n{\n}\n")
# a definition whose "{" never closes runs to the last statement
@example("int f() { x = 1; if (x) { y(); }")
@example("x = f(y) = 2; i++; --j; a[i] += b;")
@example("int (*p)(int)\n{ }\nint f(void) /* c */ { g(); }\nint f(int a) { }")
def test_extract_facts_matches_the_three_pass_reference(text):
    unit = parse(text)
    assert extract_facts(unit) == extract_facts_ref(unit)


def test_record_types_are_immutable_hashable_tuples():
    tok = Token(0, 3, "int", False, 0)
    assert repr(tok) == "Token(start=0, end=3, text='int', is_comment=False, statement=0)"
    assert Token._fields == ("start", "end", "text", "is_comment", "statement")
    assert Token(0, 3, "int") == Token(0, 3, "int", False, None)
    assert Statement._fields == ("index", "start", "end", "text", "normalized",
                                 "kind", "block_id")
    stmt = parse("int a;").statements[0]
    assert repr(stmt) == ("Statement(index=0, start=0, end=6, text='int a;', "
                          "normalized='int a;', kind='declaration', block_id=0)")
    for record, field in ((tok, "text"), (stmt, "kind")):
        with pytest.raises(AttributeError):
            setattr(record, field, "x")
        assert hash(record) == hash(type(record)(*record))


def test_blocks_nest_and_braces_belong_outside():
    unit = parse("int main() { if (x) { y = 1; } return 0; }")
    by_text = {s.text: s for s in unit.statements}
    outer_open = [s for s in unit.statements if s.text == "{"][0]
    assert outer_open.block_id == ROOT_BLOCK
    inner = by_text["y = 1;"]
    ret = by_text["return 0;"]
    assert inner.block_id != ret.block_id
    # the function body resumes after the if-body closes
    assert by_text["if (x)"].block_id == ret.block_id


def test_same_block_members():
    unit = parse("int main() { a = 1; b = 2; if (a) { c = 3; } }")
    stmts = {s.text: s for s in unit.statements}
    assert stmts["b = 2;"].block_id == stmts["a = 1;"].block_id
    assert stmts["c = 3;"].block_id != stmts["a = 1;"].block_id


FIB = """\
int fibonacci(int n) {
    if (n <= 1) return n;
    return fibonacci(n - 1) + fibonacci(n - 2);
}
int main() {
    int n = 10;
    printf("%d", fibonacci(n));
    return 0;
}
"""


def test_extract_facts_on_a_recursive_function():
    unit = parse(FIB)
    facts = extract_facts(unit)
    assert "fibonacci" in facts.definitions
    head, tail = facts.definitions["fibonacci"]
    assert unit.statements[head].text.startswith("int fibonacci")
    assert unit.statements[tail].text == "}"
    call_stmt = next(s for s in unit.statements if "printf" in s.text)
    assert "fibonacci" in facts.calls_by_statement[call_stmt.index]
    assert "printf" in facts.calls_by_statement[call_stmt.index]
    assert "n" in facts.variables_by_statement[call_stmt.index]
    decl = next(s for s in unit.statements if s.text == "int n = 10;")
    assert decl.index in facts.assignments["n"]


def test_assignment_targets_only_count_left_side():
    unit = parse("int main() { x = y + 1; y = 2; }")
    facts = extract_facts(unit)
    x_stmt = next(s for s in unit.statements if s.text == "x = y + 1;")
    assert x_stmt.index in facts.assignments["x"]
    # y is only read there, so that statement must not count as assigning y
    assert x_stmt.index not in facts.assignments.get("y", frozenset())
    y_stmt = next(s for s in unit.statements if s.text == "y = 2;")
    assert y_stmt.index in facts.assignments["y"]


def test_statement_kinds():
    unit = parse("#include <x.h>\nint main() { int a = 1; a = 2; foo(); "
                 "if (a) { return 0; } }")
    kinds = {s.text: s.kind for s in unit.statements}
    assert kinds["#include <x.h>"] == "preprocessor"
    assert kinds["int a = 1;"] == "declaration"
    assert kinds["a = 2;"] == "assignment"
    assert kinds["foo();"] == "call"
    assert kinds["if (a)"] == "control-header"
    assert kinds["return 0;"] == "return"
    assert kinds["{"] == "brace"


def test_token_texts_skip_comments():
    unit = parse("a = 1; /* hidden */ b = 2;")
    toks = unit.token_texts()
    assert "hidden" not in " ".join(toks)
    assert toks == ["a", "=", "1", ";", "b", "=", "2", ";"]
