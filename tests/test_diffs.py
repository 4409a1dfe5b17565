import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repairkit.diffs import (AlignPair, align_statements, levenshtein,
                             line_edit_distance)

from conftest import gen_program, perturb_program
from oracles import (align_cost_ref, align_pairs_ref, led_ref, lev_ref, lev_table_ref,
                     lev_tokens_ref)


# ---------------------------------------------------------------------------
# edit distance against the recursive reference

short_text = st.text(alphabet="abcXY(); ", max_size=12)


@given(short_text, short_text)
def test_levenshtein_matches_reference(a, b):
    assert levenshtein(a, b) == lev_ref(a, b)


@given(st.lists(st.sampled_from(["a", "b", ";", "{", "x1"]), max_size=8),
       st.lists(st.sampled_from(["a", "b", ";", "{", "x1"]), max_size=8))
def test_levenshtein_on_token_lists(a, b):
    assert levenshtein(a, b) == lev_tokens_ref(a, b)


@given(short_text, short_text)
def test_levenshtein_symmetry_and_bounds(a, b):
    d = levenshtein(a, b)
    assert d == levenshtein(b, a)
    assert abs(len(a) - len(b)) <= d <= max(len(a), len(b))
    assert (d == 0) == (a == b)


@given(short_text, short_text, short_text, short_text)
def test_levenshtein_with_shared_ends_matches_reference(prefix, suffix, x, y):
    a, b = prefix + x + suffix, prefix + y + suffix
    assert levenshtein(a, b) == lev_ref(a, b)
    assert levenshtein(list(a), list(b)) == lev_ref(a, b)


def test_levenshtein_frozen_examples():
    assert levenshtein("kitten", "sitting") == 3
    assert levenshtein("", "abc") == 3
    assert levenshtein("abc", "abc") == 0
    assert levenshtein("a+b", "a-b") == 1


# ---------------------------------------------------------------------------
# the bit-parallel kernel against the two-row table, on inputs long enough
# (up to 300 elements) to cross the 64- and 128-bit word boundaries

ALPHABETS = {2: "ab", 5: "abcde", 30: "abcdefghijklmnopqrstuvwxyz0123"}
C_TOKENS = ["int", "x", "y", "i", "=", "+", "<", ";", "(", ")", "{", "}", "0", "1", "return"]
C_LINES = ["int x = 0;", "x = x + 1;", "if (x < n) {", "}", "return 0;",
           "while (i < n) {", "i = i + 1;", "printf(\"%d\\n\", x);", "", "// note"]


@st.composite
def sequence_pairs(draw, elements):
    """Two lists of 0-300 elements: unrelated, or the second a few edits
    away from the first so that trimming equal ends matters.

    Lengths are drawn first: left to itself hypothesis keeps lists short.
    """
    def sized():
        n = draw(st.integers(0, 300))
        return draw(st.lists(elements, min_size=n, max_size=n))

    a = sized()
    if draw(st.booleans()):
        return a, sized()
    b = list(a)
    for _ in range(draw(st.integers(0, 6))):
        i = draw(st.integers(0, len(b)))
        op = draw(st.sampled_from(["insert", "delete", "substitute"]))
        if op == "insert":
            b.insert(i, draw(elements))
        elif i < len(b):
            if op == "delete":
                del b[i]
            else:
                b[i] = draw(elements)
    return a, b


@pytest.mark.parametrize("size", sorted(ALPHABETS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_levenshtein_matches_table_on_long_strings(size, data):
    a, b = data.draw(sequence_pairs(st.sampled_from(ALPHABETS[size])))
    a, b = "".join(a), "".join(b)
    assert levenshtein(a, b) == lev_table_ref(a, b)


@settings(max_examples=40, deadline=None)
@given(sequence_pairs(st.sampled_from(C_TOKENS)))
def test_levenshtein_matches_table_on_long_token_lists(pair):
    a, b = pair
    assert levenshtein(a, b) == lev_table_ref(a, b)


@settings(max_examples=40, deadline=None)
@given(sequence_pairs(st.sampled_from(C_LINES + ["  " + ln for ln in C_LINES])))
def test_line_edit_distance_matches_table(pair):
    buggy, fixed = "\n".join(pair[0]), "\n".join(pair[1])
    a = [ln.strip() for ln in buggy.splitlines()]
    b = [ln.strip() for ln in fixed.splitlines()]
    assert line_edit_distance(buggy, fixed) == levenshtein(a, b) == lev_table_ref(a, b)


@pytest.mark.parametrize("shorter", [1, 63, 64, 65, 127, 128, 129])
@pytest.mark.parametrize("extra", [0, 1, 70])
def test_levenshtein_at_word_boundaries(shorter, extra):
    # distinct first and last symbols keep the trim from shortening either side
    rnd = random.Random(shorter * 1000 + extra)
    for alphabet in ALPHABETS.values():
        def framed(first: str, last: str, n: int) -> str:
            body = "".join(rnd.choice(alphabet) for _ in range(n - 2))
            return (first + body + last)[:n]

        a, b = framed("[", "]", shorter + extra), framed("<", ">", shorter)
        assert len(b) == shorter
        assert levenshtein(a, b) == levenshtein(b, a) == lev_table_ref(a, b)


@pytest.mark.parametrize("middle", [1, 64, 65, 200])
def test_levenshtein_when_the_trim_empties_one_side(middle):
    prefix, suffix = "int x = 0;" * 7, "return 0;" * 8
    inserted = ("ab" * middle)[:middle]
    a, b = prefix + suffix, prefix + inserted + suffix
    assert levenshtein(a, b) == levenshtein(b, a) == lev_table_ref(a, b) == middle
    assert levenshtein(list(a), list(b)) == middle


# ---------------------------------------------------------------------------
# statement alignment


def test_identical_files_align_as_matches():
    code = "int main() { return 0; }"
    diff = align_statements(code, code)
    assert diff.identical
    assert diff.modified == ()
    assert diff.deletion_anchors == {}


def test_whitespace_only_differences_are_matches():
    buggy = "int main() {\n    x = 1;\n    return 0;\n}"
    fixed = "int main()  {\nx    =  1;\n  return 0;  \n}"
    diff = align_statements(buggy, fixed)
    assert diff.identical


def test_single_replacement_is_found():
    buggy = "int main() { x = a - b; return 0; }"
    fixed = "int main() { x = a + b; return 0; }"
    diff = align_statements(buggy, fixed)
    assert not diff.identical
    mods = [diff.fixed.statements[i].text for i in diff.modified]
    assert mods == ["x = a + b;"]


def test_align_pair_is_an_immutable_hashable_tuple():
    pair = align_statements("a = 1;", "a = 2;").pairs[0]
    assert pair == AlignPair("replace", 0, 0)
    assert repr(pair) == "AlignPair(op='replace', buggy=0, fixed=0)"
    assert AlignPair._fields == ("op", "buggy", "fixed")
    with pytest.raises(AttributeError):
        pair.op = "match"
    assert hash(pair) == hash(AlignPair("replace", 0, 0))


def test_insertion_marks_the_new_statement():
    buggy = "a = 1; c = 3;"
    fixed = "a = 1; b = 2; c = 3;"
    diff = align_statements(buggy, fixed)
    mods = [diff.fixed.statements[i].text for i in diff.modified]
    assert mods == ["b = 2;"]


def test_deletion_anchors_prefer_the_next_fixed_statement():
    buggy = "a = 1; b = 2; c = 3;"
    fixed = "a = 1; c = 3;"
    diff = align_statements(buggy, fixed)
    assert diff.modified == ()
    # the deleted "b = 2;" anchors onto the following fixed statement "c = 3;"
    (anchor_idx, deleted), = diff.deletion_anchors.items()
    assert diff.fixed.statements[anchor_idx].text == "c = 3;"
    assert [diff.buggy.statements[i].text for i in deleted] == ["b = 2;"]


def test_trailing_deletion_falls_back_to_previous_statement():
    buggy = "a = 1; b = 2;"
    fixed = "a = 1;"
    diff = align_statements(buggy, fixed)
    (anchor_idx, deleted), = diff.deletion_anchors.items()
    assert diff.fixed.statements[anchor_idx].text == "a = 1;"
    assert [diff.buggy.statements[i].text for i in deleted] == ["b = 2;"]


# A changed last statement keeps the common suffix from settling the tie, so
# the second case runs through the prefix trim and its fix-up walk.
tie_tails = pytest.mark.parametrize(
    "last, op", [("c = 3;", "match"), ("c = 4;", "replace")])


@tie_tails
def test_tie_break_keeps_deletions_before_the_repeated_statement(last, op):
    # the full DP deletes the first two statements, not "b = 2; a = 1;"
    diff = align_statements("a = 1; b = 2; a = 1; c = 3;", "a = 1; " + last)
    assert [(p.op, p.buggy, p.fixed) for p in diff.pairs] == [
        ("delete", 0, None), ("delete", 1, None), ("match", 2, 0), (op, 3, 1)]
    assert diff.modified == (() if op == "match" else (1,))
    assert diff.deletion_anchors == {0: (0, 1)}


@tie_tails
def test_tie_break_keeps_insertions_before_the_repeated_statement(last, op):
    diff = align_statements("a = 1; " + last, "a = 1; b = 2; a = 1; c = 3;")
    assert [(p.op, p.buggy, p.fixed) for p in diff.pairs] == [
        ("insert", None, 0), ("insert", None, 1), ("match", 0, 2), (op, 1, 3)]
    assert diff.modified == ((0, 1) if op == "match" else (0, 1, 3))
    assert diff.deletion_anchors == {}


def _pairs_and_ref(buggy, fixed):
    diff = align_statements(buggy, fixed)
    a = [s.normalized for s in diff.buggy.statements]
    b = [s.normalized for s in diff.fixed.statements]
    return [(p.op, p.buggy, p.fixed) for p in diff.pairs], align_pairs_ref(a, b)


repeated_statements = st.lists(
    st.sampled_from(["a = 1;", "b = 2;", "a = 2;", "c = 3;", "a = 1 + b;"]),
    max_size=9).map(" ".join)


@settings(max_examples=300, deadline=None)
@given(repeated_statements, repeated_statements)
def test_alignment_equals_full_dp_on_repeated_statements(buggy, fixed):
    got, ref = _pairs_and_ref(buggy, fixed)
    assert got == ref


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32))
def test_alignment_equals_full_dp_on_generated_programs(seed):
    rng = random.Random(seed)
    buggy = gen_program(rng)
    got, ref = _pairs_and_ref(buggy, perturb_program(rng, buggy))
    assert got == ref


def _alignment_cost(diff):
    total = 0.0
    for p in diff.pairs:
        if p.op in ("insert", "delete"):
            total += 1.0
        elif p.op == "replace":
            a = diff.buggy.statements[p.buggy].normalized
            b = diff.fixed.statements[p.fixed].normalized
            total += levenshtein(a, b) / max(len(a), len(b), 1)
    return total


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32))
def test_alignment_cost_is_minimal(seed):
    """The DP alignment must reach the exhaustively-found optimum."""
    rng = random.Random(seed)
    buggy = gen_program(rng, n_statements=rng.randrange(3, 7))
    fixed = perturb_program(rng, buggy)
    diff = align_statements(buggy, fixed)
    a = [s.normalized for s in diff.buggy.statements]
    b = [s.normalized for s in diff.fixed.statements]
    ref = align_cost_ref(tuple(a), tuple(b))
    assert _alignment_cost(diff) == pytest.approx(ref, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32))
def test_alignment_covers_both_sides_exactly_once(seed):
    rng = random.Random(seed)
    buggy = gen_program(rng)
    fixed = perturb_program(rng, buggy)
    diff = align_statements(buggy, fixed)
    buggy_seen = [p.buggy for p in diff.pairs if p.buggy is not None]
    fixed_seen = [p.fixed for p in diff.pairs if p.fixed is not None]
    assert buggy_seen == list(range(len(diff.buggy.statements)))
    assert fixed_seen == list(range(len(diff.fixed.statements)))


# ---------------------------------------------------------------------------
# line edit distance


@given(st.lists(st.sampled_from(["x = 1;", "  x = 1;", "y = 2;", "", "}"]),
                max_size=8),
       st.lists(st.sampled_from(["x = 1;", "y = 2;", "z = 3;", "}"]), max_size=8))
def test_line_edit_distance_matches_reference(a_lines, b_lines):
    a = "\n".join(a_lines)
    b = "\n".join(b_lines)
    assert line_edit_distance(a, b) == led_ref(a, b)


def test_line_edit_distance_ignores_indentation():
    assert line_edit_distance("a = 1;\n    b = 2;", "  a = 1;\nb = 2;") == 0


def test_line_edit_distance_counts_changed_lines():
    base = "a = 1;\nb = 2;\nc = 3;"
    assert line_edit_distance(base, "a = 1;\nb = 9;\nc = 3;") == 1
    assert line_edit_distance(base, "a = 1;\nc = 3;") == 1
    assert line_edit_distance(base, base + "\nd = 4;") == 1
