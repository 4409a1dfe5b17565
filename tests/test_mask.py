import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repairkit.diffs import align_statements
from repairkit.errors import DegenerateInputError
from repairkit.mask import (PADDING_FLOOR, MaskConfig, MaskVector,
                            broadcast_to_tokens, build_mask, expansion_members,
                            expansion_weight, repair_loss, similarity,
                            similarity_from_distance, statement_distance)
from repairkit.source import extract_facts, parse

from conftest import gen_program, perturb_program
from oracles import masked_loss_ref, relatedness_ref, sim_ref, weight_ref


# ---------------------------------------------------------------------------
# similarity formula


def test_similarity_frozen_values():
    assert similarity_from_distance(0) == 1.0
    assert similarity_from_distance(1) == 0.5
    assert similarity_from_distance(math.e ** 2) == pytest.approx(0.25, abs=1e-12)
    # monotone decreasing past zero
    assert similarity_from_distance(2) > similarity_from_distance(5)


@given(st.integers(0, 10**6))
def test_similarity_matches_reference(dist):
    assert similarity_from_distance(dist) == pytest.approx(sim_ref(dist), abs=1e-12)


def test_statement_distance_char_vs_token():
    cfg_char = MaskConfig(dist_granularity="char")
    cfg_tok = MaskConfig(dist_granularity="token")
    a, b = "x = a + b;", "x = a - b;"
    assert statement_distance(a, b, cfg_char) == 1
    assert statement_distance(a, b, cfg_tok) == 1
    a2, b2 = "alpha = 1;", "beta = 1;"
    assert statement_distance(a2, b2, cfg_char) > statement_distance(a2, b2, cfg_tok)


@given(st.text(alphabet="abx=+; ", max_size=10),
       st.text(alphabet="abx=+; ", max_size=10))
def test_similarity_of_statements(a, b):
    cfg = MaskConfig()
    got = similarity(a, b, cfg)
    from oracles import lev_ref
    assert got == pytest.approx(sim_ref(lev_ref(a, b)), abs=1e-12)


texts = st.lists(st.sampled_from([
    "x = a + b;", "y = x * 2;", "printf(x);", "return 0;", "int n = 10;",
]), min_size=1, max_size=4)


@given(st.text(alphabet="abxy=+*; ", min_size=1, max_size=12), texts,
       st.sampled_from(["floor", "cap"]))
def test_expansion_weight_matches_reference(e, sources, clamp):
    cfg = MaskConfig(expansion_aggregation=clamp)
    assert expansion_weight(e, sources, cfg) == pytest.approx(
        weight_ref(e, list(sources), clamp), abs=1e-12)


def test_expansion_weight_clamps():
    # many near-identical sources push the sum past 1: floor keeps it, cap trims
    sources = ["x = a + b;"] * 5
    cfg_floor = MaskConfig(expansion_aggregation="floor")
    cfg_cap = MaskConfig(expansion_aggregation="cap")
    assert expansion_weight("x = a + b;", sources, cfg_floor) == 5.0
    assert expansion_weight("x = a + b;", sources, cfg_cap) == 1.0
    # a lone distant source stays below 1 under floor? no: floor raises to 1
    assert expansion_weight("zzzzzz", ["x = a + b;"], cfg_floor) == 1.0
    assert expansion_weight("zzzzzz", ["x = a + b;"], cfg_cap) < 1.0


# ---------------------------------------------------------------------------
# build_mask invariants

BUGGY = """\
#include <stdio.h>
int main() {
    int a, b;
    scanf("%d %d", &a, &b);
    int sum = a - b;
    printf("%d\\n", sum);
    return 0;
}
"""
FIXED = BUGGY.replace("a - b", "a + b")


def test_modified_statement_gets_weight_one():
    mask = build_mask(BUGGY, FIXED, MaskConfig(strategy="M1"))
    unit = parse(FIXED)
    idx = next(s.index for s in unit.statements if "a + b" in s.text)
    assert mask.raw[idx] == 1.0
    assert mask.roles[idx] == "modified"
    assert set(mask.raw) <= {0.0, 1.0}


@pytest.mark.parametrize("strategy", ["M1", "M2", "M3", "M4"])
def test_normalized_mask_sums_to_one(strategy):
    mask = build_mask(BUGGY, FIXED, MaskConfig(strategy=strategy))
    assert mask.normalized is not None
    assert sum(mask.normalized) == pytest.approx(1.0, abs=1e-9)


def test_m2_padding_lands_in_range():
    cfg = MaskConfig(strategy="M2", sigma=0.6, rng_seed=5)
    mask = build_mask(BUGGY, FIXED, cfg)
    pads = [w for w, r in zip(mask.raw, mask.roles) if r == "padding"]
    assert pads, "expected some padded statements"
    for w in pads:
        assert min(PADDING_FLOOR, cfg.sigma) <= w <= cfg.sigma


def test_small_sigma_pins_padding():
    cfg = MaskConfig(strategy="M2", sigma=0.03, rng_seed=1)
    mask = build_mask(BUGGY, FIXED, cfg)
    pads = [w for w, r in zip(mask.raw, mask.roles) if r == "padding"]
    assert pads and all(w == pytest.approx(0.03, abs=1e-12) for w in pads)


def test_padding_is_seed_stable_and_seed_sensitive():
    cfg_a = MaskConfig(strategy="M2", rng_seed=10)
    m1 = build_mask(BUGGY, FIXED, cfg_a)
    m2 = build_mask(BUGGY, FIXED, cfg_a)
    assert m1.raw == m2.raw
    m3 = build_mask(BUGGY, FIXED, MaskConfig(strategy="M2", rng_seed=11))
    assert m1.raw != m3.raw


def test_m3_gives_every_statement_relatedness_mass():
    mask = build_mask(BUGGY, FIXED, MaskConfig(strategy="M3"))
    assert mask.normalized is not None
    assert all(k > 0.0 for k in mask.normalized)
    assert "relatedness" in mask.roles or "expanded" in mask.roles


def test_m4_expansion_beats_padding_on_related_statements():
    mask = build_mask(BUGGY, FIXED, MaskConfig(strategy="M4"))
    unit = parse(FIXED)
    # the printf uses the modified variable, so it lands in the expansion set
    printf_idx = next(s.index for s in unit.statements if "printf" in s.text)
    assert mask.roles[printf_idx] == "expanded"
    assert "padding" in mask.roles


def test_identical_pair_flags():
    m1 = build_mask(FIXED, FIXED, MaskConfig(strategy="M1"))
    assert "no_modification" in m1.flags
    assert m1.degenerate
    m2 = build_mask(FIXED, FIXED, MaskConfig(strategy="M2"))
    assert not m2.degenerate  # padding still gives a usable distribution


def test_deletion_only_pair_keeps_mass_near_the_gap():
    buggy = "a = 1;\nb = 2;\nc = 3;\n"
    fixed = "a = 1;\nc = 3;\n"
    mask = build_mask(buggy, fixed, MaskConfig(strategy="M4"))
    unit = parse(fixed)
    c_idx = next(s.index for s in unit.statements if s.text == "c = 3;")
    # the anchor statement joins the expansion set even with no replacement
    assert mask.roles[c_idx] == "expanded"


def _member_texts(buggy, fixed):
    diff = align_statements(buggy, fixed)
    return {diff.fixed.statements[i].text for i in expansion_members(diff)}


def test_assignments_to_modified_variables_expand():
    # the root-level declarations share no block with "x = a + b;": only its
    # variables x and a pull them in, and nothing assigns c there
    decls = "int a = 1;\nint x;\nint c = 2;\n"
    members = _member_texts(decls + "int main() { x = a - b; return 0; }",
                            decls + "int main() { x = a + b; return 0; }")
    assert members == {"int a = 1;", "int x;", "return 0;"}


def test_definitions_of_modified_calls_expand():
    helper = "int helper(int v) { return v; } "
    buggy = helper + "int main() { x = helper(1); }"
    fixed = helper + "int main() { x = helper(2); }"
    assert _member_texts(buggy, fixed) == {"int helper(int v)", "{", "return v;", "}"}
    mask = build_mask(buggy, fixed, MaskConfig(strategy="M4"))
    assert mask.roles == ("expanded",) * 4 + ("padding", "padding", "modified", "padding")


def test_facts_are_extracted_once_from_the_fixed_unit(monkeypatch):
    # perfbench counts source.facts_calls by wrapping this module-level name
    calls = []

    def counting(unit):
        calls.append(unit)
        return extract_facts(unit)

    monkeypatch.setattr("repairkit.mask.extract_facts", counting)
    buggy, fixed = parse(BUGGY), parse(FIXED)
    for strategy in ("M1", "M2"):
        build_mask(buggy, fixed, MaskConfig(strategy=strategy))
    # a deletion alone expands onto its anchor without any facts
    build_mask("a = 1;\nb = 2;\nc = 3;\n", "a = 1;\nc = 3;\n", MaskConfig(strategy="M4"))
    assert calls == []
    build_mask(buggy, fixed, MaskConfig(strategy="M4"))
    assert len(calls) == 1 and calls[0] is fixed


def _distance_calls(monkeypatch, buggy, fixed, cfg):
    calls = []

    def counting(e, m, cfg=None):
        calls.append((e, m))
        return statement_distance(e, m, cfg)

    monkeypatch.setattr("repairkit.mask.statement_distance", counting)
    build_mask(buggy, fixed, cfg)
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize("granularity", ["char", "token"])
@pytest.mark.parametrize("strategy", ["M3", "M4"])
def test_a_build_measures_each_statement_source_pair_once(monkeypatch, strategy, granularity):
    cfg = MaskConfig(strategy=strategy, dist_granularity=granularity)
    # two modified statements with one text, and unmodified texts that repeat
    pairs = [("x = 1;\nx = 1;\ny = 3;\ny = 3;\nz = 4;\n",
              "x = 2;\nx = 2;\ny = 3;\ny = 3;\nz = 4;\n")]
    for seed in range(20):
        rng = random.Random(seed)
        buggy = gen_program(rng)
        pairs.append((buggy, perturb_program(rng, buggy)))
    for buggy, fixed in pairs:
        calls = _distance_calls(monkeypatch, buggy, fixed, cfg)
        assert calls and len(calls) == len(set(calls)), fixed


def test_empty_fixed_side_is_degenerate():
    mask = build_mask("a = 1;", "", MaskConfig(strategy="M4"))
    assert "no_fixed_statements" in mask.flags
    assert mask.degenerate


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(["M1", "M2", "M3", "M4"]))
def test_mask_invariants_on_random_pairs(seed, strategy):
    rng = random.Random(seed)
    buggy = gen_program(rng)
    fixed = perturb_program(rng, buggy)
    cfg = MaskConfig(strategy=strategy, rng_seed=seed & 0xFFFF)
    mask = build_mask(buggy, fixed, cfg)
    n = len(parse(fixed).statements)
    assert len(mask.raw) == len(mask.roles) == n
    assert all(w >= 0.0 for w in mask.raw)
    if strategy == "M1":
        assert set(mask.raw) <= {0.0, 1.0}
    if mask.normalized is not None:
        assert sum(mask.normalized) == pytest.approx(1.0, abs=1e-9)
        assert mask.token_k is not None
        assert sum(mask.token_k) == pytest.approx(1.0, abs=1e-9)
    if strategy in ("M2", "M4") and n > 0:
        assert mask.normalized is not None
        assert all(k > 0.0 for k in mask.normalized)


# ---------------------------------------------------------------------------
# token broadcast


def test_broadcast_splits_statement_weight_equally():
    fixed = parse("a = 1; b = 2;")
    token_k = broadcast_to_tokens([0.5, 0.5], fixed)
    assert len(token_k) == len(fixed.tokens)
    assert sum(token_k) == pytest.approx(1.0, abs=1e-12)
    # each statement has 4 tokens (name, =, literal, ;), equal split
    assert len(set(token_k)) == 1


def test_broadcast_gives_comment_tokens_the_floor():
    fixed = parse("a = 1; /* note */ b = 2;")
    token_k = broadcast_to_tokens([0.9, 0.1], fixed)
    comment_positions = [i for i, t in enumerate(fixed.tokens) if t.is_comment]
    assert comment_positions
    code_positions = [i for i, t in enumerate(fixed.tokens) if not t.is_comment]
    a_weight = token_k[code_positions[0]]
    assert token_k[comment_positions[0]] < a_weight


def test_broadcast_length_mismatch_raises():
    with pytest.raises(ValueError):
        broadcast_to_tokens([1.0], parse("a = 1; b = 2;"))


# ---------------------------------------------------------------------------
# masked loss


def _uniform_mask(n):
    k = tuple(1.0 / n for _ in range(n))
    return MaskVector("M2", 0.6, 0, k, k, None, tuple(["padding"] * n), ())


def _one_hot_mask(n, hot):
    k = tuple(1.0 if i == hot else 0.0 for i in range(n))
    return MaskVector("M1", 0.6, 0, k, k, None, tuple(["zero"] * n), ())


@given(st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=20))
def test_uniform_mask_recovers_the_mean(losses):
    got = repair_loss(losses, _uniform_mask(len(losses)))
    assert got == pytest.approx(sum(losses) / len(losses), abs=1e-9)


@given(st.lists(st.floats(0, 100), min_size=1, max_size=10), st.data())
def test_one_hot_mask_selects_exactly_one_loss(losses, data):
    hot = data.draw(st.integers(0, len(losses) - 1))
    assert repair_loss(losses, _one_hot_mask(len(losses), hot)) == losses[hot]


def test_masked_loss_matches_reference():
    losses = [1.0, 2.5, 0.25, 9.0]
    mask = build_mask(BUGGY, FIXED, MaskConfig(strategy="M4"))
    padded = losses + [0.0] * (len(mask.normalized) - len(losses))
    assert repair_loss(padded, mask) == pytest.approx(
        masked_loss_ref(padded, list(mask.normalized)), abs=1e-12)


def test_loss_is_linear_in_the_losses():
    mask = build_mask(BUGGY, FIXED, MaskConfig(strategy="M4"))
    n = len(mask.normalized)
    u = [float(i) for i in range(n)]
    v = [float((i * 7) % 5) for i in range(n)]
    a, b = 2.5, -1.25
    combined = [a * x + b * y for x, y in zip(u, v)]
    assert repair_loss(combined, mask) == pytest.approx(
        a * repair_loss(u, mask) + b * repair_loss(v, mask), abs=1e-9)


def test_degenerate_mask_refuses_loss():
    mask = build_mask(FIXED, FIXED, MaskConfig(strategy="M1"))
    with pytest.raises(DegenerateInputError):
        repair_loss([0.0] * len(mask.raw), mask)


def test_token_level_loss_of_all_ones_is_the_token_weight_sum():
    mask = build_mask(BUGGY, FIXED, MaskConfig(strategy="M4"))
    got = repair_loss([1.0] * len(mask.token_k), mask, level="token")
    assert got == sum(mask.token_k)
    assert got == pytest.approx(1.0, abs=1e-12)


def test_token_level_one_hot_loss_is_that_token_weight():
    mask = build_mask(BUGGY, FIXED, MaskConfig(strategy="M4"))
    n = len(mask.token_k)
    for hot in (0, n // 2, n - 1):
        losses = [1.0 if i == hot else 0.0 for i in range(n)]
        assert repair_loss(losses, mask, level="token") == mask.token_k[hot]


def test_unknown_loss_level_raises():
    mask = build_mask(BUGGY, FIXED, MaskConfig(strategy="M4"))
    with pytest.raises(ValueError, match="unknown loss level 'line'"):
        repair_loss([1.0] * len(mask.raw), mask, level="line")


def test_degenerate_mask_refuses_token_level_loss():
    mask = build_mask(FIXED, FIXED, MaskConfig(strategy="M1"))
    assert mask.token_k is None
    with pytest.raises(DegenerateInputError):
        repair_loss([0.0] * len(parse(FIXED).tokens), mask, level="token")


def test_length_mismatch_raises():
    mask = build_mask(BUGGY, FIXED, MaskConfig(strategy="M4"))
    with pytest.raises(ValueError):
        repair_loss([1.0], mask)


def test_relatedness_reference_agreement():
    cfg = MaskConfig(strategy="M3")
    mask = build_mask(BUGGY, FIXED, cfg)
    # every relatedness-role raw equals the reference sum over sources
    unit = parse(FIXED)
    bunit = parse(BUGGY)
    from repairkit.diffs import align_statements
    from repairkit.mask import _modification_sources
    sources = _modification_sources(align_statements(bunit, unit))
    for idx, role in enumerate(mask.roles):
        if role == "relatedness":
            ref = relatedness_ref(unit.statements[idx].normalized, sources)
            assert mask.raw[idx] == pytest.approx(ref, abs=1e-12)
