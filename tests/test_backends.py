import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repairkit.backends import (EOS, NGramBackend, SeededRandomBackend,
                                TargetOracleBackend, apply_token_edits,
                                make_repair_oracle)
from repairkit.errors import RepairKitError

from oracles import seeded_random_ref


# ---------------------------------------------------------------------------
# scripted oracle


def test_oracle_replays_its_target():
    backend = TargetOracleBackend()
    backend.script(["p", "q"], ["x", "y"])
    # position-by-position: prompt continuation, then target, then eos forever
    preds = backend.forward(["p", "q"])
    assert preds[-1] == "x"
    preds = backend.forward(["p", "q", "x"])
    assert preds[-1] == "y"
    preds = backend.forward(["p", "q", "x", "y"])
    assert preds[-1] == EOS
    preds = backend.forward(["p", "q", "x", "y", EOS, "junk"])
    assert preds[-1] == EOS


def test_oracle_predicts_the_prompt_itself():
    backend = TargetOracleBackend()
    backend.script(["p", "q", "r"], ["x"])
    # inside the prompt the "prediction" is just the next prompt token
    assert backend.forward(["p"])[-1] == "q"
    assert backend.forward(["p", "q"])[-1] == "r"


def test_oracle_longest_prefix_wins():
    backend = TargetOracleBackend()
    backend.script(["p"], ["short"])
    backend.script(["p", "q"], ["long"])
    assert backend.forward(["p", "q"])[-1] == "long"
    assert backend.forward(["p"])[-1] == "short"


def test_oracle_rejects_unknown_prompts():
    backend = TargetOracleBackend()
    backend.script(["p"], ["x"])
    with pytest.raises(RepairKitError):
        backend.forward(["z", "z"])


def test_oracle_rejects_empty_prompt():
    backend = TargetOracleBackend()
    with pytest.raises(RepairKitError):
        backend.script([], ["x"])


def test_make_repair_oracle_wires_the_prompt():
    backend = make_repair_oracle(["a", ";"], ["b", ";"])
    assert backend.prompt == ["<fix>", "a", ";", "<sep>"]
    assert backend.forward(backend.prompt)[-1] == "b"


def test_make_repair_oracle_applies_noise():
    backend = make_repair_oracle(
        ["a", ";", "b", ";"], ["a", ";", "b", ";"],
        noise=[("replace", 1, ["z", ";"])])
    ctx = list(backend.prompt)
    out = []
    while True:
        tok = backend.forward(ctx)[-1]
        if tok == EOS or len(out) > 10:
            break
        out.append(tok)
        ctx.append(tok)
    assert out == ["a", ";", "z", ";"]


# ---------------------------------------------------------------------------
# ngram model


def test_ngram_learns_continuations():
    model = NGramBackend.from_texts(["a = 1; b = 2;"], order=3)
    preds = model.forward(["a", "="])
    assert preds[-1] == "1"


def test_ngram_tie_breaks_by_sorted_vocab_id():
    model = NGramBackend(order=2)
    model.add_document(["x", "b"])
    model.add_document(["x", "a"])
    model.freeze_vocab()
    # both continuations seen once: the alphabetically first token wins
    assert model.forward(["x"])[-1] == "a"


def test_ngram_backs_off_to_shorter_contexts():
    model = NGramBackend(order=3)
    model.add_document(["x", "y", "z"])
    model.freeze_vocab()
    # ("q", "y") never seen; ("y",) predicts "z"
    assert model.forward(["q", "y"])[-1] == "z"


def test_ngram_empty_model_emits_eos():
    model = NGramBackend(order=2)
    model.freeze_vocab()
    assert model.forward(["anything"])[-1] == EOS


def test_ngram_from_dir_requires_files(tmp_path):
    with pytest.raises(RepairKitError):
        NGramBackend.from_dir(tmp_path)
    (tmp_path / "t.c").write_text("a = 1;")
    model = NGramBackend.from_dir(tmp_path)
    assert model.forward(["a", "="])[-1] == "1"


def test_ngram_is_deterministic_across_instances():
    texts = ["a = 1; b = a + 2;", "b = 3; a = b;"]
    m1 = NGramBackend.from_texts(texts)
    m2 = NGramBackend.from_texts(list(texts))
    probe = ["a", "=", "1", ";", "b"]
    assert m1.forward(probe) == m2.forward(probe)


# ---------------------------------------------------------------------------
# seeded random model


def test_seeded_backend_is_deterministic():
    v = ["a", "b", ";"]
    b1 = SeededRandomBackend(42, v)
    b2 = SeededRandomBackend(42, v)
    toks = ["a", "b", ";", "a", "a"]
    assert b1.forward(toks) == b2.forward(toks)


def test_seeded_backend_depends_on_the_seed():
    v = [f"t{i}" for i in range(10)]
    toks = ["t1", "t2", "t3", "t4", "t5", "t6"]
    outs = {tuple(SeededRandomBackend(s, v).forward(toks)) for s in range(8)}
    assert len(outs) > 1


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 30))
def test_seeded_backend_is_causal(seed, cut):
    v = ["a", "b", "c", ";", "{", "}"]
    backend = SeededRandomBackend(seed, v)
    toks = [v[i % len(v)] for i in range(32)]
    full = backend.forward(toks)
    prefix = backend.forward(toks[:cut])
    assert full[:cut] == prefix


def test_seeded_backend_grown_one_token_at_a_time_matches_a_fresh_one():
    v = [f"t{i}" for i in range(40)]
    grown = SeededRandomBackend(9, v)
    toks = [v[(i * 7) % len(v)] for i in range(600)]
    ref = seeded_random_ref(9, list(grown.vocab), toks)
    for n in range(1, len(toks) + 1):
        preds = grown.forward(toks[:n])
        assert preds == SeededRandomBackend(9, v).forward(toks[:n])
        assert preds == ref[:n]


def test_seeded_backend_emits_tokens_from_its_vocab():
    v = ["x", "y"]
    backend = SeededRandomBackend(3, v)
    preds = backend.forward(["x", "y", "x", "y", "x"])
    assert set(preds) <= set(v) | {EOS}


# ---------------------------------------------------------------------------
# token edits


def test_apply_edits_replace_insert_delete():
    toks = ["a", ";", "b", ";", "c", ";"]
    out = apply_token_edits(toks, [
        ("replace", 1, ["B", "!", ";"]),
        ("delete", 2, None),
        ("insert", 0, ["hdr", ";"]),
    ])
    assert out == ["hdr", ";", "a", ";", "B", "!", ";"]


def test_apply_edits_at_the_end():
    toks = ["a", ";"]
    out = apply_token_edits(toks, [("insert", 1, ["z", ";"])])
    assert out == ["a", ";", "z", ";"]


def test_apply_edits_validation():
    toks = ["a", ";"]
    with pytest.raises(ValueError):
        apply_token_edits(toks, [("frobnicate", 0, [])])
    with pytest.raises(ValueError):
        apply_token_edits(toks, [("delete", 5, None)])
    assert apply_token_edits(toks, None) == toks
