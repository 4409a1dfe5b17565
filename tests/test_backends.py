import os
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repairkit
from repairkit.backends import (EOS, NGramBackend, SeededRandomBackend,
                                TargetOracleBackend, make_repair_oracle)
from repairkit.errors import RepairKitError

from oracles import ngram_forward_ref, oracle_forward_ref, seeded_random_ref


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


def _outcome(forward, tokens):
    try:
        return forward(tokens)
    except RepairKitError:
        return "no match"


_TOKS = st.sampled_from(["a", "b", "c"])


@st.composite
def _scripts(draw):
    """1-3 (prompt, target) pairs; besides the first prompt, each other one is
    its equal-length sibling (same tokens but the last), an extension of it,
    a prefix of it or unrelated."""
    base = draw(st.lists(_TOKS, min_size=1, max_size=4))
    prompts = [base]
    for kind in draw(st.lists(st.sampled_from(["sibling", "extend", "prefix", "any"]),
                              max_size=2)):
        if kind == "sibling":
            prompts.append(base[:-1] + [draw(_TOKS)])
        elif kind == "extend":
            prompts.append(base + draw(st.lists(_TOKS, min_size=1, max_size=3)))
        elif kind == "prefix":
            prompts.append(base[:draw(st.integers(1, len(base)))])
        else:
            prompts.append(draw(st.lists(_TOKS, min_size=1, max_size=5)))
    targets = st.lists(st.sampled_from(["x", "y", "a", EOS]), max_size=4)
    return [(p, draw(targets)) for p in prompts]


@settings(max_examples=300, deadline=None)
@given(_scripts(), st.lists(_TOKS, max_size=4))
@example([(["p", "b"], ["x"]), (["p", "a"], ["y"])], [])     # tie: sorted order
@example([(["p"], ["x"]), (["p", "q", "r"], ["y"])], ["z"])  # complete beats partial
def test_oracle_matches_the_reference(scripts, tail):
    backend = TargetOracleBackend()
    for prompt, target in scripts:
        backend.script(prompt, target)
    contexts = [tail]
    for prompt, _ in scripts:
        contexts += [prompt[:n] for n in range(1, len(prompt) + 1)]
        contexts.append(prompt + tail)
        contexts.append(prompt + ["y"] + tail)
    for ctx in contexts:
        assert _outcome(backend.forward, ctx) == \
            _outcome(lambda t: oracle_forward_ref(scripts, EOS, t), ctx)
    assert _outcome(backend.forward, ["z"] + tail) == "no match"


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


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4),
       st.lists(st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=8),
                max_size=4),
       st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), max_size=12))
def test_ngram_matches_the_whole_prefix_reference(order, docs, tokens):
    # a 4-token alphabet over short documents makes count ties common
    model = NGramBackend(order=order)
    for doc in docs:
        model.add_document(doc)
    model.freeze_vocab()
    assert model.forward(tokens) == ngram_forward_ref(model, tokens)


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


_WALK_VOCAB = ["a", "b", "c", ";", "{", "}"]
_WALK_STEP = st.tuples(st.sampled_from(["one", "draft", "truncate", "branch"]),
                       st.integers(0, 1 << 20),
                       st.lists(st.sampled_from(_WALK_VOCAB), max_size=8))


@settings(max_examples=200, deadline=None)
@given(st.integers(-(1 << 63), (1 << 64) - 1),
       st.lists(st.sampled_from(_WALK_VOCAB), min_size=1, max_size=10),
       st.lists(_WALK_STEP, max_size=25))
def test_seeded_backend_cache_follows_a_decoding_walk(seed, start, steps):
    # one context list, changed in place between passes as the decoders do:
    # grow by a token, grow by a draft, drop a rejected tail, or branch
    backend = SeededRandomBackend(seed, _WALK_VOCAB)
    vocab = list(backend.vocab)
    ctx = list(start)
    assert backend.forward(ctx) == seeded_random_ref(seed, vocab, ctx)
    for op, r, toks in steps:
        if op == "one":
            ctx.append(toks[0] if toks else "a")
        elif op == "draft":
            ctx += toks
        elif op == "truncate":
            del ctx[r % (len(ctx) + 1):]
        else:
            del ctx[r % (len(ctx) + 1):]
            ctx += toks
        assert backend.forward(ctx) == seeded_random_ref(seed, vocab, ctx)


@pytest.mark.parametrize("make", [
    lambda: make_repair_oracle(["a", ";"], ["b", ";"]),
    lambda: SeededRandomBackend(4, ["a", "b", ";"]),
    lambda: NGramBackend.from_texts(["a = 1; b = 2;"]),
], ids=["oracle", "random", "ngram"])
def test_mutating_a_result_leaves_later_passes_alone(make):
    backend = make()
    toks = ["<fix>", "a", ";", "<sep>", "b"]
    first = backend.forward(toks)
    want = list(first)
    first[:] = ["junk"] * (len(first) + 1)
    assert backend.forward(toks) == want
    assert backend.forward(toks + [";"])[:len(toks)] == want


_THREAD_PASSES = 1000


def test_seeded_backend_shared_by_threads_matches_the_reference():
    backend = SeededRandomBackend(5, _WALK_VOCAB)
    vocab = list(backend.vocab)
    passes, errors = [], []

    def walk(t: int) -> None:
        rng = random.Random(t)
        ctx = [rng.choice(_WALK_VOCAB) for _ in range(rng.randrange(1, 20))]
        try:
            for _ in range(_THREAD_PASSES):
                if rng.random() < 0.3:
                    del ctx[rng.randrange(len(ctx) // 2, len(ctx) + 1):]
                ctx += rng.choices(_WALK_VOCAB, k=rng.randrange(1, 6))
                if backend.forward(ctx) != seeded_random_ref(5, vocab, ctx):
                    errors.append((t, list(ctx)))
                passes.append(t)
        except Exception as exc:  # reported below with the thread that raised it
            errors.append((t, exc))

    threads = [threading.Thread(target=walk, args=(t,)) for t in range(4)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert errors == []
    assert len(passes) == 4 * _THREAD_PASSES


def test_importing_repairkit_does_not_import_numpy():
    env = dict(os.environ, PYTHONPATH=str(Path(repairkit.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, repairkit; print('numpy' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert out.stdout.strip() == "False"
