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
from repairkit.backends import (EOS, SeededRandomBackend, TargetOracleBackend,
                                make_repair_oracle)
from repairkit.decoding import (DecodeLimits, DraftSource, Extended, Prefix,
                                accelerated_decode, ar_decode, longest_matching_prefix)
from repairkit.errors import RepairKitError

from oracles import oracle_forward_ref, seeded_random_ref


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


def test_oracle_rejects_unknown_prompts():
    backend = TargetOracleBackend()
    backend.script(["p"], ["x"])
    with pytest.raises(RepairKitError):
        backend.forward(["z", "z"])


def test_oracle_rejects_a_second_script():
    backend = TargetOracleBackend()
    backend.script(["p"], ["x"])
    with pytest.raises(RepairKitError, match="already scripted"):
        backend.script(["q"], ["y"])
    assert backend.prompt == ["p"]
    assert backend.forward(["p"])[-1] == "x"


def test_unscripted_oracle_rejects_every_context():
    backend = TargetOracleBackend()
    assert backend.prompt is None
    for ctx in ([], ["p"]):
        with pytest.raises(RepairKitError, match="no script"):
            backend.forward(ctx)


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


@settings(max_examples=300, deadline=None)
@given(st.lists(_TOKS, min_size=1, max_size=4),
       st.lists(st.sampled_from(["x", "y", "a", EOS]), max_size=4),
       st.lists(_TOKS, max_size=4))
@example(["p", "q"], ["x"], [])
def test_oracle_matches_the_reference(prompt, target, tail):
    backend = TargetOracleBackend()
    backend.script(prompt, target)
    contexts = [tail]
    contexts += [prompt[:n] for n in range(1, len(prompt) + 1)]
    contexts.append(prompt + tail)
    contexts.append(prompt + ["y"] + tail)
    contexts += [prompt[:n - 1] + ["z"] for n in range(1, len(prompt) + 1)]
    for ctx in contexts:
        assert _outcome(backend.forward, ctx) == \
            _outcome(lambda t: oracle_forward_ref(prompt, target, EOS, t), ctx)
    assert _outcome(backend.forward, ["z"] + tail) == "no match"


def test_oracle_checks_every_buffer_but_the_cached_one():
    backend = TargetOracleBackend()
    backend.script(["p", "q"], ["x"])
    good = ["p", "q"]
    assert list(backend.forward(Prefix(good, 2))) == ["q", "x"]
    # good is cached now; other buffers are still checked, short ones too
    for bad, n in ((["p", "z"], 2), (["z", "q", "x"], 3), (["z", "q"], 1)):
        with pytest.raises(RepairKitError,
                           match="no scripted target matches this prompt"):
            backend.forward(Prefix(bad, n))
    good.append("x")
    assert list(backend.forward(Prefix(good, 3))) == ["q", "x", EOS]


def test_oracle_caches_no_buffer_shorter_than_its_prompt():
    backend = TargetOracleBackend()
    backend.script(["p", "q", "r"], ["x"])
    buf = ["p"]
    assert list(backend.forward(Prefix(buf, 1))) == ["q"]
    buf += ["z", "z"]
    with pytest.raises(RepairKitError, match="no scripted target matches"):
        backend.forward(Prefix(buf, 3))


_GROW_TOKS = st.sampled_from(["a", "b", "x"])
_SLICE_BOUND = st.one_of(st.none(), st.integers(-8, 8))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(["a", "b"]), min_size=1, max_size=4),
       st.lists(st.sampled_from(["x", "a", EOS]), max_size=4),
       st.integers(0, 4),
       st.lists(st.lists(_GROW_TOKS, min_size=1, max_size=3), max_size=5),
       st.integers(0, 2**32))
def test_prefix_passes_match_list_passes(prompt, target, keep, appends, seed):
    # one buffer grown by appends, as the decoders grow their context; every
    # prefix of it is read as a Prefix and as a list, short ones included
    oracle = TargetOracleBackend()
    oracle.script(prompt, target)
    rand = SeededRandomBackend(seed, ["a", "b", "x"])
    vocab = list(rand.vocab)
    buf = prompt[:keep]
    for chunk in [[]] + appends:
        buf += chunk
        for n in range(len(buf) + 1):
            want = _outcome(lambda t: oracle_forward_ref(prompt, target, EOS, t),
                            buf[:n])
            assert _outcome(oracle.forward, buf[:n]) == want
            assert _outcome(lambda t: list(oracle.forward(t)), Prefix(buf, n)) == want
            want = seeded_random_ref(seed, vocab, buf[:n])
            assert rand.forward(buf[:n]) == want
            assert list(rand.forward(Prefix(buf, n))) == want


def _reads(answer, cut, start, stop, step):
    """What the decoder, or any caller, may read of a pass's answer: its
    length, every index, negative ones too, from the back (so a lazy answer
    computes its last entry first), a slice and a cut then the whole."""
    size = len(answer)
    items = [answer[i] for i in range(-1, -size - 1, -1)][::-1]
    return size, items, answer[start:stop:step], answer[:cut] + answer[cut:]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(["a", "b"]), min_size=1, max_size=4),
       st.lists(st.sampled_from(["x", "a", EOS]), max_size=4),
       st.integers(0, 4),
       st.lists(_GROW_TOKS, max_size=6),
       st.lists(_GROW_TOKS, max_size=6),
       st.integers(0, 2**32),
       st.integers(0, 12), _SLICE_BOUND, _SLICE_BOUND,
       st.one_of(st.none(), st.integers(-3, 3).filter(bool)))
def test_extended_passes_match_list_passes(prompt, target, keep, tail, draft, seed,
                                           cut, start, stop, step):
    # every context length of one buffer, with a draft the buffer never sees;
    # the answer reads like the list pass's answer and the reference
    oracle = TargetOracleBackend()
    oracle.script(prompt, target)
    rand = SeededRandomBackend(seed, ["a", "b", "x"])
    vocab = list(rand.vocab)
    buf = prompt[:keep] + tail

    def read(forward):
        return lambda t: _reads(forward(t), cut, start, stop, step)

    for n in range(len(buf) + 1):
        toks = buf[:n] + draft
        want = _outcome(read(lambda t: oracle_forward_ref(prompt, target, EOS, t)), toks)
        assert _outcome(read(oracle.forward), toks) == want
        assert _outcome(read(oracle.forward), Extended(Prefix(buf, n), list(draft))) == want
        want = seeded_random_ref(seed, vocab, toks)
        assert read(rand.forward)(toks) == read(lambda t: want)(toks)
        assert read(rand.forward)(Extended(Prefix(buf, n), list(draft))) == read(lambda t: want)(toks)
        assert list(rand.forward(Extended(Prefix(buf, n), list(draft)))) == want


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


def test_seeded_backend_keeps_an_iterator_vocab_in_order():
    # the vocabulary is read once, so an iterator loses no token
    assert SeededRandomBackend(1, iter(["a", EOS, "b"])).vocab == ("a", EOS, "b")
    assert SeededRandomBackend(1, iter(["a", "b"])).vocab == ("a", "b", EOS)


def test_backends_built_from_an_equal_vocab_share_its_table():
    v = [f"t{i}" for i in range(40)]
    first = SeededRandomBackend(1, v)
    assert SeededRandomBackend(2, v).vocab is first.vocab
    # an iterator or a tuple is read into a list first, and equals it
    assert SeededRandomBackend(3, iter(v)).vocab is first.vocab
    assert SeededRandomBackend(4, tuple(v)).vocab is first.vocab
    assert SeededRandomBackend(5, list(v)).vocab is first.vocab


def test_changing_a_vocab_list_changes_no_backend_built_from_it():
    v = ["a", "b", "c"]
    toks = ["a", "b", "c", "a", "c", "b", "a"]
    first = SeededRandomBackend(7, v)
    want = first.forward(toks)
    # same length and same list object: only the contents tell them apart
    v[:] = ["x", "y", "z"]
    later = SeededRandomBackend(7, v)
    assert later.vocab == ("x", "y", "z", EOS)
    assert later.forward(toks) == seeded_random_ref(7, ["x", "y", "z", EOS], toks)
    assert first.vocab == ("a", "b", "c", EOS)
    assert first.forward(toks) == want == seeded_random_ref(7, ["a", "b", "c", EOS], toks)


def test_threads_building_backends_from_different_vocabs_get_their_own():
    vocabs = [[f"v{t}.{i}" for i in range(50 + t)] for t in range(4)]
    errors = []

    def build(t: int) -> None:
        try:
            for _ in range(300):
                # a copy per backend, so no thread can pass the memo's own list
                backend = SeededRandomBackend(t, list(vocabs[t]))
                if backend.vocab != (*vocabs[t], EOS):
                    errors.append((t, backend.vocab[:1]))
        except Exception as exc:  # reported below with the thread that raised it
            errors.append((t, exc))

    threads = [threading.Thread(target=build, args=(t,)) for t in range(4)]
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


class _BuildsOnce(str):
    """A token that builds a backend from ``other`` the first time it is
    compared, the way another thread could while its table is made."""

    other = None

    def __eq__(self, x):
        if self.other:
            other, self.other = self.other, None
            SeededRandomBackend(0, other)
        return str.__eq__(self, x)

    __hash__ = str.__hash__


def test_a_construction_during_another_leaves_each_its_own_table():
    # threads rarely switch inside one construction; this one always does,
    # while the outer table is made, so a memo of two slots mixes them up
    token = _BuildsOnce("b")
    token.other = ["x", "y"]
    assert SeededRandomBackend(1, ["a", token]).vocab == ("a", "b", EOS)
    assert SeededRandomBackend(2, ["x", "y"]).vocab == ("x", "y", EOS)


_WALK_VOCAB = ["a", "b", "c", ";", "{", "}"]
_WALK_STEP = st.tuples(st.sampled_from(["one", "draft", "truncate", "branch",
                                        "grow", "off"]),
                       st.integers(0, 1 << 20),
                       st.lists(st.sampled_from(_WALK_VOCAB), max_size=8))


@settings(max_examples=200, deadline=None)
@given(st.integers(-(1 << 63), (1 << 64) - 1),
       st.lists(st.sampled_from(_WALK_VOCAB), min_size=1, max_size=10),
       st.lists(_WALK_STEP, max_size=25))
def test_seeded_backend_cache_follows_a_decoding_walk(seed, start, steps):
    # one context list, changed in place between passes as the decoders do:
    # grow by a token, grow by a draft, drop a rejected tail, or branch;
    # and one grow-only buffer read as a Prefix, with lists that branch off
    # it: shorter than the cached positions, diverging inside them, or
    # running past them
    backend = SeededRandomBackend(seed, _WALK_VOCAB)
    vocab = list(backend.vocab)
    ctx = list(start)
    buf = list(start)
    assert backend.forward(ctx) == seeded_random_ref(seed, vocab, ctx)
    for op, r, toks in steps:
        if op == "grow":
            buf += toks
            n = r % (len(buf) + 1)
            got = backend.forward(Prefix(buf, n))
            assert list(got) == seeded_random_ref(seed, vocab, buf[:n])
            continue
        if op == "off":
            off = buf[:r % (len(buf) + 1)] + toks
            assert backend.forward(off) == seeded_random_ref(seed, vocab, off)
            continue
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


# EOS is one token in 50 001, so random outputs run to their token cap
_BIG_VOCAB = [f"w{i}" for i in range(50_000)]


def _count_hashes(backend: SeededRandomBackend) -> list[str]:
    """The tokens ``backend`` hashes from now on, one entry per position."""
    hashed: list[str] = []
    token_id = backend._token_id

    def counted(tok: str) -> int:
        hashed.append(tok)
        return token_id(tok)

    backend._token_id = counted
    return hashed


@pytest.mark.parametrize("n_prompt,cap", [(1, 1), (1, 30), (62, 256)])
def test_random_greedy_decode_hashes_each_position_once(n_prompt, cap):
    backend = SeededRandomBackend(3, _BIG_VOCAB)
    hashed = _count_hashes(backend)
    answers = []
    forward = backend.forward
    backend.forward = lambda toks: answers.append(forward(toks)) or answers[-1]
    prompt = ["<fix>"] + _BIG_VOCAB[:n_prompt - 1]
    result = ar_decode(backend, prompt, cap)
    assert len(result.tokens) == cap
    # P + T - 1 positions for T tokens from a prompt of P, not one pass's
    # context per pass; every answer is a view of one grow-only list
    assert len(hashed) == n_prompt + cap - 1
    assert all(isinstance(a, Prefix) for a in answers)
    assert len({id(a.buffer) for a in answers}) == 1


class _SliceOnly(list):
    """A context list that cannot be walked, and counts the entries sliced
    from it."""

    read = 0

    def __iter__(self):
        raise AssertionError("the whole buffer was walked")

    def __getitem__(self, i):
        got = super().__getitem__(i)
        if isinstance(i, slice):
            self.read += len(got)
        return got


def test_greedy_steps_and_draft_reads_slice_only_their_new_positions():
    # a step costs its new positions, not a walk of the whole context
    backend = SeededRandomBackend(4, _BIG_VOCAB)
    vocab = list(backend.vocab)
    toks = ["<fix>"] + _BIG_VOCAB[:450]
    buf = _SliceOnly(toks)
    backend.forward(Prefix(buf, len(buf)))
    assert buf.read == len(toks)
    for tok in _BIG_VOCAB[500:510]:
        buf.append(tok)
        toks.append(tok)
        buf.read = 0
        got = backend.forward(Prefix(buf, len(buf)))
        assert buf.read == 1
        assert list(got) == seeded_random_ref(4, vocab, toks)
    n = len(toks)
    draft = _SliceOnly(_BIG_VOCAB[600:640])
    draft.read = buf.read = 0
    got = backend.forward(Extended(Prefix(buf, n), draft))
    want = seeded_random_ref(4, vocab, toks + _BIG_VOCAB[600:640])
    assert got[n + 9] == want[n + 9] and (buf.read, draft.read) == (0, 10)
    assert got[n + 20] == want[n + 20] and (buf.read, draft.read) == (0, 21)


def test_verify_passes_read_the_prefix_cache_and_never_write_it():
    backend = SeededRandomBackend(2, _BIG_VOCAB)
    vocab = list(backend.vocab)
    buf = ["<fix>"] + _BIG_VOCAB[:30] + ["<sep>"]
    draft = _BIG_VOCAB[100:112]
    backend.forward(Prefix(buf, len(buf)))
    hashed = _count_hashes(backend)
    # a verify pass: the cached buffer plus a draft hashes draft positions
    # only as they are read, each once
    got = backend.forward(Extended(Prefix(buf, len(buf)), draft))
    assert hashed == []
    want = seeded_random_ref(2, vocab, buf + draft)
    assert got[:len(buf)] == want[:len(buf)] and hashed == []
    assert got[len(buf) + 2] == want[len(buf) + 2]
    assert hashed == draft[:3]
    assert list(got) == want
    assert hashed == draft
    # the draft was not committed: the buffer grown by one hashes one
    del hashed[:]
    buf.append("w7")
    got = backend.forward(Prefix(buf, len(buf)))
    assert list(got) == seeded_random_ref(2, vocab, buf)
    assert hashed == ["w7"]


def test_list_passes_hash_from_scratch_and_leave_the_cache_alone():
    backend = SeededRandomBackend(2, _BIG_VOCAB)
    vocab = list(backend.vocab)
    buf = ["<fix>"] + _BIG_VOCAB[:30] + ["<sep>"]
    backend.forward(Prefix(buf, len(buf)))
    hashed = _count_hashes(backend)
    inp = buf + ["w5"]
    assert backend.forward(inp) == seeded_random_ref(2, vocab, inp)
    assert hashed == inp
    del hashed[:]
    buf.append("w7")
    assert list(backend.forward(Prefix(buf, len(buf)))) == seeded_random_ref(2, vocab, buf)
    assert hashed == ["w7"]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32),
       st.lists(st.tuples(st.integers(0, 1 << 20), st.lists(_GROW_TOKS, max_size=6),
                          st.integers(0, 1 << 20)), min_size=1, max_size=8))
def test_a_new_buffer_reuses_the_head_it_shares_with_the_cached_one(seed, buffers):
    # each buffer starts with a head of the one before and is read as a
    # Prefix of some length: only its positions past the head that the
    # cached buffer shares, as far as the cache had hashed it, are hashed
    backend = SeededRandomBackend(seed, ["a", "b", "x"])
    vocab = list(backend.vocab)
    hashed = _count_hashes(backend)
    answers = []
    old, cached = [], 0
    for cut, toks, r in buffers:
        buf = old[:cut % (len(old) + 1)] + toks
        n = r % (len(buf) + 1)
        before = len(hashed)
        answers.append((list(buf[:n]), backend.forward(Prefix(buf, n))))
        kept = longest_matching_prefix(old[:cached], buf[:n])
        assert len(hashed) - before == n - kept
        old, cached = buf, n
    # the new slots are copies: no earlier answer changed
    for toks, answer in answers:
        assert list(answer) == seeded_random_ref(seed, vocab, toks)


def _count_calls(backend: SeededRandomBackend, hashed: list[str]) -> list[tuple]:
    """One entry per later forward pass: the kind of its input, its context
    length, its draft (None for a Prefix), the count of ``hashed`` when the
    pass was called and when it returned."""
    passes = []
    forward = backend.forward

    def counted_forward(toks):
        before = len(hashed)
        preds = forward(toks)
        view = toks.context if isinstance(toks, Extended) else toks
        passes.append((type(toks), len(view), getattr(toks, "draft", None), before, len(hashed)))
        return preds

    backend.forward = counted_forward
    return passes


def test_random_decode_after_greedy_reuses_the_prompt_hashes():
    # the first verify pass of an accelerated decode finds the prompt in the
    # greedy decode's buffer, which the backend cached
    prompt = ["<fix>"] + _BIG_VOCAB[:40] + ["<sep>"]
    backend = SeededRandomBackend(8, _BIG_VOCAB)
    ar = ar_decode(backend, prompt, 50)
    hashed = _count_hashes(backend)
    passes = _count_calls(backend, hashed)
    acc = accelerated_decode(backend, prompt, DraftSource.from_tokens(_BIG_VOCAB[:40]),
                             DecodeLimits(max_tokens=50))
    assert acc.tokens == ar.tokens
    kind, n, _, before, after = passes[0]
    assert (kind, n, before, after) == (Extended, len(prompt), 0, 0)


@pytest.mark.parametrize("draft_kind", ["useless", "mostly right"])
def test_random_accelerated_decode_hashes_each_greedy_position_once(draft_kind):
    prompt = ["<fix>"] + _BIG_VOCAB[:40] + ["<sep>"]
    want = ar_decode(SeededRandomBackend(8, _BIG_VOCAB), prompt, 200).tokens
    if draft_kind == "useless":
        draft = _BIG_VOCAB[:40]
    else:
        draft = [";" if i % 9 == 8 else tok for i, tok in enumerate(want)]
    backend = SeededRandomBackend(8, _BIG_VOCAB)
    vocab = list(backend.vocab)
    hashed = _count_hashes(backend)
    passes = _count_calls(backend, hashed)
    result = accelerated_decode(backend, prompt, DraftSource.from_tokens(draft),
                                DecodeLimits(max_tokens=200))
    assert result.tokens == want
    kinds = [kind for kind, *_ in passes]
    assert result.stats.ar_fallback_tokens == kinds.count(Prefix) > 1
    assert kinds.count(Extended) == result.stats.forward_passes - kinds.count(Prefix) > 0
    # a pass hashes in its call only the context positions past the previous
    # pass's: a greedy step its new token, a verify pass the tokens accepted
    # since, and the first pass, with nothing cached, its whole prompt
    lengths = [0] + [n for _, n, *_ in passes]
    assert [after - before for *_, before, after in passes] == \
        [b - a for a, b in zip(lengths, lengths[1:])]
    assert 1 in [after - before for kind, *_, before, after in passes if kind is Prefix]
    # the decoder reads a verify pass's draft up to its first disagreement
    # in slices of 8, 8, 16, 32...: the draft positions hashed between a
    # verify pass and the next pass are the k accepted ones and at most the
    # rest of the slice that holds the correction
    ends = [before for *_, before, _ in passes[1:]] + [len(hashed)]
    ctx = prompt + result.tokens
    verify = 0
    for (kind, n, draft, _, after), end in zip(passes, ends):
        if kind is Extended:
            k = longest_matching_prefix(seeded_random_ref(8, vocab, ctx[:n] + draft)[n - 1:],
                                        draft)
            assert k <= end - after <= min(len(draft), max(8, 1 << k.bit_length()))
            verify += 1
    assert verify > 0


@pytest.mark.parametrize("make", [
    lambda: make_repair_oracle(["a", ";"], ["b", ";"]),
    lambda: SeededRandomBackend(4, ["a", "b", ";"]),
], ids=["oracle", "random"])
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


_THREAD_DECODES = 25


def test_oracle_shared_by_threads_decodes_as_a_serial_run():
    # each thread's context is its own buffer, so the threads keep replacing
    # the oracle's cached buffer and growing its stream
    prompt = ["<fix>"] + [f"b{i % 7}" for i in range(60)] + ["<sep>"]
    target = [f"t{i % 11}" for i in range(120)]
    serial = TargetOracleBackend()
    serial.script(prompt, target)
    want = [ar_decode(serial, prompt, cap).tokens for cap in (40, 200)]
    backend = TargetOracleBackend()
    backend.script(prompt, target)
    runs, errors = [], []

    def decode(t: int) -> None:
        try:
            for i in range(_THREAD_DECODES):
                cap = (40, 200)[(t + i) % 2]
                if ar_decode(backend, prompt, cap).tokens != want[(t + i) % 2]:
                    errors.append((t, i))
                runs.append(t)
        except Exception as exc:  # reported below with the thread that raised it
            errors.append((t, exc))

    threads = [threading.Thread(target=decode, args=(t,)) for t in range(4)]
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
    assert len(runs) == 4 * _THREAD_DECODES


def test_random_shared_by_threads_decodes_as_a_serial_run():
    # each thread decodes in its own buffers, so the threads keep replacing
    # the backend's slot while other threads' verify passes read theirs
    prompt = ["<fix>"] + [f"w{i % 7}" for i in range(60)] + ["<sep>"]
    serial = SeededRandomBackend(6, _BIG_VOCAB)
    greedy = ar_decode(serial, prompt, 200).tokens
    # a draft that is right but for every ninth token, so verify passes accept
    source = DraftSource.from_tokens(
        [";" if i % 9 == 8 else tok for i, tok in enumerate(greedy)])
    caps = (40, 200)
    want = [(ar_decode(serial, prompt, cap),
             accelerated_decode(serial, prompt, source, DecodeLimits(max_tokens=cap)))
            for cap in caps]
    backend = SeededRandomBackend(6, _BIG_VOCAB)
    runs, errors = [], []

    def decode(t: int) -> None:
        try:
            for i in range(_THREAD_DECODES):
                cap = caps[(t + i) % 2]
                got = (ar_decode(backend, prompt, cap),
                       accelerated_decode(backend, prompt, source,
                                          DecodeLimits(max_tokens=cap)))
                if got != want[(t + i) % 2]:
                    errors.append((t, i))
                runs.append(t)
        except Exception as exc:  # reported below with the thread that raised it
            errors.append((t, exc))

    threads = [threading.Thread(target=decode, args=(t,)) for t in range(4)]
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
    assert len(runs) == 4 * _THREAD_DECODES


def test_importing_repairkit_and_its_cli_loads_no_unused_modules():
    # every CLI call pays for the import: value types are NamedTuples and the
    # means are math.fsum, so none of these is needed
    unused = ("numpy", "dataclasses", "inspect", "statistics")
    env = dict(os.environ, PYTHONPATH=str(Path(repairkit.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, repairkit, repairkit.cli; "
         f"print(sorted(m for m in {unused!r} if m in sys.modules))"],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert out.stdout.strip() == "[]"
