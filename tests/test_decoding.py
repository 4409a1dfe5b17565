import json
import os
import random
import re
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repairkit import decoding
from repairkit.backends import (EOS, SeededRandomBackend, TargetOracleBackend,
                                make_repair_oracle)
from repairkit.decoding import (DecodeLimits, DecodeResult, DecodeStats,
                                DraftSource, Extended, Prefix, accelerated_decode,
                                aggregate_reports, ar_decode, compute_metrics,
                                draft_generate, longest_matching_prefix,
                                repair_prompt)
from repairkit.errors import (BackendContractError, DegenerateInputError,
                              LosslessnessError)
from repairkit.mask import MaskConfig
from repairkit.source import parse
from repairkit.synthetic import make_pair
from repairkit.triage import ExecutorConfig

from conftest import SUM_OK, SUM_WRONG_OP, load_script
from oracles import accelerated_decode_ref


# ---------------------------------------------------------------------------
# chunking and draft generation


def test_chunk_ranges_split_on_boundaries():
    toks = ["a", "=", ";", "{", "x", ";", "}"]
    assert DraftSource.from_tokens(toks).chunks == ((0, 3), (3, 4), (4, 6), (6, 7))


def test_chunk_ranges_keep_trailing_partial_statement():
    assert DraftSource.from_tokens(["a", "b"]).chunks == ((0, 2),)
    assert DraftSource.from_tokens([]).chunks == ()


def test_longest_matching_prefix():
    assert longest_matching_prefix(["a", "b", "c"], ["a", "b", "x"]) == 2
    assert longest_matching_prefix([], ["a"]) == 0
    assert longest_matching_prefix(["a"], ["a"]) == 1


def test_first_draft_is_the_whole_stream():
    src = DraftSource.from_tokens(["x", ";", "y", ";"])
    draft, anchor = draft_generate(src, [], 0)
    assert draft == ["x", ";", "y", ";"]
    assert anchor == 0


def test_draft_resumes_after_a_matched_statement():
    src = DraftSource.from_tokens(["a", ";", "b", ";", "c", ";"])
    draft, anchor = draft_generate(src, ["a", ";"], 0)
    assert draft == ["b", ";", "c", ";"]
    assert anchor == 2


def test_draft_matching_is_forward_only():
    # the emitted chunk exists only before the anchor: stay put
    src = DraftSource.from_tokens(["a", ";", "b", ";"])
    draft, anchor = draft_generate(src, ["a", ";"], 2)
    assert anchor == 2
    assert draft == ["b", ";"]


def test_draft_without_boundary_keeps_the_anchor():
    src = DraftSource.from_tokens(["a", ";", "b", ";"])
    draft, anchor = draft_generate(src, ["q", "r"], 2)
    assert (draft, anchor) == (["b", ";"], 2)


def test_repeated_statements_match_the_next_occurrence():
    toks = ["x", ";", "x", ";", "y", ";"]
    src = DraftSource.from_tokens(toks)
    draft, anchor = draft_generate(src, ["p", ";", "x", ";"], 2)
    # anchor 2 forces the second "x ;" chunk, resuming at "y"
    assert anchor == 4
    assert draft == ["y", ";"]


# ---------------------------------------------------------------------------
# the Prefix view


def test_prefix_reads_only_its_first_n_entries():
    buf = ["a", "b", "c", "d", "e"]
    view = Prefix(buf, 3)
    assert len(view) == 3
    assert [view[0], view[2], view[-1], view[-3]] == ["a", "c", "c", "a"]
    for i in (3, 4, -4):
        with pytest.raises(IndexError):
            view[i]
    assert view[:] == ["a", "b", "c"] and type(view[:]) is list
    assert view[1:10] == ["b", "c"]
    assert view[::2] == ["a", "c"]
    assert view[::-1] == ["c", "b", "a"]
    assert view[-2::-2] == ["b"]
    assert list(view) == ["a", "b", "c"]
    buf.append("f")
    assert list(view) == ["a", "b", "c"] and len(view) == 3
    assert list(Prefix(buf, 0)) == [] and Prefix(buf, 0)[:] == []


def test_prefix_refuses_a_length_outside_its_buffer():
    for n in (-1, 3):
        with pytest.raises(ValueError):
            Prefix(["a", "b"], n)


def test_prefix_refuses_a_length_that_is_not_an_int():
    # 2.0 passed the range check, then len() and both backends raised
    for n in (2.0, 1.5, "2", None):
        with pytest.raises(TypeError):
            Prefix(["a", "b"], n)


def test_prefix_refuses_a_buffer_that_is_not_a_list():
    # a backend compares the buffer's slices with its own lists
    for buffer in (("a", "b"), "ab", Prefix(["a", "b"], 2)):
        with pytest.raises(TypeError):
            Prefix(buffer, 2)


_SLICE_BOUND = st.one_of(st.none(), st.integers(-8, 8))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 6), st.integers(0, 3), _SLICE_BOUND, _SLICE_BOUND,
       st.one_of(st.none(), st.integers(-3, 3).filter(bool)))
def test_prefix_slices_like_a_list(n, extra, start, stop, step):
    buf = [f"t{i}" for i in range(n + extra)]
    assert Prefix(buf, n)[start:stop:step] == buf[:n][start:stop:step]


class _SliceReads(list):
    """A list that records the slices read from it."""

    def __init__(self, items=()):
        super().__init__(items)
        self.reads = []

    def __getitem__(self, i):
        if isinstance(i, slice):
            self.reads.append((i.start, i.stop))
        return super().__getitem__(i)


def test_a_prefix_slice_reads_only_the_slice():
    # the decoder slices an oracle's Prefix answer on every verify pass
    buf = _SliceReads(f"t{i}" for i in range(1000))
    view = Prefix(buf, 900)
    assert view[10:13] == ["t10", "t11", "t12"]
    assert view[-2:] == ["t898", "t899"]
    assert view[5:2:-1] == ["t5", "t4", "t3"]
    assert buf.reads == [(10, 13), (898, 900), (5, 2)]


class _Index(int):
    """An int subclass, which takes the general index path."""


def _read(view, i):
    try:
        return view[i]
    except IndexError:
        return IndexError


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(max_size=2), max_size=8, unique=True), st.data(),
       _SLICE_BOUND, _SLICE_BOUND, st.one_of(st.none(), st.integers(-3, 3).filter(bool)))
def test_the_unchecked_prefix_reads_like_the_checked_one(buf, data, start, stop, step):
    # the decoders and the mock backends build their views with decoding._prefix
    n = data.draw(st.integers(0, len(buf)))
    checked, unchecked, want = Prefix(buf, n), decoding._prefix(buf, n), buf[:n]
    assert type(unchecked) is Prefix
    for i in [*range(-n - 2, n + 2), True, False, _Index(n - 1), _Index(n)]:
        assert _read(checked, i) == _read(unchecked, i) == _read(want, i), i
    assert checked[start:stop:step] == unchecked[start:stop:step] == want[start:stop:step]
    assert len(checked) == len(unchecked) == n
    assert list(checked) == list(unchecked) == want


# ---------------------------------------------------------------------------
# the Extended view


def test_extended_reads_its_context_then_its_draft():
    buf = ["a", "b", "c", "d"]
    draft = ["x", "y"]
    view = Extended(Prefix(buf, 2), draft)
    assert len(view) == 4
    assert [view[0], view[1], view[2], view[3], view[-1], view[-4]] == \
        ["a", "b", "x", "y", "y", "a"]
    for i in (4, 5, -5):
        with pytest.raises(IndexError):
            view[i]
    assert view[:] == ["a", "b", "x", "y"] and type(view[:]) is list
    assert view[1:3] == ["b", "x"]
    assert view[::-1] == ["y", "x", "b", "a"]
    assert list(view) == ["a", "b", "x", "y"]
    # the buffer grows past the context: the view does not see it
    buf.append("e")
    assert list(view) == ["a", "b", "x", "y"] and len(view) == 4
    assert list(Extended(Prefix(buf, 0), [])) == [] and Extended(Prefix(buf, 0), [])[:] == []


def test_extended_refuses_a_context_or_draft_of_the_wrong_type():
    for context in (["a"], ("a",), Extended(Prefix(["a"], 1), [])):
        with pytest.raises(TypeError):
            Extended(context, ["x"])
    for draft in (("x",), "x", Prefix(["x"], 1)):
        with pytest.raises(TypeError):
            Extended(Prefix(["a"], 1), draft)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 5), st.integers(0, 3), st.integers(0, 5), _SLICE_BOUND, _SLICE_BOUND,
       st.one_of(st.none(), st.integers(-3, 3).filter(bool)))
def test_extended_reads_like_the_joined_list(n, extra, d, start, stop, step):
    buf = [f"t{i}" for i in range(n + extra)]
    draft = [f"d{j}" for j in range(d)]
    view, want = Extended(Prefix(buf, n), draft), buf[:n] + draft
    assert view[start:stop:step] == want[start:stop:step]
    for i in range(-len(want) - 2, len(want) + 2):
        if -len(want) <= i < len(want):
            assert view[i] == want[i]
        else:
            with pytest.raises(IndexError):
                view[i]


# ---------------------------------------------------------------------------
# plain decoding


def test_ar_decode_emits_one_token_per_pass():
    buggy = ["a", ";", "b", ";"]
    backend = make_repair_oracle(buggy, ["a", ";", "c", ";"])
    res = ar_decode(backend, backend.prompt)
    assert res.tokens == ["a", ";", "c", ";", EOS]
    assert res.stats.forward_passes == len(res.tokens)
    assert res.stats.ar_fallback_tokens == res.stats.tokens_emitted
    assert not res.truncated


def test_ar_decode_truncates_at_the_cap():
    backend = make_repair_oracle(["a"], ["b"] * 50)
    res = ar_decode(backend, backend.prompt, max_tokens=10)
    assert len(res.tokens) == 10
    assert res.truncated


def test_ar_decode_rejects_empty_prompt():
    backend = make_repair_oracle(["a"], ["b"])
    with pytest.raises(DegenerateInputError):
        ar_decode(backend, [])


# ---------------------------------------------------------------------------
# accelerated decoding


def _run_pair(buggy, target, **limit_kwargs):
    backend = make_repair_oracle(buggy, target)
    limits = DecodeLimits(**limit_kwargs) if limit_kwargs else None
    fast = accelerated_decode(backend, backend.prompt, DraftSource.from_tokens(buggy),
                              limits)
    slow = ar_decode(backend, backend.prompt,
                     limits.max_tokens if limits else 4192)
    return fast, slow


def test_echo_needs_very_few_passes():
    buggy = ["x", "=", "1", ";", "y", "=", "2", ";"]
    fast, slow = _run_pair(buggy, list(buggy))
    assert fast.tokens == slow.tokens
    assert fast.stats.forward_passes <= 2
    assert slow.stats.forward_passes == len(buggy) + 1


def test_single_edit_is_lossless_and_fast():
    buggy = [t for i in range(20) for t in (f"v{i}", "=", f"v{i}", "+", ";")]
    target = list(buggy)
    target[52] = "9"  # middle statement, one token changed
    fast, slow = _run_pair(buggy, target)
    assert fast.tokens == slow.tokens
    assert fast.stats.forward_passes < slow.stats.forward_passes / 4


def test_stats_buckets_partition_the_output():
    buggy = ["a", ";", "b", ";", "c", ";"]
    target = ["a", ";", "x", "y", ";", "c", ";"]
    fast, slow = _run_pair(buggy, target)
    assert fast.tokens == slow.tokens
    s = fast.stats
    assert s.tokens_emitted == len(fast.tokens)
    assert s.draft_accepted + s.corrections + s.ar_fallback_tokens == s.tokens_emitted


def test_boundary_correction_realigns_without_fallback():
    buggy = ["a", "b", ";"]
    target = ["a", ";", "b", ";"]
    backend = make_repair_oracle(buggy, target)
    fast = accelerated_decode(backend, backend.prompt, DraftSource.from_tokens(buggy))
    assert fast.tokens == target + [EOS]
    assert fast.stats.ar_fallback_tokens == 0
    assert fast.stats.forward_passes == 2


def test_empty_draft_degrades_to_plain_decoding():
    backend = make_repair_oracle([], ["a", ";", "b", ";"])
    # scripted prompt for an empty buggy stream
    fast = accelerated_decode(backend, backend.prompt, DraftSource.from_tokens([]))
    slow = ar_decode(backend, backend.prompt)
    assert fast.tokens == slow.tokens
    assert fast.stats.draft_accepted == 0
    assert fast.stats.forward_passes == slow.stats.forward_passes


def test_truncation_is_consistent_between_modes():
    buggy = ["a", ";"] * 30
    target = ["z", ";"] * 40
    fast, slow = _run_pair(buggy, target, max_tokens=17)
    assert fast.truncated and slow.truncated
    assert fast.tokens == slow.tokens
    assert len(fast.tokens) == 17


# ---------------------------------------------------------------------------
# accounting against the emit-per-token reference


def _run_spied(decode, backend, prompt, buggy, limits):
    """Decode, recording each draft_generate call as (emitted, anchor)."""
    calls = []

    def spy(source, emitted, anchor):
        calls.append((len(emitted), anchor))
        return real(source, emitted, anchor)

    real = decoding.draft_generate
    with mock.patch.object(decoding, "draft_generate", spy):
        res = decode(backend, prompt, DraftSource.from_tokens(buggy), limits)
    return res.tokens, res.truncated, res.stats._asdict(), calls


def _check_against_reference(backend, prompt, buggy, limits):
    got = _run_spied(accelerated_decode, backend, prompt, buggy, limits)
    want = _run_spied(accelerated_decode_ref, backend, prompt, buggy, limits)
    assert got == want
    return got


@pytest.mark.parametrize(
    "buggy, target, max_tokens, expected",
    [
        # expected: (accepted, corrections, fallback tokens, passes, truncated)
        (["a", ";", EOS, "b", ";"], ["a", ";"], 4192, (3, 0, 0, 1, False)),
        (["a", ";", "b", ";"], ["a", ";"], 4192, (2, 1, 0, 1, False)),
        (["a", ";", "b", ";"], ["a", ";", "b", ";"], 3, (3, 0, 0, 1, True)),
        (["a", ";", "b", ";"], ["a", ";", "c", ";"], 3, (2, 1, 0, 1, True)),
        (["a", ";"], ["a", ";", "b", "c", ";"], 4192, (2, 1, 3, 4, False)),
    ],
    ids=["eos-in-draft", "eos-correction", "cap-in-draft", "cap-on-correction",
         "exhausted-draft"],
)
def test_each_exit_matches_reference(buggy, target, max_tokens, expected):
    backend = make_repair_oracle(buggy, target)
    limits = DecodeLimits(max_tokens=max_tokens)
    _, truncated, stats, _ = _check_against_reference(
        backend, backend.prompt, buggy, limits)
    assert (stats["draft_accepted"], stats["corrections"],
            stats["ar_fallback_tokens"], stats["forward_passes"],
            truncated) == expected


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**48))
def test_accounting_matches_reference_on_random_models(seed):
    # tiny vocabularies, so drafts are sometimes accepted, EOS sometimes
    # sits inside an accepted draft, and every boundary token turns up
    rng = random.Random(seed)
    vocab = [f"t{i}" for i in range(rng.randrange(1, 4))] + [EOS, ";", "{", "}"]
    buggy = [rng.choice(vocab) for _ in range(rng.randrange(0, 30))]
    backend = SeededRandomBackend(rng.randrange(2**32), vocab)
    limits = DecodeLimits(max_tokens=rng.randrange(1, 40))
    _check_against_reference(backend, repair_prompt(buggy), buggy, limits)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**48))
def test_accounting_matches_reference_on_mostly_right_drafts(seed):
    rng = random.Random(seed)
    vocab = ["a", "b", "c", "=", ";", "{", "}"]
    fixed = [rng.choice(vocab) for _ in range(rng.randrange(0, 40))]
    buggy = list(fixed)
    for _ in range(rng.randrange(0, 4)):
        i = rng.randrange(len(buggy) + 1)
        op = rng.choice(("replace", "insert", "delete"))
        if op != "insert" and i < len(buggy):
            del buggy[i]
        if op != "delete":
            buggy.insert(i, rng.choice(vocab))
    if rng.random() < 0.3:
        buggy.append(EOS)  # accepted inside the draft when the rest is right
    backend = make_repair_oracle(buggy, fixed)
    limits = DecodeLimits(max_tokens=rng.randrange(1, len(fixed) + 8))
    _check_against_reference(backend, backend.prompt, buggy, limits)


# ---------------------------------------------------------------------------
# the greedy bridge: doubles while the draft is ignored, resets otherwise


def test_bridge_doubles_while_the_model_ignores_the_draft():
    vocab = [f"w{i}" for i in range(1000)]
    backend = SeededRandomBackend(1, vocab)
    rng = random.Random(0)
    draft = [rng.choice(vocab) for _ in range(40)]
    prompt = repair_prompt(draft)
    tokens, _, stats, calls = _run_spied(
        accelerated_decode, backend, prompt, draft,
        DecodeLimits(max_tokens=256))
    assert tokens == ar_decode(backend, prompt, 256).tokens
    assert stats["forward_passes"] == 256
    # rounds of 1 verify pass plus bridges of 5, 10, 20, 40, 80, then the cap;
    # a fixed bridge of 5 makes 43 verify passes offering 1720 draft tokens
    assert [n for n, _ in calls] == [0, 6, 17, 38, 79, 160]
    assert sum(len(draft) - anchor for _, anchor in calls) == 240


def _fresh(lo: int, hi: int) -> list[str]:
    return [f"x{i}" for i in range(lo, hi)]


@pytest.mark.parametrize(
    "target, expected",
    [
        # round 1 stalls (bridge 5, now 10); round 2 accepts "a" (bridge 10),
        # round 3 bridges 5 again and stalls, so round 4 bridges 10
        (_fresh(0, 6) + ["a"] + _fresh(7, 40), [0, 6, 18, 24, 35]),
        # round 2's bridge closes a statement at ";", round 3 bridges 5 again
        (_fresh(0, 10) + [";"] + _fresh(11, 40), [0, 6, 11, 17, 28]),
        # round 2's correction itself closes a statement
        (_fresh(0, 6) + [";"] + _fresh(7, 40), [0, 6, 7, 13, 24]),
    ],
    ids=["accepted-token", "bridge-boundary", "correction-boundary"],
)
def test_bridge_resets_after_progress(target, expected):
    draft = ["a", "b", "c", "d", "e", "f"]
    backend = make_repair_oracle(draft, target)
    tokens, _, _, calls = _check_against_reference(backend, backend.prompt,
                                                   draft, DecodeLimits())
    assert tokens == target + [EOS]
    assert [n for n, _ in calls][:len(expected)] == expected


@pytest.mark.parametrize("length", [200, 1000])
def test_scaling_sweep_passes_are_unchanged(length):
    passes = []
    for regions in (1, 2, 4, 8):
        pair = make_pair(length, regions, random.Random(0))
        backend = make_repair_oracle(pair.buggy_tokens, pair.target_tokens)
        res = accelerated_decode(backend, backend.prompt,
                                 DraftSource.from_tokens(pair.buggy_tokens),
                                 DecodeLimits(max_tokens=length + 8))
        assert res.tokens == list(pair.target_tokens) + [EOS]
        passes.append(res.stats.forward_passes)
    assert passes == [9, 17, 33, 65]


# ---------------------------------------------------------------------------
# losslessness property


def _random_case(seed):
    rng = random.Random(seed)
    vocab = [f"t{i}" for i in range(rng.randrange(4, 14))] + [";", "{", "}"]
    buggy = [rng.choice(vocab) for _ in range(rng.randrange(0, 40))]
    prompt = repair_prompt(buggy)
    backend = SeededRandomBackend(rng.randrange(2**32), vocab)
    return backend, prompt, buggy


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**48))
def test_fast_decode_is_lossless_on_random_models(seed):
    backend, prompt, buggy = _random_case(seed)
    limits = DecodeLimits(max_tokens=64)
    fast = accelerated_decode(backend, prompt, DraftSource.from_tokens(buggy), limits)
    slow = ar_decode(backend, prompt, limits.max_tokens)
    assert fast.tokens == slow.tokens


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**48))
def test_stats_invariants_on_random_models(seed):
    backend, prompt, buggy = _random_case(seed)
    limits = DecodeLimits(max_tokens=48)
    fast = accelerated_decode(backend, prompt, DraftSource.from_tokens(buggy), limits)
    s = fast.stats
    assert s.tokens_emitted == len(fast.tokens)
    assert s.draft_accepted + s.corrections + s.ar_fallback_tokens == s.tokens_emitted
    assert s.forward_passes >= 1


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**48), st.sampled_from(["random", "oracle"]))
def test_decode_is_lossless_under_any_draft(seed, kind):
    # the accept, correct and consistency code must not lean on the drafts
    # draft_generate makes: a stand-in offers random drafts of 0-20 tokens,
    # EOS and boundaries included, and moves the anchor at random
    rng = random.Random(seed)
    words = [f"t{i}" for i in range(rng.randrange(1, 6))] + [";", "{", "}"]
    vocab = words + [EOS]
    buggy = [rng.choice(vocab) for _ in range(rng.randrange(0, 30))]
    if kind == "oracle":
        backend = make_repair_oracle(
            buggy, [rng.choice(words) for _ in range(rng.randrange(0, 40))])
        prompt = backend.prompt
    else:
        backend = SeededRandomBackend(rng.randrange(2**32), vocab)
        prompt = repair_prompt(buggy)
    limits = DecodeLimits(max_tokens=rng.randrange(1, 48))
    offered = []

    def hostile(source, emitted, anchor):
        draft = [rng.choice(vocab) for _ in range(rng.randrange(0, 21))]
        offered.append(draft)
        return draft, rng.randrange(0, 40)

    with mock.patch.object(decoding, "draft_generate", hostile):
        fast = accelerated_decode(backend, prompt, DraftSource.from_tokens(buggy), limits)
    slow = ar_decode(backend, prompt, limits.max_tokens)
    assert (fast.tokens, fast.truncated) == (slow.tokens, slow.truncated)
    s = fast.stats
    assert (s.tokens_emitted == s.draft_accepted + s.corrections + s.ar_fallback_tokens
            == len(fast.tokens))
    verify_passes = sum(map(bool, offered))
    assert s.forward_passes == verify_passes + s.ar_fallback_tokens
    assert 0 <= s.corrections <= verify_passes  # at most one per verify pass


_ROOT = Path(__file__).resolve().parent.parent


def test_readme_library_example_runs(capsys):
    readme = (_ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library example\n+```python\n(.*?)```", readme, re.DOTALL)
    scope = {"buggy_code": SUM_WRONG_OP, "fixed_code": SUM_OK,
             "buggy_tokens": parse(SUM_WRONG_OP).token_texts(),
             "fixed_tokens": parse(SUM_OK).token_texts(),
             "per_statement_losses": [1.0] * len(parse(SUM_OK).statements)}
    exec(block.group(1), scope)
    assert float(capsys.readouterr().out) > 1


def _fuzz_script():
    return load_script("fuzz_losslessness")


@pytest.mark.parametrize("argv", [["--trials", "-5"], ["--trials", "0"],
                                  ["--max-tokens", "0"], ["--max-draft", "-1"]])
def test_fuzz_script_rejects_out_of_range_options(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        _fuzz_script().main(argv)
    assert exc.value.code == 2
    assert "must be >=" in capsys.readouterr().err


def test_fuzz_script_passes_a_short_run(capsys):
    assert _fuzz_script().main(["--trials", "40", "--max-draft", "60"]) == 0
    assert "40 trials lossless" in capsys.readouterr().out


def test_scaling_script_writes_its_rows(tmp_path, capsys):
    out = tmp_path / "rows.json"
    argv = ["--lengths", "200", "--regions", "1,2", "--json", str(out)]
    assert load_script("run_scaling_experiment").main(argv) == 0
    rows = json.loads(out.read_text())
    assert [set(row) for row in rows] == [{
        "length", "regions", "forward_passes_ar", "forward_passes_acc",
        "step_efficiency", "speedup"}] * 2
    assert [row["forward_passes_acc"] for row in rows] == [9, 17]
    assert "wrote 2 rows" in capsys.readouterr().err


@pytest.mark.parametrize("artifact", ["corpus", "decode"])
def test_digest_script_prints_one_digest_per_seed(artifact, capsys):
    perfbench = _ROOT / "perfbench"
    before = {p: p.stat().st_mtime_ns for p in perfbench.rglob("*")}
    cwd = os.getcwd()
    assert load_script("digest").main([artifact, "--seeds", "1"]) == 0
    assert os.getcwd() == cwd
    assert re.fullmatch(r"seed 1: [0-9a-f]{64}\n", capsys.readouterr().out)
    assert {p: p.stat().st_mtime_ns for p in perfbench.rglob("*")} == before


# What the corpus, decode and mask builds wrote when these pins were set; a
# change that alters any output on purpose updates them.  Triage is left out:
# its diagnostics come from the local gcc.
_DIGESTS = {
    "corpus": ["cc0d83df86e2beb83fc45db70c3bbfd6eb1e8c6166e31fd6654fb9cea3eda28b",
               "d3a0091fb712fd346fac62f539bafba6af8d7bb1e7badb3a1635614ec07ab072"],
    "decode": ["cfd9e35e7e5b879223046e57c7f0d1e273ceb743249a219aa60e12af8dc8c787"],
    "mask": ["95793edbb0219c73a92cd7a290967547c7e0eeef506106c65eb04895852c5433"],
}


@pytest.mark.parametrize("artifact", sorted(_DIGESTS))
def test_digest_script_prints_the_pinned_digests(artifact, capsys):
    pins = _DIGESTS[artifact]
    assert load_script("digest").main([artifact, "--seeds", str(len(pins))]) == 0
    assert capsys.readouterr().out == "".join(
        f"seed {seed}: {pin}\n" for seed, pin in enumerate(pins, 1))


@pytest.mark.parametrize("argv", [["corpus", "--seeds", "0"], ["traces"]],
                         ids=["zero-seeds", "unknown-artifact"])
def test_digest_script_rejects_bad_arguments(argv, capsys):
    # --seeds 0 used to print nothing, so any two checkouts "matched"
    with pytest.raises(SystemExit) as exc:
        load_script("digest").main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


# ---------------------------------------------------------------------------
# backend contract enforcement


class _RewritingBackend:
    """Cheats: predictions depend on the total length, so the already
    emitted region changes under its feet."""

    eos_token = EOS

    def forward(self, tokens):
        return [f"t{len(tokens)}"] * len(tokens)


def test_inconsistent_backend_is_caught_mid_decode():
    backend = _RewritingBackend()
    with pytest.raises(BackendContractError):
        accelerated_decode(backend, ["p"], DraftSource.from_tokens(["a", ";", "b"]),
                           DecodeLimits(max_tokens=30))


class _DriftingBackend:
    """An honest oracle until its first pass is done; from then on it
    re-predicts the emitted tokens at ``drift_at`` (output indices)."""

    eos_token = EOS

    def __init__(self, buggy, target, drift_at):
        self._oracle = make_repair_oracle(buggy, target)
        self.prompt = self._oracle.prompt
        self.drift_at = drift_at
        self.calls = 0

    def forward(self, tokens):
        preds = list(self._oracle.forward(tokens))
        self.calls += 1
        if self.calls > 1:
            for j in self.drift_at:
                preds[len(self.prompt) + j - 1] = f"drift{j}"
        return preds


def test_drift_names_the_first_re_predicted_position():
    buggy = ["a", "=", "1", ";", "b", "=", "2", ";", "c", "=", "3", ";"]
    target = buggy[:10] + ["4", ";"]
    # pass 1 accepts "a = 1 ; b = 2 ; c =" and corrects to "4", a bridge
    # step emits ";", and the verify pass after it sees the drift; the
    # re-check starts at the first emitted token, output index 0
    for drift_at, emitted in [((5, 8), "="), ((0,), "a")]:
        backend = _DriftingBackend(buggy, target, drift_at=drift_at)
        first = drift_at[0]
        position = len(backend.prompt) + first
        with pytest.raises(BackendContractError,
                           match=f"position {position} as 'drift{first}' but previously "
                                 f"emitted '{emitted}'"):
            accelerated_decode(backend, backend.prompt, DraftSource.from_tokens(buggy))
        assert backend.calls == 3


class _OffByBackend:
    """An honest oracle whose passes return ``delta`` predictions too many."""

    eos_token = EOS

    def __init__(self, prompt, target, delta):
        self._oracle = TargetOracleBackend()
        self._oracle.script(prompt, target)
        self.delta = delta

    def forward(self, tokens):
        preds = list(self._oracle.forward(tokens)) + [EOS] * max(self.delta, 0)
        return preds[:len(tokens) + self.delta]


@pytest.mark.parametrize("delta", [-1, 1])
@pytest.mark.parametrize("decode", ["ar", "fast"])
def test_decoders_reject_a_pass_of_the_wrong_length(decode, delta):
    buggy = ["a", "=", "1", ";", "b", "=", "2", ";"]
    prompt = repair_prompt(buggy)
    backend = _OffByBackend(prompt, ["a", "=", "3", ";", "b", "=", "2", ";"], delta)
    with pytest.raises(BackendContractError, match="predictions for"):
        if decode == "ar":
            ar_decode(backend, prompt, max_tokens=6)
        else:
            accelerated_decode(backend, prompt, DraftSource.from_tokens(buggy),
                               DecodeLimits(max_tokens=6))


class _OffByOnStepsBackend(_OffByBackend):
    """An honest oracle except that its answers to a ``Prefix``, a greedy
    step, hold ``delta`` predictions too many."""

    def forward(self, tokens):
        if isinstance(tokens, Prefix):
            return super().forward(tokens)
        return self._oracle.forward(tokens)


@pytest.mark.parametrize("delta", [-1, 1])
def test_accelerated_decode_rejects_a_greedy_step_of_the_wrong_length(delta):
    # the verify passes are honest, so only the greedy bridge's check can fire
    buggy = ["a", "=", "1", ";", "b", "=", "2", ";"]
    prompt = repair_prompt(buggy)
    backend = _OffByOnStepsBackend(prompt, ["a", "=", "3", "+", "4", ";"] + buggy[4:], delta)
    with pytest.raises(BackendContractError, match="predictions for"):
        accelerated_decode(backend, prompt, DraftSource.from_tokens(buggy))


# ---------------------------------------------------------------------------
# metrics


def _result(tokens, passes, sim):
    stats = DecodeStats(forward_passes=passes, tokens_emitted=len(tokens),
                        ar_fallback_tokens=len(tokens), sim_cost=sim)
    return DecodeResult(list(tokens), stats, truncated=False)


def test_compute_metrics_ratios():
    ar = _result(["a", "b", EOS], passes=3, sim=3.0)
    acc = _result(["a", "b", EOS], passes=1, sim=1.5)
    rep = compute_metrics(ar, acc)
    assert rep.tokens == 3
    assert rep.step_efficiency == pytest.approx(3.0)
    assert rep.speedup == pytest.approx(2.0)
    assert rep.tokens_per_s == pytest.approx(3 / 1.5)
    assert rep.avg_time == pytest.approx(1.5)


def test_compute_metrics_accepts_only_sim():
    res = _result(["a", EOS], 2, 2.0)
    assert compute_metrics(res, res, time_source="sim") == compute_metrics(res, res)
    with pytest.raises(ValueError, match="unknown time source 'wall'"):
        compute_metrics(res, res, time_source="wall")


def test_compute_metrics_requires_identical_tokens():
    ar = _result(["a", "b"], 2, 2.0)
    acc = _result(["a", "x"], 2, 2.0)
    with pytest.raises(LosslessnessError):
        compute_metrics(ar, acc)


def test_aggregate_is_a_mean_of_ratios():
    r1 = compute_metrics(_result(["a", EOS], 2, 2.0), _result(["a", EOS], 1, 1.0))
    r2 = compute_metrics(_result(["b", EOS], 4, 4.0), _result(["b", EOS], 1, 1.0))
    agg = aggregate_reports([r1, r2])
    assert agg["mean_step_efficiency"] == pytest.approx((2 + 4) / 2)
    assert agg["programs"] == 2
    assert agg["total_tokens"] == 4


def test_aggregate_refuses_empty_input():
    with pytest.raises(DegenerateInputError):
        aggregate_reports([])


class _PassLengths:
    """An oracle that records ``len(tokens)`` of each forward pass."""

    eos_token = EOS

    def __init__(self, buggy, target):
        self._oracle = make_repair_oracle(buggy, target)
        self.prompt = self._oracle.prompt
        self.lengths = []

    def forward(self, tokens):
        self.lengths.append(len(tokens))
        return self._oracle.forward(tokens)


class _PassInputs:
    """An oracle that records what each forward pass is handed: the
    buffer of a ``Prefix`` or the list itself, and the length."""

    eos_token = EOS

    def __init__(self, buggy, target):
        self._oracle = make_repair_oracle(buggy, target)
        self.prompt = self._oracle.prompt
        self.passes = []

    def forward(self, tokens):
        view = tokens.context if isinstance(tokens, Extended) else tokens
        buffer = view.buffer if isinstance(view, Prefix) else view
        self.passes.append((type(tokens), buffer, len(view)))
        return self._oracle.forward(tokens)


def test_ar_decode_passes_prefixes_of_one_growing_buffer():
    buggy = ["a", "=", "1", ";", "b", "=", "2", ";"]
    backend = _PassInputs(buggy, buggy[:6] + ["5", ";"])
    res = ar_decode(backend, backend.prompt)
    m = len(backend.prompt)
    assert [kind for kind, _, _ in backend.passes] == [Prefix] * len(res.tokens)
    assert len({id(buffer) for _, buffer, _ in backend.passes}) == 1
    assert [n for _, _, n in backend.passes] == list(range(m, m + len(res.tokens)))


def test_accelerated_decode_verifies_extended_views_and_steps_on_prefixes():
    buggy = ["a", "=", "1", ";", "b", "=", "2", ";", "c", "=", "3", ";"]
    backend = _PassInputs(buggy, buggy[:4] + ["b", "=", "5", ";"] + buggy[8:])
    res = accelerated_decode(backend, backend.prompt, DraftSource.from_tokens(buggy))
    kinds = [kind for kind, _, _ in backend.passes]
    assert kinds.count(Prefix) == res.stats.ar_fallback_tokens > 0
    assert kinds.count(Extended) == res.stats.forward_passes - kinds.count(Prefix) > 0
    # every pass, greedy or verify, reads the one context buffer, each pass
    # further along it; no verify pass's draft is written into it
    assert len({id(buffer) for _, buffer, _ in backend.passes}) == 1
    lengths = [n for _, _, n in backend.passes]
    assert lengths == sorted(set(lengths))
    assert backend.passes[0][1] == backend.prompt + res.tokens


class _VerifyReads:
    """An oracle whose verify passes answer with a list that records the
    slices the decoder reads from it."""

    eos_token = EOS

    def __init__(self, buggy, target):
        self._oracle = make_repair_oracle(buggy, target)
        self.prompt = self._oracle.prompt
        self.answers = []

    def forward(self, tokens):
        preds = self._oracle.forward(tokens)
        if isinstance(tokens, Extended):
            preds = _SliceReads(preds)
            self.answers.append((len(tokens.context), len(tokens.draft), preds))
        return preds


def test_a_verify_pass_reads_the_draft_in_doubling_slices():
    # the draft agrees for 20 tokens: the reads of 8, 8 and 16 tokens find
    # the first disagreement, then the 20 tokens and the correction are taken
    buggy = [f"s{i}" if i % 4 < 3 else ";" for i in range(48)]
    target = buggy[:20] + ["fix"] + buggy[21:]
    backend = _VerifyReads(buggy, target)
    res = accelerated_decode(backend, backend.prompt, DraftSource.from_tokens(buggy))
    assert res.tokens == target + [EOS]
    n, d, first = backend.answers[0]
    lo = len(backend.prompt) - 1
    assert (n, d) == (len(backend.prompt), len(buggy))
    assert first.reads == [(lo, n - 1),  # the context, for the consistency check
                           (n - 1, n + 7), (n + 7, n + 15), (n + 15, n + 31),
                           (n - 1, n + 20)]


@pytest.mark.parametrize("decode", ["ar", "fast"])
def test_sim_cost_sums_the_pass_costs_in_pass_order(decode):
    buggy = ["a", "=", "1", ";", "b", "=", "2", ";", "c", "=", "3", ";"]
    target = buggy[:4] + ["b", "=", "5", ";"] + buggy[8:]
    backend = _PassLengths(buggy, target)
    if decode == "ar":
        res = ar_decode(backend, backend.prompt)
    else:
        res = accelerated_decode(backend, backend.prompt,
                                 DraftSource.from_tokens(buggy))
    assert res.tokens == target + [EOS]
    assert len(backend.lengths) == res.stats.forward_passes
    # exact: the float sum accumulated in the order the passes ran
    assert res.stats.sim_cost == sum(1.0 + 0.001 * n for n in backend.lengths)


def test_decode_limits_validation():
    with pytest.raises(ValueError):
        DecodeLimits(max_tokens=0)


@pytest.mark.parametrize("cap", [0, -1])
def test_ar_decode_rejects_a_cap_below_one(cap):
    backend = SeededRandomBackend(1, ["a", "b", ";"])
    with pytest.raises(ValueError, match="max_tokens must be >= 1"):
        ar_decode(backend, ["a", "b"], max_tokens=cap)


@pytest.mark.parametrize("config, change, message", [
    (MaskConfig(), {"sigma": 2.0}, r"sigma must be in \(0, 1\]"),
    (DecodeLimits(), {"max_tokens": 0}, "max_tokens must be >= 1"),
    (ExecutorConfig(), {"timeout_s": float("nan")}, "timeouts must be positive and finite"),
], ids=["MaskConfig", "DecodeLimits", "ExecutorConfig"])
def test_replace_runs_the_config_checks(config, change, message):
    with pytest.raises(ValueError, match=message):
        config._replace(**change)
