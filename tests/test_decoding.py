import importlib.util
import random
from dataclasses import asdict, replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repairkit import decoding
from repairkit.backends import (EOS, SeededRandomBackend, TargetOracleBackend,
                                make_repair_oracle)
from repairkit.decoding import (CostModel, DecodeLimits, DecodeResult,
                                DecodeStats, DraftSource, accelerated_decode,
                                aggregate_reports, ar_decode,
                                chunk_token_ranges, compute_metrics,
                                draft_generate, longest_matching_prefix,
                                probe_backend, repair_prompt)
from repairkit.errors import (BackendContractError, DegenerateInputError,
                              LosslessnessError)
from repairkit.synthetic import make_pair

from oracles import accelerated_decode_ref


# ---------------------------------------------------------------------------
# chunking and draft generation


def test_chunk_ranges_split_on_boundaries():
    toks = ["a", "=", ";", "{", "x", ";", "}"]
    assert chunk_token_ranges(toks) == ((0, 3), (3, 4), (4, 6), (6, 7))


def test_chunk_ranges_keep_trailing_partial_statement():
    assert chunk_token_ranges(["a", "b"]) == ((0, 2),)
    assert chunk_token_ranges([]) == ()


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
    fast = accelerated_decode(backend, backend.prompt, buggy, limits)
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
    fast = accelerated_decode(backend, backend.prompt, buggy)
    assert fast.tokens == target + [EOS]
    assert fast.stats.ar_fallback_tokens == 0
    assert fast.stats.forward_passes == 2


def test_empty_draft_degrades_to_plain_decoding():
    backend = make_repair_oracle([], ["a", ";", "b", ";"])
    # scripted prompt for an empty buggy stream
    fast = accelerated_decode(backend, backend.prompt, [])
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
        res = decode(backend, prompt, buggy, limits)
    stats = asdict(res.stats)
    del stats["wall_time"]
    return res.tokens, res.truncated, stats, calls


def _check_against_reference(backend, prompt, buggy, limits):
    got = _run_spied(accelerated_decode, backend, prompt, buggy, limits)
    want = _run_spied(accelerated_decode_ref, backend, prompt, buggy, limits)
    assert got == want
    return got


@pytest.mark.parametrize(
    "buggy, target, max_tokens, fallback_run, expected",
    [
        # expected: (accepted, corrections, fallback tokens, passes, truncated)
        (["a", ";", EOS, "b", ";"], ["a", ";"], 4192, 5, (3, 0, 0, 1, False)),
        (["a", ";", "b", ";"], ["a", ";"], 4192, 5, (2, 1, 0, 1, False)),
        (["a", ";", "b", ";"], ["a", ";", "b", ";"], 3, 5, (3, 0, 0, 1, True)),
        (["a", ";", "b", ";"], ["a", ";", "c", ";"], 3, 5, (2, 1, 0, 1, True)),
        (["a", ";"], ["a", ";", "b", "c", ";"], 4192, 5, (2, 1, 3, 4, False)),
        (["a", "b", ";"], ["x", "y", ";"], 4192, 0, (0, 4, 0, 4, False)),
    ],
    ids=["eos-in-draft", "eos-correction", "cap-in-draft", "cap-on-correction",
         "exhausted-draft", "no-fallback"],
)
def test_each_exit_matches_reference(buggy, target, max_tokens, fallback_run, expected):
    backend = make_repair_oracle(buggy, target)
    limits = DecodeLimits(max_tokens=max_tokens, fallback_run=fallback_run)
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
    limits = DecodeLimits(max_tokens=rng.randrange(1, 40),
                          fallback_run=rng.randrange(0, 5))
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
    limits = DecodeLimits(max_tokens=rng.randrange(1, len(fixed) + 8),
                          fallback_run=rng.randrange(0, 5))
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
        DecodeLimits(max_tokens=256, fallback_run=5))
    assert tokens == ar_decode(backend, prompt, 256).tokens
    assert stats["forward_passes"] == 256
    # rounds of 1 verify pass plus bridges of 5, 10, 20, 40, 80, then the cap;
    # a fixed bridge of 5 makes 43 verify passes offering 1720 draft tokens
    assert [n for n, _ in calls] == [0, 6, 17, 38, 79, 160]
    assert sum(len(draft) - anchor for _, anchor in calls) == 240


@pytest.mark.parametrize(
    "target, expected",
    [
        # round 2 accepts "a" (bridge 2: p q), round 3 bridges 1 again
        (["x", "y", "a", "z", "p", "q", "r", "s", "t", "u", "v"],
         [0, 2, 6, 8, 11]),
        # round 2's bridge closes a statement at ";", round 3 bridges 1 again
        (["x", "y", "z", "w", ";", "p", "q", "r", "s", "t"],
         [0, 2, 5, 7, 10]),
        # round 2's correction itself closes a statement
        (["x", "y", ";", "p", "q", "r", "s", "t", "u"],
         [0, 2, 3, 5, 8]),
    ],
    ids=["accepted-token", "bridge-boundary", "correction-boundary"],
)
def test_bridge_resets_after_progress(target, expected):
    draft = ["a", "b", "c", "d", "e", "f"]
    backend = make_repair_oracle(draft, target)
    tokens, _, _, calls = _run_spied(accelerated_decode, backend, backend.prompt,
                                     draft, DecodeLimits(fallback_run=1))
    assert tokens == target + [EOS]
    assert [n for n, _ in calls][:len(expected)] == expected


@pytest.mark.parametrize("length", [200, 1000])
def test_scaling_sweep_passes_are_unchanged(length):
    passes = []
    for regions in (1, 2, 4, 8):
        pair = make_pair(length, regions, random.Random(0))
        backend = make_repair_oracle(pair.buggy_tokens, pair.target_tokens)
        res = accelerated_decode(backend, backend.prompt, pair.buggy_tokens,
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
    fast = accelerated_decode(backend, prompt, buggy, limits)
    slow = ar_decode(backend, prompt, limits.max_tokens)
    assert fast.tokens == slow.tokens


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**48), st.integers(0, 3))
def test_stats_invariants_on_random_models(seed, fallback):
    backend, prompt, buggy = _random_case(seed)
    limits = DecodeLimits(max_tokens=48, fallback_run=fallback)
    fast = accelerated_decode(backend, prompt, buggy, limits)
    s = fast.stats
    assert s.tokens_emitted == len(fast.tokens)
    assert s.draft_accepted + s.corrections + s.ar_fallback_tokens == s.tokens_emitted
    assert s.forward_passes >= 1


def _fuzz_script():
    path = Path(__file__).resolve().parent.parent / "scripts" / "fuzz_losslessness.py"
    spec = importlib.util.spec_from_file_location("fuzz_losslessness", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
        accelerated_decode(backend, ["p"], ["a", ";", "b"],
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
        preds = self._oracle.forward(tokens)
        self.calls += 1
        if self.calls > 1:
            for j in self.drift_at:
                preds[len(self.prompt) + j - 1] = f"drift{j}"
        return preds


def test_drift_names_the_first_re_predicted_position():
    buggy = ["a", "=", "1", ";", "b", "=", "2", ";", "c", "=", "3", ";"]
    target = buggy[:10] + ["4", ";"]
    # pass 1 accepts "a = 1 ; b = 2 ; c =" and corrects to "4", a bridge
    # step emits ";", and the verify pass after it sees the drift
    backend = _DriftingBackend(buggy, target, drift_at=(5, 8))
    position = len(backend.prompt) + 5
    with pytest.raises(BackendContractError,
                       match=f"position {position} as 'drift5' but previously "
                             f"emitted '='"):
        accelerated_decode(backend, backend.prompt, buggy)
    assert backend.calls == 3


class _FlakyBackend:
    eos_token = EOS

    def __init__(self):
        self.calls = 0

    def forward(self, tokens):
        self.calls += 1
        return [f"c{self.calls}"] * len(tokens)


class _WrongLengthBackend:
    eos_token = EOS

    def forward(self, tokens):
        return [EOS]


class _OffByBackend:
    """An honest oracle whose passes return ``delta`` predictions too many."""

    eos_token = EOS

    def __init__(self, prompt, target, delta):
        self._oracle = TargetOracleBackend()
        self._oracle.script(prompt, target)
        self.delta = delta

    def forward(self, tokens):
        preds = self._oracle.forward(tokens) + [EOS] * max(self.delta, 0)
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
            accelerated_decode(backend, prompt, buggy, DecodeLimits(max_tokens=6))


def test_probe_accepts_an_honest_backend():
    backend = SeededRandomBackend(7, ["a", "b", ";"])
    probe_backend(backend, ["a", "b", ";", "a"])


def test_probe_rejects_nondeterminism():
    with pytest.raises(BackendContractError):
        probe_backend(_FlakyBackend(), ["a", "b", "c", "d"])


def test_probe_rejects_wrong_output_length():
    with pytest.raises(BackendContractError):
        probe_backend(_WrongLengthBackend(), ["a", "b", "c"])


def test_probe_rejects_noncausal_predictions():
    backend = _RewritingBackend()
    with pytest.raises(BackendContractError):
        probe_backend(backend, ["a", "b", "c", "d"])


# ---------------------------------------------------------------------------
# metrics


def _result(tokens, passes, sim):
    stats = DecodeStats(forward_passes=passes, tokens_emitted=len(tokens),
                        ar_fallback_tokens=len(tokens), wall_time=0.5,
                        sim_cost=sim)
    return DecodeResult(list(tokens), stats, truncated=False)


def test_compute_metrics_ratios():
    ar = _result(["a", "b", EOS], passes=3, sim=3.0)
    acc = _result(["a", "b", EOS], passes=1, sim=1.5)
    rep = compute_metrics(ar, acc, time_source="sim")
    assert rep.tokens == 3
    assert rep.step_efficiency == pytest.approx(3.0)
    assert rep.speedup == pytest.approx(2.0)
    assert rep.tokens_per_s == pytest.approx(3 / 1.5)
    assert rep.time_source == "sim"


def test_compute_metrics_requires_identical_tokens():
    ar = _result(["a", "b"], 2, 2.0)
    acc = _result(["a", "x"], 2, 2.0)
    with pytest.raises(LosslessnessError):
        compute_metrics(ar, acc)


def test_aggregate_is_a_mean_of_ratios():
    r1 = compute_metrics(_result(["a", EOS], 2, 2.0), _result(["a", EOS], 1, 1.0),
                         time_source="sim")
    r2 = compute_metrics(_result(["b", EOS], 4, 4.0), _result(["b", EOS], 1, 1.0),
                         time_source="sim")
    agg = aggregate_reports([r1, r2])
    assert agg["mean_step_efficiency"] == pytest.approx((2 + 4) / 2)
    assert agg["programs"] == 2
    assert agg["total_tokens"] == 4


def test_aggregate_refuses_empty_input():
    with pytest.raises(DegenerateInputError):
        aggregate_reports([])


def test_cost_model_scales_with_context():
    cost = CostModel(base=1.0, per_context_token=0.001)
    backend = make_repair_oracle(["a", ";"], ["a", ";"])
    res = ar_decode(backend, backend.prompt, cost_model=cost)
    n0 = len(backend.prompt)
    expected = sum(1.0 + 0.001 * (n0 + i) for i in range(res.stats.forward_passes))
    assert res.stats.sim_cost == pytest.approx(expected, abs=1e-9)


def test_decode_limits_validation():
    with pytest.raises(ValueError):
        DecodeLimits(max_tokens=0)
    with pytest.raises(ValueError):
        DecodeLimits(fallback_run=-1)
    limits = DecodeLimits()
    assert replace(limits, fallback_run=0).fallback_run == 0
