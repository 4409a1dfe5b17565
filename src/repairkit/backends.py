"""Deterministic mock backends for exercising the decode engine.

All three satisfy the backend contract (deterministic, causal, one forward
pass returns a greedy prediction per position) without any neural model:

* :class:`TargetOracleBackend` — plays back one scripted target sequence
  after its one prompt; the workhorse for efficiency fixtures.  A pass is
  one prompt check and one slice of a stored prediction stream.
* :class:`NGramBackend` — order-n frequency model over a training corpus,
  ties broken by the lowest token in sorted order.
* :class:`SeededRandomBackend` — adversarial hash-driven predictions; every
  prefix deterministically maps to an arbitrary next token.  Used to stress
  losslessness.  A pass hashes only the positions the previous pass did not
  share with it.

All of them keep ``forward(tokens)`` a pure function of ``tokens``: what
they cache changes the cost of a pass, never its result.

Tokens are plain strings so fixtures stay readable.
"""

from __future__ import annotations

import zlib
from collections import Counter
from pathlib import Path
from typing import Iterable, Sequence

from .decoding import longest_matching_prefix, repair_prompt
from .errors import DegenerateInputError, RepairKitError, read_text
from .source import parse

__all__ = [
    "EOS",
    "TargetOracleBackend",
    "NGramBackend",
    "SeededRandomBackend",
    "make_repair_oracle",
]

EOS = "<eos>"
TRAINING_PATTERNS = ("*.c", "*.txt")   # files NGramBackend.from_dir trains on


class TargetOracleBackend:
    """Predicts one scripted token sequence after one prompt, then EOS forever.

    ``script`` sets the prompt and its prediction stream, the prompt's own
    next tokens followed by the target, so a forward pass is one prompt check
    and one slice of that stream.  An oracle is scripted once.
    """

    concurrent_safe = True
    eos_token = EOS

    def __init__(self) -> None:
        self.prompt: list[str] | None = None
        self._stream: list[str] = []

    def script(self, prompt: Sequence[str], target: Sequence[str]) -> None:
        if self.prompt is not None:
            raise RepairKitError("this oracle is already scripted")
        if not prompt:
            raise DegenerateInputError("prompt must be non-empty")
        self.prompt = list(prompt)
        self._stream = self.prompt[1:] + list(target)

    def forward(self, tokens: Sequence[str]) -> list[str]:
        if not isinstance(tokens, list):
            tokens = list(tokens)
        prompt = self.prompt
        if prompt is None:
            raise RepairKitError("this oracle has no script")
        n, m = len(tokens), len(prompt)
        # a context contains the prompt (decoding) or is a prefix of it (probing)
        if (tokens[:m] != prompt) if m <= n else (prompt[:n] != tokens):
            raise RepairKitError("no scripted target matches this prompt")
        preds = self._stream[:n]
        if len(preds) < n:
            preds += [self.eos_token] * (n - len(preds))
        return preds


class NGramBackend:
    """Order-n counting model; argmax with ties broken by the lowest token."""

    concurrent_safe = True
    eos_token = EOS

    def __init__(self, order: int = 3):
        if order < 1:
            raise ValueError("order must be >= 1")
        self.order = order
        self._counts: dict[tuple[str, ...], Counter] = {}

    @classmethod
    def from_texts(cls, texts: Iterable[str], order: int = 3) -> "NGramBackend":
        model = cls(order)
        for text in texts:
            model.add_document(parse(text).token_texts())
        return model

    @classmethod
    def from_dir(cls, path: str | Path, order: int = 3) -> "NGramBackend":
        root = Path(path)
        files: list[Path] = []
        for pat in TRAINING_PATTERNS:
            files.extend(root.rglob(pat))
        texts = [read_text(f) for f in sorted(set(files))]
        if not texts:
            raise RepairKitError(f"no training files under {root}")
        return cls.from_texts(texts, order)

    def add_document(self, tokens: Sequence[str]) -> None:
        toks = list(tokens) + [self.eos_token]
        for n in range(self.order):
            for i in range(len(toks)):
                ctx = tuple(toks[max(0, i - n):i])
                if len(ctx) == n:
                    self._counts.setdefault(ctx, Counter())[toks[i]] += 1

    def _predict_one(self, context: Sequence[str]) -> str:
        for n in range(min(self.order - 1, len(context)), -1, -1):
            ctx = tuple(context[len(context) - n:])
            counter = self._counts.get(ctx)
            if counter:
                return min(counter, key=lambda t: (-counter[t], t))
        return self.eos_token

    def forward(self, tokens: Sequence[str]) -> list[str]:
        # _predict_one reads at most the last order - 1 tokens of its context
        k = self.order - 1
        return [self._predict_one(tokens[max(0, i + 1 - k):i + 1])
                for i in range(len(tokens))]


_MASK64 = (1 << 64) - 1
_HASH_MULT = 0x9E3779B97F4A7C15
_MIX_MULT = 0xFF51AFD7ED558CCD


class SeededRandomBackend:
    """Adversarial backend: the next token is a hash of the entire prefix.

    Deterministic and causal by construction, but with no structure a draft
    could exploit — the hardest case for lossless acceleration.

    The prefix hash is a polynomial rolling hash mod 2**64, so a pass only
    hashes the positions past the longest prefix it shares with the previous
    pass, the way a KV cache serves a decoder's growing or rolled-back
    context.  That cache is a tuple swapped in whole, never a list mutated in
    place, so threads sharing one instance each see a consistent entry.
    """

    concurrent_safe = True
    eos_token = EOS

    def __init__(self, seed: int, vocab: Sequence[str]):
        vocab = tuple(vocab)
        if EOS not in vocab:
            vocab += (EOS,)
        self.seed = seed
        self.vocab = vocab
        self._token_ids: dict[str, int] = {}
        self._seed64 = seed & _MASK64
        # the last pass: (tokens, prefix hashes, predictions)
        self._last: tuple[list[str], list[int], list[str]] = ([], [], [])

    def _token_id(self, token: str) -> int:
        tid = self._token_ids.get(token)
        if tid is None:
            tid = zlib.crc32(token.encode("utf-8", "replace"))
            self._token_ids[token] = tid
        return tid

    def forward(self, tokens: Sequence[str]) -> list[str]:
        # a copy: the cache must not see the caller's later appends
        tokens = list(tokens)
        last_tokens, last_hashes, last_preds = self._last
        m = len(last_tokens)
        if m <= len(tokens) and tokens[:m] == last_tokens:
            k = m
        else:
            k = longest_matching_prefix(last_tokens, tokens)
        hashes = last_hashes[:k]
        preds = last_preds[:k]
        h = hashes[-1] if k else 0
        seed, vocab, size = self._seed64, self.vocab, len(self.vocab)
        token_id = self._token_id
        for tok in tokens[k:]:
            # h_i = h_(i-1) * MULT + id_i + seed, then a murmur-style mix
            h = (h * _HASH_MULT + token_id(tok) + seed) & _MASK64
            x = h ^ (h >> 33)
            x = (x * _MIX_MULT) & _MASK64
            x ^= x >> 29
            hashes.append(h)
            preds.append(vocab[x % size])
        self._last = (tokens, hashes, preds)
        return preds[:]


def make_repair_oracle(buggy: Sequence[str], fixed: Sequence[str],
                       bug_type: str | None = None) -> TargetOracleBackend:
    """Oracle scripted to emit the fixed tokens after
    ``repair_prompt(buggy, bug_type)``, which it exposes as ``backend.prompt``."""
    backend = TargetOracleBackend()
    backend.script(repair_prompt(buggy, bug_type), fixed)
    return backend
