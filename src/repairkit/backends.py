"""Deterministic mock backends for exercising the decode engine.

All three satisfy the backend contract (deterministic, causal, one forward
pass returns a greedy prediction per position) without any neural model:

* :class:`TargetOracleBackend` — plays back a scripted target sequence per
  registered prompt; the workhorse for efficiency fixtures.
* :class:`NGramBackend` — order-n frequency model over a training corpus,
  ties broken by lowest token id.
* :class:`SeededRandomBackend` — adversarial hash-driven predictions; every
  prefix deterministically maps to an arbitrary next token.  Used to stress
  losslessness.

Tokens are plain strings so fixtures stay readable.
"""

from __future__ import annotations

import zlib
from collections import Counter
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .decoding import repair_prompt
from .errors import DegenerateInputError, RepairKitError
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
    """Predicts a scripted token sequence (then EOS forever) per prompt."""

    concurrent_safe = True

    def __init__(self, eos_token: str = EOS):
        self.eos_token = eos_token
        self._targets: dict[tuple[str, ...], tuple[str, ...]] = {}

    def script(self, prompt: Sequence[str], target: Sequence[str]) -> None:
        if not prompt:
            raise DegenerateInputError("prompt must be non-empty")
        self._targets[tuple(prompt)] = tuple(target)

    def _match_prompt(self, tokens: Sequence[str]) -> tuple[str, ...]:
        # a context either contains a scripted prompt (normal decoding) or is
        # a prefix of one (probing); complete matches take precedence
        complete: tuple[str, ...] | None = None
        partial: tuple[str, ...] | None = None
        for prompt in sorted(self._targets):
            if len(prompt) <= len(tokens):
                if tuple(tokens[:len(prompt)]) == prompt:
                    if complete is None or len(prompt) > len(complete):
                        complete = prompt
            elif prompt[:len(tokens)] == tuple(tokens):
                if partial is None or len(prompt) > len(partial):
                    partial = prompt
        best = complete if complete is not None else partial
        if best is None:
            raise RepairKitError("no scripted target matches this prompt")
        return best

    def forward(self, tokens: Sequence[str]) -> list[str]:
        prompt = self._match_prompt(tokens)
        target = self._targets[prompt]
        np_, nt = len(prompt), len(target)
        preds: list[str] = []
        for i in range(len(tokens)):
            pos = i + 1 - np_
            if pos < 0:
                preds.append(prompt[i + 1])
            elif pos < nt:
                preds.append(target[pos])
            else:
                preds.append(self.eos_token)
        return preds


class NGramBackend:
    """Order-n counting model; argmax with ties broken by lowest token id."""

    concurrent_safe = True

    def __init__(self, order: int = 3, eos_token: str = EOS):
        if order < 1:
            raise ValueError("order must be >= 1")
        self.order = order
        self.eos_token = eos_token
        self._counts: dict[tuple[str, ...], Counter] = {}
        self._vocab: list[str] = [eos_token]
        self._ids: dict[str, int] = {eos_token: 0}

    @classmethod
    def from_texts(cls, texts: Iterable[str], order: int = 3,
                   eos_token: str = EOS) -> "NGramBackend":
        model = cls(order, eos_token)
        for text in texts:
            model.add_document(parse(text).token_texts())
        model.freeze_vocab()
        return model

    @classmethod
    def from_dir(cls, path: str | Path, order: int = 3,
                 eos_token: str = EOS) -> "NGramBackend":
        root = Path(path)
        files: list[Path] = []
        for pat in TRAINING_PATTERNS:
            files.extend(root.rglob(pat))
        texts = [f.read_text() for f in sorted(set(files))]
        if not texts:
            raise RepairKitError(f"no training files under {root}")
        return cls.from_texts(texts, order, eos_token)

    def add_document(self, tokens: Sequence[str]) -> None:
        toks = list(tokens) + [self.eos_token]
        for t in toks:
            if t not in self._ids:
                self._ids[t] = len(self._vocab)
                self._vocab.append(t)
        for n in range(self.order):
            for i in range(len(toks)):
                ctx = tuple(toks[max(0, i - n):i])
                if len(ctx) == n:
                    self._counts.setdefault(ctx, Counter())[toks[i]] += 1

    def freeze_vocab(self) -> None:
        # token ids are ranks in sorted vocabulary order, stable across runs
        self._vocab = sorted(self._ids)
        self._ids = {t: i for i, t in enumerate(self._vocab)}

    def _predict_one(self, context: Sequence[str]) -> str:
        for n in range(min(self.order - 1, len(context)), -1, -1):
            ctx = tuple(context[len(context) - n:])
            counter = self._counts.get(ctx)
            if counter:
                return min(counter, key=lambda t: (-counter[t], self._ids.get(t, 1 << 30)))
        return self.eos_token

    def forward(self, tokens: Sequence[str]) -> list[str]:
        return [self._predict_one(tokens[:i + 1]) for i in range(len(tokens))]


_HASH_MULT = np.uint64(0x9E3779B97F4A7C15)   # odd, so invertible mod 2**64
_HASH_MULT_INV = np.uint64(pow(0x9E3779B97F4A7C15, -1, 1 << 64))


def _extend_powers(table: np.ndarray, mult: np.uint64, extra: int) -> np.ndarray:
    """``table`` (``mult**k`` mod 2**64 for k < len) and the next ``extra``
    powers; uint64 products wrap mod 2**64, which is the hash's arithmetic."""
    steps = np.cumprod(np.full(extra, mult, dtype=np.uint64))
    return np.concatenate((table, table[-1] * steps))


class SeededRandomBackend:
    """Adversarial backend: the next token is a hash of the entire prefix.

    Deterministic and causal by construction, but with no structure a draft
    could exploit — the hardest case for lossless acceleration.
    """

    concurrent_safe = True

    def __init__(self, seed: int, vocab: Sequence[str], eos_token: str = EOS):
        if eos_token not in vocab:
            vocab = list(vocab) + [eos_token]
        self.seed = seed
        self.vocab = tuple(vocab)
        self.eos_token = eos_token
        self._token_ids: dict[str, int] = {}
        size = len(self.vocab)
        self._powers = np.ones(1, dtype=np.uint64)
        self._inv_powers = np.ones(1, dtype=np.uint64)
        self._grow_tables(256)
        self._seed64 = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        self._size = size

    def _grow_tables(self, n: int) -> None:
        # at least doubling keeps a context that grows a token per pass from
        # extending the tables on every pass
        have = len(self._powers)
        if have >= n:
            return
        extra = max(n, 2 * have) - have
        self._powers = _extend_powers(self._powers, _HASH_MULT, extra)
        self._inv_powers = _extend_powers(self._inv_powers, _HASH_MULT_INV, extra)

    def _token_id(self, token: str) -> int:
        tid = self._token_ids.get(token)
        if tid is None:
            tid = zlib.crc32(token.encode("utf-8", "replace"))
            self._token_ids[token] = tid
        return tid

    def forward(self, tokens: Sequence[str]) -> list[str]:
        n = len(tokens)
        if n == 0:
            return []
        self._grow_tables(n)
        ids = np.fromiter(
            (self._token_id(t) for t in tokens), dtype=np.uint64, count=n
        )
        with np.errstate(over="ignore"):
            # prefix hash h_i = sum_j id_j * MULT**(i-j), vectorized via
            # h_i = MULT**i * cumsum(id_j * MULT**-j)
            weighted = (ids + self._seed64) * self._inv_powers[:n]
            prefix = np.cumsum(weighted, dtype=np.uint64) * self._powers[:n]
            mixed = prefix ^ (prefix >> np.uint64(33))
            mixed = mixed * np.uint64(0xFF51AFD7ED558CCD)
            mixed = mixed ^ (mixed >> np.uint64(29))
        picks = (mixed % np.uint64(self._size)).tolist()
        vocab = self.vocab
        return [vocab[p] for p in picks]


def make_repair_oracle(buggy: Sequence[str],
                       fixed: Sequence[str]) -> TargetOracleBackend:
    """Oracle scripted to emit the fixed tokens.

    The canonical prompt is exposed as ``backend.prompt``.
    """
    backend = TargetOracleBackend()
    prompt = repair_prompt(buggy)
    backend.script(prompt, fixed)
    backend.prompt = prompt
    return backend
