"""Deterministic mock backends for exercising the decode engine.

Both satisfy the backend contract (deterministic, causal, one forward
pass returns a greedy prediction per position) without any neural model:

* :class:`TargetOracleBackend` — plays back one scripted target sequence
  after its one prompt; the workhorse for efficiency fixtures.  It checks
  the prompt once per pass for a list and once per buffer for a
  :class:`~repairkit.decoding.Prefix` or the context of an
  :class:`~repairkit.decoding.Extended`, which it answers with a ``Prefix``
  of a stored prediction stream, so any pass past the first on a buffer
  costs O(1).
* :class:`SeededRandomBackend` — adversarial hash-driven predictions; every
  prefix deterministically maps to an arbitrary next token.  Used to stress
  losslessness.  It keeps one cache, for the last buffer it was given as a
  ``Prefix`` or an ``Extended``'s context: it hashes each position of that
  buffer once and answers a ``Prefix`` with a ``Prefix`` of its stored
  predictions, so a greedy step costs O(new positions).  It answers an
  ``Extended`` with a sequence that hashes a draft position only when it is
  read, and never caches the draft.  A list is hashed from scratch.
  Backends built from an equal vocabulary share one table.

Both keep ``forward(tokens)`` a pure function of ``tokens``: what
they cache changes the cost of a pass, never its result.  Both answer a
list with a fresh list.

Tokens are plain strings so fixtures stay readable.
"""

from __future__ import annotations

import zlib
from typing import Iterable, Sequence

from .decoding import Extended, Prefix, _prefix, longest_matching_prefix, repair_prompt
from .errors import DegenerateInputError, RepairKitError

__all__ = [
    "EOS",
    "TargetOracleBackend",
    "SeededRandomBackend",
    "make_repair_oracle",
]

EOS = "<eos>"


class TargetOracleBackend:
    """Predicts one scripted token sequence after one prompt, then EOS forever.

    ``script`` sets the prompt and its prediction stream, the prompt's own
    next tokens followed by the target; the stream is padded with EOS in
    place as longer contexts arrive, and only ever grows.  A list is checked
    against the prompt on every pass and answered with a slice of the
    stream.  A :class:`~repairkit.decoding.Prefix`, or an
    :class:`~repairkit.decoding.Extended` whose context holds the whole
    prompt, is checked once per buffer: the oracle remembers the last buffer
    whose ``Prefix`` covered and matched the whole prompt, and answers with
    a ``Prefix`` of the stream, since past the prompt a prediction depends
    only on its position.  An oracle is scripted once.
    """

    concurrent_safe = True
    eos_token = EOS

    def __init__(self) -> None:
        self.prompt: list[str] | None = None
        self._stream: list[str] = []
        # a buffer known to start with the prompt, held so its id stays its own
        self._checked: list | None = None

    def script(self, prompt: Sequence[str], target: Sequence[str]) -> None:
        if self.prompt is not None:
            raise RepairKitError("this oracle is already scripted")
        if not prompt:
            raise DegenerateInputError("prompt must be non-empty")
        self.prompt = list(prompt)
        self._stream = self.prompt[1:] + list(target)

    def forward(self, tokens: Sequence[str]) -> Sequence[str]:
        prompt = self.prompt
        if prompt is None:
            raise RepairKitError("this oracle has no script")
        if isinstance(tokens, Prefix):
            view, buffer, n = True, tokens.buffer, tokens.n
        elif isinstance(tokens, Extended) and tokens.context.n >= len(prompt):
            # the prompt check reads only the context; the draft is past it
            view, buffer, n = True, tokens.context.buffer, len(tokens)
        else:
            view = False
            buffer = tokens if isinstance(tokens, list) else list(tokens)
            n = len(buffer)
        if not view or buffer is not self._checked:
            m = len(prompt)
            # a context contains the prompt (decoding) or is a prefix of it (probing)
            if (buffer[:m] != prompt) if m <= n else (buffer[:n] != prompt[:n]):
                raise RepairKitError("no scripted target matches this prompt")
            if view and m <= n:
                self._checked = buffer
        stream = self._stream
        if len(stream) < n:
            stream += [self.eos_token] * (n - len(stream))
        return _prefix(stream, n) if view else stream[:n]


_MASK64 = (1 << 64) - 1
_HASH_MULT = 0x9E3779B97F4A7C15
_MIX_MULT = 0xFF51AFD7ED558CCD


class SeededRandomBackend:
    """Adversarial backend: the next token is a hash of the entire prefix.

    Deterministic and causal by construction, but with no structure a draft
    could exploit — the hardest case for lossless acceleration.

    The prefix hash is a polynomial rolling hash mod 2**64, so earlier
    positions' hashes serve a longer context, the way a KV cache serves a
    decoder's growing context.  One slot caches the hashes and predictions
    of the last buffer given as a :class:`~repairkit.decoding.Prefix` or as
    the context of an :class:`~repairkit.decoding.Extended`:

    * a ``Prefix`` of that buffer hashes only the positions past the slot's,
      appending in place, and is answered with a ``Prefix`` of the grow-only
      predictions.  A ``Prefix`` of another buffer swaps in a new slot that
      starts with copies of the old slot's hashes and predictions for the
      head the two buffers share;
    * an ``Extended`` has its context served the same way, and is answered
      with a sequence that hashes each draft position, continuing from the
      context's last hash, when it is first read.  The draft never enters
      the slot, as a verify pass reads the cache of the accepted context
      without committing its draft;
    * a list is hashed from position 0.

    A step slices only its new positions from the buffer, so it costs
    O(new positions) however long the context.  Backends built from an
    equal vocabulary share one ``vocab`` table; the last vocabulary is kept
    as a private copy, so changing a list after construction changes no
    backend.

    The slot is a tuple swapped in whole, never cut in place, and the
    predictions grow after the hashes, so a new slot that takes ``k`` from
    the old predictions finds ``k`` hashes even while another thread grows
    them.  Threads may share one instance as long as each decodes in a
    buffer of its own, as the decoders do.
    """

    concurrent_safe = True
    eos_token = EOS

    # (a private copy of the last vocabulary given, its table)
    _vocabs: tuple[list[str], tuple[str, ...]] = ([], (EOS,))

    def __init__(self, seed: int, vocab: Iterable[str]):
        given = vocab if isinstance(vocab, list) else list(vocab)
        key, table = SeededRandomBackend._vocabs
        if given != key:
            key = given[:]
            table = tuple(key) if EOS in key else (*key, EOS)
            SeededRandomBackend._vocabs = (key, table)
        self.seed = seed
        self.vocab = table
        self._token_ids: dict[str, int] = {}
        self._seed64 = seed & _MASK64
        # the last Prefix buffer, held so its id stays its own, with the
        # hashes and predictions of its first len(hashes) positions
        self._view: tuple[list, list[int], list[str]] = ([], [], [])

    def _token_id(self, token: str) -> int:
        tid = self._token_ids.get(token)
        if tid is None:
            tid = zlib.crc32(token.encode("utf-8", "replace"))
            self._token_ids[token] = tid
        return tid

    def _hash(self, tokens: Iterable[str], hashes: list[int], preds: list[str]) -> None:
        """Append the hash and prediction of each of ``tokens`` in turn to
        those of the prefix before them, ``hashes`` and ``preds``."""
        h = hashes[-1] if hashes else 0
        seed, vocab, size = self._seed64, self.vocab, len(self.vocab)
        token_id = self._token_id
        for tok in tokens:
            # h_i = h_(i-1) * MULT + id_i + seed, then a murmur-style mix
            h = (h * _HASH_MULT + token_id(tok) + seed) & _MASK64
            x = h ^ (h >> 33)
            x = (x * _MIX_MULT) & _MASK64
            x ^= x >> 29
            hashes.append(h)
            preds.append(vocab[x % size])

    def _slot(self, buffer: list, n: int) -> tuple[list[int], list[str]]:
        """The slot's hashes and predictions for ``buffer``, covering at
        least its first ``n`` positions."""
        old, hashes, preds = self._view
        if old is not buffer:
            # k from preds, which grows after hashes: hashes[:k] are all there
            k = min(len(preds), n)
            if old[:k] != buffer[:k]:
                k = longest_matching_prefix(old, buffer[:k])
            hashes, preds = hashes[:k], preds[:k]
            self._view = (buffer, hashes, preds)
        if len(hashes) < n:
            self._hash(buffer[len(hashes):n], hashes, preds)
        return hashes, preds

    def forward(self, tokens: Sequence[str]) -> Sequence[str]:
        if isinstance(tokens, Prefix):
            n = tokens.n
            return _prefix(self._slot(tokens.buffer, n)[1], n)
        if isinstance(tokens, Extended):
            n = tokens.context.n
            hashes, preds = self._slot(tokens.context.buffer, n)
            return _DraftPredictions(self, _prefix(preds, n), hashes[n - 1:n], tokens.draft)
        preds = []
        self._hash(tokens, [], preds)
        return preds


class _DraftPredictions:
    """A :class:`SeededRandomBackend`'s answer to an ``Extended``: the
    ``Prefix`` of the context's predictions, then the draft's, each hashed
    when first read from the context's last hash in ``hashes``."""

    __slots__ = ("_backend", "_context", "_draft", "_hashes", "_preds")

    def __init__(self, backend: SeededRandomBackend, context: Prefix,
                 hashes: list[int], draft: list[str]):
        self._backend = backend
        self._context = context
        self._draft = draft
        self._hashes = hashes
        self._preds: list[str] = []

    def __len__(self) -> int:
        return self._context.n + len(self._draft)

    def _draft_preds(self, stop: int) -> list[str]:
        """The draft's predictions, hashed up to position ``stop``."""
        preds = self._preds
        if len(preds) < stop:
            self._backend._hash(self._draft[len(preds):stop], self._hashes, preds)
        return preds

    def __getitem__(self, i: int | slice):
        n = self._context.n
        if isinstance(i, slice):
            start, stop, step = i.indices(len(self))
            if step != 1:
                return [self[j] for j in range(start, stop, step)]
            if stop <= n:
                return self._context[start:stop]
            return self._context[start:n] + self._draft_preds(stop - n)[max(start - n, 0):stop - n]
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("prediction index out of range")
        return self._context[i] if i < n else self._draft_preds(i - n + 1)[i - n]

    def __iter__(self):
        return iter(self[:])


def make_repair_oracle(buggy: Sequence[str], fixed: Sequence[str],
                       bug_type: str | None = None) -> TargetOracleBackend:
    """Oracle scripted to emit the fixed tokens after
    ``repair_prompt(buggy, bug_type)``, which it exposes as ``backend.prompt``."""
    backend = TargetOracleBackend()
    backend.script(repair_prompt(buggy, bug_type), fixed)
    return backend
