"""Shared exception types, the validated-config base, and the file readers
that name their file in their errors."""

import json
from pathlib import Path
from typing import Callable


class RepairKitError(Exception):
    """Base class for package errors."""


class DegenerateInputError(RepairKitError):
    """Input is well-formed but carries no usable signal (e.g. nothing to weight)."""


class BackendContractError(RepairKitError):
    """A model backend violated determinism or causality."""


class LosslessnessError(RepairKitError):
    """Accelerated decoding produced output that differs from plain greedy decoding."""


class Checked:
    """Mixin for a NamedTuple config, listed before it: every construction,
    ``_replace`` included, runs the subclass's ``_check``."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, which would skip the checks
        return cls(*iterable)


def read_text(path: str | Path) -> str:
    """The file decoded as UTF-8, whatever the locale; an undecodable file is
    named in the error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise RepairKitError(f"{path}: {exc}") from exc


def string_field(record: dict, key: str) -> str:
    """``record[key]``, which must be a string."""
    value = record[key]
    if not isinstance(value, str):
        raise TypeError(f"{key} must be a string, got {type(value).__name__}")
    return value


def read_jsonl(path: Path, what: str, make: Callable[[dict, int], object]) -> list:
    """``make(record, lineno)`` for each JSON object line; a bad line is named."""
    items = []
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            if not isinstance(record, dict):
                raise TypeError(f"record must be a JSON object, got {type(record).__name__}")
            items.append(make(record, lineno))
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise RepairKitError(f"{path}:{lineno}: bad {what} record: {exc}") from exc
    return items
