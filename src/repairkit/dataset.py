"""Build repair corpora out of submission archives.

An archive is either a directory tree ``problem_id/student_id/<timestamp>.c``
with a ``verdicts.json`` manifest at the root, or a single JSONL file whose
lines carry ``problem_id``, ``student_id``, ``timestamp``, ``verdict`` and
``code``.  Wrong submissions pair with the same student's earliest later
accepted one; pairs that differ too much are dropped as restructuring rather
than repair.
"""

from __future__ import annotations

import json
import logging
import statistics
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence
from zlib import crc32

from .diffs import line_edit_distance
from .errors import RepairKitError
from .mask import MaskConfig, MaskVector, build_mask
from .source import SourceUnit, parse

__all__ = [
    "Submission",
    "RepairPair",
    "ACCEPTED_VERDICTS",
    "load_archive",
    "pair_submissions",
    "filter_pairs",
    "pair_seed",
    "pair_mask",
    "mask_record",
    "pair_to_record",
    "Records",
    "build_records",
    "corpus_stats",
]

log = logging.getLogger(__name__)

ACCEPTED_VERDICTS = frozenset({"OK", "AC", "ACCEPTED"})


@dataclass(frozen=True)
class Submission:
    problem_id: str
    student_id: str
    timestamp: str
    verdict: str
    code: str

    @property
    def accepted(self) -> bool:
        return self.verdict.upper() in ACCEPTED_VERDICTS


@dataclass(frozen=True)
class RepairPair:
    pair_id: str
    problem_id: str
    student_id: str
    buggy: Submission
    fixed: Submission

    @property
    def led(self) -> int:
        return line_edit_distance(self.buggy.code, self.fixed.code)


def _timestamp_key(sub: Submission) -> tuple[int, str] | tuple[int, int, str]:
    # numeric timestamps sort numerically, everything else lexically
    try:
        return (0, int(sub.timestamp), sub.timestamp)
    except ValueError:
        return (1, sub.timestamp)


def _load_jsonl(path: Path) -> list[Submission]:
    subs = []
    for lineno, raw in enumerate(path.read_text().splitlines(), 1):
        if not raw.strip():
            continue
        try:
            rec = json.loads(raw)
            if not isinstance(rec["code"], str):
                raise TypeError(f"code must be a string, got {type(rec['code']).__name__}")
            subs.append(Submission(
                problem_id=str(rec["problem_id"]),
                student_id=str(rec["student_id"]),
                timestamp=str(rec["timestamp"]),
                verdict=str(rec["verdict"]),
                code=rec["code"],
            ))
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise RepairKitError(f"{path}:{lineno}: bad submission record: {exc}") from exc
    return subs


def _load_tree(root: Path) -> list[Submission]:
    manifest_path = root / "verdicts.json"
    if not manifest_path.is_file():
        raise RepairKitError(f"{root}: missing verdicts.json manifest")
    manifest = json.loads(manifest_path.read_text())
    if not isinstance(manifest, dict):
        raise RepairKitError(f"{manifest_path}: manifest must map paths to verdicts")
    subs = []
    seen = set()
    for src in sorted(root.rglob("*.c")):
        rel = src.relative_to(root).as_posix()
        parts = rel.split("/")
        if len(parts) != 3:
            raise RepairKitError(f"{root}: expected problem/student/timestamp.c, got {rel}")
        if rel not in manifest:
            raise RepairKitError(f"{manifest_path}: no verdict for {rel}")
        seen.add(rel)
        subs.append(Submission(
            problem_id=parts[0],
            student_id=parts[1],
            timestamp=Path(parts[2]).stem,
            verdict=str(manifest[rel]),
            code=src.read_text(),
        ))
    missing = set(manifest) - seen
    if missing:
        raise RepairKitError(f"{manifest_path}: verdicts for missing files: {sorted(missing)[:3]}")
    return subs


def load_archive(path: str | Path) -> list[Submission]:
    p = Path(path)
    if p.is_dir():
        return _load_tree(p)
    if p.is_file():
        return _load_jsonl(p)
    raise RepairKitError(f"{path}: no such archive")


def pair_submissions(submissions: list[Submission]) -> list[RepairPair]:
    """Each wrong attempt pairs with the earliest later accepted attempt."""
    groups: dict[tuple[str, str], list[Submission]] = {}
    for sub in submissions:
        groups.setdefault((sub.problem_id, sub.student_id), []).append(sub)
    pairs = []
    for key in sorted(groups):
        history = sorted(groups[key], key=_timestamp_key)
        for i, sub in enumerate(history):
            if sub.accepted:
                continue
            fixed = next((s for s in history[i + 1:] if s.accepted), None)
            if fixed is None:
                continue
            pair_id = f"{sub.problem_id}/{sub.student_id}/{sub.timestamp}"
            pairs.append(RepairPair(
                pair_id=pair_id,
                problem_id=sub.problem_id,
                student_id=sub.student_id,
                buggy=sub,
                fixed=fixed,
            ))
    return pairs


def filter_pairs(pairs: list[RepairPair], max_led: int = 10) -> list[RepairPair]:
    """Drop pairs whose line edit distance exceeds ``max_led``."""
    kept = []
    for pair in pairs:
        led = pair.led
        if led > max_led:
            log.info("dropping %s: LED %d > %d, restructuring rather than repair",
                     pair.pair_id, led, max_led)
            continue
        kept.append(pair)
    return kept


def pair_seed(global_seed: int, pair_id: str) -> int:
    return global_seed ^ crc32(pair_id.encode())


def pair_mask(pair: RepairPair, config: MaskConfig,
              fixed_unit: SourceUnit | None = None,
              ) -> tuple[SourceUnit, SourceUnit, MaskVector]:
    """The parsed buggy and fixed sides of ``pair`` and its mask under ``config``.

    The mask's seed is derived from the config seed and the pair id so a
    corpus is reproducible record-by-record.  ``fixed_unit``, when given, is
    ``parse(pair.fixed.code)`` already made and is used instead of parsing.
    """
    cfg = replace(config, rng_seed=pair_seed(config.rng_seed, pair.pair_id))
    buggy_unit = parse(pair.buggy.code)
    if fixed_unit is None:
        fixed_unit = parse(pair.fixed.code)
    return buggy_unit, fixed_unit, build_mask(buggy_unit, fixed_unit, cfg)


def mask_record(pair: RepairPair, fixed_unit: SourceUnit, mask: MaskVector) -> dict:
    """The corpus record of ``pair`` with a mask already built by :func:`pair_mask`."""
    statements = []
    for i, stmt in enumerate(fixed_unit.statements):
        statements.append({
            "text": stmt.text,
            "weight_raw": mask.raw[i],
            "k": None if mask.normalized is None else mask.normalized[i],
        })
    return {
        "pair_id": pair.pair_id,
        "problem_id": pair.problem_id,
        "buggy_code": pair.buggy.code,
        "fixed_code": pair.fixed.code,
        "strategy": mask.strategy,
        "sigma": mask.sigma,
        "seed": mask.seed,
        "statements": statements,
        "token_k": None if mask.token_k is None else list(mask.token_k),
        "flags": sorted(mask.flags),
    }


def pair_to_record(pair: RepairPair, config: MaskConfig) -> dict:
    """One corpus record: the pair plus its mask under ``config``."""
    _, fixed_unit, mask = pair_mask(pair, config)
    return mask_record(pair, fixed_unit, mask)


class Records(list):
    """The corpus records of :func:`build_records`, a plain list of dicts.

    ``buggy_tokens`` holds the code-token count of each record's buggy file,
    in record order, taken from the parse the mask build already made, so
    :func:`corpus_stats` need not parse the buggy files again.
    """

    def __init__(self, records: list[dict], buggy_tokens: list[int]):
        super().__init__(records)
        self.buggy_tokens = tuple(buggy_tokens)


def build_records(pairs: list[RepairPair], config: MaskConfig | None = None) -> Records:
    """Corpus records for ``pairs``, sorted by pair id.

    A student's wrong attempts all pair with the same accepted submission
    and sit next to each other in pair-id order, so each pair reuses the
    previous pair's parse of the fixed file when that is the same submission.
    """
    config = config or MaskConfig()
    records, buggy_tokens = [], []
    fixed, fixed_unit = None, None
    for pair in sorted(pairs, key=lambda p: p.pair_id):
        reuse = fixed_unit if pair.fixed is fixed else None
        buggy_unit, fixed_unit, mask = pair_mask(pair, config, reuse)
        fixed = pair.fixed
        records.append(mask_record(pair, fixed_unit, mask))
        buggy_tokens.append(len(buggy_unit.code_tokens()))
    return Records(records, buggy_tokens)


def corpus_stats(pairs: list[RepairPair],
                 buggy_tokens: Sequence[int] | None = None) -> dict:
    """Summary numbers for a paired corpus (buggy side).

    ``buggy_tokens`` is the code-token count of each pair's buggy file, in
    any order (the statistics do not depend on it); pass
    ``build_records(pairs).buggy_tokens`` to reuse the parses of the corpus
    build.  When it is None every buggy file is parsed here.
    """
    if not pairs:
        return {"pairs": 0}
    lines = [len(p.buggy.code.splitlines()) for p in pairs]
    if buggy_tokens is None:
        buggy_tokens = [len(parse(p.buggy.code).code_tokens()) for p in pairs]
    elif len(buggy_tokens) != len(pairs):
        raise ValueError(f"{len(buggy_tokens)} token counts for {len(pairs)} pairs")
    verdicts: dict[str, int] = {}
    for p in pairs:
        verdicts[p.buggy.verdict] = verdicts.get(p.buggy.verdict, 0) + 1
    return {
        "pairs": len(pairs),
        "problems": len({p.problem_id for p in pairs}),
        "students": len({(p.problem_id, p.student_id) for p in pairs}),
        "avg_lines": statistics.fmean(lines),
        "median_lines": statistics.median(lines),
        "avg_tokens": statistics.fmean(buggy_tokens),
        "median_tokens": statistics.median(buggy_tokens),
        "verdicts": dict(sorted(verdicts.items())),
    }
