"""Archive loading, wrong/fixed pairing, filtering and corpus export."""

from __future__ import annotations

import json
import logging

import pytest

from repairkit.dataset import (
    ACCEPTED_VERDICTS,
    Submission,
    build_records,
    corpus_stats,
    filter_pairs,
    load_archive,
    pair_seed,
    pair_submissions,
)
from repairkit.errors import RepairKitError
from repairkit.mask import MaskConfig
from repairkit.source import parse

from conftest import SUM_EXTRA_WS, SUM_OK, SUM_WRONG_OP, write_archive


def sub(problem="p1", student="s1", ts="100", verdict="WA", code=SUM_WRONG_OP):
    return Submission(problem, student, ts, verdict, code)


# ---------------------------------------------------------------------------
# loading


def test_load_tree_archive(tmp_path):
    write_archive(tmp_path, [
        {"problem_id": "p1", "student_id": "s1", "timestamp": "100",
         "verdict": "WA", "code": SUM_WRONG_OP},
        {"problem_id": "p1", "student_id": "s1", "timestamp": "200",
         "verdict": "OK", "code": SUM_OK},
    ])
    subs = load_archive(tmp_path)
    assert len(subs) == 2
    assert subs[0].timestamp == "100" and subs[0].verdict == "WA"
    assert subs[1].code == SUM_OK


def test_load_jsonl_archive(tmp_path):
    path = tmp_path / "archive.jsonl"
    rows = [
        {"problem_id": "p1", "student_id": "s1", "timestamp": "1",
         "verdict": "WA", "code": SUM_WRONG_OP},
        {"problem_id": "p1", "student_id": "s1", "timestamp": "2",
         "verdict": "AC", "code": SUM_OK},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    subs = load_archive(path)
    assert [s.verdict for s in subs] == ["WA", "AC"]


def test_load_jsonl_rejects_missing_field(tmp_path):
    path = tmp_path / "archive.jsonl"
    path.write_text('{"problem_id": "p1", "student_id": "s1"}\n')
    with pytest.raises(RepairKitError, match="bad submission record"):
        load_archive(path)


def test_missing_archive(tmp_path):
    with pytest.raises(RepairKitError, match="no such archive"):
        load_archive(tmp_path / "nope")


def test_tree_requires_manifest(tmp_path):
    (tmp_path / "p1" / "s1").mkdir(parents=True)
    (tmp_path / "p1" / "s1" / "1.c").write_text(SUM_OK)
    with pytest.raises(RepairKitError, match="verdicts.json"):
        load_archive(tmp_path)


def test_tree_rejects_unlisted_file(tmp_path):
    write_archive(tmp_path, [
        {"problem_id": "p1", "student_id": "s1", "timestamp": "1",
         "verdict": "OK", "code": SUM_OK},
    ])
    extra = tmp_path / "p1" / "s1" / "2.c"
    extra.write_text(SUM_OK)
    with pytest.raises(RepairKitError, match="no verdict for p1/s1/2.c"):
        load_archive(tmp_path)


def test_tree_rejects_dangling_verdict(tmp_path):
    write_archive(tmp_path, [
        {"problem_id": "p1", "student_id": "s1", "timestamp": "1",
         "verdict": "OK", "code": SUM_OK},
    ])
    manifest = tmp_path / "verdicts.json"
    data = json.loads(manifest.read_text())
    data["p1/s1/ghost.c"] = "WA"
    manifest.write_text(json.dumps(data))
    with pytest.raises(RepairKitError, match="missing files"):
        load_archive(tmp_path)


def test_tree_rejects_wrong_depth(tmp_path):
    (tmp_path / "verdicts.json").write_text("{}")
    stray = tmp_path / "p1" / "loose.c"
    stray.parent.mkdir()
    stray.write_text(SUM_OK)
    with pytest.raises(RepairKitError, match="expected problem/student"):
        load_archive(tmp_path)


# ---------------------------------------------------------------------------
# pairing


def test_pairs_with_earliest_later_accepted():
    history = [
        sub(ts="100", verdict="WA"),
        sub(ts="200", verdict="WA"),
        sub(ts="300", verdict="OK", code=SUM_OK),
        sub(ts="400", verdict="OK", code=SUM_EXTRA_WS),
    ]
    pairs = pair_submissions(history)
    assert [p.pair_id for p in pairs] == ["p1/s1/100", "p1/s1/200"]
    # both wrong attempts pair with the *first* accepted one
    assert all(p.fixed.timestamp == "300" for p in pairs)


def test_wrong_after_last_accepted_is_unpaired():
    history = [
        sub(ts="100", verdict="OK", code=SUM_OK),
        sub(ts="200", verdict="WA"),
    ]
    assert pair_submissions(history) == []


def test_numeric_timestamps_sort_numerically():
    history = [
        sub(ts="9", verdict="WA"),
        sub(ts="10", verdict="OK", code=SUM_OK),
    ]
    pairs = pair_submissions(history)
    assert len(pairs) == 1  # "10" comes after "9" despite lexical order


def test_pairing_is_per_student():
    history = [
        sub(student="s1", ts="1", verdict="WA"),
        sub(student="s2", ts="2", verdict="OK", code=SUM_OK),
    ]
    assert pair_submissions(history) == []


@pytest.mark.parametrize("history, pair_id", [
    ([sub(student="s", ts="1"), sub(student="s", ts="1"),
      sub(student="s", ts="2", verdict="OK", code=SUM_OK)], "p1/s/1"),
    ([sub(problem="a/b", student="c", ts="1"),
      sub(problem="a/b", student="c", ts="2", verdict="OK", code=SUM_OK),
      sub(problem="a", student="b/c", ts="1"),
      sub(problem="a", student="b/c", ts="2", verdict="OK", code=SUM_OK)], "a/b/c/1"),
], ids=["same-timestamp", "slash-in-id"])
def test_a_repeated_pair_id_is_an_error(history, pair_id):
    # the id seeds the mask: two pairs sharing one would share a seed
    with pytest.raises(RepairKitError, match=f"id {pair_id}$"):
        pair_submissions(history)


def test_accepted_verdict_spellings():
    for verdict in sorted(ACCEPTED_VERDICTS):
        assert sub(verdict=verdict.lower()).accepted
    assert not sub(verdict="WA").accepted
    assert not sub(verdict="TLE").accepted


# ---------------------------------------------------------------------------
# filtering


def _pair(buggy_code, fixed_code, pid="p1/s1/100"):
    problem, student, ts = pid.split("/")
    return pair_submissions([
        Submission(problem, student, ts, "WA", buggy_code),
        Submission(problem, student, str(int(ts) + 1), "OK", fixed_code),
    ])[0]


def test_filter_drops_large_rewrites(caplog):
    small = _pair(SUM_WRONG_OP, SUM_OK)
    big_fix = "\n".join(f"int x{i} = {i};" for i in range(30)) + "\n"
    big = _pair(SUM_WRONG_OP, "int main() {\n" + big_fix + "}\n", pid="p1/s2/100")
    with caplog.at_level(logging.INFO, logger="repairkit.dataset"):
        kept = filter_pairs([small, big], max_led=10)
    assert kept == [small]
    assert "restructuring rather than repair" in caplog.text
    assert "p1/s2/100" in caplog.text


def test_filter_keeps_boundary():
    pair = _pair(SUM_WRONG_OP, SUM_OK)
    assert pair.led == 1
    assert filter_pairs([pair], max_led=1) == [pair]
    assert filter_pairs([pair], max_led=0) == []


# ---------------------------------------------------------------------------
# records and export


def test_pair_seed_mixes_both_inputs():
    assert pair_seed(7, "a/b/1") == pair_seed(7, "a/b/1")
    assert pair_seed(7, "a/b/1") != pair_seed(8, "a/b/1")
    assert pair_seed(7, "a/b/1") != pair_seed(7, "a/b/2")


def test_record_shape():
    pair = _pair(SUM_WRONG_OP, SUM_OK)
    rec = build_records([pair], MaskConfig(strategy="M4", rng_seed=3))[0][0]
    assert rec["pair_id"] == pair.pair_id
    assert rec["strategy"] == "M4"
    assert rec["seed"] == pair_seed(3, pair.pair_id)
    ks = [s["k"] for s in rec["statements"]]
    assert abs(sum(ks) - 1.0) < 1e-9
    fixed_lines = [s["text"] for s in rec["statements"]]
    assert any("a + b" in ln for ln in fixed_lines)


def test_records_sorted_and_deterministic():
    pairs = [
        _pair(SUM_WRONG_OP, SUM_OK, pid="p2/s1/100"),
        _pair(SUM_WRONG_OP, SUM_OK, pid="p1/s9/100"),
        _pair(SUM_EXTRA_WS, SUM_OK, pid="p1/s2/100"),
    ]
    config = MaskConfig(rng_seed=11)
    first, _ = build_records(pairs, config)
    second, _ = build_records(list(reversed(pairs)), config)
    assert [r["pair_id"] for r in first] == ["p1/s2/100", "p1/s9/100", "p2/s1/100"]
    assert first == second


def test_corpus_stats():
    pairs = [
        _pair(SUM_WRONG_OP, SUM_OK),
        _pair(SUM_EXTRA_WS, SUM_OK, pid="p2/s2/100"),
    ]
    stats = corpus_stats(pairs, build_records(pairs)[1])
    assert stats["pairs"] == 2
    assert stats["problems"] == 2
    assert stats["students"] == 2
    assert stats["avg_lines"] == pytest.approx(7.0)
    assert stats["verdicts"] == {"WA": 2}
    assert corpus_stats([], []) == {"pairs": 0}


def test_corpus_stats_takes_given_token_counts():
    pairs = [
        _pair(SUM_WRONG_OP, SUM_OK),
        _pair(SUM_EXTRA_WS, SUM_OK, pid="p2/s2/100"),
    ]
    parsed = [len(parse(p.buggy.code).code_tokens()) for p in pairs]
    assert build_records(pairs)[1] == parsed
    stats = corpus_stats(pairs, [10, 30])
    assert (stats["avg_tokens"], stats["median_tokens"]) == (20.0, 20.0)
    with pytest.raises(ValueError):
        corpus_stats(pairs, [10])
    with pytest.raises(ValueError):
        corpus_stats([], [10])
