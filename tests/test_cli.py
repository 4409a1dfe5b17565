"""End-to-end command line behaviour: artifacts, determinism, exit codes."""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import repairkit
from repairkit import cli
from repairkit.errors import BackendContractError
from repairkit.source import parse

from conftest import SUM_OK, SUM_WRONG_OP, write_archive, write_problem_meta

SUM_NO_RETURN = SUM_OK.replace("    return 0;\n", "")

SCHEMA_DIR = Path(repairkit.__file__).parent / "schemas"


def schema(name: str) -> dict:
    return json.loads((SCHEMA_DIR / name).read_text())


def run_cli(argv: list[str], capsys) -> tuple[int, str, str]:
    """Run in-process; argparse and usage errors surface as SystemExit."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def pair_files(tmp_path):
    buggy = tmp_path / "sum.buggy.c"
    fixed = tmp_path / "sum.fixed.c"
    buggy.write_text(SUM_WRONG_OP)
    fixed.write_text(SUM_OK)
    return buggy, fixed


@pytest.fixture
def archive(tmp_path):
    root = tmp_path / "archive"
    root.mkdir()
    write_archive(root, [
        {"problem_id": "p1", "student_id": "s1", "timestamp": "100",
         "verdict": "WA", "code": SUM_WRONG_OP},
        {"problem_id": "p1", "student_id": "s1", "timestamp": "200",
         "verdict": "OK", "code": SUM_OK},
        {"problem_id": "p2", "student_id": "s1", "timestamp": "100",
         "verdict": "WA", "code": SUM_WRONG_OP},
        {"problem_id": "p2", "student_id": "s1", "timestamp": "300",
         "verdict": "AC", "code": SUM_OK},
    ])
    return root


# ---------------------------------------------------------------------------
# mask


def test_mask_json_record_validates(pair_files, capsys):
    buggy, fixed = pair_files
    code, out, _ = run_cli(["mask", str(buggy), str(fixed), "--json", "--seed", "7"], capsys)
    assert code == 0
    record = json.loads(out)
    jsonschema.validate(record, schema("mask_record.schema.json"))
    assert abs(sum(s["k"] for s in record["statements"]) - 1.0) < 1e-9


def test_mask_rerun_is_byte_identical(pair_files, capsys):
    buggy, fixed = pair_files
    argv = ["mask", str(buggy), str(fixed), "--json", "--seed", "11"]
    _, first, _ = run_cli(argv, capsys)
    _, second, _ = run_cli(argv, capsys)
    assert first == second


def test_mask_human_table(pair_files, capsys):
    buggy, fixed = pair_files
    code, out, _ = run_cli(["mask", str(buggy), str(fixed)], capsys)
    assert code == 0
    assert out.startswith("pair sum.buggy:sum.fixed strategy=M4")
    assert out.count("k=") == len(parse(SUM_OK).statements)


def test_mask_human_table_builds_one_mask(pair_files, capsys, monkeypatch):
    # counting the alignments sees every mask build, whichever module holds
    # a reference to build_mask
    calls = []
    align = repairkit.mask.align_statements

    def counting_align(*args, **kwargs):
        calls.append(1)
        return align(*args, **kwargs)

    monkeypatch.setattr(repairkit.mask, "align_statements", counting_align)
    buggy, fixed = pair_files
    code, _, _ = run_cli(["mask", str(buggy), str(fixed)], capsys)
    assert code == 0
    assert len(calls) == 1


def test_mask_out_file(pair_files, tmp_path, capsys):
    buggy, fixed = pair_files
    dest = tmp_path / "record.json"
    code, out, _ = run_cli(
        ["mask", str(buggy), str(fixed), "--json", "--out", str(dest)], capsys)
    assert code == 0
    assert out == ""
    jsonschema.validate(json.loads(dest.read_text()), schema("mask_record.schema.json"))


def test_mask_degenerate_pair_exits_2(tmp_path, capsys):
    same = tmp_path / "same.c"
    same.write_text(SUM_OK)
    code, _, _ = run_cli(["mask", str(same), str(same), "--strategy", "M1"], capsys)
    assert code == 2


@pytest.mark.parametrize("command", ["mask", "dataset"])
@pytest.mark.parametrize("sigma", ["0", "1.5", "nan"])
def test_sigma_out_of_range_is_a_usage_error(pair_files, archive, capsys, command, sigma):
    inputs = [str(f) for f in pair_files] if command == "mask" else [str(archive)]
    code, out, err = run_cli([command, *inputs, "--sigma", sigma, "--json"], capsys)
    assert code == 2
    assert out == ""
    assert "repairkit: error: sigma must be in (0, 1]" in err


def test_mask_missing_file_exits_1(tmp_path, capsys):
    code, _, err = run_cli(["mask", str(tmp_path / "a.c"), str(tmp_path / "b.c")], capsys)
    assert code == 1
    assert "repairkit:" in err


# ---------------------------------------------------------------------------
# dataset


def test_dataset_corpus_roundtrip(archive, tmp_path, capsys):
    out_file = tmp_path / "corpus.jsonl"
    argv = ["dataset", str(archive), "--out", str(out_file), "--seed", "3"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert "wrote 2 records" in out
    first = out_file.read_bytes()
    for line in out_file.read_text().splitlines():
        jsonschema.validate(json.loads(line), schema("mask_record.schema.json"))
    run_cli(argv, capsys)
    assert out_file.read_bytes() == first


def test_dataset_stats_on_stdout(archive, tmp_path, capsys):
    out_file = tmp_path / "corpus.jsonl"
    code, out, _ = run_cli(
        ["dataset", str(archive), "--out", str(out_file), "--json"], capsys)
    assert code == 0
    stats = json.loads(out)
    assert stats["pairs"] == 2
    assert stats["problems"] == 2
    assert stats["dropped_restructuring"] == 0


def test_dataset_corpus_to_stdout(archive, capsys):
    code, out, err = run_cli(["dataset", str(archive)], capsys)
    assert code == 0
    assert len(out.splitlines()) == 2
    assert "2 records, 0 dropped" in err


def test_dataset_stats_parse_each_file_once(tmp_path, capsys, monkeypatch):
    # two wrong attempts pair with one accepted file, which is parsed once;
    # the buggy token counts come from the parse the mask build makes
    archive = tmp_path / "archive"
    archive.mkdir()
    write_archive(archive, [
        {"problem_id": "p1", "student_id": "s1", "timestamp": ts,
         "verdict": verdict, "code": code}
        for ts, verdict, code in [("100", "WA", SUM_WRONG_OP), ("150", "WA", SUM_NO_RETURN),
                                  ("200", "OK", SUM_OK)]])
    calls = []
    real_parse = repairkit.dataset.parse

    def counting_parse(code, *args, **kwargs):
        calls.append(code)
        return real_parse(code, *args, **kwargs)

    monkeypatch.setattr(repairkit.dataset, "parse", counting_parse)
    out_file, stats_file = tmp_path / "corpus.jsonl", tmp_path / "stats.json"
    code, _, _ = run_cli(["dataset", str(archive), "--out", str(out_file),
                          "--stats", str(stats_file)], capsys)
    assert code == 0
    records = [json.loads(line) for line in out_file.read_text().splitlines()]
    assert len(records) == 2
    files = {r["buggy_code"] for r in records} | {r["fixed_code"] for r in records}
    assert sorted(calls) == sorted(files) == sorted([SUM_WRONG_OP, SUM_NO_RETURN, SUM_OK])

    stats = json.loads(stats_file.read_text())
    tokens = [len(parse(r["buggy_code"]).code_tokens()) for r in records]
    assert stats["avg_tokens"] == statistics.fmean(tokens)
    assert stats["median_tokens"] == statistics.median(tokens)


@pytest.mark.parametrize("code", [None, 5], ids=["null", "number"])
def test_dataset_rejects_non_string_code(tmp_path, capsys, code):
    # a later accepted attempt pairs with it, so nothing stops before the code is used
    archive = tmp_path / "subs.jsonl"
    archive.write_text("".join(
        json.dumps({"problem_id": "p1", "student_id": "s1", "timestamp": ts,
                    "verdict": verdict, "code": c}) + "\n"
        for ts, verdict, c in [("1", "WA", code), ("2", "OK", SUM_OK)]))
    exit_code, out, err = run_cli(["dataset", str(archive)], capsys)
    assert exit_code == 1
    assert out == ""
    assert f"{archive}:1: bad submission record" in err
    assert "Traceback" not in err


def test_dataset_without_pairs_exits_2(tmp_path, capsys):
    root = tmp_path / "solved"
    root.mkdir()
    write_archive(root, [
        {"problem_id": "p1", "student_id": "s1", "timestamp": "1",
         "verdict": "OK", "code": SUM_OK},
    ])
    code, _, err = run_cli(["dataset", str(root)], capsys)
    assert code == 2
    assert "degenerate input" in err


def test_dataset_counts_dropped_pairs(tmp_path, capsys):
    # a rewrite that replaces the whole body blows past --max-led
    rewrite = "int main() {\n" + "\n".join(
        f"int q{i} = {i};" for i in range(40)) + "\nreturn 0;\n}\n"
    root = tmp_path / "mixed"
    root.mkdir()
    write_archive(root, [
        {"problem_id": "p1", "student_id": "s1", "timestamp": "1",
         "verdict": "WA", "code": SUM_WRONG_OP},
        {"problem_id": "p1", "student_id": "s1", "timestamp": "2",
         "verdict": "OK", "code": SUM_OK},
        {"problem_id": "p3", "student_id": "s1", "timestamp": "1",
         "verdict": "WA", "code": SUM_WRONG_OP},
        {"problem_id": "p3", "student_id": "s1", "timestamp": "2",
         "verdict": "OK", "code": rewrite},
    ])
    out_file = tmp_path / "corpus.jsonl"
    code, out, _ = run_cli(
        ["dataset", str(root), "--out", str(out_file), "--json"], capsys)
    assert code == 0
    assert json.loads(out)["dropped_restructuring"] == 1
    assert len(out_file.read_text().splitlines()) == 1


# ---------------------------------------------------------------------------
# triage


def test_triage_json_validates(tmp_path, capsys):
    src = tmp_path / "sub.c"
    src.write_text(SUM_WRONG_OP)
    meta = write_problem_meta(tmp_path / "p1.json",
                              tests=[{"in": "1 2\n", "expected": "3\n"}])
    argv = ["triage", str(src), "--meta", str(meta), "--json"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, schema("triage_report.schema.json"))
    assert payload["bug_type"] == "SE"
    _, again, _ = run_cli(argv, capsys)
    assert again == out


def test_triage_human_report(tmp_path, capsys):
    src = tmp_path / "sub.c"
    src.write_text(SUM_WRONG_OP)
    meta = write_problem_meta(tmp_path / "p1.json",
                              tests=[{"in": "1 2\n", "expected": "3\n"}])
    code, out, _ = run_cli(["triage", str(src), "--meta", str(meta)], capsys)
    assert code == 0
    assert "bug type: SE" in out
    assert "test 0: FAIL (wrong output)" in out


def test_triage_without_meta(tmp_path, capsys):
    src = tmp_path / "sub.c"
    src.write_text(SUM_OK)
    code, out, _ = run_cli(["triage", str(src), "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, schema("triage_report.schema.json"))
    assert payload["bug_type"] is None
    assert payload["tests"] == []


def test_triage_config_file_is_honoured(tmp_path, capsys):
    src = tmp_path / "sub.c"
    src.write_text(SUM_OK)
    meta = write_problem_meta(tmp_path / "p1.json",
                              tests=[{"in": "1 2\n", "expected": "3\n"}])
    config = tmp_path / "executor.conf"
    config.write_text("compiler_cmd = false {src} {out}\n")
    argv = ["triage", str(src), "--meta", str(meta), "--json"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert json.loads(out)["bug_type"] is None
    code, out, _ = run_cli(argv + ["--config", str(config)], capsys)
    assert code == 0
    assert json.loads(out)["bug_type"] == "CE"


def test_triage_prompt_requires_meta(tmp_path, capsys, monkeypatch):
    # the usage error comes before the submission is compiled and run
    monkeypatch.setattr(cli, "triage_source", lambda *a: pytest.fail("triaged"))
    src = tmp_path / "sub.c"
    src.write_text(SUM_OK)
    code, _, err = run_cli(["triage", str(src), "--prompt"], capsys)
    assert code == 2
    assert "--prompt needs --meta" in err


def test_triage_prompt_in_payload(tmp_path, capsys):
    src = tmp_path / "sub.c"
    src.write_text(SUM_WRONG_OP)
    meta = write_problem_meta(tmp_path / "p1.json",
                              tests=[{"in": "1 2\n", "expected": "3\n"}])
    code, out, _ = run_cli(
        ["triage", str(src), "--meta", str(meta), "--prompt", "--json"], capsys)
    assert code == 0
    prompt = json.loads(out)["prompt"]
    assert "## Bug Type\nSE" in prompt
    assert "## Buggy Code" in prompt


def test_triage_bad_meta_exits_1(tmp_path, capsys):
    src = tmp_path / "sub.c"
    src.write_text(SUM_OK)
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    code, _, _ = run_cli(["triage", str(src), "--meta", str(broken)], capsys)
    assert code == 1


# ---------------------------------------------------------------------------
# repair


def test_repair_oracle_compare(pair_files, capsys):
    buggy, fixed = pair_files
    code, out, _ = run_cli(
        ["repair", str(buggy), "--backend", "oracle", "--target", str(fixed),
         "--compare", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["truncated"] is False
    assert "wall_time" not in payload["stats"]
    assert payload["metrics"]["step_efficiency"] > 1.0
    assert "a + b" in payload["text"]


def test_repair_oracle_probe(pair_files, capsys):
    # probing asks the backend about prompt prefixes; the oracle must cope
    buggy, fixed = pair_files
    code, _, _ = run_cli(
        ["repair", str(buggy), "--backend", "oracle", "--target", str(fixed),
         "--probe", "--json"], capsys)
    assert code == 0


def test_repair_oracle_needs_target(pair_files, capsys):
    buggy, _ = pair_files
    code, _, err = run_cli(["repair", str(buggy), "--backend", "oracle"], capsys)
    assert code == 2
    assert "needs --target" in err


def test_repair_ngram_needs_train_dir(pair_files, capsys):
    buggy, _ = pair_files
    code, _, err = run_cli(["repair", str(buggy), "--backend", "ngram"], capsys)
    assert code == 2
    assert "needs --train-dir" in err


def test_repair_random_fast_matches_ar(pair_files, capsys):
    buggy, _ = pair_files
    base = ["repair", str(buggy), "--backend", "random", "--seed", "5",
            "--max-tokens", "40", "--json"]
    code_a, out_a, _ = run_cli(base + ["--mode", "fast"], capsys)
    code_b, out_b, _ = run_cli(base + ["--mode", "ar"], capsys)
    assert code_a == code_b == 0
    assert json.loads(out_a)["tokens"] == json.loads(out_b)["tokens"]


def test_repair_ngram_runs(pair_files, tmp_path, capsys):
    buggy, fixed = pair_files
    train = tmp_path / "train"
    train.mkdir()
    (train / "good.c").write_text(SUM_OK)
    code, out, _ = run_cli(
        ["repair", str(buggy), "--backend", "ngram", "--train-dir", str(train),
         "--max-tokens", "30", "--json"], capsys)
    assert code == 0
    assert len(json.loads(out)["tokens"]) <= 30


@pytest.mark.parametrize("backend, value", [("ngram", "0"), ("random", "-3")])
def test_order_below_one_is_a_usage_error(pair_files, tmp_path, capsys, backend, value):
    buggy, _ = pair_files
    code, out, err = run_cli(
        ["repair", str(buggy), "--backend", backend, "--train-dir", str(tmp_path),
         "--order", value, "--json"], capsys)
    assert code == 2
    assert out == ""
    assert "--order: must be >= 1" in err


def test_repair_bug_type_flag(pair_files, capsys):
    buggy, fixed = pair_files
    code, out, _ = run_cli(
        ["repair", str(buggy), "--backend", "oracle", "--target", str(fixed),
         "--bug-type", "SE", "--json"], capsys)
    assert code == 0
    assert "a + b" in json.loads(out)["text"]


def test_repair_missing_source_exits_1(tmp_path, capsys):
    code, _, _ = run_cli(
        ["repair", str(tmp_path / "gone.c"), "--backend", "random"], capsys)
    assert code == 1


def test_contract_violation_exits_3(pair_files, capsys, monkeypatch):
    buggy, _ = pair_files

    def bad_probe(backend, prompt):
        raise BackendContractError("probe says no")

    monkeypatch.setattr(cli, "probe_backend", bad_probe)
    code, _, err = run_cli(
        ["repair", str(buggy), "--backend", "random", "--probe"], capsys)
    assert code == 3
    assert "contract" in err


# ---------------------------------------------------------------------------
# bench


@pytest.fixture
def bench_dir(tmp_path):
    root = tmp_path / "bench"
    root.mkdir()
    (root / "p1.buggy.c").write_text(SUM_WRONG_OP)
    (root / "p1.fixed.c").write_text(SUM_OK)
    (root / "p2.buggy.c").write_text(SUM_WRONG_OP.replace("a - b", "a * b"))
    (root / "p2.fixed.c").write_text(SUM_OK)
    return root


def test_bench_json_validates(bench_dir, capsys):
    argv = ["bench", str(bench_dir), "--json"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, schema("bench_report.schema.json"))
    assert [p["id"] for p in payload["programs"]] == ["p1", "p2"]
    assert payload["aggregate"]["programs"] == 2
    _, again, _ = run_cli(argv, capsys)
    assert again == out


def test_bench_human_table(bench_dir, capsys):
    code, out, _ = run_cli(["bench", str(bench_dir)], capsys)
    assert code == 0
    assert out.splitlines()[0].split() == ["id", "tokens", "ar", "fast", "eff", "speedup"]
    assert "mean step efficiency" in out


def test_bench_jsonl_corpus(tmp_path, capsys):
    corpus = tmp_path / "pairs.jsonl"
    corpus.write_text(json.dumps(
        {"pair_id": "x", "buggy_code": SUM_WRONG_OP, "fixed_code": SUM_OK}) + "\n")
    code, out, _ = run_cli(["bench", str(corpus), "--json"], capsys)
    assert code == 0
    assert json.loads(out)["programs"][0]["id"] == "x"


@pytest.mark.parametrize("line, reason", [
    ("[1, 2]", "record must be a JSON object, got list"),
    ('{"buggy_code": 5, "fixed_code": ""}', "buggy_code must be a string, got int"),
    ('{"buggy_code": "", "fixed_code": null}', "fixed_code must be a string, got NoneType"),
    ('{"buggy_code": ""}', "'fixed_code'"),
    ("{not json", "Expecting property name"),
], ids=["list", "number", "null", "missing", "not-json"])
def test_bench_rejects_bad_records(tmp_path, capsys, line, reason):
    corpus = tmp_path / "pairs.jsonl"
    good = json.dumps({"pair_id": "x", "buggy_code": SUM_WRONG_OP, "fixed_code": SUM_OK})
    corpus.write_text(good + "\n" + line + "\n")
    code, out, err = run_cli(["bench", str(corpus), "--json"], capsys)
    assert code == 1
    assert out == ""
    assert f"{corpus}:2: bad repair pair record: {reason}" in err


def test_bench_unpaired_file_exits_1(tmp_path, capsys):
    root = tmp_path / "bench"
    root.mkdir()
    (root / "p1.buggy.c").write_text(SUM_WRONG_OP)
    code, _, err = run_cli(["bench", str(root)], capsys)
    assert code == 1
    assert "no matching" in err


def test_bench_limit(bench_dir, capsys):
    code, out, _ = run_cli(["bench", str(bench_dir), "--limit", "1", "--json"], capsys)
    assert code == 0
    assert len(json.loads(out)["programs"]) == 1


@pytest.mark.parametrize("value", ["0", "-1"])
def test_bench_limit_below_one_exits_2(bench_dir, capsys, value):
    # --limit -1 used to slice off the last pair and --limit 0 to bench all
    code, out, err = run_cli(["bench", str(bench_dir), "--limit", value, "--json"], capsys)
    assert code == 2
    assert out == ""
    assert "--limit: must be >= 1" in err


@pytest.mark.parametrize("value", ["0", "-3"])
def test_max_tokens_below_one_is_a_usage_error(pair_files, capsys, value):
    buggy, fixed = pair_files
    code, out, err = run_cli(["repair", str(buggy), "--backend", "oracle",
                              "--target", str(fixed), "--max-tokens", value], capsys)
    assert code == 2
    assert out == ""
    assert "--max-tokens: must be >= 1" in err


def test_negative_fallback_run_is_a_usage_error(bench_dir, capsys):
    code, out, err = run_cli(["bench", str(bench_dir), "--fallback-run", "-1"], capsys)
    assert code == 2
    assert out == ""
    assert "--fallback-run: must be >= 0" in err
    code, _, _ = run_cli(["bench", str(bench_dir), "--fallback-run", "0", "--json"], capsys)
    assert code == 0


# ---------------------------------------------------------------------------
# parser plumbing


def test_unknown_command_exits_2(capsys):
    code, _, _ = run_cli(["polish"], capsys)
    assert code == 2


def test_no_command_exits_2(capsys):
    code, _, _ = run_cli([], capsys)
    assert code == 2


def test_module_entry_matches_in_process(pair_files, capsys):
    buggy, fixed = pair_files
    argv = ["mask", str(buggy), str(fixed), "--json", "--seed", "9"]
    _, expected, _ = run_cli(argv, capsys)
    proc = subprocess.run([sys.executable, "-m", "repairkit", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == expected
