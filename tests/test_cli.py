"""End-to-end command line behaviour: artifacts, determinism, exit codes."""

from __future__ import annotations

import argparse
import json
import os
import re
import shlex
import statistics
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import repairkit
from repairkit import cli
from repairkit.source import parse

from conftest import (SUM_EXTRA_WS, SUM_OK, SUM_WRONG_OP, load_script,
                      write_archive, write_problem_meta)

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


def _submission_line(timestamp: str, verdict: str, code: object) -> str:
    return json.dumps({"problem_id": "p1", "student_id": "s1", "timestamp": timestamp,
                       "verdict": verdict, "code": code})


@pytest.mark.parametrize("line, reason", [
    (_submission_line("1", "WA", None), "code must be a string, got NoneType"),
    (_submission_line("1", "WA", 5), "code must be a string, got int"),
    ("[1, 2]", "record must be a JSON object, got list"),
], ids=["null", "number", "list"])
def test_dataset_rejects_non_string_code(tmp_path, capsys, line, reason):
    # a later accepted attempt pairs with it, so nothing stops before the code is used
    archive = tmp_path / "subs.jsonl"
    archive.write_text(line + "\n" + _submission_line("2", "OK", SUM_OK) + "\n")
    exit_code, out, err = run_cli(["dataset", str(archive)], capsys)
    assert exit_code == 1
    assert out == ""
    assert f"{archive}:1: bad submission record: {reason}" in err
    assert "Traceback" not in err


def test_dataset_unparsable_manifest_names_its_file(archive, capsys):
    manifest = archive / "verdicts.json"
    manifest.write_text("{bad")
    code, out, err = run_cli(["dataset", str(archive)], capsys)
    assert code == 1
    assert out == ""
    assert f"{manifest}: bad manifest: Expecting property name" in err
    assert "Traceback" not in err


def test_dataset_non_utf8_file_names_its_file(tmp_path, capsys):
    root = write_archive(tmp_path / "latin1", [
        {"problem_id": "p1", "student_id": "s1", "timestamp": "1",
         "verdict": "WA", "code": SUM_WRONG_OP},
        {"problem_id": "p1", "student_id": "s1", "timestamp": "2",
         "verdict": "OK", "code": SUM_OK},
    ])
    (root / "p1/s1/2.c").write_bytes(("/* caf\xe9 */\n" + SUM_OK).encode("latin-1"))
    code, out, err = run_cli(["dataset", str(root)], capsys)
    assert code == 1
    assert out == ""
    assert "p1/s1/2.c" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["mask", "bad/latin1.c", "good.c"],
    ["mask", "good.c", "bad/latin1.c"],
    ["triage", "good.c", "--meta", "bad/latin1.c"],
    ["triage", "good.c", "--config", "bad/latin1.c"],
    ["repair", "bad/latin1.c", "--backend", "random"],
    ["repair", "good.c", "--backend", "oracle", "--target", "bad/latin1.c"],
], ids=["mask-buggy", "mask-fixed", "triage-meta", "triage-config",
        "repair-source", "repair-target"])
def test_non_utf8_input_names_its_file(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    Path("good.c").write_text(SUM_OK)
    Path("bad").mkdir()
    Path("bad/latin1.c").write_bytes(("/* caf\xe9 */\n" + SUM_OK).encode("latin-1"))
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert "bad/latin1.c" in err
    assert "Traceback" not in err


def test_triage_compiles_a_non_utf8_source(tmp_path, capsys):
    # gcc takes the bytes as they are; only the prompt shows U+FFFD for them
    src = tmp_path / "latin1.c"
    code = "/* caf\xe9 */\nstatic const char *name = \"caf\xe9\";\n" + SUM_OK
    src.write_bytes(code.encode("latin-1"))
    meta = write_problem_meta(tmp_path / "p1.json")
    rc, out, err = run_cli(
        ["triage", str(src), "--meta", str(meta), "--json", "--prompt"], capsys)
    assert rc == 0, err
    payload = json.loads(out)
    assert payload["compile_ok"] is True
    assert payload["bug_type"] is None
    assert "/* caf\ufffd */" in payload["prompt"]
    assert '"caf\ufffd"' in payload["prompt"]


def test_files_are_utf8_whatever_the_locale(tmp_path):
    # under the C locale, without UTF-8 mode, open() defaults to ASCII
    src = str(Path(repairkit.__file__).resolve().parents[1])
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "/* caf\xe9 */\n" + SUM_OK.replace('"%d\\n"', '"caf\xe9 %d\\n"')
    (tmp_path / "b.c").write_text(code.replace("a + b", "a - b"), encoding="utf-8")
    (tmp_path / "f.c").write_text(code, encoding="utf-8")
    for argv in (["mask", "b.c", "f.c", "--json"],
                 ["repair", "b.c", "--backend", "oracle", "--target", "f.c", "--out", "F"]):
        proc = subprocess.run([sys.executable, "-m", "repairkit", *argv], cwd=tmp_path,
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
    assert '"caf\xe9 %d\\n"' in (tmp_path / "F").read_bytes().decode("utf-8")


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


@pytest.fixture
def mixed_archive(tmp_path):
    """One repair pair, and one that rewrites the whole body past --max-led."""
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
    return root


def test_dataset_counts_dropped_pairs(mixed_archive, tmp_path, capsys):
    out_file = tmp_path / "corpus.jsonl"
    code, out, _ = run_cli(
        ["dataset", str(mixed_archive), "--out", str(out_file), "--json"], capsys)
    assert code == 0
    assert json.loads(out)["dropped_restructuring"] == 1
    assert len(out_file.read_text().splitlines()) == 1


def test_dataset_verbose_logs_each_dropped_pair(mixed_archive, tmp_path):
    # in a fresh process, where main's logging set-up is the only one
    argv = [sys.executable, "-m", "repairkit", "dataset", str(mixed_archive),
            "--out", str(tmp_path / "corpus.jsonl")]
    quiet = subprocess.run(argv, capture_output=True, text=True)
    loud = subprocess.run(argv + ["-v"], capture_output=True, text=True)
    assert quiet.returncode == loud.returncode == 0
    assert quiet.stdout == loud.stdout
    assert quiet.stderr == ""
    [dropped] = loud.stderr.splitlines()
    assert "dropping p3/s1/1:" in dropped
    assert "restructuring rather than repair" in dropped


def test_verbose_counts_for_each_call_in_one_process(mixed_archive, tmp_path):
    # a quiet call, a verbose one, then a quiet one, as a process calling
    # main repeatedly makes them: only the middle one logs the dropped pair
    script = (
        "import sys\n"
        "from repairkit import cli\n"
        "argv = ['dataset', sys.argv[1], '--out', sys.argv[2]]\n"
        "for extra in ([], ['-v'], []):\n"
        "    print('call', extra, file=sys.stderr, flush=True)\n"
        "    assert cli.main(argv + extra) == 0\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, str(mixed_archive),
                           str(tmp_path / "corpus.jsonl")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    calls = proc.stderr.split("call ")[1:]
    assert calls[0] == "[]\n" and calls[2] == "[]\n"
    head, dropped = calls[1].splitlines()
    assert head == "['-v']"
    assert "dropping p3/s1/1:" in dropped
    assert "restructuring rather than repair" in dropped


@pytest.mark.parametrize("value", ["-1", "-10"])
def test_negative_max_led_is_a_usage_error(tmp_path, capsys, monkeypatch, value):
    monkeypatch.setattr(cli, "load_archive", lambda *a: pytest.fail("archive read"))
    code, _, err = run_cli(["dataset", str(tmp_path / "missing"), "--max-led", value],
                           capsys)
    assert code == 2
    assert "--max-led: must be >= 0" in err


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


def test_triage_human_report_names_a_formatting_error(tmp_path, capsys):
    src = tmp_path / "sub.c"
    src.write_text(SUM_EXTRA_WS)
    meta = write_problem_meta(tmp_path / "p1.json",
                              tests=[{"in": "1 2\n", "expected": "3\n"}])
    code, out, _ = run_cli(["triage", str(src), "--meta", str(meta)], capsys)
    assert code == 0
    assert "bug type: PE" in out
    assert "test 0: FAIL (formatting only)" in out


def test_triage_without_meta(tmp_path, capsys):
    src = tmp_path / "sub.c"
    src.write_text(SUM_OK)
    code, out, _ = run_cli(["triage", str(src), "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, schema("triage_report.schema.json"))
    assert payload["bug_type"] is None
    assert payload["tests"] == []


def test_triage_without_pidfd_exits_1(tmp_path, capsys, monkeypatch):
    src = tmp_path / "sub.c"
    src.write_text(SUM_OK)
    meta = write_problem_meta(tmp_path / "p1.json")
    monkeypatch.delattr(os, "pidfd_open")
    code, out, err = run_cli(["triage", str(src), "--meta", str(meta), "--json"], capsys)
    assert code == 1
    assert out == ""
    assert "Linux >= 5.3" in err
    assert "Traceback" not in err


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
    code, _, err = run_cli(["triage", str(src), "--meta", str(broken)], capsys)
    assert code == 1
    assert f"{broken}: bad problem meta: Expecting property name" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("meta, reason", [
    (["p1"], "not a JSON object"),
    ({"problem_id": "p1", "tests": {"in": "1\n", "expected": "1\n"}},
     "tests is not a list of objects"),
    ({"problem_id": "p1", "example_ios": ["1 2"]},
     "example_ios is not a list of objects"),
    ({"problem_id": "p1", "tests": [{"in": "1\n"}]},
     r"tests\[0\]\.expected is missing or not a string"),
    ({"problem_id": "p1", "tests": [{"in": 3, "expected": "3\n"}]},
     r"tests\[0\]\.in is missing or not a string"),
    ({"problem_id": "p1", "example_ios": [{"in": "1\n", "out": "1\n"}, {"in": "2\n"}]},
     r"example_ios\[1\]\.out is missing or not a string"),
    ({"problem_id": "p1", "example_ios": [{"in": None, "out": "1\n"}]},
     r"example_ios\[0\]\.in is missing or not a string"),
    ({"problem_id": "p1", "description": 5}, "description is not a string"),
], ids=["not-object", "tests-not-list", "example-not-object", "test-no-expected",
        "test-in-number", "example-no-out", "example-in-null", "description-number"])
def test_triage_malformed_meta_exits_1(tmp_path, capsys, monkeypatch, meta, reason):
    monkeypatch.setattr(cli, "triage_source", lambda *a: pytest.fail("triaged"))
    src = tmp_path / "sub.c"
    src.write_text(SUM_OK)
    path = tmp_path / "meta.json"
    path.write_text(json.dumps(meta))
    code, _, err = run_cli(["triage", str(src), "--meta", str(path), "--prompt"],
                           capsys)
    assert code == 1
    assert re.search(f"meta.json: bad problem meta: {reason}", err)
    assert "Traceback" not in err


@pytest.mark.parametrize("line", ["timeout_s = nan", "compile_timeout_s = inf"])
def test_triage_non_finite_timeout_in_config_exits_1(tmp_path, capsys, monkeypatch, line):
    monkeypatch.setattr(cli, "triage_source", lambda *a: pytest.fail("triaged"))
    src = tmp_path / "sub.c"
    src.write_text(SUM_OK)
    config = tmp_path / "executor.conf"
    config.write_text(line + "\n")
    code, _, err = run_cli(["triage", str(src), "--config", str(config)], capsys)
    assert code == 1
    assert "timeouts must be positive and finite" in err


@pytest.mark.parametrize("line, key", [("timeout_s = fast", "timeout_s"),
                                       ("max_output_bytes = 1.5", "max_output_bytes")])
def test_triage_bad_config_value_names_its_line(tmp_path, capsys, monkeypatch, line, key):
    monkeypatch.setattr(cli, "triage_source", lambda *a: pytest.fail("triaged"))
    src = tmp_path / "sub.c"
    src.write_text(SUM_OK)
    config = tmp_path / "executor.conf"
    config.write_text("# limits\n" + line + "\n")
    code, _, err = run_cli(["triage", str(src), "--config", str(config)], capsys)
    assert code == 1
    assert f"{config}:2: {key}: " in err
    assert "Traceback" not in err


@pytest.mark.parametrize("cmd, why", [("gcc -DX={y} {src} -o {out}", "KeyError"),
                                      ("gcc -DX={0} {src} -o {out}", "IndexError"),
                                      ("gcc '{src} -o {out}", "No closing quotation")])
def test_triage_malformed_compiler_cmd_names_its_file(tmp_path, capsys, monkeypatch,
                                                      cmd, why):
    monkeypatch.setattr(cli, "triage_source", lambda *a: pytest.fail("triaged"))
    src = tmp_path / "sub.c"
    src.write_text(SUM_OK)
    config = tmp_path / "executor.conf"
    config.write_text(f"compiler_cmd = {cmd}\n")
    code, _, err = run_cli(["triage", str(src), "--config", str(config)], capsys)
    assert code == 1
    assert f"{config}: bad compiler_cmd" in err and why in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# repair


# EfficiencyReport's fields: the key order of the JSON metrics
_REPORT_KEYS = ["tokens", "forward_passes_ar", "forward_passes_acc",
                "step_efficiency", "speedup", "tokens_per_s", "avg_time"]


def test_repair_oracle_compare(pair_files, capsys):
    buggy, fixed = pair_files
    code, out, _ = run_cli(
        ["repair", str(buggy), "--backend", "oracle", "--target", str(fixed),
         "--compare", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["truncated"] is False
    assert list(payload["stats"]) == [
        "forward_passes", "tokens_emitted", "draft_accepted", "corrections",
        "ar_fallback_tokens", "sim_cost"]
    assert list(payload["metrics"]) == _REPORT_KEYS
    assert payload["metrics"]["step_efficiency"] > 1.0
    assert "a + b" in payload["text"]


def test_repair_oracle_needs_target(pair_files, capsys):
    buggy, _ = pair_files
    code, _, err = run_cli(["repair", str(buggy), "--backend", "oracle"], capsys)
    assert code == 2
    assert "needs --target" in err


def test_repair_target_needs_the_oracle(pair_files, capsys, monkeypatch):
    # the usage error comes before any file is read
    monkeypatch.setattr(cli, "read_text", lambda *a: pytest.fail("read a file"))
    buggy, _ = pair_files
    code, out, err = run_cli(["repair", str(buggy), "--backend", "random",
                              "--target", "/nonexistent.c"], capsys)
    assert code == 2
    assert out == ""
    assert "--target needs --backend oracle" in err


def test_repair_random_fast_matches_ar(pair_files, capsys):
    buggy, _ = pair_files
    base = ["repair", str(buggy), "--backend", "random", "--seed", "5",
            "--max-tokens", "40", "--json"]
    code_a, out_a, _ = run_cli(base + ["--mode", "fast"], capsys)
    code_b, out_b, _ = run_cli(base + ["--mode", "ar"], capsys)
    assert code_a == code_b == 0
    assert json.loads(out_a)["tokens"] == json.loads(out_b)["tokens"]


def test_repair_bug_type_flag(pair_files, capsys):
    buggy, fixed = pair_files
    code, out, _ = run_cli(
        ["repair", str(buggy), "--backend", "oracle", "--target", str(fixed),
         "--bug-type", "SE", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert "a + b" in payload["text"]
    assert payload["tokens"] == parse(fixed.read_text()).token_texts()


@pytest.mark.parametrize("backend", ["oracle", "random"])
def test_repair_compare_is_the_same_in_both_modes(pair_files, capsys, backend):
    buggy, fixed = pair_files
    picked = ["--target", str(fixed)] if backend == "oracle" else ["--seed", "5"]
    base = ["repair", str(buggy), "--backend", backend, *picked,
            "--max-tokens", "40", "--json"]
    runs = {}
    for mode in ("ar", "fast"):
        for compare in ([], ["--compare"]):
            code, out, _ = run_cli(base + ["--mode", mode, *compare], capsys)
            assert code == 0
            runs[mode, bool(compare)] = json.loads(out)
    ar, fast = runs["ar", True], runs["fast", True]
    assert ar["tokens"] == fast["tokens"]
    assert ar["metrics"] == fast["metrics"]
    for mode in ("ar", "fast"):
        assert runs[mode, True]["stats"] == runs[mode, False]["stats"]


@pytest.mark.parametrize("mode", [["--mode", "fast"], ["--mode", "ar"], ["--compare"]],
                         ids=["fast", "ar", "compare"])
def test_repair_human_output_agrees_with_json(pair_files, capsys, mode):
    buggy, fixed = pair_files
    base = ["repair", str(buggy), "--backend", "oracle", "--target", str(fixed), *mode]
    code, out, err = run_cli(base, capsys)
    assert code == 0
    code, js, _ = run_cli(base + ["--json"], capsys)
    assert code == 0
    payload = json.loads(js)
    assert out == payload["text"]
    lines = err.splitlines()
    assert len(lines) == (2 if "--compare" in mode else 1)
    stats_line = re.fullmatch(
        r"(fast|ar): (\d+) tokens in (\d+) forward passes "
        r"\(accepted=(\d+) corrections=(\d+) fallback=(\d+)\)", lines[0])
    assert stats_line
    s = payload["stats"]
    assert stats_line[1] == payload["mode"]
    assert [int(n) for n in stats_line.groups()[1:]] == [
        s["tokens_emitted"], s["forward_passes"], s["draft_accepted"],
        s["corrections"], s["ar_fallback_tokens"]]
    if "--compare" in mode:
        compare_line = re.fullmatch(r"step efficiency ([\d.]+), speedup ([\d.]+)",
                                    lines[1])
        assert compare_line
        m = payload["metrics"]
        assert float(compare_line[1]) == pytest.approx(m["step_efficiency"], abs=0.005)
        assert float(compare_line[2]) == pytest.approx(m["speedup"], abs=0.005)


def test_repair_missing_source_exits_1(tmp_path, capsys):
    code, _, _ = run_cli(
        ["repair", str(tmp_path / "gone.c"), "--backend", "random"], capsys)
    assert code == 1


class _OneShortBackend:
    """Wraps a backend and drops the last prediction of every pass."""

    def __init__(self, backend):
        self.backend = backend
        self.eos_token = backend.eos_token

    def forward(self, tokens):
        return self.backend.forward(tokens)[:-1]


def test_contract_violation_exits_3(pair_files, capsys, monkeypatch):
    # the decoder checks every pass's prediction count itself
    buggy, _ = pair_files
    build = cli._build_backend
    monkeypatch.setattr(cli, "_build_backend",
                        lambda *args: _OneShortBackend(build(*args)))
    code, out, err = run_cli(["repair", str(buggy), "--backend", "random"], capsys)
    assert code == 3
    assert out == ""
    assert "backend contract violated" in err


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
    assert all(list(p) == ["id", *_REPORT_KEYS] for p in payload["programs"])
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


@pytest.mark.parametrize("first, second, repeated", [
    ({"pair_id": "x"}, {"pair_id": "x"}, "x"),
    ({"pair_id": "2"}, {}, "2"),  # the second record's id is its line number
], ids=["shared-pair-id", "line-number"])
def test_bench_jsonl_repeated_id_exits_1(tmp_path, capsys, first, second, repeated):
    corpus = tmp_path / "pairs.jsonl"
    code_pair = {"buggy_code": SUM_WRONG_OP, "fixed_code": SUM_OK}
    corpus.write_text("".join(json.dumps({**rec, **code_pair}) + "\n"
                              for rec in (first, second)))
    code, out, err = run_cli(["bench", str(corpus), "--json"], capsys)
    assert code == 1
    assert out == ""
    assert f"{corpus}: two repair pairs have the id {repeated}" in err


def test_bench_ids_keep_their_subdirectory(tmp_path, capsys):
    root = tmp_path / "bench"
    for sub in ("a", "b"):
        (root / sub).mkdir(parents=True)
        (root / sub / "x.buggy.c").write_text(SUM_WRONG_OP)
        (root / sub / "x.fixed.c").write_text(SUM_OK)
    code, out, _ = run_cli(["bench", str(root), "--json"], capsys)
    assert code == 0
    assert [p["id"] for p in json.loads(out)["programs"]] == ["a/x", "b/x"]


def test_bench_unpaired_file_exits_1(tmp_path, capsys):
    root = tmp_path / "bench"
    root.mkdir()
    (root / "p1.buggy.c").write_text(SUM_WRONG_OP)
    code, _, err = run_cli(["bench", str(root)], capsys)
    assert code == 1
    assert "no matching" in err


@pytest.mark.parametrize("value", ["0", "-3"])
def test_max_tokens_below_one_is_a_usage_error(pair_files, capsys, value):
    buggy, fixed = pair_files
    code, out, err = run_cli(["repair", str(buggy), "--backend", "oracle",
                              "--target", str(fixed), "--max-tokens", value], capsys)
    assert code == 2
    assert out == ""
    assert "--max-tokens: must be >= 1" in err


# the first greedy bridge is fixed at 5 tokens and the decoder checks the
# backend on every pass; only dataset logs at INFO, triage uses no seed, and
# bench decodes every pair; so none of these options has anything left to set
@pytest.mark.parametrize("command, removed", [
    (["bench", "DIR", "--fallback-run", "5"], "--fallback-run"),
    (["bench", "DIR", "--probe"], "--probe"),
    (["repair", "DIR/p1.buggy.c", "--backend", "random", "--probe"], "--probe"),
    (["mask", "DIR/p1.buggy.c", "DIR/p1.fixed.c", "-v"], "-v"),
    (["triage", "DIR/p1.buggy.c", "-v"], "-v"),
    (["repair", "DIR/p1.buggy.c", "--backend", "random", "-v"], "-v"),
    (["bench", "DIR", "-v"], "-v"),
    (["triage", "DIR/p1.buggy.c", "--seed", "3"], "--seed 3"),
    (["bench", "DIR", "--limit", "1"], "--limit 1"),
], ids=["bench-fallback-run", "bench-probe", "repair-probe", "mask-v", "triage-v",
        "repair-v", "bench-v", "triage-seed", "bench-limit"])
def test_removed_option_is_a_usage_error(bench_dir, capsys, command, removed):
    argv = [arg.replace("DIR", str(bench_dir)) for arg in command]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert f"unrecognized arguments: {removed}" in err


# ---------------------------------------------------------------------------
# parser plumbing


# every option string of each subcommand; adding or removing one is an edit here
_OPTIONS = {
    "mask": ["--aggregation", "--granularity", "--pair-id", "--problem-id",
             "--seed", "--sigma", "--strategy"],
    "dataset": ["--aggregation", "--granularity", "--max-led", "--seed", "--sigma",
                "--stats", "--strategy", "--verbose", "-v"],
    "triage": ["--config", "--meta", "--prompt"],
    "repair": ["--backend", "--bug-type", "--compare", "--max-tokens", "--mode",
               "--seed", "--target"],
    "bench": ["--max-tokens", "--seed"],
}
_EVERY_SUBCOMMAND = ["--help", "--json", "--out", "-h"]


def test_each_subcommand_has_exactly_its_options():
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    got = {name: sorted(opt for action in sub._actions
                        for opt in action.option_strings)
           for name, sub in subparsers.choices.items()}
    assert got == {name: sorted(opts + _EVERY_SUBCOMMAND)
                   for name, opts in _OPTIONS.items()}


def test_readme_cli_lines_parse():
    # a removed option cannot stay documented
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("repairkit ")]
    assert len(lines) == 5
    parser = cli.build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README's CLI block does not parse: {line}")


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


# ---------------------------------------------------------------------------
# the demo walk


def test_demo_archive_walks_the_cli(tmp_path, monkeypatch, capsys):
    # runs the commands of the demo script's docstring, as README tells users to
    monkeypatch.chdir(tmp_path)
    demo = load_script("make_demo_archive")
    steps = re.findall(r"^    (\S+) (.*)$", demo.__doc__, re.MULTILINE)
    assert [prog for prog, _ in steps] == [
        "python3", "repairkit", "repairkit", "repairkit"]
    assert demo.main(shlex.split(steps[0][1])[1:]) == 0
    capsys.readouterr()
    outs = []
    for _, command in steps[1:]:
        code, out, err = run_cli(shlex.split(command), capsys)
        assert code == 0, err
        outs.append(out)
    dataset, triage, bench = outs
    assert dataset.startswith("wrote 4 records to corpus.jsonl")
    assert len(Path("corpus.jsonl").read_text().splitlines()) == 4
    assert triage.startswith("bug type: SE\n")
    assert bench.endswith(" over 4 programs\n")
