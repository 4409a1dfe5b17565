"""Sandboxed compile/run triage and repair-prompt assembly."""

from __future__ import annotations

import errno
import math
import os
import resource
import shlex
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repairkit.errors import RepairKitError
from repairkit.triage import (
    BugType,
    ExecutorConfig,
    ProblemMeta,
    TestCase,
    build_prompt,
    classify,
    load_problem_meta,
    normalize_output,
    triage_source,
)

from conftest import SUM_EXTRA_WS, SUM_OK, SUM_WRONG_OP, write_problem_meta
from oracles import normalize_ref

SUM_TESTS = [TestCase("1 2\n", "3\n"), TestCase("10 -4\n", "6\n")]

# short limits keep the test suite quick; the spin-loop below never finishes
FAST = ExecutorConfig(timeout_s=0.5)

LOOP_FOREVER = """\
#include <stdio.h>
int main() {
    int a, b;
    scanf("%d %d", &a, &b);
    while (1) { a = a + 1; }
    return 0;
}
"""

NO_SEMICOLON = SUM_OK.replace("int a, b;", "int a, b")


# ---------------------------------------------------------------------------
# classification


def test_correct_program_passes():
    report = triage_source(SUM_OK, SUM_TESTS, FAST)
    assert report.compile_ok
    assert report.all_passed
    assert classify(report) is None


def test_compile_error():
    report = triage_source(NO_SEMICOLON, SUM_TESTS, FAST)
    assert not report.compile_ok
    assert report.results == []
    assert report.diagnostics
    assert classify(report) is BugType.COMPILE_ERROR


def test_time_limit():
    report = triage_source(LOOP_FOREVER, SUM_TESTS[:1], FAST)
    assert report.compile_ok
    assert report.results[0].timed_out
    assert not report.results[0].passed
    assert classify(report) is BugType.TIME_LIMIT


def test_presentation_error():
    report = triage_source(SUM_EXTRA_WS, SUM_TESTS, FAST)
    failing = [r for r in report.results if not r.passed]
    assert failing, "extra spaces must break the raw comparison"
    assert all(r.normalized_match for r in failing)
    assert all(r.formatting_only for r in failing)
    assert classify(report) is BugType.PRESENTATION_ERROR


def test_semantic_error():
    report = triage_source(SUM_WRONG_OP, SUM_TESTS, FAST)
    assert classify(report) is BugType.SEMANTIC_ERROR


def test_timeout_beats_wrong_answer():
    # one test spins forever, the other would be wrong: TLE wins
    code = SUM_OK.replace("a + b", "a == 0 ? a : a - b")
    looped = code.replace("printf", "while (a == 0) ; printf")
    report = triage_source(looped, [TestCase("0 5\n", "5\n"), TestCase("4 1\n", "5\n")], FAST)
    assert classify(report) is BugType.TIME_LIMIT


def test_mixed_failures_are_semantic():
    # whitespace-only mismatch on one test, wrong value on another
    code = SUM_OK.replace('"%d\\n", a + b', '"%d \\n", a + a')
    report = triage_source(code, [TestCase("2 2\n", "4\n"), TestCase("1 2\n", "3\n")], FAST)
    assert classify(report) is BugType.SEMANTIC_ERROR


def test_nonzero_exit_is_not_presentation():
    code = SUM_OK.replace("return 0;", "return 1;")
    report = triage_source(code, SUM_TESTS, FAST)
    res = report.results[0]
    assert res.raw_match and res.returncode == 1 and not res.passed
    assert classify(report) is BugType.SEMANTIC_ERROR


def test_diagnostics_do_not_leak_the_jail():
    report = triage_source(NO_SEMICOLON, [], FAST)
    assert "main.c" in report.diagnostics
    assert "repairkit-" not in report.diagnostics
    assert "/tmp/" not in report.diagnostics


def test_output_is_capped():
    noisy = SUM_OK.replace(
        'printf("%d\\n", a + b);',
        'for (a = 0; a < 100000; a++) printf("xxxxxxxxxx");',
    )
    config = ExecutorConfig(timeout_s=2.0, max_output_bytes=1024)
    report = triage_source(noisy, [TestCase("1 2\n", "3\n")], config)
    res = report.results[0]
    assert len(res.stdout.encode()) <= 1024
    assert res.truncated
    assert not res.passed
    assert classify(report) is BugType.SEMANTIC_ERROR


def test_output_cut_at_the_cap_matches_nothing():
    # five bytes against a cap of four: the kept "1234" equals the expected
    # output, but the byte past the cap is unseen, so the test cannot pass
    cap = ExecutorConfig(timeout_s=2.0, max_output_bytes=4)
    tests = [TestCase("", "1234")]
    printing = '#include <stdio.h>\nint main(void) { printf("%s", "OUT"); return 0; }\n'
    report = triage_source(printing.replace("OUT", "1234j"), tests, cap)
    res = report.results[0]
    assert (res.stdout, res.truncated, res.returncode) == ("1234", True, 0)
    assert not res.raw_match and not res.normalized_match
    assert classify(report) is BugType.SEMANTIC_ERROR
    report = triage_source(printing.replace("OUT", "1234"), tests, cap)
    assert not report.results[0].truncated
    assert classify(report) is None


def test_missing_compiler_raises():
    config = ExecutorConfig(compiler_cmd="no-such-compiler-zz {src} -o {out}")
    with pytest.raises(RepairKitError):
        triage_source(SUM_OK, SUM_TESTS, config)


def _gone_within(pid: int, seconds: float) -> bool:
    """Poll until ``pid`` is gone or a zombie; SIGKILL lands asynchronously."""
    deadline = time.monotonic() + seconds
    while (state := _proc_state(pid)) not in (None, "Z") and time.monotonic() < deadline:
        time.sleep(0.01)
    return state in (None, "Z")


def test_compile_timeout_kills_the_compilers_group(tmp_path):
    pidfile = tmp_path / "pid"
    config = ExecutorConfig(
        compiler_cmd=f"sh -c 'sleep 3 & echo $! > {pidfile}; wait' {{src}} {{out}}",
        compile_timeout_s=0.3,
    )
    report = triage_source(SUM_OK, SUM_TESTS, config)
    assert not report.compile_ok
    assert report.diagnostics == "compiler timed out"
    assert _gone_within(int(pidfile.read_text()), 1.0)


def test_compiler_reads_dev_null_not_the_callers_stdin():
    # with the caller's stdin an open pipe, gcc would wait on it until the timeout
    config = ExecutorConfig(compile_timeout_s=1.0)
    read_end, write_end = os.pipe()
    saved = os.dup(0)
    try:
        os.dup2(read_end, 0)
        report = triage_source('#include "/dev/stdin"\n' + SUM_OK, SUM_TESTS, config)
    finally:
        os.dup2(saved, 0)
        for fd in (saved, read_end, write_end):
            os.close(fd)
    assert report.compile_ok, report.diagnostics
    assert report.all_passed


def test_compiler_diagnostics_are_capped():
    flood = f"{shlex.quote(sys.executable)} -c \"import sys; sys.stderr.write('x' * 100000); sys.exit(1)\""
    config = ExecutorConfig(compiler_cmd=flood + " {src} {out}", max_output_bytes=1024)
    report = triage_source(SUM_OK, SUM_TESTS, config)
    assert not report.compile_ok
    assert report.diagnostics == "x" * 1024


def test_link_error_diagnostics_are_reproducible():
    # gcc names the object it links after a random temporary file
    undeclared = SUM_OK.replace("printf(", "print_result(")
    first = triage_source(undeclared, [], FAST)
    second = triage_source(undeclared, [], FAST)
    assert not first.compile_ok
    assert "print_result" in first.diagnostics
    assert first.diagnostics == second.diagnostics
    assert "/tmp" not in first.diagnostics


# ---------------------------------------------------------------------------
# test runs

SLEEP_40MS = """\
#include <unistd.h>
int main(void) {
    usleep(40000);
    return 0;
}
"""

SUM_N = """\
#include <stdio.h>
int main(void) {
    int n = 0, x = 0;
    long long total = 0;
    scanf("%d", &n);
    for (int i = 0; i < n; i++) {
        scanf("%d", &x);
        total += x;
    }
    printf("%lld\\n", total);
    return 0;
}
"""

FORK_AND_SLEEP = """\
#include <stdio.h>
#include <unistd.h>
int main(void) {
    pid_t child = fork();
    if (child == 0) {
        sleep(5);
        return 0;
    }
    printf("%d\\n", (int)child);
    return 0;
}
"""


def test_test_ends_when_its_program_exits():
    # a sleep-poll wait would report 64 ms or more
    report = triage_source(SLEEP_40MS, [TestCase("", "")] * 3, FAST)
    assert all(r.passed for r in report.results)
    assert min(r.elapsed_s for r in report.results) < 0.055


def test_input_larger_than_a_pipe_buffer():
    values = [(i * 7919) % 100003 - 50000 for i in range(50_000)]
    text = f"{len(values)}\n" + " ".join(map(str, values)) + "\n"
    assert len(text) > 1 << 16
    report = triage_source(SUM_N, [TestCase(text, f"{sum(values)}\n")], FAST)
    assert report.all_passed


def test_unread_input_does_not_block():
    ignores_input = SUM_OK.replace('scanf("%d %d", &a, &b);', "a = 1; b = 2;")
    case = TestCase("7 " * 50_000, "3\n")
    report = triage_source(ignores_input, [case], FAST)
    assert not report.results[0].timed_out
    assert report.all_passed


def _proc_state(pid: int) -> str | None:
    """The state letter in /proc/PID/stat, or None once the process is gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return None
    return stat.rsplit(")", 1)[1].split()[0]


def test_processes_a_test_leaves_are_killed():
    report = triage_source(FORK_AND_SLEEP, [TestCase("", "")], FAST)
    child = int(report.results[0].stdout)
    assert child > 0, "fork failed"
    # SIGKILL lands asynchronously: give it a moment, far less than the
    # child's 5 s sleep
    deadline = time.monotonic() + 1.0
    while (state := _proc_state(child)) not in (None, "Z") and time.monotonic() < deadline:
        time.sleep(0.01)
    assert state in (None, "Z")


# prints the expected output, then does DAMAGE to its binary or working directory
BREAKS_ITS_JAIL = """\
#include <stdio.h>
#include <stdlib.h>
#include <sys/stat.h>
#include <unistd.h>
int main(int argc, char **argv) {
    printf("1\\n");
    fflush(stdout);
    DAMAGE
    return 0;
}
"""


@pytest.mark.parametrize("damage", [
    "remove(argv[0]);",
    "chmod(argv[0], 0644);",
    # the binary is no longer running once the shell replaces it, so it can be written
    r'execl("/bin/sh", "sh", "-c", ": > \"$0\"", argv[0], (char *)0);',
    # reading a FIFO with no writer would block triage
    'remove(argv[0]); mkfifo(argv[0], 0755);',
    # the guard keeps it from removing anything but a directory of triage's own
    r'system("case \"$PWD\" in */repairkit-*) rm -rf -- \"$PWD\";; esac");',
    pytest.param('chmod(".", 0500);', id="chmod-cwd", marks=pytest.mark.skipif(
        os.geteuid() == 0, reason="root writes to a directory whatever its mode")),
    # the compiled binary that every new copy used to come from, then its own copy
    'remove("../main.bin"); remove(argv[0]);',
    # the jail root, where the next test's directory is made; guarded as rm-cwd
    r'system("p=\"${PWD%/*}\"; case \"${p##*/}\" in repairkit-*) rm -rf -- \"$p\";; esac");',
    # the jail root replaced with a file, found from the binary's path
    r'execl("/bin/sh", "sh", "-c", "p=$(dirname \"$(dirname \"$0\")\"); '
    r'case \"${p##*/}\" in repairkit-*) rm -rf -- \"$p\" && : > \"$p\";; esac", '
    r'argv[0], (char *)0);',
], ids=["remove", "chmod", "truncate", "fifo", "rm-cwd", "chmod-cwd", "remove-compiled",
        "remove-root", "replace-root"])
def test_a_test_that_breaks_its_jail_does_not_stop_the_next(damage, monkeypatch, tmp_path):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    code = BREAKS_ITS_JAIL.replace("DAMAGE", damage)
    # Failed is no OSError, so nothing in triage can catch it
    old = signal.signal(signal.SIGALRM, lambda *_: pytest.fail("triage hung"))
    signal.alarm(10)
    try:
        report = triage_source(code, [TestCase("", "1\n")] * 2, FAST)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    assert [r.passed for r in report.results] == [True, True]
    assert list(tmp_path.iterdir()) == []  # the jail root is gone, whatever it became


# spins until its CPU time is capped, then prints the cap
WAITS_FOR_A_CPU_CAP = """\
#include <stdio.h>
#include <sys/resource.h>
int main(void) {
    struct rlimit r;
    do getrlimit(RLIMIT_CPU, &r); while (r.rlim_cur == RLIM_INFINITY);
    printf("%llu %llu\\n", (unsigned long long) r.rlim_cur, (unsigned long long) r.rlim_max);
    return 0;
}
"""


def test_a_test_program_gets_a_cpu_cap_its_timeout_never_reaches():
    # the cap ends a test that triage no longer lives to kill; a process
    # spends at most its wall time on every core, so it never ends one sooner
    cap = math.ceil(FAST.timeout_s * os.cpu_count()) + 1
    report = triage_source(WAITS_FOR_A_CPU_CAP, [TestCase("", f"{cap} {cap}\n")], FAST)
    (result,) = report.results
    assert not result.timed_out
    assert result.passed, result.stdout


@pytest.mark.parametrize("module,name", [(os, "pidfd_open"), (resource, "prlimit")])
def test_missing_platform_support_is_named(monkeypatch, module, name):
    monkeypatch.delattr(module, name)
    with pytest.raises(RepairKitError, match=r"Linux >= 5\.3"):
        triage_source(SUM_OK, SUM_TESTS, FAST)


@pytest.mark.parametrize("err", [errno.ENOSYS, errno.EPERM], ids=["ENOSYS", "EPERM"])
def test_refused_pidfd_is_named_and_kills_the_test(monkeypatch, err):
    spawned = []
    real_popen = subprocess.Popen

    def recording_popen(*args, **kwargs):
        proc = real_popen(*args, **kwargs)
        spawned.append(proc)
        return proc

    def refuse(pid):
        raise OSError(err, os.strerror(err))

    monkeypatch.setattr(subprocess, "Popen", recording_popen)
    monkeypatch.setattr(os, "pidfd_open", refuse)
    with pytest.raises(RepairKitError, match=r"Linux >= 5\.3"):
        triage_source(LOOP_FOREVER, SUM_TESTS[:1], FAST)
    # the refusal comes at the compiler's launch, so nothing else started
    (compiler,) = spawned
    assert compiler.returncode == -signal.SIGKILL


# ---------------------------------------------------------------------------
# output normalization


@pytest.mark.parametrize(
    "raw,expected",
    [
        ("3\n", "3"),
        ("3  \n", "3"),
        ("a \t b\n\n\n", "a b"),
        ("  x\n", " x"),
        ("", ""),
        ("\n\n", ""),
        ("1\n2", "1\n2"),
    ],
)
def test_normalize_examples(raw, expected):
    assert normalize_output(raw) == expected


@given(st.text(alphabet=" \tab3\n", max_size=60))
@settings(max_examples=150)
def test_normalize_matches_reference(text):
    assert normalize_output(text) == normalize_ref(text)


@given(st.text(alphabet=" \tab3\n", max_size=60))
def test_normalize_idempotent(text):
    once = normalize_output(text)
    assert normalize_output(once) == once


# ---------------------------------------------------------------------------
# executor config


def test_config_from_file(tmp_path):
    cfg = tmp_path / "exec.cfg"
    cfg.write_text(
        "# toolchain\n"
        "compiler_cmd = gcc -O1 -w {src} -o {out}\n"
        "timeout_s = 1.5\n"
        "max_output_bytes = 4096  # plenty\n"
    )
    config = ExecutorConfig.from_file(cfg)
    assert config.compiler_cmd == "gcc -O1 -w {src} -o {out}"
    assert config.timeout_s == 1.5
    assert config.compile_timeout_s == 15.0
    assert config.max_output_bytes == 4096


def test_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "exec.cfg"
    cfg.write_text("timeout = 2\n")
    with pytest.raises(ValueError, match="unknown key"):
        ExecutorConfig.from_file(cfg)


def test_config_rejects_bad_line(tmp_path):
    cfg = tmp_path / "exec.cfg"
    cfg.write_text("just some words\n")
    with pytest.raises(ValueError, match="expected key = value"):
        ExecutorConfig.from_file(cfg)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"timeout_s": 0.0},
        {"compile_timeout_s": -1.0},
        {"max_output_bytes": 0},
        {"compiler_cmd": "gcc {src}"},
        {"compiler_cmd": "gcc -DX={y} {src} -o {out}"},
        {"compiler_cmd": "gcc -DX={0} {src} -o {out}"},
        {"compiler_cmd": "gcc '{src} -o {out}"},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        ExecutorConfig(**kwargs)


@pytest.mark.parametrize("key", ["timeout_s", "compile_timeout_s"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_config_rejects_non_finite_timeouts(key, value):
    # a nan or inf limit would let a hanging program run unbounded
    with pytest.raises(ValueError, match="finite"):
        ExecutorConfig(**{key: value})


# ---------------------------------------------------------------------------
# problem metadata and prompts


def test_load_problem_meta_roundtrip(tmp_path):
    path = write_problem_meta(tmp_path / "p1.json")
    meta = load_problem_meta(path)
    assert meta.problem_id == "p1"
    assert meta.example_ios == (("1 2\n", "3\n"),)
    assert meta.tests[0] == TestCase("3 4\n", "7\n")


def test_load_problem_meta_requires_id(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"description": "no id"}')
    with pytest.raises(RepairKitError):
        load_problem_meta(path)


def test_prompt_has_all_sections_in_order():
    meta = ProblemMeta(
        problem_id="p1",
        description="Sum two ints.",
        io_format="two ints -> one int",
        example_ios=(("1 2\n", "3\n"),),
    )
    prompt = build_prompt(meta, BugType.SEMANTIC_ERROR, SUM_WRONG_OP)
    headers = [ln for ln in prompt.splitlines() if ln.startswith("## ")]
    assert headers == [
        "## Problem Description",
        "## Input/Output Format",
        "## Example IOs",
        "## Bug Type",
        "## Buggy Code",
    ]
    assert "Sum two ints." in prompt
    assert "\nSE\n" in prompt
    assert prompt.endswith("\n")


def test_prompt_missing_parts_say_na():
    meta = ProblemMeta(problem_id="p2")
    prompt = build_prompt(meta, None, "int main() { return 0; }")
    assert prompt.count("N/A") == 4  # description, format, examples, bug type


def test_prompt_drops_examples_that_are_graded_tests():
    meta = ProblemMeta(
        problem_id="p3",
        example_ios=(("1 2\n", "3\n"), ("5 5\n", "10\n")),
        tests=(TestCase("5 5\n", "10\n"),),
    )
    prompt = build_prompt(meta, None, "x")
    assert "1 2" in prompt
    assert "5 5" not in prompt


def test_prompt_all_examples_graded_means_na():
    meta = ProblemMeta(
        problem_id="p4",
        example_ios=(("5 5\n", "10\n"),),
        tests=(TestCase("5 5\n", "10\n"),),
    )
    prompt = build_prompt(meta, None, "x")
    section = prompt.split("## Example IOs\n")[1].split("\n\n")[0]
    assert section == "N/A"
