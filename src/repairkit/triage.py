"""Compile/run student submissions in a sandbox and name what went wrong.

The compiler and every test run through one launcher, ``_run_jailed``: each
program gets its own session, and its whole process group is killed once it
exits or times out.  The compiler reads ``/dev/null``; its diagnostics are
kept up to ``max_output_bytes`` bytes.  A test's files are capped at that
size too, and its CPU time at what its timeout allows on every core, so a
test that outlives its launcher still ends.  Tests share a directory of
their own and a copy of the binary until a test changes either; the next
test then gets a new directory with a new copy, written from the binary's
bytes as the compiler left them.

The bug taxonomy is deliberately coarse — compile error, time limit,
presentation error (whitespace-only output mismatch), semantic error —
because it feeds a repair prompt, not a grading pipeline.
"""

from __future__ import annotations

import enum
import errno
import json
import math
import os
import re
import resource
import select
import shlex
import signal
import stat
import subprocess
import tempfile
import time
from pathlib import Path
from typing import BinaryIO, NamedTuple, Sequence

from .errors import Checked, RepairKitError, read_text

__all__ = [
    "BugType",
    "ExecutorConfig",
    "TestCase",
    "TestResult",
    "ExecutionReport",
    "ProblemMeta",
    "normalize_output",
    "compile_source",
    "run_test",
    "triage_source",
    "classify",
    "load_problem_meta",
    "build_prompt",
]


class BugType(enum.Enum):
    COMPILE_ERROR = "CE"
    TIME_LIMIT = "TLE"
    PRESENTATION_ERROR = "PE"
    SEMANTIC_ERROR = "SE"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class _ExecutorConfig(NamedTuple):
    compiler_cmd: str = "gcc -O0 -w {src} -o {out} -lm"
    timeout_s: float = 2.0
    compile_timeout_s: float = 15.0
    max_output_bytes: int = 1 << 20


class ExecutorConfig(Checked, _ExecutorConfig):
    """Knobs for the sandboxed compile-and-run step."""

    __slots__ = ()

    def _check(self) -> None:
        for timeout in (self.timeout_s, self.compile_timeout_s):
            # nan fails every comparison, so it would pass a plain `<= 0` test;
            # nan or inf would turn the limit off
            if not (math.isfinite(timeout) and timeout > 0):
                raise ValueError("timeouts must be positive and finite")
        if self.max_output_bytes <= 0:
            raise ValueError("max_output_bytes must be positive")
        if "{src}" not in self.compiler_cmd or "{out}" not in self.compiler_cmd:
            raise ValueError("compiler_cmd must contain {src} and {out}")
        try:
            _compiler_argv(self.compiler_cmd, "main.c", "main.bin")
        except (ValueError, LookupError, AttributeError) as exc:
            # an unclosed quote, a stray brace, or a field other than src and out
            raise ValueError(f"bad compiler_cmd {self.compiler_cmd!r}: {exc!r}") from exc

    @classmethod
    def from_file(cls, path: str | Path) -> "ExecutorConfig":
        """Parse a ``key = value`` config file (# comments allowed).

        The keys are the fields; each value is converted to the type of its
        field's default.
        """
        converters = {name: type(default)
                      for name, default in cls._field_defaults.items()}
        kwargs: dict[str, object] = {}
        for lineno, raw in enumerate(read_text(path).splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            convert = converters.get(key)
            if convert is None:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                kwargs[key] = convert(value)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {key}: {exc}") from exc
        try:
            return cls(**kwargs)  # type: ignore[arg-type]
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc


class TestCase(NamedTuple):
    input: str
    expected: str

    __test__ = False  # not a pytest class despite the name


class TestResult(NamedTuple):
    index: int
    stdout: str
    returncode: int
    timed_out: bool
    truncated: bool
    elapsed_s: float
    raw_match: bool
    normalized_match: bool

    @property
    def passed(self) -> bool:
        return self.raw_match and not self.timed_out and self.returncode == 0

    @property
    def formatting_only(self) -> bool:
        """Failed, but the output differs from the expected only in whitespace."""
        return not self.passed and self.normalized_match and self.returncode == 0


class ExecutionReport(NamedTuple):
    compile_ok: bool
    diagnostics: str = ""
    results: Sequence[TestResult] = ()

    @property
    def all_passed(self) -> bool:
        return self.compile_ok and all(r.passed for r in self.results)


_SPACE_RUN = re.compile(r"[ \t]+")


def normalize_output(text: str) -> str:
    """Canonical form for presentation-error checks.

    Collapses space/tab runs, strips trailing whitespace per line and drops
    trailing blank lines.  Idempotent.
    """
    lines = [_SPACE_RUN.sub(" ", ln).rstrip() for ln in text.splitlines()]
    while lines and not lines[-1]:
        lines.pop()
    return "\n".join(lines)


# names gcc gives the temporary objects it links (``ccXXXXXX.o``); with
# TMPDIR set to the jail they land there instead of in /tmp
_TEMP_OBJECT = r"\w+\.o\b"


def _scrub(text: str, jail: Path) -> str:
    # keep diagnostics reproducible across runs: name every temporary object
    # main.o, then drop the tempdir prefix
    text = re.sub(re.escape(str(jail) + os.sep) + _TEMP_OBJECT, "main.o", text)
    return text.replace(str(jail) + os.sep, "").replace(str(jail), "")


def _compiler_argv(cmd: str, src: str, out: str) -> list[str]:
    return [a.format(src=src, out=out) for a in shlex.split(cmd)]


_PLATFORM = "triage needs Linux >= 5.3 (os.pidfd_open and resource.prlimit)"


def _exits_within(pid: int, timeout_s: float) -> bool:
    """Block until process ``pid`` exits or ``timeout_s`` passes; True if it exited.

    Wakes as soon as the process ends, where ``Popen.wait(timeout=)`` would
    sleep up to 50 ms between checks.  Does not reap the process.
    """
    try:
        fd = os.pidfd_open(pid)
    except OSError as exc:
        if exc.errno in (errno.ENOSYS, errno.EPERM):
            raise RepairKitError(f"{_PLATFORM}: pidfd_open: {exc.strerror}") from exc
        raise
    try:
        poller = select.poll()
        poller.register(fd, select.POLLIN)
        return bool(poller.poll(timeout_s * 1000))
    finally:
        os.close(fd)


def _run_jailed(argv: list[str], jail: Path, stdin, timeout_s: float, keep: int, stderr=False,
                env: dict | None = None,
                limits: Sequence[tuple[int, int]] = ()) -> tuple[int, bool, bytes]:
    """Run ``argv`` in ``jail`` in its own session, under each ``(resource, value)``
    of ``limits``, until it exits or times out; then kill its whole group.  Returns the
    exit code, whether it timed out, and the first ``keep`` bytes of stdout (stderr if
    ``stderr``)."""
    if not (hasattr(os, "pidfd_open") and hasattr(resource, "prlimit")):
        raise RepairKitError(f"{_PLATFORM}, which this platform lacks")
    with tempfile.TemporaryFile(dir=jail) as capture:
        out, err = (subprocess.DEVNULL, capture) if stderr else (capture, subprocess.DEVNULL)
        proc = subprocess.Popen(argv, stdin=stdin, stdout=out, stderr=err,
                                cwd=jail, env=env, start_new_session=True)
        try:
            try:
                # set from the parent so no preexec_fn is needed (thread-safe)
                for res, value in limits:
                    resource.prlimit(proc.pid, res, (value, value))
            except OSError:
                pass
            timed_out = not _exits_within(proc.pid, timeout_s)
        finally:
            # the leader is not reaped yet, so its pid still names the group:
            # kill whatever the program left running, then reap
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                proc.kill()
            proc.wait()
        capture.seek(0)
        return proc.returncode, timed_out, capture.read(keep)


def compile_source(code: str, config: ExecutorConfig, jail: Path) -> tuple[bool, str, Path]:
    src = jail / "main.c"
    out = jail / "main.bin"
    # a source read with surrogateescape gets its original bytes back
    src.write_text(code, encoding="utf-8", errors="surrogateescape")
    argv = _compiler_argv(config.compiler_cmd, str(src), str(out))
    # no file-size cap: a linked binary may exceed max_output_bytes
    try:
        returncode, timed_out, diag = _run_jailed(
            argv, jail, subprocess.DEVNULL, config.compile_timeout_s,
            config.max_output_bytes, stderr=True, env={**os.environ, "TMPDIR": str(jail)})
    except FileNotFoundError as exc:
        raise RepairKitError(f"compiler not found: {argv[0]}") from exc
    if timed_out:
        return False, "compiler timed out", out
    return returncode == 0, _scrub(diag.decode("utf-8", errors="replace"), jail), out


def _input_file(jail: Path, data: bytes) -> BinaryIO:
    """``data`` in a new file in ``jail``, opened read-only, its name removed.

    The jail is the tests' working directory, so the name is random and
    neither the create nor the reopen follows a link an earlier test left.
    """
    fd, name = tempfile.mkstemp(dir=jail)
    try:
        with open(fd, "wb") as fh:
            fh.write(data)
        return open(os.open(name, os.O_RDONLY | os.O_NOFOLLOW), "rb")
    finally:
        os.unlink(name)


def run_test(binary: Path, case: TestCase, config: ExecutorConfig,
             index: int = 0) -> TestResult:
    """Run one test with its input file as stdin and its output capped."""
    start = time.perf_counter()
    cap = config.max_output_bytes
    # a process spends at most its wall time on every core, so this CPU cap
    # never ends a test before its timeout; it ends one that triage cannot kill
    cpu_s = math.ceil(config.timeout_s * (os.cpu_count() or 1)) + 1
    with _input_file(binary.parent, case.input.encode()) as in_fh:
        # one byte past the cap, so that a flood shows
        returncode, timed_out, data = _run_jailed(
            [str(binary)], binary.parent, in_fh, config.timeout_s, cap + 1,
            limits=((resource.RLIMIT_FSIZE, cap + 1), (resource.RLIMIT_CPU, cpu_s)))
    elapsed = time.perf_counter() - start
    truncated = len(data) > cap
    stdout = data[:cap].decode("utf-8", errors="replace")
    # a cut output matches nothing: the part that went past the cap is unseen
    complete = not timed_out and not truncated
    raw_match = complete and stdout == case.expected
    normalized_match = complete and normalize_output(stdout) == normalize_output(case.expected)
    return TestResult(
        index=index,
        stdout=stdout,
        returncode=returncode,
        timed_out=timed_out,
        truncated=truncated,
        elapsed_s=elapsed,
        raw_match=raw_match,
        normalized_match=normalized_match,
    )


def _fingerprint(binary: Path) -> tuple | None:
    """What of ``binary`` and its directory the next test needs unchanged,
    or None if either is gone: the mode of each and, if it is still a
    regular file (a FIFO would block the read), the binary's bytes.  Not
    its change time, which may not move within a clock tick."""
    try:
        mode = os.lstat(binary).st_mode
        return mode, os.lstat(binary.parent).st_mode, stat.S_ISREG(mode) and binary.read_bytes()
    except OSError:
        return None


def _write_copy(image: bytes, path: Path) -> Path:
    """A new executable file at ``path`` (mode 0755) holding ``image``,
    created exclusively so that it follows no link an earlier test left."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o755)
    with open(fd, "wb") as fh:
        os.fchmod(fd, 0o755)  # whatever the umask
        fh.write(image)
    return path


def _reclaim(root: Path) -> None:
    """Unlink whatever a test left at ``root`` in place of a directory,
    without following a link."""
    try:
        if not stat.S_ISDIR(os.lstat(root).st_mode):
            os.unlink(root)
    except FileNotFoundError:
        pass


def triage_source(code: str, tests: list[TestCase],
                  config: ExecutorConfig | None = None) -> ExecutionReport:
    """Compile ``code`` and run every test; never raises on program faults.

    The tests run in a directory of their own on a copy of the binary.  A
    test that removes, replaces or changes either leaves the next test a
    new directory with a new copy, written from the bytes read once after
    compiling, so no test can stop the next one from starting, not even by
    removing the compiled binary or removing or replacing the jail root
    through ``..``.
    """
    config = config or ExecutorConfig()
    results = []
    with tempfile.TemporaryDirectory(prefix="repairkit-") as tmp:
        jail = Path(tmp)
        ok, diag, binary = compile_source(code, config, jail)
        image = binary.read_bytes() if ok and tests else b""
        seen = None
        for i, case in enumerate(tests if ok else ()):
            if seen is None or _fingerprint(own) != seen:
                # a new directory and copy for every test cost about half a
                # millisecond each, so only when the last test changed its own;
                # that test may have removed or replaced the jail root too
                _reclaim(jail)
                jail.mkdir(mode=0o700, exist_ok=True)
                own = _write_copy(image, Path(tempfile.mkdtemp(dir=jail)) / binary.name)
                seen = _fingerprint(own)
            results.append(run_test(own, case, config, index=i))
        _reclaim(jail)  # the cleanup removes only a directory tree
    return ExecutionReport(compile_ok=ok, diagnostics=diag, results=results)


def classify(report: ExecutionReport) -> BugType | None:
    """Name the dominant failure, or None if everything passed.

    Precedence: compile error, then any timeout, then presentation error
    (every failing test differs only in whitespace), then semantic error.
    """
    if not report.compile_ok:
        return BugType.COMPILE_ERROR
    if any(r.timed_out for r in report.results):
        return BugType.TIME_LIMIT
    failing = [r for r in report.results if not r.passed]
    if not failing:
        return None
    if all(r.formatting_only for r in failing):
        return BugType.PRESENTATION_ERROR
    return BugType.SEMANTIC_ERROR


class ProblemMeta(NamedTuple):
    problem_id: str
    description: str = ""
    io_format: str = ""
    example_ios: tuple[tuple[str, str], ...] = ()
    tests: tuple[TestCase, ...] = ()


def load_problem_meta(path: str | Path) -> ProblemMeta:
    """Load problem metadata from its JSON file."""
    def bad(why: object) -> RepairKitError:
        return RepairKitError(f"{path}: bad problem meta: {why}")

    try:
        data = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise bad(exc) from exc
    if not isinstance(data, dict):
        raise bad("not a JSON object")
    if "problem_id" not in data:
        raise bad("missing problem_id")
    for key in ("description", "io_format"):
        if not isinstance(data.get(key, ""), str):
            raise bad(f"{key} is not a string")

    def strings(key: str, fields: tuple[str, str]) -> list[tuple[str, str]]:
        """The ``fields`` of each object in ``data[key]``, which must be strings."""
        items = data.get(key, [])
        if not isinstance(items, list) or not all(isinstance(it, dict) for it in items):
            raise bad(f"{key} is not a list of objects")
        for i, item in enumerate(items):
            for name in fields:
                if not isinstance(item.get(name), str):
                    raise bad(f"{key}[{i}].{name} is missing or not a string")
        return [(item[fields[0]], item[fields[1]]) for item in items]

    return ProblemMeta(
        problem_id=str(data["problem_id"]),
        description=data.get("description", ""),
        io_format=data.get("io_format", ""),
        example_ios=tuple(strings("example_ios", ("in", "out"))),
        tests=tuple(TestCase(*t) for t in strings("tests", ("in", "expected"))),
    )


def _format_examples(meta: ProblemMeta) -> str:
    graded = {(t.input, t.expected) for t in meta.tests}
    shown = [ex for ex in meta.example_ios if ex not in graded]
    return "\n".join(f"Input {i}:\n{ex_in.rstrip()}\nOutput {i}:\n{ex_out.rstrip()}"
                     for i, (ex_in, ex_out) in enumerate(shown, 1))


def build_prompt(meta: ProblemMeta, bug_type: BugType | None, buggy_code: str) -> str:
    """Assemble the repair prompt: five fixed sections, missing parts say N/A.

    Example IOs that duplicate a graded test are left out so the prompt never
    leaks the held-out expectations.
    """
    sections = (
        ("Problem Description", meta.description.strip()),
        ("Input/Output Format", meta.io_format.strip()),
        ("Example IOs", _format_examples(meta)),
        ("Bug Type", bug_type.value if bug_type is not None else ""),
        ("Buggy Code", buggy_code.rstrip()),
    )
    return "\n\n".join(f"## {name}\n{body or 'N/A'}" for name, body in sections) + "\n"
