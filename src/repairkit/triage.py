"""Compile/run student submissions in a sandbox and name what went wrong.

The bug taxonomy is deliberately coarse — compile error, time limit,
presentation error (whitespace-only output mismatch), semantic error —
because it feeds a repair prompt, not a grading pipeline.
"""

from __future__ import annotations

import enum
import json
import math
import os
import re
import resource
import shlex
import signal
import subprocess
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from .errors import RepairKitError

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


# ExecutorConfig.from_file's keys and how each value is converted
_CONFIG_TYPES = {"compiler_cmd": str, "timeout_s": float,
                 "compile_timeout_s": float, "max_output_bytes": int}


@dataclass(frozen=True)
class ExecutorConfig:
    """Knobs for the sandboxed compile-and-run step."""

    compiler_cmd: str = "gcc -O0 -w {src} -o {out} -lm"
    timeout_s: float = 2.0
    compile_timeout_s: float = 15.0
    max_output_bytes: int = 1 << 20

    def __post_init__(self) -> None:
        for timeout in (self.timeout_s, self.compile_timeout_s):
            # nan fails every comparison, so it would pass a plain `<= 0` test;
            # nan or inf would turn the limit off
            if not (math.isfinite(timeout) and timeout > 0):
                raise ValueError("timeouts must be positive and finite")
        if self.max_output_bytes <= 0:
            raise ValueError("max_output_bytes must be positive")
        if "{src}" not in self.compiler_cmd or "{out}" not in self.compiler_cmd:
            raise ValueError("compiler_cmd must contain {src} and {out}")

    @classmethod
    def from_file(cls, path: str | Path) -> "ExecutorConfig":
        """Parse a ``key = value`` config file (# comments allowed)."""
        kwargs: dict[str, object] = {}
        for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            convert = _CONFIG_TYPES.get(key)
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


@dataclass(frozen=True)
class TestCase:
    input: str
    expected: str

    __test__ = False  # not a pytest class despite the name


@dataclass(frozen=True)
class TestResult:
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


@dataclass
class ExecutionReport:
    compile_ok: bool
    diagnostics: str = ""
    results: list[TestResult] = field(default_factory=list)

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


def _scrub(text: str, jail: Path) -> str:
    # keep diagnostics reproducible across runs: drop the tempdir prefix
    return text.replace(str(jail) + os.sep, "").replace(str(jail), "")


def compile_source(code: str, config: ExecutorConfig, jail: Path) -> tuple[bool, str, Path]:
    src = jail / "main.c"
    out = jail / "main.bin"
    src.write_text(code)
    argv = [a.format(src=str(src), out=str(out)) for a in shlex.split(config.compiler_cmd)]
    try:
        proc = subprocess.run(
            argv,
            capture_output=True,
            timeout=config.compile_timeout_s,
            cwd=jail,
        )
    except subprocess.TimeoutExpired:
        return False, "compiler timed out", out
    except FileNotFoundError as exc:
        raise RepairKitError(f"compiler not found: {argv[0]}") from exc
    diag = proc.stderr.decode("utf-8", errors="replace")[: config.max_output_bytes]
    return proc.returncode == 0, _scrub(diag, jail), out


def run_test(binary: Path, case: TestCase, config: ExecutorConfig,
             index: int = 0) -> TestResult:
    """Run one test in its own process group with capped output."""
    timed_out = False
    start = time.perf_counter()
    with tempfile.TemporaryFile(dir=binary.parent) as out_fh:
        proc = subprocess.Popen(
            [str(binary)],
            stdin=subprocess.PIPE,
            stdout=out_fh,
            stderr=subprocess.DEVNULL,
            cwd=binary.parent,
            start_new_session=True,
        )
        try:
            # cap what the program can write; set from the parent so no
            # preexec_fn is needed (thread-safe)
            cap = config.max_output_bytes
            resource.prlimit(proc.pid, resource.RLIMIT_FSIZE, (cap, cap))
        except (ProcessLookupError, PermissionError, OSError):
            pass
        try:
            proc.communicate(case.input.encode(), timeout=config.timeout_s)
        except subprocess.TimeoutExpired:
            timed_out = True
            try:
                os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                proc.kill()
            proc.wait()
        elapsed = time.perf_counter() - start
        out_fh.seek(0)
        data = out_fh.read(config.max_output_bytes + 1)
    truncated = len(data) > config.max_output_bytes
    stdout = data[: config.max_output_bytes].decode("utf-8", errors="replace")
    raw_match = not timed_out and stdout == case.expected
    normalized_match = (
        not timed_out and normalize_output(stdout) == normalize_output(case.expected)
    )
    return TestResult(
        index=index,
        stdout=stdout,
        returncode=proc.returncode,
        timed_out=timed_out,
        truncated=truncated,
        elapsed_s=elapsed,
        raw_match=raw_match,
        normalized_match=normalized_match,
    )


def triage_source(code: str, tests: list[TestCase],
                  config: ExecutorConfig | None = None) -> ExecutionReport:
    """Compile ``code`` and run every test; never raises on program faults."""
    config = config or ExecutorConfig()
    with tempfile.TemporaryDirectory(prefix="repairkit-") as tmp:
        jail = Path(tmp)
        ok, diag, binary = compile_source(code, config, jail)
        report = ExecutionReport(compile_ok=ok, diagnostics=diag)
        if not ok:
            return report
        for i, case in enumerate(tests):
            report.results.append(run_test(binary, case, config, index=i))
    return report


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
    if all(r.normalized_match and r.returncode == 0 for r in failing):
        return BugType.PRESENTATION_ERROR
    return BugType.SEMANTIC_ERROR


@dataclass(frozen=True)
class ProblemMeta:
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
        data = json.loads(Path(path).read_text())
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


_PROMPT_SECTIONS = (
    "Problem Description",
    "Input/Output Format",
    "Example IOs",
    "Bug Type",
    "Buggy Code",
)


def _format_examples(meta: ProblemMeta) -> str:
    graded = {(t.input, t.expected) for t in meta.tests}
    shown = [ex for ex in meta.example_ios if ex not in graded]
    if not shown:
        return ""
    parts = []
    for i, (ex_in, ex_out) in enumerate(shown, 1):
        parts.append(f"Input {i}:\n{ex_in.rstrip()}\nOutput {i}:\n{ex_out.rstrip()}")
    return "\n".join(parts)


def build_prompt(meta: ProblemMeta, bug_type: BugType | None, buggy_code: str) -> str:
    """Assemble the repair prompt: five fixed sections, missing parts say N/A.

    Example IOs that duplicate a graded test are left out so the prompt never
    leaks the held-out expectations.
    """
    bodies = {
        "Problem Description": meta.description.strip(),
        "Input/Output Format": meta.io_format.strip(),
        "Example IOs": _format_examples(meta),
        "Bug Type": bug_type.value if bug_type is not None else "",
        "Buggy Code": buggy_code.rstrip(),
    }
    chunks = []
    for name in _PROMPT_SECTIONS:
        body = bodies[name] or "N/A"
        chunks.append(f"## {name}\n{body}")
    return "\n\n".join(chunks) + "\n"
