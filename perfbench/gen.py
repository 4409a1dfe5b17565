"""Seeded input generators for the benchmark.

Every generator takes its seed (plus a round number where a workload needs
fresh inputs per round) and returns plain data: C source text, archive
trees on disk, test cases.  Each one also returns a ledger of what it
planted, so the checks can compare the program's output against what the
inputs were built to contain rather than against a saved copy of an
earlier output.

Nothing here imports repairkit: the program under test sees only the
generated files and values.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

MAX_LED = 10          # the --max-led the corpus workload passes to `dataset`

_OPS = ("+", "-", "*")
_CMP = ("<", ">", "<=", ">=", "!=")
_COMMENTS = (
    "keep the running value small",
    "TODO: check the bounds again",
    "accumulate the partial result",
    "edge case from the sample input",
    "loop until the value settles",
    "copied from the lecture notes",
)


def _rng(*parts: object) -> random.Random:
    # str seeds hash through sha512, so streams do not depend on PYTHONHASHSEED
    return random.Random(":".join(str(p) for p in parts))


def line_led(a: str, b: str) -> int:
    """Line-level edit distance over whitespace-stripped lines.

    Written here, apart from repairkit, so the ledger's rewrite/repair split
    does not lean on the code the benchmark measures.
    """
    xs = [ln.strip() for ln in a.splitlines()]
    ys = [ln.strip() for ln in b.splitlines()]
    prev = list(range(len(ys) + 1))
    for i, x in enumerate(xs, 1):
        cur = [i]
        for j, y in enumerate(ys, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y)))
        prev = cur
    return prev[-1]


# --------------------------------------------------------------------------
# multi-function C programs


class _Body:
    """Emits indented statement lines for one function body."""

    def __init__(self, rng: random.Random, names: list[str], depth: int):
        self.rng = rng
        self.names = names
        self.depth = depth
        self.lines: list[str] = []

    def _pad(self, extra: int = 0) -> str:
        return "    " * (self.depth + extra)

    def expr(self) -> str:
        rng, names = self.rng, self.names
        left = rng.choice(names) if rng.random() < 0.8 else str(rng.randrange(1, 100))
        if rng.random() < 0.6:
            right = rng.choice(names) if rng.random() < 0.4 else str(rng.randrange(1, 10))
            return f"{left} {rng.choice(_OPS)} {right}"
        return left

    def statement(self, nest: int) -> None:
        rng, pad = self.rng, self._pad()
        if rng.random() < 0.12:
            self.lines.append(f"{pad}// {rng.choice(_COMMENTS)}")
        roll = rng.random()
        if roll < 0.18:
            name = f"t{len(self.names)}"
            self.lines.append(f"{pad}int {name} = {self.expr()};")
            self.names.append(name)
        elif roll < 0.45 or nest <= 0:
            self.lines.append(f"{pad}{rng.choice(self.names)} = {self.expr()};")
        elif roll < 0.55:
            op = rng.choice(("+=", "-="))
            self.lines.append(f"{pad}{rng.choice(self.names)} {op} {rng.randrange(1, 9)};")
        elif roll < 0.75:
            v = rng.choice(self.names)
            self.lines.append(f"{pad}if ({v} {rng.choice(_CMP)} {rng.randrange(100)}) {{")
            self._nested(nest)
            if rng.random() < 0.3:
                self.lines.append(f"{pad}}} else {{")
                self._nested(nest)
            self.lines.append(f"{pad}}}")
        else:
            v = rng.choice(self.names)
            self.lines.append(f"{pad}while ({v} < {rng.randrange(10, 60)}) {{")
            self._nested(nest)
            self.lines.append(f"{pad}    {v} = {v} + {rng.randrange(1, 4)};")
            self.lines.append(f"{pad}}}")

    def _nested(self, nest: int) -> None:
        inner = _Body(self.rng, list(self.names), self.depth + 1)
        for _ in range(self.rng.randrange(1, 3)):
            inner.statement(nest - 1)
        self.lines.extend(inner.lines)


HELPER_LINES = 12    # body lines per helper, comments included
MAIN_LINES = 16      # body lines of main after its fixed prologue


def _body(rng: random.Random, names: list[str], lines: int) -> _Body:
    """A body of exactly ``lines`` lines, so program size depends only on
    the function count and rounds cost about the same whatever the seed."""
    while True:
        body = _Body(rng, list(names), 1)
        while len(body.lines) < lines:
            body.statement(nest=2)
        if len(body.lines) == lines:
            return body


def c_program(rng: random.Random, n_funcs: int) -> str:
    """A well-formed C program: ``n_funcs - 1`` helpers plus ``main``.

    Bodies mix declarations, assignments, nested ``if``/``while`` blocks and
    line comments; each helper carries a block comment.
    """
    lines = ["#include <stdio.h>", ""]
    helpers = [f"step{k}" for k in range(n_funcs - 1)]
    for k, name in enumerate(helpers):
        lines.append(f"/* helper {k}: {rng.choice(_COMMENTS)} */")
        lines.append(f"int {name}(int a, int b) {{")
        lines.append("    int r = a + b;")
        lines.extend(_body(rng, ["a", "b", "r"], HELPER_LINES).lines)
        lines.append("    return r;")
        lines.append("}")
        lines.append("")
    lines.append("int main(void) {")
    lines.append("    int n = 0;")
    lines.append('    scanf("%d", &n);')
    names = ["n"]
    for name in helpers:
        var = f"x{len(names)}"
        lines.append(f"    int {var} = {name}(n, {rng.randrange(1, 20)});")
        names.append(var)
    body = _body(rng, names, MAIN_LINES)
    lines.extend(body.lines)
    lines.append(f'    printf("%d\\n", {rng.choice(names)});')
    lines.append("    return 0;")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _editable(lines: list[str]) -> list[int]:
    return [i for i, ln in enumerate(lines)
            if ln.rstrip().endswith(";") and "return" not in ln
            and "scanf" not in ln and "printf" not in ln]


def plant_repair(rng: random.Random, fixed: str) -> str:
    """The buggy attempt: ``fixed`` with 1-3 single-line edits.

    Each edit rewrites, drops or adds one line, so the line edit distance is
    at most 3.
    """
    lines = fixed.splitlines()
    picks = sorted(rng.sample(_editable(lines), rng.randrange(1, 4)), reverse=True)
    for i in picks:
        line = lines[i]
        indent = line[: len(line) - len(line.lstrip())]
        roll = rng.random()
        if roll < 0.45:
            for op, repl in ((" + ", " - "), (" - ", " + "), (" * ", " + "),
                             ("+=", "-="), ("-=", "+=")):
                if op in line:
                    lines[i] = line.replace(op, repl, 1)
                    break
            else:
                lines[i] = line[:-1] + " + 1;"
        elif roll < 0.7:
            lines[i] = line[:-1] + f" * {rng.randrange(2, 5)};"
        elif roll < 0.85:
            del lines[i]
        else:
            words = line.split()
            var = words[1] if words[0] == "int" else words[0]
            lines.insert(i + 1, f"{indent}{var} = {var} + {rng.randrange(2, 9)};")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# corpus archive


@dataclass
class Archive:
    """One generated archive and the ledger of what it was built to contain."""

    files: dict[str, tuple[str, str]] = field(default_factory=dict)  # rel -> (verdict, code)
    repairs: dict[str, tuple[str, str]] = field(default_factory=dict)  # pair id -> (buggy, fixed)
    rewrites: list[str] = field(default_factory=list)   # pair ids past --max-led
    unpaired: list[str] = field(default_factory=list)   # problem/student, never accepted

    def write(self, root: Path) -> None:
        """Lay out ``problem/student/timestamp.c`` files plus ``verdicts.json``."""
        for rel, (_, code) in self.files.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(code)
        manifest = {rel: verdict for rel, (verdict, _) in self.files.items()}
        (root / "verdicts.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))


# Per problem, every archive has the same make-up, so rounds cost about the
# same whatever the seed: students accepted after 1, 2 and 3 wrong attempts
# (one of the third student's tries being a rewrite) and one student never
# accepted.  Plan entries: (wrong attempts, has a rewrite or None when never
# accepted, functions in the student's program).
_STUDENT_PLAN = ((1, False, 3), (2, False, 2), (3, True, 4), (2, None, 5))


def make_archive(seed: int, round_no: int, problems: int,
                 funcs: int | None = None) -> Archive:
    """One archive of ``problems`` problems; ``funcs`` gives every program
    that many functions instead of the plan's mix."""
    rng = _rng("archive", seed, round_no)
    arc = Archive()
    for p in range(problems):
        problem = f"r{round_no:03d}p{p}"
        plan = list(_STUDENT_PLAN)
        rng.shuffle(plan)
        for s, (wrong, rewrite, plan_funcs) in enumerate(plan):
            student = f"s{s:02d}"
            size = funcs or plan_funcs
            accepted = c_program(rng, size)
            first = 1000 + rng.randrange(100)
            rewrite_at = rng.randrange(wrong) if rewrite else -1
            for k in range(wrong):
                stamp = str(first + 100 * k)
                pair_id = f"{problem}/{student}/{stamp}"
                if k == rewrite_at:
                    code = c_program(rng, size)
                    while line_led(code, accepted) <= MAX_LED + 5:
                        code = c_program(rng, size)
                    arc.rewrites.append(pair_id)
                else:
                    code = plant_repair(rng, accepted)
                    if rewrite is not None:
                        arc.repairs[pair_id] = (code, accepted)
                arc.files[f"{pair_id}.c"] = (rng.choice(("WA", "PE", "RE", "TLE")), code)
            if rewrite is None:
                arc.unpaired.append(f"{problem}/{student}")
            else:
                arc.files[f"{problem}/{student}/{first + 100 * wrong}.c"] = ("OK", accepted)
    return arc


# --------------------------------------------------------------------------
# triage suite
#
# Every problem reads ``n`` and then ``n`` integers; the reference solution
# and the expected outputs are computed here from the same inputs.  A
# submission is the reference solution with one planted fault:
#
# * ``accepted``: a comment and renamed locals, nothing else;
# * ``SE``: the printed value is off by one, so every test fails;
# * ``PE``: whitespace around the printed values differs;
# * ``CE``: a statement loses its semicolon or calls an undeclared function;
# * ``TLE``: the read loop skips its increment on negative values, which
#   spins forever on the tests that hold one.


@dataclass(frozen=True)
class Problem:
    name: str
    description: str
    fold_init: str                 # C expression: accumulator start
    fold_step: str                 # C statement updating `acc` from `x`
    fold_py: object                # same fold in Python: (acc, x) -> acc
    init_py: object                # (first value) -> acc


_PROBLEMS = (
    Problem("sum", "Print the sum of the n integers.", "0",
            "acc = acc + x;", lambda acc, x: acc + x, lambda x: 0),
    Problem("max", "Print the largest of the n integers.", "first",
            "if (x > acc) {\n            acc = x;\n        }",
            lambda acc, x: max(acc, x), lambda x: x),
    Problem("count_pos", "Print how many of the n integers are positive.", "0",
            "if (x > 0) {\n            acc = acc + 1;\n        }",
            lambda acc, x: acc + (x > 0), lambda x: 0),
    Problem("sum_even", "Print the sum of the even integers.", "0",
            "if (x % 2 == 0) {\n            acc = acc + x;\n        }",
            lambda acc, x: acc + x if x % 2 == 0 else acc, lambda x: 0),
    Problem("min", "Print the smallest of the n integers.", "first",
            "if (x < acc) {\n            acc = x;\n        }",
            lambda acc, x: min(acc, x), lambda x: x),
)

CLASSES = ("accepted", "SE", "PE", "CE", "TLE")
_TEST_COUNTS = (5, 8, 12, 16, 20)   # tests per problem, dealt out by the seed


def _solution(problem: Problem, rng: random.Random, fault: str) -> str:
    i, acc, x = ("i", "acc", "x") if fault != "accepted" else rng.choice(
        (("k", "total", "v"), ("idx", "res", "cur"), ("j", "out", "val")))
    step = problem.fold_step.replace("acc", acc).replace("x", x) \
        if fault == "accepted" else problem.fold_step
    init = problem.fold_init.replace("first", x)
    read_body = f"        scanf(\"%d\", &{x});\n"
    if fault == "TLE":
        read_body += f"        if ({x} < 0) {{\n            continue;\n        }}\n"
    fmt, value = "%d\\n", acc
    if fault == "SE":
        value = f"{acc} + 1"
    elif fault == "PE":
        fmt = rng.choice(("%d \\n", "%d\\t\\n", "%d\\n\\n"))
    first_read = ""
    if "first" in problem.fold_init:
        first_read = f"    scanf(\"%d\", &{x});\n    {i} = 1;\n"
    code = (
        "#include <stdio.h>\n\n"
        + (f"/* {problem.description} */\n" if fault == "accepted" else "")
        + "int main(void) {\n"
        f"    int n = 0, {i} = 0, {x} = 0;\n"
        "    scanf(\"%d\", &n);\n"
        + first_read
        + f"    int {acc} = {init};\n"
        f"    while ({i} < n) {{\n"
        + read_body
        + f"        {step}\n"
        f"        {i}++;\n"
        "    }\n"
        f"    printf(\"{fmt}\", {value});\n"
        "    return 0;\n"
        "}\n"
    )
    if fault == "CE":
        if rng.random() < 0.5:
            code = code.replace(f"    int {acc} = {init};", f"    int {acc} = {init}", 1)
        else:
            code = code.replace("printf(", "print_result(", 1)
    return code


def _expected(problem: Problem, values: list[int]) -> str:
    acc = problem.init_py(values[0])
    for v in values[1 if problem.fold_init == "first" else 0:]:
        acc = problem.fold_py(acc, v)
    return f"{acc}\n"


@dataclass(frozen=True)
class TriageCase:
    problem: str
    planted: str                   # one of CLASSES
    code: str


@dataclass
class TriageSuite:
    metas: dict[str, dict]         # problem name -> metadata JSON object
    cases: list[TriageCase]


def make_triage_suite(seed: int, size: int = 100, block: int = 20) -> TriageSuite:
    """``size`` submissions over five problems, in blocks of ``block``.

    The problems get 5, 8, 12, 16 and 20 tests; one test per problem ends in a
    negative value, so a TLE submission waits out one timeout.  Each block
    gives every problem each of accepted, SE, PE and CE once, one of them
    replaced by TLE, so every block has the same make-up.
    """
    rng = _rng("triage", seed)
    metas: dict[str, dict] = {}
    test_counts = list(_TEST_COUNTS)
    rng.shuffle(test_counts)
    for prob, n_tests in zip(_PROBLEMS, test_counts):
        tests = []
        for t in range(n_tests):
            n = rng.randrange(2 if t == n_tests // 2 else 1, 12)
            vals = [rng.randrange(0, 100) for _ in range(n)]
            if t == n_tests // 2:
                # last and not first, so the TLE read loop reaches it and then
                # spins at EOF
                vals[-1] = -rng.randrange(1, 100)
            text = f"{n}\n" + " ".join(map(str, vals)) + "\n"
            tests.append({"in": text, "expected": _expected(prob, vals)})
        metas[prob.name] = {
            "problem_id": prob.name,
            "description": prob.description,
            "io_format": "stdin: n, then n integers; stdout: one integer and a newline",
            "example_ios": [{"in": "3\n3 1 2\n", "out": _expected(prob, [3, 1, 2])}],
            "tests": tests,
        }
    plain = [c for c in CLASSES if c != "TLE"]
    cases = []
    for b in range(size // block):
        # every problem gets every plain class once per 20 submissions; one
        # slot, rotating from block to block, is TLE instead
        slots = [(prob, c) for prob in _PROBLEMS for c in plain]
        slots = [slots[k % len(slots)] for k in range(block)]
        tle = (b * (len(plain) + 1)) % block
        slots[tle] = (slots[tle][0], "TLE")
        rng.shuffle(slots)
        cases.extend(TriageCase(prob.name, planted, _solution(prob, rng, planted))
                     for prob, planted in slots)
    return TriageSuite(metas, cases)
