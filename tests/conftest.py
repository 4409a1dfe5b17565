from __future__ import annotations

import importlib.util
import json
import random
from pathlib import Path

import pytest

# ---------------------------------------------------------------------------
# random C-like programs
#
# The generator emits one statement per line so perturbations can work on
# lines while staying parseable.  Programs always declare the variables they
# use and keep braces balanced.

_OPS = ("+", "-", "*")
_CMP = ("<", ">", "<=", ">=", "==")


def _expr(rng: random.Random, names: list[str]) -> str:
    left = rng.choice(names) if names and rng.random() < 0.7 else str(rng.randrange(100))
    if rng.random() < 0.5:
        right = rng.choice(names) if names and rng.random() < 0.5 else str(rng.randrange(10))
        return f"{left} {rng.choice(_OPS)} {right}"
    return left


def _body_statement(rng: random.Random, names: list[str]) -> list[str]:
    kind = rng.randrange(6)
    if kind == 0 or not names:
        name = f"v{len(names)}"
        line = f"int {name} = {_expr(rng, names)};"
        names.append(name)
        return [line]
    if kind == 1:
        return [f"{rng.choice(names)} = {_expr(rng, names)};"]
    if kind == 2:
        return [f'printf("%d\\n", {rng.choice(names)});']
    if kind == 3:
        v = rng.choice(names)
        return [f"if ({v} {rng.choice(_CMP)} {rng.randrange(50)}) {{",
                f"{v} = {_expr(rng, names)};",
                "}"]
    if kind == 4:
        v = rng.choice(names)
        return [f"while ({v} < {rng.randrange(5, 20)}) {{",
                f"{v} = {v} + 1;",
                "}"]
    return [f"{rng.choice(names)} = {rng.choice(names)} * 2;"]


def gen_program(rng: random.Random, n_statements: int | None = None) -> str:
    """A small well-formed C-ish program."""
    n = n_statements if n_statements is not None else rng.randrange(4, 12)
    names: list[str] = []
    lines = ["#include <stdio.h>", "int main() {"]
    lines.append("int v0 = 1;")
    names.append("v0")
    while sum(1 for ln in lines if ln not in ("{", "}")) < n + 2:
        lines.extend(_body_statement(rng, names))
    lines.append("return 0;")
    lines.append("}")
    return "\n".join(lines) + "\n"


def perturb_program(rng: random.Random, text: str, max_edits: int = 3) -> str:
    """Mutate 1..max_edits simple statements, keeping the braces intact."""
    lines = text.splitlines()
    simple = [i for i, ln in enumerate(lines)
              if ln.endswith(";") and not ln.lstrip().startswith("#")
              and "return" not in ln]
    if not simple:
        return text.replace("v0 = 1", "v0 = 2", 1)
    n_edits = rng.randrange(1, max_edits + 1)
    edited = False
    for i in rng.sample(simple, min(n_edits, len(simple))):
        line = lines[i]
        roll = rng.random()
        if roll < 0.4:
            for op, repl in (("+", "-"), ("-", "*"), ("*", "+")):
                if op in line:
                    lines[i] = line.replace(op, repl, 1)
                    break
            else:
                lines[i] = line[:-1] + " + 1;"
        elif roll < 0.7:
            lines[i] = line[:-1] + " + 7;"
        elif roll < 0.85 and len(simple) > 1:
            lines[i] = ""
        else:
            lines[i] = line + "\nint extra = 41;"
        if lines[i] != line:
            edited = True
    if not edited:
        lines[simple[0]] = lines[simple[0]][:-1] + " - 3;"
    return "\n".join(ln for ln in lines if ln != "") + "\n"


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


# ---------------------------------------------------------------------------
# archives and problem metadata


def write_archive(root: Path, submissions: list[dict]) -> Path:
    """Lay out problem/student/timestamp.c files plus the verdict manifest."""
    manifest = {}
    for sub in submissions:
        rel = f"{sub['problem_id']}/{sub['student_id']}/{sub['timestamp']}.c"
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(sub["code"])
        manifest[rel] = sub["verdict"]
    (root / "verdicts.json").write_text(json.dumps(manifest, indent=2))
    return root


def write_problem_meta(path: Path, problem_id: str = "p1", *,
                       description: str = "Read two integers, print their sum.",
                       io_format: str = "two ints in, one int out",
                       example_ios: list | None = None,
                       tests: list | None = None) -> Path:
    meta = {
        "problem_id": problem_id,
        "description": description,
        "io_format": io_format,
        "example_ios": example_ios if example_ios is not None
        else [{"in": "1 2\n", "out": "3\n"}],
        "tests": tests if tests is not None
        else [{"in": "3 4\n", "expected": "7\n"},
              {"in": "-2 9\n", "expected": "7\n"}],
    }
    path.write_text(json.dumps(meta, indent=2))
    return path


SUM_OK = """\
#include <stdio.h>
int main() {
    int a, b;
    scanf("%d %d", &a, &b);
    printf("%d\\n", a + b);
    return 0;
}
"""

SUM_WRONG_OP = SUM_OK.replace("a + b", "a - b")
SUM_EXTRA_WS = SUM_OK.replace('"%d\\n"', '"%d  \\n"')


def load_script(name: str):
    """Import ``scripts/<name>.py`` as a module, so a test can call its ``main``."""
    path = Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
