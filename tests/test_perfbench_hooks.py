"""The repairkit names the benchmark harness in ``perfbench/`` relies on.

``perfbench`` wraps repairkit functions by module and attribute name, and its
``ForwardProxy`` copies attributes off the backend it wraps.  A rename or
removal on the repairkit side would only show up as an ``AttributeError`` in
a traced benchmark run; these tests catch it in the suite instead.  They also
run perfbench's selftest, so that output its checks would reject fails here
rather than at the benchmark.
"""

from __future__ import annotations

import importlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repairkit.backends import SeededRandomBackend, TargetOracleBackend
from repairkit.decoding import Prefix, repair_prompt

from conftest import load_script

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def harness():
    """perfbench's ``workloads`` and ``tracing`` modules, imported read-only."""
    saved_path, saved_bytecode = list(sys.path), sys.dont_write_bytecode
    sys.path.append(str(PERFBENCH))
    sys.dont_write_bytecode = True   # leave no __pycache__ in the harness
    try:
        yield importlib.import_module("workloads"), importlib.import_module("tracing")
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_bytecode


def test_every_workload_finds_its_trace_points(harness):
    workloads, tracing = harness
    assert workloads.WORKLOADS
    for workload in workloads.WORKLOADS.values():
        tracer = tracing.Tracer()
        try:
            workload.trace_points(tracer)
        finally:
            tracer.unwrap_all()


def _oracle(prompt):
    backend = TargetOracleBackend()
    backend.script(prompt, ["a", ";"])
    return backend


@pytest.mark.parametrize("make", [
    _oracle,
    lambda prompt: SeededRandomBackend(3, sorted(set(prompt))),
], ids=["oracle", "random"])
def test_forward_proxy_wraps_every_backend(harness, make):
    _, tracing = harness
    prompt = repair_prompt(["a", "=", "1", ";"])
    backend = make(prompt)
    proxy = tracing.ForwardProxy(backend, None, "backends.forward")
    assert proxy.forward(prompt) == backend.forward(prompt)
    assert (proxy.passes, proxy.positions) == (1, len(prompt))


def test_forward_proxy_hands_a_prefix_through(harness):
    _, tracing = harness
    prompt = repair_prompt(["a", "=", "1", ";"])
    buf = prompt + ["a", "x"]
    backend = _oracle(prompt)
    proxy = tracing.ForwardProxy(backend, None, "backends.forward")
    got = proxy.forward(Prefix(buf, len(prompt) + 1))
    assert isinstance(got, Prefix)
    assert list(got) == backend.forward(buf[:len(prompt) + 1])
    assert (proxy.passes, proxy.positions) == (1, len(prompt) + 1)


def test_perfbench_selftest_accepts_real_output():
    # perfbench's checks must accept what repairkit writes now, and still
    # reject each corrupted copy; the selftest leaves an empty .work behind
    work = PERFBENCH / ".work"
    existed = work.exists()
    try:
        proc = subprocess.run([sys.executable, "-B", str(PERFBENCH / "selftest.py")],
                              cwd=PERFBENCH.parent, capture_output=True, text=True,
                              timeout=120)
    finally:
        if not existed:
            shutil.rmtree(work, ignore_errors=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest: 36/36 as expected" in proc.stdout


# ---------------------------------------------------------------------------
# scripts/ab.py, the A/B runner over two checkouts

_E2E = [{"name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "latency_p90_ms", "unit": "ms", "better": "lower", "bound": 0.25}]


def _pairs(parent, change):
    return [({"throughput_per_s": p, "latency_p90_ms": -p},
             {"throughput_per_s": c, "latency_p90_ms": -c})
            for p, c in zip(parent, change)]


def test_ab_summary_counts_wins_and_reads_the_direction():
    ab = load_script("ab")
    # the change wins 9 pairs and ties one; its median 23.5 beats 9.5 by
    # more than the parent's interquartile range 11.75 - 7.25
    rows = ab.summarize(_pairs(range(5, 15), [20, 21, 22, 23, 24, 26, 27, 28, 29, 14]),
                        _E2E)
    up, down = rows
    assert up.parent == (7.25, 9.5, 11.75)
    assert up.change[1] == 23.5
    assert (up.wins, up.losses, up.gain) == (9, 0, True)
    # the same numbers negated, where lower is better: the same verdict
    assert (down.wins, down.losses, down.gain) == (9, 0, True)
    assert down.parent == (-11.75, -9.5, -7.25)


def test_ab_summary_needs_ten_pairs_nine_wins_in_ten_and_a_median_past_the_spread():
    ab = load_script("ab")
    # 8 wins in 10: no gain, however large
    [row, _] = ab.summarize(_pairs([1] * 10, [9] * 8 + [0, 0]), _E2E)
    assert (row.wins, row.losses, row.gain) == (8, 2, False)
    # every pair won, but the medians differ by less than the parent's spread
    [row, _] = ab.summarize(_pairs([0, 10, 0, 10], [1, 11, 1, 11]), _E2E)
    assert (row.wins, row.gain) == (4, False)
    # one pair won: its own median and quartiles, and too few pairs to gain
    [row, _] = ab.summarize(_pairs([3], [4]), _E2E)
    assert row.parent == (3, 3, 3) and (row.wins, row.gain) == (1, False)
    text = ab.format_rows([row], 1)
    assert "throughput_per_s (1/s)" in text and "1/0  of 1" in text
    # nine pairs all won by far: still too few
    [row, _] = ab.summarize(_pairs([1] * 9, [9] * 9), _E2E)
    assert (row.wins, row.gain) == (9, False)


@pytest.mark.parametrize("parent, change, verdict", [
    ([100] * 10, [80] * 10, "ok"),  # 20% worse, inside the 0.25 bound
    ([100] * 10, [70] * 10, "worse"),  # 30% worse
    ([60, 140] * 5, [100] * 10, "unresolved"),  # the parent spreads past the bound
    ([60, 140] * 5, [150] * 10, "ok"),  # ... but every change run beats every parent run
    ([60, 140] * 5, [50] * 10, "worse"),  # a median past the bound is worse however wide
], ids=["ok", "worse", "unresolved", "ok-beats-every-run", "worse-despite-spread"])
def test_ab_summary_judges_regressions_against_the_bound(parent, change, verdict):
    ab = load_script("ab")
    rows = ab.summarize(_pairs(parent, change), _E2E)
    # the lower-is-better row reads the same numbers negated, so agrees
    assert [r.verdict for r in rows] == [verdict, verdict]
    assert ab.format_rows(rows, len(parent)).splitlines()[1].endswith(f"  {verdict}")


@pytest.mark.parametrize("argv", [
    [".", ".", "--workload", "repair", "--pairs", "0"],
    [".", ".", "--workload", "all"],
    [".", ".", "--workload", "repiar"],
    [".", ".", "--workload", "repair", "--seconds", "20"],
    ["/nonexistent-checkout", ".", "--workload", "repair"],
])
def test_ab_rejects_bad_arguments_before_running(argv, capsys):
    ab = load_script("ab")
    with pytest.raises(SystemExit) as exc:
        ab.main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_ab_record_holds_the_run_and_each_metric():
    ab = load_script("ab")
    rows = ab.summarize(_pairs(range(5, 15), [20, 21, 22, 23, 24, 26, 27, 28, 29, 14]), _E2E)
    rec = ab.record(rows, parent="p0", change="c1+dirty", workload="repair", seed=3)
    assert rec["parent"] == "p0" and rec["seed"] == 3
    assert rec["metrics"]["throughput_per_s"] == {
        "unit": "1/s", "better": "higher", "parent": [7.25, 9.5, 11.75],
        "change": [21.25, 23.5, 26.75], "wins": 9, "losses": 0, "gain": True,
        "regression": "unresolved"}
    assert rec["metrics"]["latency_p90_ms"]["parent"] == [-11.75, -9.5, -7.25]
    assert json.loads(json.dumps(rec)) == rec


def test_ab_record_appends_one_line_per_comparison(tmp_path, monkeypatch, capsys):
    ab = load_script("ab")
    bench = {"run_seconds": 40, "workloads": [{"name": "repair"}], "end_to_end": _E2E}
    sides = []
    for name in ("parent", "change"):
        side = tmp_path / name
        (side / "perfbench").mkdir(parents=True)
        (side / "perfbench" / "run.py").write_text("")
        (side / "BENCHMARK.json").write_text(json.dumps(bench))
        sides.append(str(side))
    values = iter(range(100, 200))
    runs = []

    def fixed_run(checkout, workload, seed, seconds):
        runs.append((Path(checkout).name, workload, seed, seconds))
        v = next(values)
        return {"throughput_per_s": v, "latency_p90_ms": 1000 / v}

    monkeypatch.setattr(ab, "run_once", fixed_run)
    out = tmp_path / "BENCH_repair.json"
    argv = sides + ["--workload", "repair", "--pairs", "2", "--seed", "7", "--record", str(out)]
    assert ab.main(argv) == 0
    assert ab.main(argv) == 0
    assert runs[:2] == [("parent", "repair", 7, 40), ("change", "repair", 7, 40)]
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    rec = json.loads(lines[1])
    # not git checkouts: no commit to name
    assert rec["parent"] == rec["change"] == "unknown+dirty"
    assert {k: rec[k] for k in ("workload", "seed", "seconds", "pairs")} == \
        {"workload": "repair", "seed": 7, "seconds": 40, "pairs": 2}
    assert rec["cores"] == os.cpu_count() and rec["python"] == platform.python_version()
    assert rec["date"].endswith("+00:00")
    # the second call's runs only: parent 104 and 107 (its second pair runs
    # the change first, 106), change 105 and 106
    up = rec["metrics"]["throughput_per_s"]
    assert (up["parent"], up["change"]) == ([104.75, 105.5, 106.25], [105.25, 105.5, 105.75])
    assert (up["wins"], up["losses"]) == (1, 1)
    capsys.readouterr()
