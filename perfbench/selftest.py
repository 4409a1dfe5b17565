#!/usr/bin/env python3
"""Self-test: every correctness check accepts a real output and rejects a
deliberately corrupted copy of it.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Exits 0 when every check passes on the
real output and rejects each corruption, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import repairkit  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
import workloads  # noqa: E402
from tracing import ForwardProxy  # noqa: E402

RESULTS: list[tuple[str, bool]] = []


def expect_pass(what: str, fn, *args) -> None:
    try:
        fn(*args)
        RESULTS.append((f"accepts {what}", True))
    except checks.CheckError as exc:
        RESULTS.append((f"accepts {what}: {exc}", False))


def expect_reject(what: str, fn, *args) -> None:
    try:
        fn(*args)
        RESULTS.append((f"rejects {what}: accepted it", False))
    except checks.CheckError:
        RESULTS.append((f"rejects {what}", True))


def corpus(work: Path) -> None:
    arc = gen.make_archive(0, 0, 1)
    arc.write(work / "archive")
    out, stats = work / "corpus.jsonl", work / "stats.json"
    if workloads._dataset(work / "archive", out, stats, 0) != 0:
        RESULTS.append(("dataset command ran", False))
        return
    records = checks.read_jsonl(out.read_text())
    ids = list(arc.repairs)
    expect_pass("the corpus", checks.check_corpus, records, ids, repairkit.parse)

    nudged = copy.deepcopy(records)
    rec = nudged[0]
    buggy = {s.normalized for s in repairkit.parse(rec["buggy_code"]).statements}
    new = next(i for i, s in enumerate(repairkit.parse(rec["fixed_code"]).statements)
               if s.normalized not in buggy)
    rec["statements"][new]["weight_raw"] = 0.999
    expect_reject("a nudged raw weight", checks.check_corpus, nudged, ids, repairkit.parse)

    nudged = copy.deepcopy(records)
    nudged[0]["statements"][0]["k"] += 1e-6
    expect_reject("a nudged k", checks.check_corpus, nudged, ids, repairkit.parse)

    expect_reject("a dropped record", checks.check_corpus,
                  records[:1] + records[2:], ids, repairkit.parse)
    expect_reject("reordered records", checks.check_corpus,
                  records[::-1], ids, repairkit.parse)

    data = out.read_bytes()
    expect_pass("identical corpora", checks.check_same_bytes, data, data)
    expect_reject("a changed corpus byte", checks.check_same_bytes,
                  data, data.replace(b"0.", b"1.", 1))


def triage(work: Path) -> None:
    suite = gen.make_triage_suite(0, 20, 20)
    config = repairkit.ExecutorConfig(timeout_s=workloads.TRIAGE_TIMEOUT_S)
    seen = {}
    for case in suite.cases:
        if case.planted not in seen:
            seen[case.planted] = case
    for planted, case in sorted(seen.items()):
        meta = repairkit.load_problem_meta(_meta_file(work, suite, case.problem))
        report = repairkit.triage_source(case.code, list(meta.tests), config)
        bug = repairkit.classify(report)
        value = None if bug is None else bug.value
        prompt = repairkit.build_prompt(meta, bug, case.code)
        expect_pass(f"a {planted} triage", checks.check_triage,
                    planted, value, prompt, case.code)
        swapped = {"accepted": "SE", "SE": "PE", "PE": "CE", "CE": "TLE", "TLE": "SE"}
        wrong = swapped[planted]
        expect_reject(f"{planted} swapped for {wrong}", checks.check_triage,
                      planted, wrong, repairkit.build_prompt(
                          meta, repairkit.BugType(wrong), case.code), case.code)
    case = seen["SE"]
    meta = repairkit.load_problem_meta(_meta_file(work, suite, case.problem))
    prompt = repairkit.build_prompt(meta, repairkit.BugType.SEMANTIC_ERROR, case.code)
    a, b = prompt.index("## Example IOs"), prompt.index("## Bug Type")
    reordered = prompt[:a] + prompt[b:] + prompt[a:b]
    expect_reject("prompt sections out of order", checks.check_triage,
                  "SE", "SE", reordered, case.code)
    expect_reject("a prompt without the submission", checks.check_triage,
                  "SE", "SE", prompt.replace("scanf", "scan", 1), case.code)


def _meta_file(work: Path, suite: gen.TriageSuite, problem: str) -> Path:
    path = work / f"meta-{problem}.json"
    path.write_text(json.dumps(suite.metas[problem]))
    return path


def repair() -> None:
    buggy, fixed = next(iter(gen.make_archive(0, 0, 1).repairs.values()))
    buggy_t = repairkit.parse(buggy).token_texts()
    fixed_t = repairkit.parse(fixed).token_texts()
    prompt = ["<fix>"] + buggy_t + ["<sep>"]
    for kind in ("oracle", "random"):
        if kind == "oracle":
            backend = repairkit.TargetOracleBackend()
            backend.script(prompt, fixed_t)
            limits = repairkit.DecodeLimits()
        else:
            backend = repairkit.SeededRandomBackend(5, [f"w{i}" for i in range(5000)])
            limits = repairkit.DecodeLimits(max_tokens=64)
        proxy = ForwardProxy(backend, None, "fast")
        ar = repairkit.ar_decode(backend, prompt, limits.max_tokens)
        acc = repairkit.accelerated_decode(proxy, prompt,
                                           repairkit.DraftSource.from_tokens(buggy_t), limits)
        positions = checks.sample_positions(len(ar.tokens))
        expect_pass(f"{kind}: lossless output", checks.check_lossless, ar.tokens, acc.tokens)
        flipped = list(acc.tokens)
        flipped[len(flipped) // 2] = "<flipped>"
        expect_reject(f"{kind}: one fast token flipped", checks.check_lossless,
                      ar.tokens, flipped)
        expect_pass(f"{kind}: sampled greedy tokens", checks.check_greedy_sample,
                    backend.forward, prompt, ar.tokens, positions)
        bad = list(ar.tokens)
        bad[positions[len(positions) // 2]] = "<flipped>"
        expect_reject(f"{kind}: one greedy token flipped", checks.check_greedy_sample,
                      backend.forward, prompt, bad, positions)
        expect_pass(f"{kind}: proxy pass count", checks.check_pass_count,
                    proxy.passes, acc.stats.forward_passes, kind)
        expect_reject(f"{kind}: a pass count off by one", checks.check_pass_count,
                      proxy.passes + 1, acc.stats.forward_passes, kind)
        if kind == "oracle":
            expect_pass("oracle: target plus EOS", checks.check_target,
                        ar.tokens, fixed_t, backend.eos_token)
            expect_reject("oracle: one greedy token flipped against the target",
                          checks.check_target, bad, fixed_t, backend.eos_token)


def benchmark_json() -> None:
    """BENCHMARK.json names the metrics, with the units, that run.py reports."""
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        RESULTS.append((f"BENCHMARK.json {key} matches run.py", listed == table))
    RESULTS.append(("BENCHMARK.json workloads match run.py",
                    tuple(w["name"] for w in spec["workloads"]) == run.WORKLOADS))


def main() -> int:
    work = HERE / ".work" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    tempfile.tempdir = str(work)
    os.environ["TMPDIR"] = str(work)
    try:
        benchmark_json()
        corpus(work)
        triage(work)
        repair()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for what, ok in RESULTS:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
    failed = sum(1 for _, ok in RESULTS if not ok)
    print(f"selftest: {len(RESULTS) - failed}/{len(RESULTS)} as expected")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
