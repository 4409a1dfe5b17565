"""The three workloads.

Each workload drives repairkit only through its public functions and
``repairkit.cli.main``.  A workload has a ``setup`` that builds its inputs
from the seed, a ``round`` that runs one fixed batch of operations, checks
their outputs and returns one :class:`Op` per operation, and a ``layers``
that turns a traced run's spans into the per-layer metrics.  A traced run
also installs the workload's wrappers (``trace_points``) before its first
round.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import repairkit
import repairkit.cli
import repairkit.dataset
import repairkit.decoding
import repairkit.diffs
import repairkit.mask
import repairkit.source
import repairkit.triage
from repairkit.synthetic import make_pair

import checks
import gen
from tracing import ForwardProxy, Tracer


@dataclass
class Op:
    latency_s: float
    items: int            # records, submissions or tokens of the repair
    failed: bool = False


@dataclass
class Ctx:
    seed: int
    work: Path            # scratch directory inside the checkout
    tracer: Tracer | None
    state: dict = field(default_factory=dict)

    def call(self, span: str, fn, *args):
        """``fn(*args)``, inside a span when the run is traced."""
        if self.tracer is None:
            return fn(*args)
        return self.tracer.call(span, fn, *args)


# --------------------------------------------------------------------------
# corpus: `repairkit dataset` over a fresh archive per round


CORPUS_PROBLEMS = 1


def _dataset(archive: Path, out: Path, stats: Path, seed: int) -> int:
    argv = ["dataset", str(archive), "--out", str(out), "--stats", str(stats),
            "--max-led", str(gen.MAX_LED), "--seed", str(seed)]
    with contextlib.redirect_stdout(io.StringIO()):
        return repairkit.cli.main(argv)


def _archive(ctx: Ctx, r: int) -> tuple[Path, gen.Archive]:
    arc = gen.make_archive(ctx.seed, r, CORPUS_PROBLEMS)
    root = ctx.work / f"archive-{r:03d}"
    shutil.rmtree(root, ignore_errors=True)
    arc.write(root)
    return root, arc


class Corpus:
    name = "corpus"

    @staticmethod
    def setup(ctx: Ctx) -> None:
        ctx.state[0] = _archive(ctx, 0)

    @staticmethod
    def trace_points(t: Tracer) -> None:
        cli, ds, src = repairkit.cli, repairkit.dataset, repairkit.source
        t.wrap(cli, "load_archive", "dataset.load")
        t.wrap(cli, "pair_submissions", "dataset.pair")
        t.wrap(cli, "filter_pairs", "dataset.filter")
        t.wrap(cli, "build_records", "dataset.build_records")
        t.wrap(cli, "corpus_stats", "dataset.corpus_stats")
        t.wrap(ds, "line_edit_distance", "diffs.led")
        t.wrap(ds, "build_mask", "mask.build_mask")
        t.wrap(repairkit.mask, "align_statements", "diffs.align")
        # extract_facts is looked up on repairkit.source by align_statements
        # (a local import) and on repairkit.mask by build_mask
        t.wrap(src, "extract_facts", "source.facts")
        t.wrap(repairkit.mask, "extract_facts", "source.facts")
        for mod in (ds, repairkit.mask, repairkit.diffs):
            t.wrap(mod, "parse", "source.parse")

    @staticmethod
    def round(ctx: Ctx, r: int) -> list[Op]:
        # archives after the first are built here, outside the timed command
        root, arc = ctx.state.pop(r, None) or _archive(ctx, r)
        out, stats = ctx.work / "corpus.jsonl", ctx.work / "stats.json"
        t0 = perf_counter()
        rc = ctx.call("cli.dataset", _dataset, root, out, stats, ctx.seed)
        dt = perf_counter() - t0
        if rc != 0:
            return [Op(dt, 0, failed=True)]
        records = checks.read_jsonl(out.read_text())
        checks.check_corpus(records, list(arc.repairs), repairkit.parse)
        checks.check_corpus_stats(json.loads(stats.read_text()), list(arc.repairs),
                                  arc.rewrites)
        if r == 0:
            ctx.state["first"] = (root, out.read_bytes())
        else:
            shutil.rmtree(root)
        return [Op(dt, len(records))]

    @staticmethod
    def finish(ctx: Ctx) -> None:
        """Traced run: the first archive, rebuilt untraced, gives the same bytes."""
        root, traced = ctx.state["first"]
        out, stats = ctx.work / "corpus.jsonl", ctx.work / "stats.json"
        if _dataset(root, out, stats, ctx.seed) != 0:
            raise checks.CheckError("untraced rebuild of the first archive failed")
        checks.check_same_bytes(traced, out.read_bytes())

    @staticmethod
    def layers(t: Tracer, st: dict) -> dict:
        return {
            "dataset.load_s": t.total_s("dataset.load"),
            "dataset.pair_s": t.total_s("dataset.pair"),
            "dataset.filter_s": t.total_s("dataset.filter"),
            "diffs.led_calls": t.count("diffs.led"),
            "source.parse_s": t.total_s("source.parse"),
            "source.parse_calls": t.count("source.parse"),
            "diffs.align_s": t.total_s("diffs.align"),
            "diffs.align_calls": t.count("diffs.align"),
            "source.facts_s": t.total_s("source.facts"),
            "source.facts_calls": t.count("source.facts"),
            "mask.build_self_s": t.self_total_s("mask.build_mask"),
            "dataset.records_self_s": t.self_total_s("dataset.build_records"),
            "dataset.write_s": t.self_total_s("cli.dataset"),
        }


# --------------------------------------------------------------------------
# triage: triage_source + classify + build_prompt per submission


TRIAGE_BLOCK = 20          # submissions per round, one of them TLE
TRIAGE_SUITE = 100
TRIAGE_TIMEOUT_S = 0.5

_WARMUP_C = "#include <stdio.h>\nint main(void) { printf(\"1\\n\"); return 0; }\n"


class Triage:
    name = "triage"

    @staticmethod
    def setup(ctx: Ctx) -> None:
        suite = gen.make_triage_suite(ctx.seed, TRIAGE_SUITE, TRIAGE_BLOCK)
        metas = {}
        for name, data in suite.metas.items():
            path = ctx.work / f"meta-{name}.json"
            path.write_text(json.dumps(data, indent=2))
            metas[name] = repairkit.load_problem_meta(path)
        config = repairkit.ExecutorConfig(timeout_s=TRIAGE_TIMEOUT_S)
        # warm the compiler and its page cache before anything is timed
        warm = repairkit.triage_source(_WARMUP_C, [repairkit.TestCase("", "1\n")], config)
        if not warm.all_passed:
            raise checks.CheckError(f"compiler warm-up failed: {warm.diagnostics}")
        ctx.state.update(suite=suite, metas=metas, config=config)

    @staticmethod
    def trace_points(t: Tracer) -> None:
        tri = repairkit.triage
        t.wrap(tri, "compile_source", "triage.compile")
        t.wrap(tri, "run_test", "triage.run_test", keep=lambda res, args: res.timed_out)

    @staticmethod
    def round(ctx: Ctx, r: int) -> list[Op]:
        suite, metas, config = ctx.state["suite"], ctx.state["metas"], ctx.state["config"]
        lo = (r % (TRIAGE_SUITE // TRIAGE_BLOCK)) * TRIAGE_BLOCK
        ops = []
        for case in suite.cases[lo:lo + TRIAGE_BLOCK]:
            meta = metas[case.problem]
            t0 = perf_counter()
            report = ctx.call("triage.triage_source", repairkit.triage_source,
                              case.code, list(meta.tests), config)
            bug = repairkit.classify(report)
            prompt = repairkit.build_prompt(meta, bug, case.code)
            dt = perf_counter() - t0
            checks.check_triage(case.planted, None if bug is None else bug.value,
                                prompt, case.code)
            ops.append(Op(dt, 1))
        return ops

    @staticmethod
    def layers(t: Tracer, st: dict) -> dict:
        runs = t.named("triage.run_test")
        return {
            "triage.compile_ms_p50": t.p50_ms("triage.compile"),
            "triage.run_test_ms_p50": t.p50_ms("triage.run_test"),
            "triage.tests_run": len(runs),
            "triage.jail_ms_p50": t.p50_ms("triage.triage_source", self_time=True),
            "triage.timeout_wait_s": sum(s.duration for s in runs if s.tag),
        }


# --------------------------------------------------------------------------
# repair: what `repairkit bench` does, per pair, with two backends
#
# Each round runs its bench steps with two backends: `TargetOracleBackend`
# scripted with the fix, whose draft is mostly right, and then
# `SeededRandomBackend`, whose predictions share nothing with the draft.
# Spans and per-layer metrics carry the backend as a prefix (`oracle.`,
# `random.`), so the two ways of using the decoder stay apart.


REPAIR_PROBLEMS = 3                 # corpus-generator archives give 5 pairs each
REPAIR_ARCHIVE_PAIRS = 12
REPAIR_FUNCS = 3                    # 62-line programs, about 300 tokens
LONG_PAIRS = (1000, 2000, 4000)     # synthetic.make_pair token counts, oracle only
LONG_REGIONS = 4
RANDOM_VOCAB = 50_000               # P(EOS) per token 2e-5: outputs run to max_tokens
RANDOM_MAX_TOKENS = 256
SCOPES = ("oracle", "random")

Pair = tuple[list[str], list[str]]


def _repair_pairs(seed: int, r: int) -> dict[str, list[Pair]]:
    """(buggy tokens, fixed tokens) per backend for one round.

    Both backends get one archive's repairs; the oracle also gets a
    synthetic pair of each length in ``LONG_PAIRS``, placed between the
    archive pairs so those are timed at several moments of a round, not in
    one burst.  The random backend leaves them out: with them its cost was
    its per-pass rebuild of a context-length table, which swung by a third
    from run to run.  Every archive program has the same size, so of the 27
    bench steps a round the 90th percentile sits inside the ~190 ms group
    of random-backend steps, not on the edge between two groups.
    """
    arc = gen.make_archive(seed, 10_000 + r, REPAIR_PROBLEMS, funcs=REPAIR_FUNCS)
    short = [(repairkit.parse(b).token_texts(), repairkit.parse(f).token_texts())
             for b, f in list(arc.repairs.values())[:REPAIR_ARCHIVE_PAIRS]]
    oracle = list(short)
    rng = random.Random(f"long:{seed}:{r}")
    step = len(short) / (len(LONG_PAIRS) + 1)
    for i, n in enumerate(LONG_PAIRS):
        p = make_pair(n, LONG_REGIONS, rng)
        oracle.insert(round((i + 1) * step) + i, (list(p.buggy_tokens), list(p.target_tokens)))
    return {"oracle": oracle, "random": short}


def _draft_tag(result, args) -> tuple[int, bool, bool]:
    # (draft tokens offered, realigned against output, realignment hit)
    _, emitted, anchor = args
    draft, new_anchor = result
    return len(draft), bool(emitted), bool(emitted) and new_anchor != anchor


class Repair:
    name = "repair"

    @staticmethod
    def setup(ctx: Ctx) -> None:
        ctx.state[0] = _repair_pairs(ctx.seed, 0)
        ctx.state["vocab"] = [f"w{i}" for i in range(RANDOM_VOCAB)]
        # traced-run totals, per backend
        for scope in SCOPES:
            ctx.state[scope] = dict.fromkeys(("tokens", "accepted", "greedy_tokens", "greedy_s",
                                              "greedy_positions", "fast_positions"), 0)

    @staticmethod
    def trace_points(t: Tracer) -> None:
        t.wrap(repairkit.decoding, "draft_generate", "decoding.draft_generate",
               keep=_draft_tag)

    @staticmethod
    def _backend(ctx: Ctx, scope: str, prompt: list[str], target: list[str], k: int):
        if scope == "oracle":
            backend = repairkit.TargetOracleBackend()
            backend.script(prompt, target)
            return backend, repairkit.DecodeLimits()
        backend = repairkit.SeededRandomBackend(ctx.seed * 1000 + k, ctx.state["vocab"])
        return backend, repairkit.DecodeLimits(max_tokens=RANDOM_MAX_TOKENS)

    @classmethod
    def round(cls, ctx: Ctx, r: int) -> list[Op]:
        t, st = ctx.tracer, ctx.state
        ops = []
        # pairs after the first round's are built here, outside the timed calls
        pairs = st.pop(r, None) or _repair_pairs(ctx.seed, r)
        for scope in SCOPES:
            if t is not None:
                t.scope = scope + "."
            for k, (buggy, target) in enumerate(pairs[scope]):
                ops.append(cls._step(ctx, scope, k, buggy, target))
        if t is not None:
            t.scope = ""
        return ops

    @classmethod
    def _step(cls, ctx: Ctx, scope: str, k: int, buggy: list[str], target: list[str]) -> Op:
        t, st = ctx.tracer, ctx.state[scope]
        t0 = perf_counter()
        prompt = ["<fix>"] + buggy + ["<sep>"]
        backend, limits = cls._backend(ctx, scope, prompt, target, k)
        source = repairkit.DraftSource.from_tokens(buggy)
        greedy_be = fast_be = backend
        if t is not None:
            greedy_be = ForwardProxy(backend, t, "backends.greedy_forward")
            fast_be = ForwardProxy(backend, t, "backends.fast_forward")
        t1 = perf_counter()
        ar = repairkit.ar_decode(greedy_be, prompt, limits.max_tokens)
        t2 = perf_counter()
        acc = ctx.call("decoding.accelerated_decode", repairkit.accelerated_decode,
                       fast_be, prompt, source, limits)
        repairkit.compute_metrics(ar, acc, time_source="sim")
        t3 = perf_counter()

        checks.check_lossless(ar.tokens, acc.tokens)
        if scope == "oracle":
            checks.check_target(ar.tokens, target, backend.eos_token)
        if k == 0:
            checks.check_greedy_sample(backend.forward, prompt, ar.tokens,
                                       checks.sample_positions(len(ar.tokens)))
        if t is not None:
            checks.check_pass_count(greedy_be.passes, ar.stats.forward_passes, "greedy")
            checks.check_pass_count(fast_be.passes, acc.stats.forward_passes, "fast")
            st["tokens"] += acc.stats.tokens_emitted
            st["accepted"] += acc.stats.draft_accepted
            st["greedy_tokens"] += ar.stats.tokens_emitted
            st["greedy_s"] += t2 - t1
            st["greedy_positions"] += greedy_be.positions
            st["fast_positions"] += fast_be.positions
        return Op(t3 - t0, len(acc.tokens))

    @staticmethod
    def layers(t: Tracer, st: dict) -> dict:
        values = {}
        for scope in SCOPES:
            values.update((f"{scope}.{name}", v)
                          for name, v in _decode_layers(t, scope + ".", st[scope]).items())
        return values


def _decode_layers(t: Tracer, p: str, st: dict) -> dict:
    """Per-layer metrics of one backend's bench steps (span prefix ``p``)."""
    drafts = t.named(p + "decoding.draft_generate")
    offered = sum(s.tag[0] for s in drafts)
    verify = sum(1 for s in drafts if s.tag[0] > 0)
    realigns = [s for s in drafts if s.tag[1]]
    fast_passes = t.count(p + "backends.fast_forward")
    ktok = st["tokens"] / 1000.0
    return {
        "decoding.verify_passes": verify,
        "decoding.fallback_passes": fast_passes - verify,
        "decoding.draft_offered_tokens": offered,
        "decoding.draft_accepted_tokens": st["accepted"],
        "decoding.draft_accept_ratio": st["accepted"] / offered,
        "decoding.realign_calls": len(realigns),
        "decoding.realign_hits": sum(1 for s in realigns if s.tag[2]),
        "decoding.realign_s": t.total_s(p + "decoding.draft_generate"),
        "decoding.loop_self_s": t.self_total_s(p + "decoding.accelerated_decode"),
        "decoding.fast_passes_per_ktok": fast_passes / ktok,
        "backends.fast_positions_per_ktok": st["fast_positions"] / ktok,
        "backends.fast_forward_s": t.total_s(p + "backends.fast_forward"),
        "backends.greedy_forward_s": t.total_s(p + "backends.greedy_forward"),
        "backends.greedy_positions": st["greedy_positions"],
        "decoding.greedy_tokens_per_s": st["greedy_tokens"] / st["greedy_s"],
    }


WORKLOADS = {w.name: w for w in (Corpus, Triage, Repair)}
