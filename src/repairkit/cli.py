"""Command line front end.

Subcommands: ``mask`` (weight one repair pair), ``dataset`` (archive ->
corpus), ``triage`` (compile/run/classify), ``repair`` (decode a fix with a
mock backend) and ``bench`` (fast-vs-baseline decode efficiency).

Exit codes: 0 success, 1 runtime failure, 2 usage error or degenerate
input, 3 backend contract or losslessness violation.

Machine outputs never include wall-clock readings, so a command rerun with
the same ``--seed`` produces byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path
from typing import NoReturn

from .backends import EOS, SeededRandomBackend, make_repair_oracle
from .dataset import (RepairPair, Submission, build_records, corpus_stats,
                      filter_pairs, load_archive, mask_record, pair_mask,
                      pair_submissions)
from .decoding import (DecodeLimits, DraftSource, accelerated_decode,
                       aggregate_reports, ar_decode, compute_metrics, repair_prompt)
from .errors import (BackendContractError, DegenerateInputError,
                     LosslessnessError, RepairKitError, read_jsonl, read_text,
                     string_field)
from .mask import AGGREGATIONS, GRANULARITIES, STRATEGIES, MaskConfig
from .source import parse
from .synthetic import render_tokens
from .triage import (BugType, ExecutorConfig, build_prompt, classify,
                     load_problem_meta, triage_source)

log = logging.getLogger("repairkit")


def _usage(message: str) -> NoReturn:
    print(f"repairkit: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _emit(args: argparse.Namespace, payload: str) -> None:
    if getattr(args, "out", None):
        Path(args.out).write_text(payload, encoding="utf-8")
    else:
        sys.stdout.write(payload)


def _dump(obj: object) -> str:
    return json.dumps(obj, indent=2) + "\n"


# --------------------------------------------------------------------------
# mask


def _mask_config(args: argparse.Namespace) -> MaskConfig:
    try:
        return MaskConfig(
            strategy=args.strategy,
            sigma=args.sigma,
            rng_seed=args.seed,
            dist_granularity=args.granularity,
            expansion_aggregation=args.aggregation,
        )
    except ValueError as exc:
        _usage(str(exc))


def cmd_mask(args: argparse.Namespace) -> int:
    cfg = _mask_config(args)
    buggy_path, fixed_path = Path(args.buggy), Path(args.fixed)
    pid = args.problem_id or buggy_path.stem
    pair_id = args.pair_id or f"{buggy_path.stem}:{fixed_path.stem}"
    pair = RepairPair(
        pair_id=pair_id,
        problem_id=pid,
        student_id="cli",
        buggy=Submission(pid, "cli", "0", "WRONG", read_text(buggy_path)),
        fixed=Submission(pid, "cli", "1", "OK", read_text(fixed_path)),
    )
    _, fixed_unit, mask = pair_mask(pair, cfg)
    record = mask_record(pair, fixed_unit, mask)

    if args.json or args.out:
        _emit(args, json.dumps(record) + "\n")
    if not args.json:
        print(f"pair {pair_id} strategy={mask.strategy} sigma={mask.sigma}")
        for i, stmt in enumerate(record["statements"]):
            k = stmt["k"]
            k_txt = f"{k:.4f}" if k is not None else "   -  "
            text = stmt["text"] if len(stmt["text"]) <= 48 else stmt["text"][:45] + "..."
            print(f"  k={k_txt} raw={stmt['weight_raw']:.4f} {mask.roles[i]:<11} {text}")
        if record["flags"]:
            print(f"flags: {', '.join(record['flags'])}")
    if record["token_k"] is None:
        log.warning("mask is degenerate (no normalizable weights)")
        return 2
    return 0


# --------------------------------------------------------------------------
# dataset


def _write_jsonl(fh, records: list[dict]) -> None:
    for rec in records:
        fh.write(json.dumps(rec) + "\n")


def cmd_dataset(args: argparse.Namespace) -> int:
    cfg = _mask_config(args)
    subs = load_archive(args.archive)
    pairs = pair_submissions(subs)
    kept = filter_pairs(pairs, max_led=args.max_led)
    dropped = len(pairs) - len(kept)
    if not kept:
        raise DegenerateInputError("no repair pairs survive pairing and filtering")
    records, buggy_tokens = build_records(kept, cfg)

    stats = corpus_stats(kept, buggy_tokens)
    stats["dropped_restructuring"] = dropped
    if args.stats:
        Path(args.stats).write_text(_dump(stats), encoding="utf-8")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            _write_jsonl(fh, records)
        if args.json:
            sys.stdout.write(_dump(stats))
        else:
            print(f"wrote {len(records)} records to {args.out} "
                  f"({dropped} pairs dropped: restructuring rather than repair)")
            print(f"problems={stats['problems']} students={stats['students']} "
                  f"median_lines={stats['median_lines']}")
    else:
        _write_jsonl(sys.stdout, records)
        print(f"{len(records)} records, {dropped} dropped (LED > {args.max_led})",
              file=sys.stderr)
    return 0


# --------------------------------------------------------------------------
# triage


def cmd_triage(args: argparse.Namespace) -> int:
    if args.prompt and not args.meta:
        _usage("--prompt needs --meta for the problem context")
    # gcc takes any bytes: keep them through to the compiler
    data = Path(args.source).read_bytes()
    code = data.decode("utf-8", errors="surrogateescape")
    config = ExecutorConfig.from_file(args.config) if args.config else ExecutorConfig()
    meta = load_problem_meta(args.meta) if args.meta else None
    tests = list(meta.tests) if meta else []
    report = triage_source(code, tests, config)
    bug = classify(report)

    payload: dict = {
        "problem_id": meta.problem_id if meta else "",
        "bug_type": bug.value if bug else None,
        "compile_ok": report.compile_ok,
        "diagnostics": report.diagnostics,
        "tests": [
            {
                "index": r.index,
                "passed": r.passed,
                "timed_out": r.timed_out,
                "raw_match": r.raw_match,
                "normalized_match": r.normalized_match,
                "returncode": r.returncode,
                "truncated": r.truncated,
            }
            for r in report.results
        ],
    }
    if args.prompt:
        # a lone surrogate would make the human report's print raise
        payload["prompt"] = build_prompt(meta, bug, data.decode("utf-8", errors="replace"))

    if args.json or args.out:
        _emit(args, _dump(payload))
    if not args.json:
        print(f"bug type: {bug.value if bug else 'none (all tests pass)'}")
        if not report.compile_ok:
            first = report.diagnostics.splitlines()[:3]
            for line in first:
                print(f"  {line}")
        for r in report.results:
            if r.passed:
                verdict = "pass"
            elif r.timed_out:
                verdict = "FAIL (timeout)"
            elif r.formatting_only:
                verdict = "FAIL (formatting only)"
            else:
                verdict = "FAIL (wrong output)"
            print(f"  test {r.index}: {verdict}")
        if args.prompt:
            print(payload["prompt"], end="")
    return 0


# --------------------------------------------------------------------------
# repair


def _build_backend(args: argparse.Namespace, prompt: list[str],
                   buggy_tokens: list[str]):
    if args.backend == "oracle":
        target = parse(read_text(args.target)).token_texts()
        return make_repair_oracle(buggy_tokens, target, args.bug_type)
    # the prompt holds every buggy token
    return SeededRandomBackend(args.seed, sorted(set(prompt)))


def cmd_repair(args: argparse.Namespace) -> int:
    if args.backend == "oracle" and not args.target:
        _usage("--backend oracle needs --target FIXED_SOURCE")
    if args.target and args.backend != "oracle":
        _usage("--target needs --backend oracle")
    buggy_tokens = parse(read_text(args.source)).token_texts()
    prompt = repair_prompt(buggy_tokens, args.bug_type)
    backend = _build_backend(args, prompt, buggy_tokens)
    limits = DecodeLimits(max_tokens=args.max_tokens)

    # backends are pure functions of their input: run order changes nothing
    if args.mode == "ar" or args.compare:
        ar_res = ar_decode(backend, prompt, limits.max_tokens)
    if args.mode == "fast" or args.compare:
        acc_res = accelerated_decode(backend, prompt,
                                     DraftSource.from_tokens(buggy_tokens), limits)
    result = ar_res if args.mode == "ar" else acc_res

    payload: dict = {
        "mode": args.mode,
        "backend": args.backend,
        "truncated": result.truncated,
        "stats": result.stats._asdict(),
    }
    if args.compare:
        payload["metrics"] = compute_metrics(ar_res, acc_res)._asdict()

    out_tokens = list(result.tokens)
    if out_tokens and out_tokens[-1] == EOS:
        out_tokens.pop()
    payload["tokens"] = out_tokens
    payload["text"] = render_tokens(out_tokens)

    if args.json:
        _emit(args, _dump(payload))
    else:
        _emit(args, payload["text"])
        stats = result.stats
        print(f"{args.mode}: {stats.tokens_emitted} tokens in "
              f"{stats.forward_passes} forward passes "
              f"(accepted={stats.draft_accepted} corrections={stats.corrections} "
              f"fallback={stats.ar_fallback_tokens})", file=sys.stderr)
        if args.compare:
            rep = payload["metrics"]
            print(f"step efficiency {rep['step_efficiency']:.2f}, "
                  f"speedup {rep['speedup']:.2f}", file=sys.stderr)
    return 0


# --------------------------------------------------------------------------
# bench


def _bench_pairs(path: Path) -> list[tuple[str, str, str]]:
    """(id, buggy_code, fixed_code) triples from a corpus file or directory."""
    if path.is_dir():
        triples = []
        for buggy in sorted(path.rglob("*.buggy.c")):
            fixed = buggy.with_name(buggy.name.replace(".buggy.c", ".fixed.c"))
            if not fixed.is_file():
                raise RepairKitError(f"{buggy}: no matching {fixed.name}")
            pid = buggy.relative_to(path).as_posix()[: -len(".buggy.c")]
            triples.append((pid, read_text(buggy), read_text(fixed)))
        if not triples:
            raise RepairKitError(f"{path}: no *.buggy.c files")
        return triples
    triples = read_jsonl(path, "repair pair", lambda rec, lineno: (
        str(rec.get("pair_id", lineno)), string_field(rec, "buggy_code"),
        string_field(rec, "fixed_code")))
    if not triples:
        raise RepairKitError(f"{path}: empty corpus")
    seen: set[str] = set()
    for pid, _, _ in triples:
        if pid in seen:
            raise RepairKitError(f"{path}: two repair pairs have the id {pid}")
        seen.add(pid)
    return triples


def cmd_bench(args: argparse.Namespace) -> int:
    triples = _bench_pairs(Path(args.corpus))
    limits = DecodeLimits(max_tokens=args.max_tokens)
    programs = []
    reports = []
    for pid, buggy_code, fixed_code in triples:
        buggy_tokens = parse(buggy_code).token_texts()
        backend = make_repair_oracle(buggy_tokens, parse(fixed_code).token_texts())
        prompt = backend.prompt
        source = DraftSource.from_tokens(buggy_tokens)
        ar_res = ar_decode(backend, prompt, limits.max_tokens)
        acc_res = accelerated_decode(backend, prompt, source, limits)
        report = compute_metrics(ar_res, acc_res)
        reports.append(report)
        programs.append({"id": pid, **report._asdict()})

    payload = {
        "programs": programs,
        "aggregate": aggregate_reports(reports),
    }
    if args.json or args.out:
        _emit(args, _dump(payload))
    if not args.json:
        print(f"{'id':<24} {'tokens':>7} {'ar':>6} {'fast':>6} {'eff':>8} {'speedup':>8}")
        for p in programs:
            print(f"{p['id']:<24.24} {p['tokens']:>7} {p['forward_passes_ar']:>6} "
                  f"{p['forward_passes_acc']:>6} {p['step_efficiency']:>8.2f} "
                  f"{p['speedup']:>8.2f}")
        agg = payload["aggregate"]
        print(f"mean step efficiency {agg['mean_step_efficiency']:.2f}, "
              f"mean speedup {agg['mean_speedup']:.2f} over {agg['programs']} programs")
    return 0


# --------------------------------------------------------------------------
# parser


def _add_mask_options(p: argparse.ArgumentParser) -> None:
    defaults = MaskConfig._field_defaults
    p.add_argument("--strategy", choices=STRATEGIES, default=defaults["strategy"])
    p.add_argument("--sigma", type=float, default=defaults["sigma"],
                   help="padding upper bound in (0, 1] (default %(default)s)")
    p.add_argument("--granularity", choices=GRANULARITIES,
                   default=defaults["dist_granularity"],
                   help="edit distance granularity for similarity weights")
    p.add_argument("--aggregation", choices=AGGREGATIONS,
                   default=defaults["expansion_aggregation"],
                   help="clamp for summed similarity: floor=max(1,s), cap=min(1,s)")


def _int_at_least(low: int):
    """argparse type: an int no smaller than ``low`` (else a usage error)."""
    def int_(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    int_.__name__ = "int"  # argparse names the type in "invalid int value"
    return int_


def _add_decode_options(p: argparse.ArgumentParser) -> None:
    defaults = DecodeLimits._field_defaults
    p.add_argument("--max-tokens", type=_int_at_least(1), default=defaults["max_tokens"],
                   help="hard cap on generated tokens (default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repairkit",
        description="Repair-focused masks, triage and draft-accelerated decoding "
                    "for student C programs.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="write the machine-readable artifact to stdout")
    common.add_argument("--out", help="write the primary artifact to this file")
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=int, default=0, help="global RNG seed")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mask", parents=[seeded],
                       help="weight the fixed side of one repair pair")
    p.add_argument("buggy", help="buggy source file")
    p.add_argument("fixed", help="fixed source file")
    p.add_argument("--pair-id", help="record id (default: derived from file names)")
    p.add_argument("--problem-id", help="problem id for the record")
    _add_mask_options(p)
    p.set_defaults(func=cmd_mask)

    p = sub.add_parser("dataset", parents=[seeded],
                       help="pair, filter and export a submission archive")
    p.add_argument("archive", help="archive directory or submissions JSONL")
    p.add_argument("-v", "--verbose", action="store_true", help="log each dropped pair to stderr")
    p.add_argument("--max-led", type=_int_at_least(0), default=10,
                   help="drop pairs whose line edit distance exceeds this (default 10)")
    p.add_argument("--stats", help="also write corpus statistics JSON here")
    _add_mask_options(p)
    p.set_defaults(func=cmd_dataset)

    p = sub.add_parser("triage", parents=[common],
                       help="compile, run and classify one submission")
    p.add_argument("source", help="C source file")
    p.add_argument("--config", help="executor config file (key = value)")
    p.add_argument("--meta", help="problem metadata JSON (tests, description)")
    p.add_argument("--prompt", action="store_true",
                   help="include the repair prompt in the report")
    p.set_defaults(func=cmd_triage)

    p = sub.add_parser("repair", parents=[seeded],
                       help="decode a repair with a mock backend")
    p.add_argument("source", help="buggy C source file")
    p.add_argument("--backend", choices=("oracle", "random"), required=True)
    p.add_argument("--mode", choices=("fast", "ar"), default="fast",
                   help="draft-accelerated or plain autoregressive decoding")
    p.add_argument("--target", help="fixed source the oracle backend replays")
    p.add_argument("--bug-type", choices=[b.value for b in BugType],
                   help="condition the prompt on a triage label")
    p.add_argument("--compare", action="store_true",
                   help="run both modes and report efficiency metrics")
    _add_decode_options(p)
    p.set_defaults(func=cmd_repair)

    p = sub.add_parser("bench", parents=[common],
                       help="decode efficiency over a corpus of repair pairs")
    p.add_argument("corpus", help="corpus JSONL or directory of *.buggy.c/*.fixed.c")
    p.add_argument("--seed", type=int, default=0, help="ignored: bench uses no randomness")
    _add_decode_options(p)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # installs the handler once per process; the level is this call's
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr)
    log.setLevel(logging.INFO if getattr(args, "verbose", False) else logging.WARNING)
    try:
        return args.func(args)
    except DegenerateInputError as exc:
        print(f"repairkit: degenerate input: {exc}", file=sys.stderr)
        return 2
    except (BackendContractError, LosslessnessError) as exc:
        print(f"repairkit: backend contract violated: {exc}", file=sys.stderr)
        return 3
    except (RepairKitError, OSError, ValueError) as exc:
        print(f"repairkit: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
