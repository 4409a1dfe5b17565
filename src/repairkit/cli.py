"""Command line front end.

Subcommands: ``mask`` (weight one repair pair), ``dataset`` (archive ->
corpus), ``triage`` (compile/run/classify), ``repair`` (decode a fix with a
mock backend) and ``bench`` (fast-vs-baseline decode efficiency).

Exit codes: 0 success, 1 runtime failure, 2 usage error or degenerate
input, 3 backend contract or losslessness violation.

Machine outputs never include wall-clock readings, so a command rerun with
the same ``--seed`` produces byte-identical artifacts (``bench --time wall``
opts out of that guarantee).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import asdict
from pathlib import Path
from typing import NoReturn

from .backends import (EOS, NGramBackend, SeededRandomBackend,
                       TargetOracleBackend, make_repair_oracle)
from .dataset import (RepairPair, Submission, build_records, corpus_stats,
                      filter_pairs, load_archive, mask_record, pair_mask,
                      pair_submissions)
from .decoding import (DecodeLimits, DecodeResult, DraftSource,
                       accelerated_decode, aggregate_reports, ar_decode,
                       compute_metrics, probe_backend, repair_prompt)
from .errors import (BackendContractError, DegenerateInputError,
                     LosslessnessError, RepairKitError)
from .mask import MaskConfig
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
        Path(args.out).write_text(payload)
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
    buggy_code = buggy_path.read_text()
    fixed_code = fixed_path.read_text()
    pid = args.problem_id or buggy_path.stem
    pair_id = args.pair_id or f"{buggy_path.stem}:{fixed_path.stem}"
    pair = RepairPair(
        pair_id=pair_id,
        problem_id=pid,
        student_id="cli",
        buggy=Submission(pid, "cli", "0", "WRONG", buggy_code),
        fixed=Submission(pid, "cli", "1", "OK", fixed_code),
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
    records = build_records(kept, cfg)

    stats = corpus_stats(kept, records.buggy_tokens)
    stats["dropped_restructuring"] = dropped
    if args.stats:
        Path(args.stats).write_text(_dump(stats))

    if args.out:
        with open(args.out, "w") as fh:
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
    code = Path(args.source).read_text()
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
        payload["prompt"] = build_prompt(meta, bug, code)

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
            elif r.normalized_match and r.returncode == 0:
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
        if not args.target:
            _usage("--backend oracle needs --target FIXED_SOURCE")
        target = parse(Path(args.target).read_text()).token_texts()
        backend = TargetOracleBackend()
        backend.script(prompt, list(target))
        return backend
    if args.backend == "ngram":
        if not args.train_dir:
            _usage("--backend ngram needs --train-dir")
        return NGramBackend.from_dir(args.train_dir, order=args.order)
    vocab = sorted(set(buggy_tokens) | set(prompt))
    return SeededRandomBackend(args.seed, vocab)


def _stats_dict(result: DecodeResult) -> dict:
    d = asdict(result.stats)
    d.pop("wall_time")  # keep machine output reproducible
    return d


def cmd_repair(args: argparse.Namespace) -> int:
    buggy_tokens = list(parse(Path(args.source).read_text()).token_texts())
    prompt = repair_prompt(buggy_tokens, args.bug_type)
    backend = _build_backend(args, prompt, buggy_tokens)
    if args.probe:
        probe_backend(backend, prompt)
    limits = DecodeLimits(max_tokens=args.max_tokens, fallback_run=args.fallback_run)

    source = DraftSource.from_tokens(buggy_tokens)
    if args.mode == "ar":
        result = ar_decode(backend, prompt, limits.max_tokens)
    else:
        result = accelerated_decode(backend, prompt, source, limits)

    payload: dict = {
        "mode": args.mode,
        "backend": args.backend,
        "truncated": result.truncated,
        "stats": _stats_dict(result),
    }
    if args.compare:
        other = (accelerated_decode(backend, prompt, source, limits)
                 if args.mode == "ar" else ar_decode(backend, prompt, limits.max_tokens))
        ar_res, acc_res = (result, other) if args.mode == "ar" else (other, result)
        report = compute_metrics(ar_res, acc_res, time_source="sim")
        payload["metrics"] = report.as_dict()

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
            stem = buggy.name[: -len(".buggy.c")]
            triples.append((stem, buggy.read_text(), fixed.read_text()))
        if not triples:
            raise RepairKitError(f"{path}: no *.buggy.c files")
        return triples
    triples = []
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            if not isinstance(rec, dict):
                raise TypeError(f"record must be a JSON object, got {type(rec).__name__}")
            for key in ("buggy_code", "fixed_code"):
                if not isinstance(rec[key], str):
                    raise TypeError(f"{key} must be a string, got {type(rec[key]).__name__}")
            triples.append((str(rec.get("pair_id", lineno)),
                            rec["buggy_code"], rec["fixed_code"]))
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise RepairKitError(f"{path}:{lineno}: bad repair pair record: {exc}") from exc
    if not triples:
        raise RepairKitError(f"{path}: empty corpus")
    return triples


def cmd_bench(args: argparse.Namespace) -> int:
    triples = _bench_pairs(Path(args.corpus))[: args.limit]
    limits = DecodeLimits(max_tokens=args.max_tokens, fallback_run=args.fallback_run)
    programs = []
    reports = []
    for pid, buggy_code, fixed_code in triples:
        buggy_tokens = parse(buggy_code).token_texts()
        backend = make_repair_oracle(buggy_tokens, parse(fixed_code).token_texts())
        prompt = backend.prompt
        if args.probe:
            probe_backend(backend, prompt)
        source = DraftSource.from_tokens(buggy_tokens)
        ar_res = ar_decode(backend, prompt, limits.max_tokens)
        acc_res = accelerated_decode(backend, prompt, source, limits)
        report = compute_metrics(ar_res, acc_res, time_source=args.time)
        reports.append(report)
        programs.append({"id": pid, **report.as_dict()})

    payload = {
        "time_source": args.time,
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
    p.add_argument("--strategy", choices=("M1", "M2", "M3", "M4"), default="M4")
    p.add_argument("--sigma", type=float, default=0.6,
                   help="padding upper bound in (0, 1] (default 0.6)")
    p.add_argument("--granularity", choices=("char", "token"), default="char",
                   help="edit distance granularity for similarity weights")
    p.add_argument("--aggregation", choices=("floor", "cap"), default="floor",
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
    p.add_argument("--max-tokens", type=_int_at_least(1), default=4192,
                   help="hard cap on generated tokens (default 4192)")
    p.add_argument("--fallback-run", type=_int_at_least(0), default=5,
                   help="first greedy run after a draft miss; doubles while the "
                        "model ignores the draft (default 5)")
    p.add_argument("--probe", action="store_true",
                   help="check backend determinism/causality before decoding")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repairkit",
        description="Repair-focused masks, triage and draft-accelerated decoding "
                    "for student C programs.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="global RNG seed")
    common.add_argument("--json", action="store_true",
                        help="write the machine-readable artifact to stdout")
    common.add_argument("--out", help="write the primary artifact to this file")
    common.add_argument("-v", "--verbose", action="store_true",
                        help="log progress and drop reasons to stderr")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mask", parents=[common],
                       help="weight the fixed side of one repair pair")
    p.add_argument("buggy", help="buggy source file")
    p.add_argument("fixed", help="fixed source file")
    p.add_argument("--pair-id", help="record id (default: derived from file names)")
    p.add_argument("--problem-id", help="problem id for the record")
    _add_mask_options(p)
    p.set_defaults(func=cmd_mask)

    p = sub.add_parser("dataset", parents=[common],
                       help="pair, filter and export a submission archive")
    p.add_argument("archive", help="archive directory or submissions JSONL")
    p.add_argument("--max-led", type=int, default=10,
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

    p = sub.add_parser("repair", parents=[common],
                       help="decode a repair with a mock backend")
    p.add_argument("source", help="buggy C source file")
    p.add_argument("--backend", choices=("oracle", "ngram", "random"), required=True)
    p.add_argument("--mode", choices=("fast", "ar"), default="fast",
                   help="draft-accelerated or plain autoregressive decoding")
    p.add_argument("--target", help="fixed source the oracle backend replays")
    p.add_argument("--train-dir", help="corpus directory for the ngram backend")
    p.add_argument("--order", type=_int_at_least(1), default=3, help="ngram context order")
    p.add_argument("--bug-type", choices=[b.value for b in BugType],
                   help="condition the prompt on a triage label")
    p.add_argument("--compare", action="store_true",
                   help="run both modes and report efficiency metrics")
    _add_decode_options(p)
    p.set_defaults(func=cmd_repair)

    p = sub.add_parser("bench", parents=[common],
                       help="decode efficiency over a corpus of repair pairs")
    p.add_argument("corpus", help="corpus JSONL or directory of *.buggy.c/*.fixed.c")
    p.add_argument("--time", choices=("sim", "wall"), default="sim",
                   help="timing source for speedup (default: simulated cost)")
    p.add_argument("--limit", type=_int_at_least(1), help="bench only the first N pairs")
    _add_decode_options(p)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.func(args)
    except DegenerateInputError as exc:
        print(f"repairkit: degenerate input: {exc}", file=sys.stderr)
        return 2
    except (BackendContractError, LosslessnessError) as exc:
        print(f"repairkit: backend contract violated: {exc}", file=sys.stderr)
        return 3
    except RepairKitError as exc:
        print(f"repairkit: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"repairkit: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
