"""Repair-focused training masks, bug triage and draft-accelerated decoding
for student C programs.

The pieces fit a single pipeline: pair archived submissions into
(buggy, fixed) examples, weight each fixed statement by how much the repair
touched it, classify what the buggy program does wrong, and decode the fix
fast by treating the buggy code as a draft that mostly survives.
"""

from .backends import (EOS, NGramBackend, SeededRandomBackend,
                       TargetOracleBackend, make_repair_oracle)
from .dataset import (RepairPair, Submission, build_records, corpus_stats,
                      filter_pairs, load_archive, pair_submissions)
from .decoding import (BOUNDARY_TOKENS, CostModel, DecodeLimits, DecodeResult,
                       DecodeStats, DraftSource, EfficiencyReport,
                       accelerated_decode, aggregate_reports, ar_decode,
                       chunk_token_ranges, compute_metrics, draft_generate,
                       longest_matching_prefix, probe_backend, repair_prompt)
from .diffs import AlignedDiff, align_statements, levenshtein, line_edit_distance
from .errors import (BackendContractError, DegenerateInputError,
                     LosslessnessError, RepairKitError)
from .mask import (MaskConfig, MaskVector, broadcast_to_tokens, build_mask,
                   expansion_weight, repair_loss, similarity,
                   similarity_from_distance)
from .source import SourceUnit, Statement, extract_facts, parse
from .triage import (BugType, ExecutorConfig, ExecutionReport, ProblemMeta,
                     TestCase, build_prompt, classify, load_problem_meta,
                     normalize_output, triage_source)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "RepairKitError", "DegenerateInputError", "BackendContractError",
    "LosslessnessError",
    # source analysis
    "parse", "extract_facts", "SourceUnit", "Statement",
    # diffs
    "levenshtein", "line_edit_distance", "align_statements", "AlignedDiff",
    # masks
    "MaskConfig", "MaskVector", "build_mask", "broadcast_to_tokens",
    "repair_loss", "similarity", "similarity_from_distance", "expansion_weight",
    # decoding
    "BOUNDARY_TOKENS", "CostModel", "DecodeLimits", "DecodeResult",
    "DecodeStats", "DraftSource", "EfficiencyReport", "accelerated_decode",
    "ar_decode", "aggregate_reports", "chunk_token_ranges", "compute_metrics",
    "draft_generate", "longest_matching_prefix", "probe_backend", "repair_prompt",
    # backends
    "EOS", "TargetOracleBackend", "NGramBackend", "SeededRandomBackend",
    "make_repair_oracle",
    # dataset
    "Submission", "RepairPair", "load_archive", "pair_submissions",
    "filter_pairs", "build_records", "corpus_stats",
    # triage
    "BugType", "ExecutorConfig", "ExecutionReport", "ProblemMeta", "TestCase",
    "triage_source", "classify", "normalize_output", "load_problem_meta",
    "build_prompt",
]
