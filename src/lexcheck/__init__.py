"""Verification toolkit for fine-grained lexical constraints on model responses."""

from .dsl import ParseError, PatternError, ValidityError, format_rule, parse_rule
from .engine import Verdict, verify_instruction, verify_rule
from .generate import (
    BucketError,
    GenConfig,
    LexiconError,
    Lexicon,
    generate_dataset,
    sample_rule,
)
from .grading import DifficultyScore, grade_difficulty, score_rule
from .records import (
    DataError,
    read_instructions,
    read_responses,
    write_instructions,
)
from .report import (
    EvalReport,
    aggregate,
    heatmap,
    load_report,
    merge,
    render_report,
    score,
)
from .rules import (
    Instruction,
    Level,
    Predicate,
    PredicateKind,
    ProcedureStep,
    Relation,
    Rule,
    Violation,
)
from .segment import split
from .templates import MissingTemplateError, load_templates, render_prompt, render_rule_sentence

__version__ = "0.1.0"

__all__ = [
    "BucketError",
    "DataError",
    "DifficultyScore",
    "EvalReport",
    "GenConfig",
    "Instruction",
    "Level",
    "Lexicon",
    "LexiconError",
    "MissingTemplateError",
    "ParseError",
    "PatternError",
    "Predicate",
    "PredicateKind",
    "ProcedureStep",
    "Relation",
    "Rule",
    "ValidityError",
    "Verdict",
    "Violation",
    "aggregate",
    "format_rule",
    "generate_dataset",
    "grade_difficulty",
    "heatmap",
    "load_report",
    "load_templates",
    "merge",
    "parse_rule",
    "read_instructions",
    "read_responses",
    "render_prompt",
    "render_report",
    "render_rule_sentence",
    "sample_rule",
    "score",
    "score_rule",
    "split",
    "verify_instruction",
    "verify_rule",
    "write_instructions",
]
