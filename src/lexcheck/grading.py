"""Difficulty scoring for rule sets.

The weights and thresholds below are this library's own convention: a
per-rule score adds procedure depth, predicate load, relation strictness and
value size, and a multiplier rewards stacking several constraints in one
instruction.  They are plausible stand-ins, documented here and in the README,
not measured values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .rules import Level, Predicate, PredicateKind, Relation, Rule

PREDICATE_WEIGHTS = {
    PredicateKind.ALL: 1,
    PredicateKind.BEFORE: 1,
    PredicateKind.AFTER: 1,
    PredicateKind.BETWEEN: 2,
    PredicateKind.COUNT: 1,
}

RELATION_WEIGHTS = {
    Relation.CONTAIN: 0,
    Relation.NOTCONTAIN: 0,
    Relation.STARTSWITH: 1,
    Relation.ENDSWITH: 1,
    Relation.NOTSTARTSWITH: 1,
    Relation.NOTENDSWITH: 1,
    Relation.EQUAL: 2,
    Relation.EQ: 1,
    Relation.NEQ: 1,
    Relation.GT: 0,
    Relation.GTE: 0,
    Relation.LT: 0,
    Relation.LTE: 0,
}

EASY_MAX = 2.0
MEDIUM_MAX = 5.0
EXTRA_CONSTRAINT_MULTIPLIER = 0.25


def _predicate_weight(pred: Predicate) -> int:
    if pred.kind is PredicateKind.INDEX:
        # a plain positional pick is free; "the last one" needs a backward look
        return 1 if pred.n == -1 else 0
    return PREDICATE_WEIGHTS[pred.kind]


def _value_weight(rule: Rule) -> int:
    weight = 0
    if isinstance(rule.value, str):
        length = len(rule.value)
        if length > 5:
            weight = 2
        elif length >= 2:
            weight = 1
    if any(step.level is Level.PATTERN for step in rule.procedure):
        weight += 1
    return weight


def score_rule(rule: Rule) -> float:
    """Per-rule score: depth + predicate load + relation strictness + value size."""
    depth = len(rule.procedure) - 1
    preds = sum(_predicate_weight(step.predicate) for step in rule.procedure)
    return float(depth + preds + RELATION_WEIGHTS[rule.relation] + _value_weight(rule))


@dataclass(frozen=True)
class DifficultyScore:
    rule_scores: tuple[float, ...]
    multiplier: float
    total: float
    grade: str


def grade_difficulty(rules: Iterable[Rule]) -> DifficultyScore:
    """Score a rule set and bucket it into easy / medium / hard.

    All scores are multiples of 0.25, so the threshold comparisons are exact.
    """
    rules = tuple(rules)
    if not rules:
        raise ValueError("difficulty grading needs at least one rule")
    scores = tuple(score_rule(r) for r in rules)
    multiplier = 1.0 + EXTRA_CONSTRAINT_MULTIPLIER * (len(rules) - 1)
    total = sum(scores) * multiplier
    if total <= EASY_MAX:
        grade = "easy"
    elif total <= MEDIUM_MAX:
        grade = "medium"
    else:
        grade = "hard"
    return DifficultyScore(scores, multiplier, total, grade)
