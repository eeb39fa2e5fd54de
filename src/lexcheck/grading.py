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

from .rules import Level, PredicateKind, Relation, Rule

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


# an enum member read through its class costs an enum type attribute lookup;
# the per-step loop below reads these names instead
_INDEX, _PATTERN = PredicateKind.INDEX, Level.PATTERN


def score_rule(rule: Rule) -> float:
    """Per-rule score: depth + predicate load + relation strictness + value size."""
    weight = len(rule.procedure) - 1 + RELATION_WEIGHTS[rule.relation]
    pattern = 0
    for step in rule.procedure:
        predicate = step.predicate
        if predicate.kind is _INDEX:
            # a plain positional pick is free; "the last one" needs a backward look
            if predicate.n == -1:
                weight += 1
        else:
            weight += PREDICATE_WEIGHTS[predicate.kind]
        if step.level is _PATTERN:
            pattern = 1
    if isinstance(rule.value, str):
        length = len(rule.value)
        if length > 5:
            weight += 2
        elif length >= 2:
            weight += 1
    return float(weight + pattern)


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
    scores = tuple(map(score_rule, rules))
    return DifficultyScore(scores, *_graded(sum(scores), len(scores)))


def difficulty_grade(rules: tuple[Rule, ...]) -> str:
    """``grade_difficulty(rules).grade`` of a nonempty tuple of rules, with
    no DifficultyScore built: `Instruction` checks it for every record."""
    return _graded(sum(map(score_rule, rules)), len(rules))[2]


def _graded(score_sum: float, count: int) -> tuple[float, float, str]:
    """(multiplier, total, grade) of `count` rules whose scores sum to `score_sum`."""
    multiplier = 1.0 + EXTRA_CONSTRAINT_MULTIPLIER * (count - 1)
    total = score_sum * multiplier
    if total <= EASY_MAX:
        return multiplier, total, "easy"
    if total <= MEDIUM_MAX:
        return multiplier, total, "medium"
    return multiplier, total, "hard"
