"""Difficulty scoring: per-rule points, stacking multiplier, grade thresholds."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from helpers import sample_rules, violations
from lexcheck.dsl import parse_rule
from lexcheck.grading import (
    EASY_MAX,
    EXTRA_CONSTRAINT_MULTIPLIER,
    MEDIUM_MAX,
    DifficultyScore,
    difficulty_grade,
    grade_difficulty,
    score_rule,
)
from lexcheck.rules import Level, Predicate, PredicateKind, ProcedureStep, Relation, Violation


class TestScoreRule:
    def test_minimal_rule_scores_zero(self):
        # depth 0, plain index, contain, one-character value
        assert score_rule(parse_rule('sentence@1 contain "a"')) == 0.0

    def test_count_rule(self):
        # depth 0 + count 1 + eq 1 + integer value 0
        assert score_rule(parse_rule("sentence# = 5")) == 2.0

    def test_nested_startswith(self):
        # depth 1 + index 0 + index 0 + startswith 1 + len-3 value 1
        assert score_rule(parse_rule('paragraph@1.sentence@1 startswith "The"')) == 3.0

    def test_last_index_costs_one(self):
        assert score_rule(parse_rule('sentence@-1 contain "a"')) == 1.0

    def test_between_weighs_two(self):
        # between 2 + equal 2 + len-1 value 0
        assert score_rule(parse_rule('line% equal "\\n"')) == 4.0

    def test_pattern_step_adds_one(self):
        # depth 1 + index(-1) 1 + count 1 + eq 1 + int 0 + pattern 1
        assert score_rule(parse_rule("paragraph@-1.pattern(/ing/)# = 2")) == 5.0

    def test_value_length_bands(self):
        assert score_rule(parse_rule('sentence@1 contain "ab"')) == 1.0
        assert score_rule(parse_rule('sentence@1 contain "abcde"')) == 1.0
        assert score_rule(parse_rule('sentence@1 contain "abcdef"')) == 2.0

    def test_all_every_costs_one(self):
        assert score_rule(parse_rule('sentence@ contain "a"')) == 1.0


class TestGradeDifficulty:
    def test_single_easy(self):
        score = grade_difficulty([parse_rule("sentence# = 5")])
        assert score == DifficultyScore((2.0,), 1.0, 2.0, "easy")

    def test_easy_boundary_inclusive(self):
        assert grade_difficulty([parse_rule("sentence# = 5")]).grade == "easy"

    def test_just_above_easy_is_medium(self):
        # two rules of score 1 each: (1 + 1) * 1.25 = 2.5
        rules = [parse_rule('sentence@-1 contain "a"'), parse_rule('word@ contain "b"')]
        score = grade_difficulty(rules)
        assert score.total == 2.5 and score.grade == "medium"

    def test_medium_boundary_inclusive(self):
        # (2 + 2) * 1.25 = 5.0
        rules = [parse_rule("sentence# = 5"), parse_rule("paragraph# = 2")]
        score = grade_difficulty(rules)
        assert score.total == 5.0 and score.grade == "medium"

    def test_relaxed_numeric_relations_are_free(self):
        assert score_rule(parse_rule("word# >= 3")) == 1.0
        assert score_rule(parse_rule("word# < 3")) == 1.0

    def test_above_medium_is_hard(self):
        # single rule of score 6: between 2 + equal 2 + long value 2
        rule = parse_rule('line% equal "\\n\\n\\n\\n\\n\\n"')
        assert score_rule(rule) == 6.0
        assert grade_difficulty([rule]).grade == "hard"

    def test_three_rules_multiplier(self):
        rules = [parse_rule('paragraph@1.sentence@1 startswith "The"')] * 3
        score = grade_difficulty(rules)
        assert score.rule_scores == (3.0, 3.0, 3.0)
        assert score.multiplier == 1.5
        assert score.total == 13.5
        assert score.grade == "hard"

    def test_constants(self):
        assert EASY_MAX == 2.0 and MEDIUM_MAX == 5.0
        assert EXTRA_CONSTRAINT_MULTIPLIER == 0.25

    def test_empty_rule_set_rejected(self):
        with pytest.raises(ValueError):
            grade_difficulty([])

    def test_invalid_rule_rejected(self):
        # an invalid rule never reaches grade_difficulty: building it raises
        bad = (ProcedureStep(Level.WORD, Predicate(PredicateKind.INDEX, 1)),)
        assert violations(bad, Relation.EQ, 3) == [Violation.NUMERIC_WITHOUT_COUNT]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["en", "zh"]))
def test_grading_properties(seed, language):
    rules = sample_rules(language, seed, 4)
    score = grade_difficulty(rules)
    assert score.grade in ("easy", "medium", "hard")
    assert score.total >= 0
    # every total is a whole multiple of 0.25, so threshold math is exact
    assert (score.total * 4) == int(score.total * 4)
    # adding one more rule never lowers the total
    extra = sample_rules(language, seed + 1, 1)[0]
    bigger = grade_difficulty(list(rules) + [extra])
    assert bigger.total >= score.total


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_single_rule_grade_matches_thresholds(seed):
    rule = sample_rules("en", seed, 1)[0]
    total = score_rule(rule)
    grade = grade_difficulty([rule]).grade
    if total <= EASY_MAX:
        assert grade == "easy"
    elif total <= MEDIUM_MAX:
        assert grade == "medium"
    else:
        assert grade == "hard"


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["en", "zh"]), st.integers(1, 5))
def test_difficulty_grade_is_the_graded_one(seed, language, count):
    rules = tuple(sample_rules(language, seed, count))
    assert difficulty_grade(rules) == grade_difficulty(rules).grade
