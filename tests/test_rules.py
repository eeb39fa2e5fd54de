"""Rule data model: level ordering, predicate construction, validity codes."""

from __future__ import annotations

import pickle
import re

import pytest
from hypothesis import given, settings, strategies as st

from helpers import sample_rules, violations
from lexcheck import dsl
from lexcheck.dsl import ParseError, parse_rule
from lexcheck.rules import (
    ALLOWED_RELATIONS,
    Instruction,
    Level,
    Predicate,
    PredicateKind,
    ProcedureStep,
    Relation,
    Rule,
    ValidityError,
    Violation,
    descends,
    shared_step,
)


def step(level: Level, pred: Predicate | None = None, pattern: str | None = None) -> ProcedureStep:
    return ProcedureStep(level, pred or Predicate(PredicateKind.ALL), pattern)


class TestDescends:
    def test_coarser_to_finer(self):
        assert descends(Level.ANSWER, Level.PARAGRAPH)
        assert descends(Level.PARAGRAPH, Level.LINE)
        assert descends(Level.PARAGRAPH, Level.BULLET)
        assert descends(Level.LINE, Level.SENTENCE)
        assert descends(Level.SENTENCE, Level.WORD)
        assert descends(Level.WORD, Level.LETTER)
        assert descends(Level.ANSWER, Level.PUNC)

    def test_not_reflexive_or_upward(self):
        for level in Level:
            assert not descends(level, level)
        assert not descends(Level.PARAGRAPH, Level.ANSWER)
        assert not descends(Level.WORD, Level.SENTENCE)

    def test_same_rank_incomparable(self):
        assert not descends(Level.LINE, Level.BULLET)
        assert not descends(Level.BULLET, Level.LINE)
        assert not descends(Level.CHARACTER, Level.LETTER)
        assert not descends(Level.LETTER, Level.PUNC)

    def test_pattern_follows_anything_but_ends_the_chain(self):
        for level in Level:
            if level is Level.PATTERN:
                continue
            assert descends(level, Level.PATTERN)
            assert not descends(Level.PATTERN, level)
        assert not descends(Level.PATTERN, Level.PATTERN)


class TestPredicate:
    def test_constructors(self):
        assert Predicate(PredicateKind.INDEX, 3) == Predicate(PredicateKind.INDEX, 3)
        assert Predicate(PredicateKind.INDEX, -1).n == -1
        assert Predicate(PredicateKind.ALL).n is None
        assert Predicate(PredicateKind.BEFORE, 2).n == 2
        assert Predicate(PredicateKind.AFTER, 1).n == 1
        assert Predicate(PredicateKind.BETWEEN).kind is PredicateKind.BETWEEN
        assert Predicate(PredicateKind.COUNT).kind is PredicateKind.COUNT

    @pytest.mark.parametrize("n", [0, -2, -10])
    def test_index_rejects_bad_ordinals(self, n):
        with pytest.raises(ValueError):
            Predicate(PredicateKind.INDEX, n)

    @pytest.mark.parametrize("n", [0, -1])
    def test_before_after_require_positive(self, n):
        with pytest.raises(ValueError):
            Predicate(PredicateKind.BEFORE, n)
        with pytest.raises(ValueError):
            Predicate(PredicateKind.AFTER, n)

    def test_no_ordinal_kinds_reject_ordinals(self):
        for kind in (PredicateKind.ALL, PredicateKind.BETWEEN, PredicateKind.COUNT):
            with pytest.raises(ValueError):
                Predicate(kind, 1)

    def test_bool_is_not_an_ordinal(self):
        with pytest.raises(ValueError):
            Predicate(PredicateKind.INDEX, True)


class TestProcedureStep:
    def test_pattern_level_requires_regex(self):
        with pytest.raises(ValueError):
            ProcedureStep(Level.PATTERN, Predicate(PredicateKind.ALL))

    def test_other_levels_reject_regex(self):
        with pytest.raises(ValueError):
            ProcedureStep(Level.WORD, Predicate(PredicateKind.ALL), "[a-z]+")

    def test_bad_regex_reports_compile_failure(self):
        with pytest.raises(ValueError, match="does not compile"):
            ProcedureStep(Level.PATTERN, Predicate(PredicateKind.ALL), "[")

    @pytest.mark.parametrize("regex", ["a{99999999999999}", "(" * 2_000], ids=["huge-repeat", "deep-nesting"])
    def test_regex_the_compiler_overflows_on(self, regex):
        # re.compile raises OverflowError and RecursionError on these
        with pytest.raises(ValueError, match="does not compile"):
            ProcedureStep(Level.PATTERN, Predicate(PredicateKind.ALL), regex)

    def test_escaped_slash_is_canonicalized(self):
        s = ProcedureStep(Level.PATTERN, Predicate(PredicateKind.ALL), r"a\/b")
        assert s.pattern == "a/b"
        t = ProcedureStep(Level.PATTERN, Predicate(PredicateKind.ALL), r"\d+\/")
        assert t.pattern == r"\d+/"

    def test_compiled_regex_is_kept_but_not_compared(self):
        s = ProcedureStep(Level.PATTERN, Predicate(PredicateKind.ALL), r"a\/b")
        assert s.regex is not None and s.regex.pattern == "a/b"
        assert ProcedureStep(Level.WORD, Predicate(PredicateKind.ALL)).regex is None
        assert "regex" not in repr(s)
        # a step whose regex was compiled elsewhere equals and hashes the same
        other = ProcedureStep(Level.PATTERN, Predicate(PredicateKind.ALL), "a/b")
        object.__setattr__(other, "regex", re.compile("a/b", re.IGNORECASE))
        assert other == s and hash(other) == hash(s)

    def test_compiled_regex_survives_pickling(self):
        s = ProcedureStep(Level.PATTERN, Predicate(PredicateKind.INDEX, 2), "[0-9]+")
        again = pickle.loads(pickle.dumps(s))
        assert again == s and again.regex == s.regex


class TestRuleValue:
    def test_values(self):
        assert Rule((step(Level.SENTENCE, Predicate(PredicateKind.COUNT)),), Relation.EQ, 0).value == 0
        assert Rule((step(Level.SENTENCE),), Relation.CONTAIN, "x").value == "x"

    def test_rejections(self):
        with pytest.raises(ValueError):
            Rule((step(Level.SENTENCE, Predicate(PredicateKind.COUNT)),), Relation.EQ, True)
        with pytest.raises(ValueError):
            Rule((step(Level.SENTENCE, Predicate(PredicateKind.COUNT)),), Relation.EQ, -1)
        with pytest.raises(ValueError):
            Rule((step(Level.SENTENCE),), Relation.CONTAIN, "")
        with pytest.raises(ValueError):
            Rule((step(Level.SENTENCE),), Relation.CONTAIN, 1.5)

    def test_procedure_list_coerced_to_tuple(self):
        rule = Rule([step(Level.SENTENCE)], Relation.CONTAIN, "x")
        assert isinstance(rule.procedure, tuple)


class TestCheckValidity:
    """Building a Rule checks it: an invalid one raises ValidityError with its codes."""

    def test_valid_rule_has_no_violations(self):
        steps = (
            step(Level.PARAGRAPH, Predicate(PredicateKind.INDEX, 2)),
            step(Level.SENTENCE, Predicate(PredicateKind.COUNT)),
        )
        assert violations(steps, Relation.EQ, 3) == []

    def test_empty_procedure(self):
        assert violations((), Relation.EQ, 3) == [Violation.EMPTY_PROCEDURE]

    def test_numeric_relation_needs_count(self):
        found = violations((step(Level.WORD, Predicate(PredicateKind.INDEX, 1)),), Relation.GT, 5)
        assert Violation.NUMERIC_WITHOUT_COUNT in found

    def test_text_relation_rejects_count(self):
        found = violations((step(Level.WORD, Predicate(PredicateKind.COUNT)),), Relation.CONTAIN, "x")
        assert Violation.TEXT_WITH_COUNT in found

    def test_before_after_between_relation_limits(self):
        before = violations((step(Level.WORD, Predicate(PredicateKind.BEFORE, 2)),), Relation.STARTSWITH, "x")
        assert Violation.BEFORE_RELATION in before
        after = violations((step(Level.WORD, Predicate(PredicateKind.AFTER, 2)),), Relation.ENDSWITH, "x")
        assert Violation.AFTER_RELATION in after
        between = violations((step(Level.WORD, Predicate(PredicateKind.BETWEEN)),), Relation.CONTAIN, "x")
        assert Violation.BETWEEN_RELATION in between

    def test_value_type_mismatch_both_directions(self):
        numeric_with_text = violations((step(Level.WORD, Predicate(PredicateKind.COUNT)),), Relation.EQ, "x")
        assert Violation.VALUE_TYPE_MISMATCH in numeric_with_text
        text_with_int = violations((step(Level.WORD, Predicate(PredicateKind.INDEX, 1)),), Relation.CONTAIN, 3)
        assert Violation.VALUE_TYPE_MISMATCH in text_with_int

    def test_levels_must_strictly_descend(self):
        upward = (
            step(Level.SENTENCE, Predicate(PredicateKind.INDEX, 1)),
            step(Level.PARAGRAPH, Predicate(PredicateKind.INDEX, 1)),
        )
        assert Violation.LEVEL_ORDER in violations(upward, Relation.CONTAIN, "x")
        peer = (
            step(Level.LINE, Predicate(PredicateKind.INDEX, 1)),
            step(Level.BULLET, Predicate(PredicateKind.INDEX, 1)),
        )
        assert Violation.LEVEL_ORDER in violations(peer, Relation.CONTAIN, "x")

    def test_answer_placement(self):
        late = (step(Level.PARAGRAPH, Predicate(PredicateKind.INDEX, 1)), step(Level.ANSWER))
        assert Violation.ANSWER_NOT_FIRST in violations(late, Relation.CONTAIN, "x")
        selective = (step(Level.ANSWER, Predicate(PredicateKind.INDEX, 1)),)
        assert Violation.ANSWER_PREDICATE in violations(selective, Relation.CONTAIN, "x")

    def test_count_only_terminal(self):
        steps = (
            step(Level.PARAGRAPH, Predicate(PredicateKind.COUNT)),
            step(Level.SENTENCE, Predicate(PredicateKind.COUNT)),
        )
        assert Violation.COUNT_NOT_TERMINAL in violations(steps, Relation.EQ, 1)

    def test_multiple_violations_accumulate(self):
        steps = (
            step(Level.SENTENCE, Predicate(PredicateKind.INDEX, 1)),
            step(Level.PARAGRAPH, Predicate(PredicateKind.INDEX, 1)),
        )
        with pytest.raises(ValidityError) as info:
            Rule(steps, Relation.EQ, "x")
        found = info.value.violations
        assert found == [Violation.NUMERIC_WITHOUT_COUNT, Violation.VALUE_TYPE_MISMATCH, Violation.LEVEL_ORDER]
        assert str(info.value) == (
            "invalid rule: numeric-relation-without-count, value-type-mismatch, levels-not-descending"
        )

    def test_repeated_calls_are_stable(self):
        steps = (step(Level.WORD, Predicate(PredicateKind.INDEX, 1)),)
        assert violations(steps, Relation.GT, 5) == violations(steps, Relation.GT, 5)


class TestAllowedRelations:
    def test_count_gets_exactly_the_numeric_relations(self):
        assert set(ALLOWED_RELATIONS[PredicateKind.COUNT]) == {
            r for r in Relation if r.is_numerical
        }

    def test_index_and_all_get_the_textual_seven(self):
        textual = {r for r in Relation if not r.is_numerical}
        assert set(ALLOWED_RELATIONS[PredicateKind.INDEX]) == textual
        assert set(ALLOWED_RELATIONS[PredicateKind.ALL]) == textual
        assert len(textual) == 7

    def test_gap_predicates_are_narrow(self):
        assert ALLOWED_RELATIONS[PredicateKind.BEFORE] == (
            Relation.CONTAIN,
            Relation.NOTCONTAIN,
        )
        assert ALLOWED_RELATIONS[PredicateKind.AFTER] == (
            Relation.CONTAIN,
            Relation.NOTCONTAIN,
            Relation.EQUAL,
        )
        assert ALLOWED_RELATIONS[PredicateKind.BETWEEN] == (Relation.EQUAL,)

    def test_allowed_pairings_pass_validity(self):
        for kind, relations in ALLOWED_RELATIONS.items():
            for relation in relations:
                pred = {
                    PredicateKind.INDEX: Predicate(PredicateKind.INDEX, 1),
                    PredicateKind.ALL: Predicate(PredicateKind.ALL),
                    PredicateKind.BEFORE: Predicate(PredicateKind.BEFORE, 1),
                    PredicateKind.AFTER: Predicate(PredicateKind.AFTER, 1),
                    PredicateKind.BETWEEN: Predicate(PredicateKind.BETWEEN),
                    PredicateKind.COUNT: Predicate(PredicateKind.COUNT),
                }[kind]
                value: int | str = 2 if relation.is_numerical else "x"
                assert violations((ProcedureStep(Level.WORD, pred),), relation, value) == [], (kind, relation)


class TestStepSharing:
    """The parser resolves a step token it has read before (`sentence@2`,
    `word#`) by a lookup, which must keep every step shared and every error
    as it was."""

    def test_steps_stay_shared_after_cache_clear(self):
        source = 'paragraph@2.sentence$1 contain "a"'
        parse_rule(source)  # its step tokens are now known
        shared_step.cache_clear()
        procedure = parse_rule(source).procedure
        assert procedure[0] is shared_step(Level.PARAGRAPH, PredicateKind.INDEX, 2)
        assert procedure[1] is shared_step(Level.SENTENCE, PredicateKind.AFTER, 1)

    @pytest.mark.parametrize(
        "source, pos, expected",
        [
            ('word@0 contain "a"', 5, "a nonzero ordinal (element numbering starts at 1)"),
            ("  sentence@-2# = 1", 11, "-1 (the only negative ordinal)"),
            ('words@1 contain "a"', 0, "a level name"),
            ('word@1x contain "a"', 6, "a relation"),
            ('line!0 contain "a"', 5, "a positive ordinal"),
            ('word@1.pattern@1 contain "a"', 14, '"(/" opening the regex'),
        ],
    )
    def test_malformed_step_fails_alike_each_time(self, source, pos, expected):
        parse_rule('word@1 contain "a"')  # a known token, a prefix of some sources
        for _ in range(2):
            with pytest.raises(ParseError) as info:
                parse_rule(source)
            assert (info.value.pos, info.value.expected) == (pos, expected)

    def test_lookup_is_bounded_as_shared_step_is(self):
        limit = shared_step.cache_info().maxsize
        assert limit == 1024
        try:
            for n in range(1, 2 * limit):
                rule = parse_rule(f'word@{n} contain "a"')
                assert len(dsl._STEP_ARGS) <= limit
                assert rule.procedure[0] is shared_step(Level.WORD, PredicateKind.INDEX, n)
        finally:
            dsl._STEP_ARGS.clear()


class TestInstruction:
    def _rules(self):
        return (Rule((step(Level.SENTENCE, Predicate(PredicateKind.COUNT)),), Relation.EQ, 3),)

    def test_round_fields(self):
        ins = Instruction("en-abc", "en", "p", self._rules(), "easy", 1, 1)
        assert ins.count == 1 and ins.depth == 1

    def test_language_and_difficulty_validated(self):
        with pytest.raises(ValueError):
            Instruction("x", "fr", "p", self._rules(), "easy", 1, 1)
        with pytest.raises(ValueError):
            Instruction("x", "en", "p", self._rules(), "trivial", 1, 1)

    def test_rules_required(self):
        with pytest.raises(ValueError):
            Instruction("x", "en", "p", (), "easy", 1, 0)

    def test_derived_fields_must_agree(self):
        with pytest.raises(ValueError):
            Instruction("x", "en", "p", self._rules(), "easy", 2, 1)
        with pytest.raises(ValueError):
            Instruction("x", "en", "p", self._rules(), "easy", 1, 2)

    def test_difficulty_must_be_the_graded_one(self):
        with pytest.raises(ValueError) as info:
            Instruction("x", "en", "p", (parse_rule("word# >= 2"),), "hard", 1, 1)
        assert str(info.value) == "difficulty 'hard' does not match the rules (graded 'easy')"


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["en", "zh"]))
def test_sampled_rules_are_structurally_coherent(seed, language):
    for rule in sample_rules(language, seed, 5):
        assert rule.relation.is_numerical == isinstance(rule.value, int)
        counting = rule.procedure[-1].predicate.kind is PredicateKind.COUNT
        assert counting == rule.relation.is_numerical
        for a, b in zip(rule.procedure, rule.procedure[1:]):
            assert descends(a.level, b.level)
