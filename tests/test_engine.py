"""Verification engine: refinement, target extraction, adjudication, loose pass."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import make_text, sample_rules
from oracle import brute_verify
from lexcheck.dsl import parse_rule
from lexcheck.engine import (
    LOOSE_VARIANT_IDS,
    Scope,
    Target,
    adjudicate,
    identify_target,
    loose_variants,
    refine_scope,
    verify_instruction,
    verify_rule,
)
from lexcheck.generate import build_instruction, stable_id
from lexcheck.rules import (
    Level,
    Predicate,
    ProcedureStep,
    Relation,
    Rule,
)

TEXT = "First one. Second one.\n\nLast bit."


def instruction(rule_texts: list[str], language: str = "en"):
    rules = tuple(parse_rule(t) for t in rule_texts)
    return build_instruction(stable_id(language, 0, 0), language, "p", rules)


class TestRefineScope:
    def test_index_selects_one_element(self):
        scope = Scope.initial(TEXT, "en")
        out = refine_scope(scope, ProcedureStep(Level.PARAGRAPH, Predicate.index(2)))
        assert [s.text for s in out.segments] == ["Last bit."]
        assert out.segments[0].path == "answer/paragraph[2]"

    def test_all_fans_out_in_order(self):
        scope = Scope.initial(TEXT, "en")
        out = refine_scope(scope, ProcedureStep(Level.PARAGRAPH, Predicate.all()))
        out = refine_scope(out, ProcedureStep(Level.SENTENCE, Predicate.index(1)))
        assert [s.text for s in out.segments] == ["First one.", "Last bit."]
        assert out.segments[0].path == "answer/paragraph[1]/sentence[1]"

    def test_out_of_range_index_contributes_nothing(self):
        scope = Scope.initial(TEXT, "en")
        out = refine_scope(scope, ProcedureStep(Level.PARAGRAPH, Predicate.index(5)))
        assert out.segments == ()

    def test_last_element(self):
        scope = Scope.initial("a b c", "en")
        out = refine_scope(scope, ProcedureStep(Level.WORD, Predicate.index(-1)))
        assert [s.text for s in out.segments] == ["c"]

    def test_before_keeps_raw_prefix(self):
        scope = Scope.initial("a, b, c", "en")
        out = refine_scope(scope, ProcedureStep(Level.WORD, Predicate.before(2)))
        assert [s.text for s in out.segments] == ["a, "]
        assert out.segments[0].path == "answer/word!2"

    def test_after_keeps_raw_suffix(self):
        scope = Scope.initial("a, b, c", "en")
        out = refine_scope(scope, ProcedureStep(Level.WORD, Predicate.after(2)))
        assert [s.text for s in out.segments] == [" c"]

    def test_between_keeps_separators(self):
        scope = Scope.initial("a  b c", "en")
        out = refine_scope(scope, ProcedureStep(Level.WORD, Predicate.between()))
        assert [s.text for s in out.segments] == ["  ", " "]

    def test_count_step_refuses_to_refine(self):
        scope = Scope.initial(TEXT, "en")
        with pytest.raises(ValueError):
            refine_scope(scope, ProcedureStep(Level.WORD, Predicate.count()))


class TestIdentifyTarget:
    def test_counts_per_segment(self):
        scope = Scope.initial(TEXT, "en")
        scope = refine_scope(scope, ProcedureStep(Level.PARAGRAPH, Predicate.all()))
        rule = parse_rule("paragraph.sentence# = 1")
        target = identify_target(scope, rule)
        assert target.counts == (2, 1)

    def test_texts_for_textual_terminal(self):
        scope = Scope.initial("a b", "en")
        scope = refine_scope(scope, ProcedureStep(Level.WORD, Predicate.all()))
        rule = parse_rule('word contain "a"')
        assert identify_target(scope, rule).texts == ("a", "b")

    def test_single_step_count_of_empty_answer_is_zero(self):
        rule = parse_rule("sentence# = 0")
        scope = Scope.initial("", "en")
        assert identify_target(scope, rule).counts == (0,)

    def test_deep_count_with_empty_scope_has_no_counts(self):
        rule = parse_rule("paragraph@2.sentence# = 0")
        empty = Scope((), "en")
        assert identify_target(empty, rule).counts == ()


class TestAdjudicate:
    def test_universal_over_counts(self):
        assert adjudicate(Target.of_counts((2, 2)), Relation.EQ, 2)
        assert not adjudicate(Target.of_counts((2, 3)), Relation.EQ, 2)

    def test_universal_over_texts(self):
        assert adjudicate(Target.of_texts(("ab", "ac")), Relation.STARTSWITH, "a")
        assert not adjudicate(Target.of_texts(("ab", "cb")), Relation.STARTSWITH, "a")

    def test_empty_targets_fail(self):
        assert not adjudicate(Target.of_counts(()), Relation.EQ, 0)
        assert not adjudicate(Target.of_texts(()), Relation.NOTCONTAIN, "x")

    def test_negated_relations(self):
        assert adjudicate(Target.of_texts(("abc",)), Relation.NOTSTARTSWITH, "b")
        assert adjudicate(Target.of_texts(("abc",)), Relation.NOTENDSWITH, "b")
        assert adjudicate(Target.of_texts(("abc",)), Relation.NOTCONTAIN, "z")


class TestVerifyRule:
    def test_count_example(self):
        assert verify_rule(parse_rule("paragraph@1.sentence# = 2"), TEXT)
        assert not verify_rule(parse_rule("paragraph@1.sentence# = 3"), TEXT)

    def test_empty_answer_single_step_count(self):
        assert verify_rule(parse_rule("sentence# = 0"), "")
        assert not verify_rule(parse_rule("sentence# = 1"), "")

    def test_empty_scope_fails_even_a_zero_count(self):
        # the named paragraph does not exist, so there is nothing to count
        assert not verify_rule(parse_rule("paragraph@2.sentence# = 0"), "one paragraph only.")

    def test_out_of_range_selection_fails_textual(self):
        assert not verify_rule(parse_rule('sentence@5 contain "one"'), TEXT)

    def test_universal_all(self):
        assert verify_rule(parse_rule('sentence@ contain "one"'), "a one. b one.")
        assert not verify_rule(parse_rule('sentence@ contain "one"'), "a one. b two.")

    def test_zh_language(self):
        assert verify_rule(parse_rule("sentence# = 2"), "今天。明天！", "zh")
        assert verify_rule(parse_rule('character@1 equal "今"'), "今天。", "zh")

    def test_invalid_rule_rejected(self):
        bad = Rule((ProcedureStep(Level.WORD, Predicate.index(1)),), Relation.EQ, 3)
        with pytest.raises(ValueError, match="invalid rule"):
            verify_rule(bad, "text")

    def test_unknown_language_rejected(self):
        with pytest.raises(ValueError, match="unknown language"):
            verify_rule(parse_rule("sentence# = 1"), "text", "fr")

    def test_between_on_lines(self):
        assert verify_rule(parse_rule('line% equal "\\n"'), "a\nb\nc")
        assert not verify_rule(parse_rule('line% equal "\\n"'), "a\n\nb")


class TestLooseVariants:
    def test_ids_fixed_and_ordered(self):
        variants = loose_variants("a\nb")
        assert tuple(vid for vid, _ in variants) == LOOSE_VARIANT_IDS
        assert len(variants) == 8

    def test_rewrites(self):
        got = dict(loose_variants("*a*\nb\nc"))
        assert got["identity"] == "*a*\nb\nc"
        assert got["strip-asterisks"] == "a\nb\nc"
        assert got["drop-first-line"] == "b\nc"
        assert got["drop-last-line"] == "*a*\nb"
        assert got["drop-first-last-lines"] == "b"
        assert got["strip-asterisks+drop-first-line"] == "b\nc"
        assert got["strip-asterisks+drop-last-line"] == "a\nb"
        assert got["strip-asterisks+drop-first-last-lines"] == "b"

    def test_single_line_drops_to_empty(self):
        got = dict(loose_variants("only"))
        assert got["drop-first-line"] == ""
        assert got["drop-last-line"] == ""
        assert got["drop-first-last-lines"] == ""


class TestVerifyInstruction:
    def test_strict_pass_uses_identity(self):
        ins = instruction(["sentence# = 1"])
        verdict = verify_instruction(ins, "Short.")
        assert verdict.strict_pass and verdict.loose_pass
        assert verdict.loose_variant == "identity"

    def test_loose_only_pass_records_first_variant(self):
        ins = instruction(["line# = 1"])
        verdict = verify_instruction(ins, "A.\nB.")
        assert not verdict.strict_pass
        assert verdict.loose_pass
        assert verdict.loose_variant == "drop-first-line"

    def test_variants_must_satisfy_all_rules_jointly(self):
        ins = instruction(["line# = 1", 'answer contain "keep"'])
        verdict = verify_instruction(ins, "keep me\nnoise")
        assert not verdict.strict_pass
        assert verdict.loose_pass
        # drop-first-line passes the line rule but loses "keep"
        assert verdict.loose_variant == "drop-last-line"

    def test_total_failure(self):
        ins = instruction(["line# = 1"])
        verdict = verify_instruction(ins, "A.\nB.\nC.\nD.")
        assert not verdict.strict_pass
        assert verdict.loose_pass is False
        assert verdict.loose_variant is None

    def test_strict_only_skips_loose(self):
        ins = instruction(["line# = 1"])
        verdict = verify_instruction(ins, "A.\nB.", loose=False)
        assert verdict.loose_pass is None and verdict.loose_variant is None

    def test_rule_results_align_with_rules(self):
        ins = instruction(["sentence# = 1", 'answer startswith "S"'])
        verdict = verify_instruction(ins, "Short.")
        assert [ok for _, ok in verdict.rule_results] == [True, True]
        assert [r for r, _ in verdict.rule_results] == list(ins.rules)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["en", "zh"]))
def test_strict_implies_loose(seed, language):
    rng = random.Random(seed)
    rules = sample_rules(language, seed, 2)
    ins = build_instruction(stable_id(language, seed, 0), language, "p", tuple(rules))
    response = make_text(rng, language)
    verdict = verify_instruction(ins, response)
    if verdict.strict_pass:
        assert verdict.loose_pass and verdict.loose_variant == "identity"
    if verdict.loose_pass is False:
        assert not verdict.strict_pass


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["en", "zh"]))
def test_all_is_conjunction_of_indices(seed, language):
    """A depth-1 'every element' rule equals the AND of the index variants."""
    rng = random.Random(seed)
    text = make_text(rng, language)
    level = rng.choice(["paragraph", "line", "sentence", "word" if language == "en" else "punc"])
    rule = parse_rule(f'{level}@ contain "a"')
    from lexcheck.segment import segment as seg

    k = len(seg(text, Level(level), language))
    combined = verify_rule(rule, text, language)
    if k == 0:
        assert not combined
    else:
        singles = [
            verify_rule(parse_rule(f'{level}@{i} contain "a"'), text, language)
            for i in range(1, k + 1)
        ]
        assert combined == all(singles)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["en", "zh"]))
def test_refinement_never_grows_total_text(seed, language):
    rng = random.Random(seed)
    text = make_text(rng, language)
    rules = sample_rules(language, seed, 3, max_depth=3)
    for rule in rules:
        scope = Scope.initial(text, language)
        steps = rule.procedure
        if steps[-1].predicate.kind.value == "count":
            steps = steps[:-1]
        for step in steps:
            before = sum(len(s.text) for s in scope.segments)
            scope = refine_scope(scope, step)
            after = sum(len(s.text) for s in scope.segments)
            assert after <= before


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["en", "zh"]))
def test_engine_matches_brute_force_oracle(seed, language):
    rng = random.Random(seed)
    rules = sample_rules(language, seed, 4)
    for rule in rules:
        text = make_text(rng, language)
        assert verify_rule(rule, text, language) == brute_verify(rule, text, language)


# Rules that share a level chain and differ only in their pattern(/…/) step,
# so a split cache keyed without the pattern would hand one rule's matches
# to another.
_SHARED_LEVEL_RULES = {
    "en": (
        r"pattern(/[a-z]+/)# >= 40",
        r"pattern(/[0-9]/)# >= 3",
        r"pattern(/\*/)# = 0",
        r'pattern(/[a-z]+/)@1 startswith "h"',
        r'pattern(/[A-Z][a-z]+/)@1 startswith "T"',
        r"line@1.pattern(/[a-z]/)# >= 1",
        r"line@1.pattern(/\t/)# = 0",
        r"line@-1.pattern(/\r/)# = 0",
        r"paragraph@.pattern(/[\u3000\u00a0]/)# <= 2",
        r"paragraph@.pattern(/[，。！？]/)# <= 3",
        r"sentence@-1.word# >= 1",
        r"sentence@-1.punc# >= 1",
    ),
    "zh": (
        r"pattern(/[。！？]/)# >= 10",
        r"pattern(/[一-龥]/)# >= 200",
        r"pattern(/\*/)# = 0",
        r'pattern(/[一-龥]+/)@1 startswith "今"',
        r"line@1.pattern(/[，。]/)# >= 1",
        r"line@1.pattern(/\t/)# = 0",
        r"line@-1.pattern(/\r/)# = 0",
        r"paragraph@.pattern(/\u3000/)# <= 2",
        r"paragraph@.pattern(/\u00a0/)# <= 2",
        r"sentence@-1.character# >= 2",
        r"sentence@-1.punc# >= 1",
    ),
}
_MESSY_PIECES = ("\r\n", "\t", "\u00a0", "\u3000", "，", "。", "！", "？", "：", "（", "）", "～", "\r\n\r\n", "**")


def _long_messy_text(rng: random.Random, language: str) -> str:
    """2,000+ characters mixing make_text output with CRLF, tabs, NBSP,
    U+3000 and fullwidth punctuation."""
    pieces = list(_MESSY_PIECES) * 3
    rng.shuffle(pieces)
    parts: list[str] = []
    while pieces or sum(map(len, parts)) < 2000:
        parts.append(make_text(rng, language))
        parts.append(pieces.pop() if pieces else rng.choice(_MESSY_PIECES))
    return "".join(parts)


def _shared_level_cases():
    for language, rules in _SHARED_LEVEL_RULES.items():
        for seed in range(6):
            rng = random.Random(f"{language}:{seed}")
            chosen = rng.sample(rules, 4)
            yield language, chosen, _long_messy_text(rng, language)


def test_rules_sharing_a_level_match_the_oracle_strict_and_loose():
    outcomes = set()
    for language, rule_texts, response in _shared_level_cases():
        assert len(response) >= 2000
        ins = instruction(rule_texts, language)
        verdict = verify_instruction(ins, response)
        expected = [brute_verify(rule, response, language) for rule in ins.rules]
        assert [ok for _, ok in verdict.rule_results] == expected
        loose = next(
            (
                vid
                for vid, text in loose_variants(response)
                if all(brute_verify(rule, text, language) for rule in ins.rules)
            ),
            None,
        )
        assert verdict.loose_variant == loose
        assert verdict.loose_pass is (loose is not None)
        outcomes.add((verdict.strict_pass, verdict.loose_pass))
    # the cases must exercise strict passes, loose-only rescues and failures
    assert outcomes == {(True, True), (False, True), (False, False)}
