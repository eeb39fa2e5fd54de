"""Verification engine: refinement, target extraction, adjudication, loose pass.

The stage classes check each stage of the pipeline through `verify_rule`;
the refinement property and the split-cache checks at the end call the
private selector `_select` and `_Splits` directly.
"""

from __future__ import annotations

import functools
import gc
import random
import re
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from helpers import build_instruction, make_long_text, make_text, sample_rules, violations
from oracle import LOOSE_REWRITES, brute_loose_variant, brute_verify, split_level
from lexcheck import engine
from lexcheck.dsl import parse_rule
from lexcheck.engine import _select, _Splits, verify_instruction, verify_rule
from lexcheck.generate import stable_id
from lexcheck.rules import (
    Level,
    Predicate,
    PredicateKind,
    ProcedureStep,
    Relation,
    Rule,
    Violation,
    check_regex,
)
from lexcheck.segment import _chars, split

TEXT = "First one. Second one.\n\nLast bit."


def instruction(rule_texts: list[str], language: str = "en"):
    rules = tuple(parse_rule(t) for t in rule_texts)
    return build_instruction(stable_id(language, 0, 0), language, "p", rules)


def holds(rule_text: str, text: str, language: str = "en") -> bool:
    return verify_rule(parse_rule(rule_text), text, language)


class TestRefineScope:
    def test_index_selects_one_element(self):
        assert holds('paragraph@2 equal "Last bit."', TEXT)
        assert not holds('paragraph@2 contain "First"', TEXT)

    def test_all_fans_out_in_order(self):
        assert holds('paragraph@1.sentence@1 equal "First one."', TEXT)
        assert holds('paragraph@2.sentence@1 equal "Last bit."', TEXT)
        assert holds('paragraph@.sentence@1 endswith "."', TEXT)
        assert not holds('paragraph@.sentence@1 endswith " one."', TEXT)

    def test_out_of_range_index_contributes_nothing(self):
        assert not holds('paragraph@5 notcontain "zzz"', TEXT)
        assert not holds("paragraph@5.word# >= 0", TEXT)
        assert not holds('word!9 notcontain "zzz"', "a b c")
        assert not holds('word$9 notcontain "zzz"', "a b c")

    def test_last_element(self):
        assert holds('word@-1 equal "c"', "a b c")
        assert holds('paragraph@-1 equal "Last bit."', TEXT)
        assert not holds('word@-1 notcontain "zzz"', "")

    def test_before_keeps_raw_prefix(self):
        # the selected text is the raw prefix, separators and punctuation included
        assert holds('word!2 contain "a, "', "a, b, c")
        assert holds(r"word!2.pattern(/^a, $/)# = 1", "a, b, c")
        assert holds('word!3 notcontain "c"', "a, b, c")

    def test_after_keeps_raw_suffix(self):
        assert holds('word$2 equal " c"', "a, b, c")
        assert holds('word$1 equal " b"', "a, b")
        assert not holds('word$2 contain "b"', "a, b, c")

    def test_between_keeps_separators(self):
        assert holds(r"word%.pattern(/^ {1,2}$/)# = 1", "a  b c")
        assert not holds('word% equal " "', "a  b c")
        assert holds('word% equal "  "', "a  b  c")
        # word spans cover the raw token, so trailing commas are not separators
        assert holds('word% equal " "', "a, b, c")

    def test_count_step_refuses_to_refine(self):
        # a count step is only valid as the final step, so no rule can refine by one
        counting_first = (
            ProcedureStep(Level.PARAGRAPH, Predicate(PredicateKind.COUNT)),
            ProcedureStep(Level.WORD, Predicate(PredicateKind.INDEX, 1)),
        )
        assert violations(counting_first, Relation.EQUAL, "x") == [Violation.COUNT_NOT_TERMINAL]


class TestIdentifyTarget:
    def test_counts_per_segment(self):
        # the paragraphs of TEXT hold 2 and 1 sentences
        assert holds("paragraph@.sentence# >= 1", TEXT)
        assert holds("paragraph@.sentence# <= 2", TEXT)
        assert not holds("paragraph@.sentence# = 1", TEXT)
        assert not holds("paragraph@.sentence# = 2", TEXT)
        assert holds("paragraph@1.sentence# = 2", TEXT)
        assert holds("paragraph@2.sentence# = 1", TEXT)

    def test_texts_for_textual_terminal(self):
        # the terminal step selects the texts "a" and "b"
        assert holds('word@1 equal "a"', "a b")
        assert holds('word@2 equal "b"', "a b")
        assert not holds('word contain "a"', "a b")
        assert holds('word notcontain " "', "a b")

    def test_single_step_count_of_empty_answer_is_zero(self):
        levels = (
            "paragraph", "line", "bullet", "sentence", "word", "character", "letter", "punc", "pattern(/x/)",
        )
        for language in ("en", "zh"):
            for level in levels:
                assert holds(f"{level}# = 0", "", language)
                assert not holds(f"{level}# > 0", "", language)

    def test_deep_count_with_empty_scope_has_no_counts(self):
        # no second paragraph: no count at all, so even ">= 0" fails
        assert not holds("paragraph@2.sentence# >= 0", "one paragraph only.")
        assert not holds("paragraph@.sentence# >= 0", "")


class TestAdjudicate:
    def test_universal_over_counts(self):
        assert holds("paragraph@.sentence# = 2", "A. B.\n\nC. D.")
        assert not holds("paragraph@.sentence# = 2", "A. B.\n\nC. D. E.")

    def test_universal_over_texts(self):
        assert holds('word@ startswith "a"', "ab ac")
        assert not holds('word@ startswith "a"', "ab cb")

    def test_empty_targets_fail(self):
        assert not holds("paragraph@3.word# = 0", TEXT)
        assert not holds('sentence@5 notcontain "x"', TEXT)
        assert not holds('word% equal " "', "single")
        assert not holds('word notcontain "x"', "")

    def test_negated_relations(self):
        assert holds('answer notstartswith "b"', "abc")
        assert holds('answer notendswith "b"', "abc")
        assert holds('answer notcontain "z"', "abc")
        assert not holds('answer notstartswith "a"', "abc")
        assert not holds('answer notendswith "c"', "abc")
        assert not holds('answer notcontain "b"', "abc")


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
        # an invalid rule never reaches verify_rule: building it raises
        bad = (ProcedureStep(Level.WORD, Predicate(PredicateKind.INDEX, 1)),)
        assert violations(bad, Relation.EQ, 3) == [Violation.NUMERIC_WITHOUT_COUNT]

    def test_unknown_language_rejected(self):
        with pytest.raises(ValueError, match="unknown language"):
            verify_rule(parse_rule("sentence# = 1"), "text", "fr")

    def test_between_on_lines(self):
        assert verify_rule(parse_rule('line% equal "\\n"'), "a\nb\nc")
        assert not verify_rule(parse_rule('line% equal "\\n"'), "a\n\nb")

    def test_regex_nested_near_the_limit_is_not_compiled_again_deeper_down(self):
        def nest(depth: int) -> str:
            return f"pattern(/{'(' * depth}a{')' * depth}/)# = 1"

        # find the deepest group nest that compiles from here: compiling it
        # again from a deeper stack would overflow
        low, high = 1, 2_000
        while low < high:
            mid = (low + high + 1) // 2
            try:
                parse_rule(nest(mid))
                low = mid
            except ValueError:
                high = mid - 1
        rule = parse_rule(nest(low))

        def down(frames: int) -> bool:
            return verify_rule(rule, "a") if frames == 0 else down(frames - 1)

        re.purge()  # drop re's own cache of the compiled pattern
        assert down(30)


def _variants(text: str) -> list[tuple[str, str]]:
    """(id, rewrite) for each relaxed rewrite of `text`, in search order."""
    return [(vid, base[a:b]) for vid, base, a, b in engine._rewrites(text, text.replace("*", ""))]


class TestLooseVariants:
    def test_ids_fixed_and_ordered(self):
        variants = _variants("a\nb")
        assert [vid for vid, _ in variants] == [vid for vid, *_ in LOOSE_REWRITES]
        assert len(variants) == 8

    def test_rewrites(self):
        got = dict(_variants("*a*\nb\nc"))
        assert got["identity"] == "*a*\nb\nc"
        assert got["strip-asterisks"] == "a\nb\nc"
        assert got["drop-first-line"] == "b\nc"
        assert got["drop-last-line"] == "*a*\nb"
        assert got["drop-first-last-lines"] == "b"
        assert got["strip-asterisks+drop-first-line"] == "b\nc"
        assert got["strip-asterisks+drop-last-line"] == "a\nb"
        assert got["strip-asterisks+drop-first-last-lines"] == "b"

    def test_single_line_drops_to_empty(self):
        got = dict(_variants("only"))
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
    k = len(split(text, Level(level), language))
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
    splits = _Splits(language)
    for rule in rules:
        texts = [text]
        steps = rule.procedure
        if steps[-1].predicate.kind is PredicateKind.COUNT:
            steps = steps[:-1]
        for step in steps:
            before = sum(map(len, texts))
            texts = [t for text in texts for t in _select(step, splits, rule.value, text)]
            assert sum(map(len, texts)) <= before


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["en", "zh"]))
def test_engine_matches_brute_force_oracle(seed, language):
    rng = random.Random(seed)
    rules = sample_rules(language, seed, 4)
    for rule in rules:
        text = make_text(rng, language)
        assert verify_rule(rule, text, language) == brute_verify(rule, text, language)


# Pieces of hostile text: Unicode line and space characters that str.split
# and str.isspace treat differently (the separators \x1c-\x1f, \u2028 and
# \u2029 are whitespace but not line ends here), fullwidth punctuation,
# mixed en/zh words, abbreviations, list markers followed by odd whitespace
# and markdown emphasis.
_HOSTILE_PIECES = (
    "\r", "\n", "\r\n", "\n\n", "\t", " ", "  ", "\u00a0", "\u3000", "\u0085", "\x0b", "\x0c",
    "\x1c", "\x1f", "\u2028", "\u2029",
    "，", "。", "！", "？", "：", "；", "（", "）", "～", "……", ".", "!", "?", "...", ",",
    "e.g.", "Dr.", "etc.\n", "*", "**", "- ", "-\t", "1. ", "2)\x0b", "The", "fox", "a", "data-set", "42",
    "Smith", "今天", "天气很好", "山水", "我们", "例如",
)


def _hostile_text(seed: int, length: int, pieces: tuple[str, ...] = _HOSTILE_PIECES) -> str:
    rng = random.Random(seed)
    parts: list[str] = []
    size = 0
    while size < length:
        parts.append(rng.choice(pieces))
        size += len(parts[-1])
    return "".join(parts)[:length]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2000), st.sampled_from(["en", "zh"]))
def test_split_matches_oracle_on_hostile_text(seed, length, language):
    text = _hostile_text(seed, length)
    for level in Level:
        if level is not Level.PATTERN:
            assert split(text, level, language) == split_level(text, level, language, None), level


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2000), st.sampled_from(["en", "zh"]))
def test_engine_matches_oracle_on_hostile_text(seed, length, language):
    text = _hostile_text(seed, length)
    for rule in sample_rules(language, seed, 4):
        assert verify_rule(rule, text, language) == brute_verify(rule, text, language), rule


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


def _shared_level_cases():
    for language, rules in _SHARED_LEVEL_RULES.items():
        for seed in range(6):
            rng = random.Random(f"{language}:{seed}")
            chosen = rng.sample(rules, 4)
            yield language, chosen, make_long_text(rng, language)


def test_rules_sharing_a_level_match_the_oracle_strict_and_loose():
    outcomes = set()
    for language, rule_texts, response in _shared_level_cases():
        assert len(response) >= 2000
        ins = instruction(rule_texts, language)
        verdict = verify_instruction(ins, response)
        expected = [brute_verify(rule, response, language) for rule in ins.rules]
        assert [ok for _, ok in verdict.rule_results] == expected
        loose = brute_loose_variant(ins.rules, response, language)
        assert verdict.loose_variant == loose
        assert verdict.loose_pass is (loose is not None)
        outcomes.add((verdict.strict_pass, verdict.loose_pass))
    # the cases must exercise strict passes, loose-only rescues and failures
    assert outcomes == {(True, True), (False, True), (False, False)}


# Hostile-text shapes for the relaxed pass: asterisk-heavy text exercises the
# stripped rewrites, many-line text the line drops.
_LOOSE_SHAPES = {
    "plain": _HOSTILE_PIECES,
    "asterisks": _HOSTILE_PIECES + ("*",) * 8 + ("**",) * 6 + ("***", "*a*", "**The fox**"),
    "lines": _HOSTILE_PIECES + ("\n",) * 10 + ("\n\n", "\r\n", "- ", "1. ") * 3,
}
# (seed, length, shape, language) of one hostile text
_LOOSE_CASES = (
    st.integers(0, 2**32 - 1),
    st.integers(0, 12_000),
    st.sampled_from(sorted(_LOOSE_SHAPES)),
    st.sampled_from(["en", "zh"]),
)
# Rules that one rewrite can satisfy and another not, so the search stops at
# different rewrites.
_LOOSE_SENSITIVE_RULES = {
    "en": (
        r"pattern(/\*/)# = 0",
        "line# <= 12",
        "line@1.word# <= 3",
        "line@-1.word# <= 3",
        'answer notstartswith "*"',
        'answer notendswith "*"',
        'word@1 notcontain "a"',
        "paragraph@1.word# >= 2",
    ),
    "zh": (
        r"pattern(/\*/)# = 0",
        "line# <= 12",
        "line@1.character# <= 4",
        "line@-1.character# <= 4",
        'answer notstartswith "*"',
        'answer notendswith "*"',
        "sentence@1.character# >= 2",
        "paragraph@-1.punc# >= 1",
    ),
}


@settings(max_examples=30, deadline=None)
@given(*_LOOSE_CASES)
def test_loose_pass_matches_oracle_on_hostile_text(seed, length, shape, language):
    text = _hostile_text(seed, length, _LOOSE_SHAPES[shape])
    rng = random.Random(seed)
    rule_texts = rng.sample(_LOOSE_SENSITIVE_RULES[language], rng.randint(1, 3))
    rules = tuple(parse_rule(t) for t in rule_texts) + tuple(sample_rules(language, seed, rng.randint(0, 2)))
    verdict = verify_instruction(build_instruction("x", language, "p", rules), text)
    expected = brute_loose_variant(rules, text, language)
    assert verdict.loose_variant == expected, rules
    assert verdict.loose_pass is (expected is not None)


# Hand cases: on a drop-line rewrite a `line@-1` rule, checked first,
# derives the cut's lines from its base's, with a nonzero shift, and a
# `line!n`, `line%` or `line$n` rule then reads them.  Each case gives the
# rules, the response and the loose variant that passes.
_SHIFTED_READ_CASES = (
    (('line@-1 equal "**end**"', 'line!2 notcontain "*"'), "*a\nb\n**end**", "drop-first-line"),
    (('line@-1 equal "end"', 'line% equal "\\n"'), "*a\n\nb\nc\n**end**", "strip-asterisks+drop-first-line"),
    (
        ('line@-1 equal "**end**"', 'line$1 contain "end"', 'word@1 notcontain "a"'),
        "*a\nb\n**end**",
        "drop-first-line",
    ),
)


@pytest.mark.parametrize("rule_texts, text, variant", _SHIFTED_READ_CASES)
def test_loose_pass_reads_shifted_lines_as_the_oracle(rule_texts, text, variant):
    rules = tuple(parse_rule(t) for t in rule_texts)
    verdict = verify_instruction(build_instruction("x", "en", "p", rules), text)
    assert brute_loose_variant(rules, text, "en") == verdict.loose_variant == variant


# Every level but the regex one: a drop-line rewrite's split is derived from
# its base's at all of them but `answer`.
_PLAIN_LEVELS = tuple(level for level in Level if level is not Level.PATTERN)
# The short texts probe the empty and one-line cases.  Each longer one has
# three or more sentences or paragraphs inside a cut, and an element next to
# each end of the cut that the cut changes: a sentence cut through, or a
# paragraph whose break the cut shortens.  So it fails when the first or the
# last element inside a cut is kept instead of split again.
_EDGE_TEXTS = (
    "", "\n", "a", "a\n", "\na", "\n\n", "a\r\nb\r\n", "- no\nasterisks here.\n1. 今天", "*", "***\n**\n*",
    "Intro\nstill one sentence. Two. Three. Four\nends here.",
    "A\n\nB\n\nC\n\nD",
    # a cut next to a 3-newline break keeps every paragraph span, so here
    # sentences straddle the cuts
    "A. a\n\n\nB. C. D. E\n\n\nF. f",
    "See\ne.g. one. Two. Three. Four. Dr.\nWho is it.",
    "前言\n还是一句。二。三。四\n结束。",
    "Intro\r\n\u00a0still one. Two. Three. Four\r\n\u00a0end.",
    "\u3000A\n\n\u3000B\n\n\u3000C\n\n\u3000D",
    "前言\r\n\u3000还是一句。二。三。四\r\n\u3000结束。",
)


def _rewrite_splits(text: str, language: str) -> dict:
    """The split cache `_verdict` builds when every rewrite fails."""
    made = []

    def recording(lang):
        made.append(real(lang))
        return made[-1]

    real = engine._Splits
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_Splits", recording)
        verdict = engine._verdict((parse_rule("line# < 0"),), text, language, True)
    assert verdict.loose_pass is False
    return made[0]


def _positions(entry: list) -> list:
    """A cache entry's elements mapped back to spans in its own text."""
    elements, _, shift = entry
    return [(content, start - shift, end - shift) for content, start, end in elements]


def _check_derived_splits(text: str, language: str) -> None:
    splits = _rewrite_splits(text, language)
    variants = dict(_variants(text))
    bases = {text, variants["strip-asterisks"]}
    drops = {t for vid, t in variants.items() if "drop" in vid}
    # every drop-line rewrite not equal to a base is derived from its base
    assert drops - bases <= set(splits.cuts)
    for rewrite in set(variants.values()):
        for level in _PLAIN_LEVELS:
            assert _positions(splits.whole(rewrite, level, None)) == split(rewrite, level, language), (rewrite, level)


@pytest.mark.parametrize("language", ["en", "zh"])
@pytest.mark.parametrize("text", _EDGE_TEXTS)
def test_derived_splits_equal_full_splits_on_edge_texts(text, language):
    _check_derived_splits(text, language)


@settings(max_examples=25, deadline=None)
@given(*_LOOSE_CASES)
def test_derived_splits_equal_full_splits_on_hostile_text(seed, length, shape, language):
    _check_derived_splits(_hostile_text(seed, length, _LOOSE_SHAPES[shape]), language)


# The non-count predicates that read element spans: first, last, all,
# before and after the first and second element, and between.
_SPAN_PREDICATES = (
    Predicate(PredicateKind.INDEX, 1),
    Predicate(PredicateKind.INDEX, -1),
    Predicate(PredicateKind.ALL),
    Predicate(PredicateKind.BEFORE, 1),
    Predicate(PredicateKind.BEFORE, 2),
    Predicate(PredicateKind.AFTER, 1),
    Predicate(PredicateKind.AFTER, 2),
    Predicate(PredicateKind.BETWEEN),
)


# Each span predicate with a value it ignores, and a count (`#`) with the
# values whose + 1 bounds its read.
_OBSERVING = tuple((predicate, "") for predicate in _SPAN_PREDICATES) + tuple(
    (Predicate(PredicateKind.COUNT), value) for value in (0, 1, 3)
)


def _check_shifted_refine(text: str, language: str) -> None:
    """Every rewrite refines the same, and counts the same, through the cache
    `_verdict` built, derived splits and shifts included, as through a fresh
    cache."""
    splits = _rewrite_splits(text, language)
    for cut in list(splits.cuts):  # derive every cut's splits, with their shift
        for level in _PLAIN_LEVELS:
            splits.whole(cut, level, None)
    fresh = _Splits(language)
    for rewrite in {t for _, t in _variants(text)}:
        for level in _PLAIN_LEVELS:
            for predicate, value in _OBSERVING:
                step = ProcedureStep(level, predicate)
                built = list(_select(step, splits, value, rewrite))
                assert built == list(_select(step, fresh, value, rewrite)), (rewrite, step, value)


@pytest.mark.parametrize("language", ["en", "zh"])
@pytest.mark.parametrize("text", _EDGE_TEXTS)
def test_refine_reads_shifted_splits_on_edge_texts(text, language):
    _check_shifted_refine(text, language)


@settings(max_examples=25, deadline=None)
@given(*_LOOSE_CASES)
def test_refine_reads_shifted_splits_on_hostile_text(seed, length, shape, language):
    _check_shifted_refine(_hostile_text(seed, length, _LOOSE_SHAPES[shape]), language)


def test_drop_first_cut_shares_the_base_elements():
    text = "Intro line here.\nThe quick brown fox.\nJumps over it.\nOutro line."
    splits = _rewrite_splits(text, "en")
    rewrite = dict(_variants(text))["drop-first-line"]
    base, a, b = splits.cuts[rewrite]
    assert base == text and a > 0
    elements, rest, shift = splits.whole(rewrite, Level.WORD, None)
    base_elements, _, _ = splits.whole(base, Level.WORD, None)
    inside = [el for el in base_elements if a <= el[1] and el[2] <= b]
    assert rest is None and shift == a and len(elements) == len(inside) >= 8
    # the cut holds the base's own tuples, not shifted copies
    assert all(el is base_el for el, base_el in zip(elements, inside))


# Each level once, and the regex level with a pattern that matches within
# words, one that spans whitespace and one anchored at line starts.
_LEVEL_PATTERNS = tuple((level, None) for level in _PLAIN_LEVELS) + tuple(
    (Level.PATTERN, source) for source in (r"[0-9]+", r"\w+\s", r"(?m)^\S")
)


def _check_prefix_reads(text: str, language: str, ordinals: list[int]) -> None:
    """Prefix reads of the response and of every rewrite equal the full
    split's first elements, and an unfinished entry holds exactly the most
    elements read so far; a whole read afterwards equals one full split.
    The cuts are read before their bases, after prefix reads of their
    bases, and after their bases are complete; a prefix read splits each
    cut on its own, and a whole read finishes that split (shift 0, the same
    list) instead of deriving one."""
    for first in ("cuts", "base prefixes", "bases"):
        splits = _Splits(language)
        texts = [text]
        for _, base, a, b in engine._rewrites(text, text.replace("*", "")):
            rewrite = base[a:b]
            if rewrite not in texts:
                texts.append(rewrite)
                if (a, b) != (0, len(base)):
                    splits.cuts[rewrite] = (base, a, b)
        bases = [t for t in texts if t not in splits.cuts]
        for level, source in _LEVEL_PATTERNS:
            regex = None if source is None else check_regex(source)
            for base in bases:
                if first == "base prefixes":
                    splits.upto(base, level, regex, ordinals[0])
                elif first == "bases":
                    splits.whole(base, level, regex)
            made = {}
            for rewrite in [*splits.cuts, *bases]:
                full = split(rewrite, level, language, source)
                key = rewrite, level, regex
                most = 0
                for n in ordinals:
                    most = max(most, n)
                    entry = splits.upto(rewrite, level, regex, n)
                    elements, rest, shift = entry
                    assert _positions((elements[:n], rest, shift)) == full[:n], (rewrite, level, n)
                    assert splits[key] is entry and made.setdefault(key, elements) is elements, (rewrite, level, n)
                    if rest is not None:
                        assert len(elements) == most, (rewrite, level, n)
            for rewrite in texts:
                key = rewrite, level, regex
                entry = splits.whole(*key)
                assert _positions(entry) == split(rewrite, level, language, source), (rewrite, level)
                assert entry[0] is made[key] and entry[1:] == [None, 0], (rewrite, level)


_ORDINALS = st.lists(st.integers(1, 40) | st.just(sys.maxsize + 1), min_size=1, max_size=4)


@pytest.mark.parametrize("language", ["en", "zh"])
@pytest.mark.parametrize("text", _EDGE_TEXTS)
def test_prefix_reads_equal_full_split_prefixes_on_edge_texts(text, language):
    _check_prefix_reads(text, language, [1, 2, 3, 1, 4])


@settings(max_examples=40, deadline=None)
@given(*_LOOSE_CASES, _ORDINALS)
def test_prefix_reads_equal_full_split_prefixes_on_hostile_text(seed, length, shape, language, ordinals):
    _check_prefix_reads(_hostile_text(seed, length % 3000, _LOOSE_SHAPES[shape]), language, ordinals)


@pytest.mark.parametrize(
    "rule_text",
    [
        'word@99999999999999999999999 equal "x"',
        'word!99999999999999999999999 contain "x"',
        'word$99999999999999999999999 contain "x"',
    ],
)
def test_ordinals_beyond_sys_maxsize_select_nothing(rule_text):
    rule = parse_rule(rule_text)
    assert rule.procedure[-1].predicate.n > sys.maxsize
    assert not verify_rule(rule, "x x x", "en")
    verdict = verify_instruction(build_instruction("x", "en", "p", (rule,)), "x\nx x\nx")
    assert (verdict.strict_pass, verdict.loose_pass) == (False, False)


def test_verdict_leaves_no_reference_cycles():
    text = "\n".join(make_long_text(random.Random(seed), "en") for seed in range(3))
    rules = tuple(parse_rule(t) for t in ("line# < 0", "word# < 0", 'paragraph@.sentence@1 contain "The"'))
    assert "The" in text  # a value the response lacks would refuse the relaxed search
    engine._verdict(rules, text, "en", True)  # compile and cache the regexes first
    gc.collect()
    gc.disable()
    try:
        verdict = engine._verdict(rules, text, "en", True)
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert verdict.loose_pass is False
    assert unreachable == 0


# The single-character levels, whose contents the engine reads from one
# string (`segment._chars`) where a step needs no spans.
_ONE_CHAR_LEVELS = (Level.CHARACTER, Level.LETTER, Level.PUNC)
# Hostile pieces plus what the punctuation class must keep or leave out: `_`
# (connector punctuation, yet a word character), dashes, quotes and marks,
# symbols that are not punctuation, and CJK at the ends of its ranges.
_ONE_CHAR_EXTRA = ("_", "__init__", "a_b", "—", "«", "»", "‘", "’", "¿", "、", "・", "$", "+", "〇", "é", "㐀", "鿿", "䶿")


def _check_joined_contents(text: str, language: str) -> None:
    """Each rewrite's string form at these levels is its split's contents,
    made in full or, for a drop-line cut, from its base's."""
    splits = _rewrite_splits(text, language)
    for rewrite in {t for _, t in _variants(text)}:
        for level in _ONE_CHAR_LEVELS:
            expected = "".join(el[0] for el in split(rewrite, level, language))
            assert _chars(rewrite, level) == expected, (rewrite, level)
            assert splits.chars(rewrite, level) == expected, (rewrite, level)


@pytest.mark.parametrize("language", ["en", "zh"])
@pytest.mark.parametrize("text", _EDGE_TEXTS)
def test_joined_contents_equal_split_contents_on_edge_texts(text, language):
    _check_joined_contents(text, language)


@settings(max_examples=40, deadline=None)
@given(*_LOOSE_CASES)
def test_joined_contents_equal_split_contents_on_hostile_text(seed, length, shape, language):
    _check_joined_contents(_hostile_text(seed, length, _LOOSE_SHAPES[shape] + _ONE_CHAR_EXTRA), language)


# Every predicate kind that selects texts: the span predicates and an
# ordinal past the first two.  A count (`#`) compares numbers, never texts.
_EVERY_PREDICATE = _SPAN_PREDICATES + (Predicate(PredicateKind.INDEX, 3),)


def _check_selections_are_substrings(text: str, language: str) -> None:
    """Every text `_select` yields is a substring of its input, and every
    character of `_chars` occurs in its text: the ground of
    `engine._NEEDS_VALUE`.  Each rewrite is read through the cache `_verdict`
    built, derived and shifted splits included, and through a fresh one."""
    built = _rewrite_splits(text, language)
    for rewrite in {t for _, t in _variants(text)}:
        for level in _ONE_CHAR_LEVELS:
            assert set(_chars(rewrite, level)) <= set(rewrite), (rewrite, level)
        for splits in (built, _Splits(language)):
            for level, source in _LEVEL_PATTERNS:
                for predicate in _EVERY_PREDICATE:
                    step = ProcedureStep(level, predicate, source)
                    for selected in _select(step, splits, "", rewrite):
                        assert selected in rewrite, (rewrite, step, selected)


@pytest.mark.parametrize("language", ["en", "zh"])
@pytest.mark.parametrize("text", _EDGE_TEXTS)
def test_selections_are_substrings_on_edge_texts(text, language):
    _check_selections_are_substrings(text, language)


@settings(max_examples=25, deadline=None)
@given(*_LOOSE_CASES)
def test_selections_are_substrings_on_hostile_text(seed, length, shape, language):
    text = _hostile_text(seed, length % 3000, _LOOSE_SHAPES[shape] + _ONE_CHAR_EXTRA)
    _check_selections_are_substrings(text, language)


def test_a_search_no_rewrite_can_pass_is_not_run():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_rewrites", None)  # a search would call it and raise
        verdict = verify_instruction(instruction(['answer contain "zqx"', "line# = 1"]), "a\nb")
    assert [ok for _, ok in verdict.rule_results] == [False, False]
    assert (verdict.strict_pass, verdict.loose_pass, verdict.loose_variant) == (False, False, None)
    # a value found only in the asterisk-stripped copy, or only in the
    # response, leaves the search to run
    assert verify_instruction(instruction(['answer contain "model"']), "mo*del").loose_variant == "strip-asterisks"
    assert verify_instruction(instruction(['line@1 equal "*"', "line# = 1"]), "*\nb").loose_variant == "drop-last-line"


# Text rules for the differential test of `engine._NEEDS_VALUE`: each scope
# with the relations its terminal admits.
_VALUE_RULES = (
    "answer {rel} {v}",
    "line@1 {rel} {v}",
    "line@-1 {rel} {v}",
    "line@ {rel} {v}",
    "paragraph@-1 {rel} {v}",
    "sentence@1 {rel} {v}",
    "word@ {rel} {v}",
    "pattern(/\\S+/)@2 {rel} {v}",
)
_VALUE_RELATIONS = ("contain", "equal", "startswith", "endswith", "notcontain", "notstartswith")
# Values that occur nowhere, only in the first line (`qhead`), only in the
# last (`qtail`), only in the asterisk-stripped copy (`model`, as the
# response holds `mo*del`), or that hold `*` (so occur in no stripped
# rewrite); and values the hostile text may hold.
_VALUES = ("zqx", "qhead", "qtail", "model", "mo*del", "*", "**", "a", "The", "\n")


@settings(max_examples=40, deadline=None)
@given(*_LOOSE_CASES)
def test_value_shortcut_changes_no_verdict_on_hostile_text(seed, length, shape, language):
    rng = random.Random(seed)
    middle = _hostile_text(seed, length % 3000, _LOOSE_SHAPES[shape])
    cut = rng.randint(0, len(middle))
    response = f"qhead {middle[:cut]} mo*del {middle[cut:]}\nqtail"
    candidates = [
        parse_rule(form.format(rel=rel, v=_quoted(value)))
        for form in _VALUE_RULES
        for rel in _VALUE_RELATIONS
        for value in _VALUES
    ] + [parse_rule(t) for t in ("line# <= 3", "line# >= 2", "word# >= 1")]
    for _ in range(8):
        chosen = tuple(rng.sample(candidates, rng.randint(1, 3)))
        ins = build_instruction("x", language, "p", chosen)
        verdict = verify_instruction(ins, response)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "_NEEDS_VALUE", frozenset())
            assert verdict == verify_instruction(ins, response), chosen


# Steps before a single-character terminal: none, one element, the last
# one, and every one (so the terminal sees several texts).
_ONE_CHAR_SCOPES = ("", "line@1.", "sentence@-1.", "paragraph@.", "word@2.")


def _quoted(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _one_char_rules(rng: random.Random, text: str) -> list:
    """Rules ending in `#`, `@`, `@1`, `@k` past the count and `@-1` at each
    single-character level, under each scope, with values drawn from the
    text so that both verdicts occur."""
    rules = []
    for level in _ONE_CHAR_LEVELS:
        seen = _chars(text, level) or "x"
        first, last = _quoted(seen[0]), _quoted(seen[-1])
        any_ = _quoted(rng.choice(seen))
        for scope in _ONE_CHAR_SCOPES:
            at = scope + level.value
            rules += [
                f"{at}# {rng.choice(('>=', '<', '=', '!='))} {rng.choice((0, 1, 3, len(seen)))}",
                f"{at}@ {rng.choice(('equal', 'notcontain'))} {rng.choice((first, any_))}",
                f"{at}@1 equal {rng.choice((first, any_))}",
                f"{at}@{len(seen) + rng.randint(1, 3)} notcontain {any_}",
                f"{at}@-1 {rng.choice(('equal', 'endswith'))} {rng.choice((last, any_))}",
                f"{at}@.pattern(/[a-z，_]/)# >= 1",
            ]
    return [parse_rule(r) for r in rules]


def _check_one_char_rules(seed: int, text: str, language: str) -> None:
    rng = random.Random(seed)
    rules = _one_char_rules(rng, text)
    for rule in rules:
        assert verify_rule(rule, text, language) == brute_verify(rule, text, language), rule
    for _ in range(4):
        chosen = tuple(rng.sample(rules, rng.randint(1, 3)))
        verdict = verify_instruction(build_instruction("x", language, "p", chosen), text)
        assert verdict.loose_variant == brute_loose_variant(chosen, text, language), chosen


@pytest.mark.parametrize("language", ["en", "zh"])
@pytest.mark.parametrize("text", _EDGE_TEXTS)
def test_single_character_rules_match_the_oracle_on_edge_texts(text, language):
    _check_one_char_rules(len(text), text, language)


@settings(max_examples=40, deadline=None)
@given(*_LOOSE_CASES)
def test_single_character_rules_match_the_oracle_on_hostile_text(seed, length, shape, language):
    text = _hostile_text(seed, length % 3000, _LOOSE_SHAPES[shape] + _ONE_CHAR_EXTRA)
    _check_one_char_rules(seed, text, language)


@functools.cache
def _megabyte_response() -> str:
    """A 1 MB response of long en and zh answers, alternating."""
    rng = random.Random(20261018)
    parts: list[str] = []
    while sum(map(len, parts)) < 1_000_000:
        parts.append(make_long_text(rng, ("en", "zh")[len(parts) % 2]))
    return "".join(parts)[:1_000_000]


def _peak_bytes_per_char(rule_texts: tuple[str, ...]) -> dict[str, float]:
    """The peak memory `verify_rule` allocates for each rule on the 1 MB
    response, in bytes per response character."""
    text = _megabyte_response()
    rules = [parse_rule(t) for t in rule_texts]
    for rule in rules:
        verify_rule(rule, "a，b汉", "zh")  # fill caches the measurement should not count
    peaks = {}
    tracemalloc.start()
    try:
        for rule_text, rule in zip(rule_texts, rules):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            verify_rule(rule, text, "zh")
            peaks[rule_text] = (tracemalloc.get_traced_memory()[1] - before) / len(text)
    finally:
        tracemalloc.stop()
    return peaks


def test_single_character_levels_use_bounded_memory_per_character():
    """A count, a last element and an ordinal at these levels allocate at
    most 16 bytes per response character at peak: no tuple per element."""
    rule_texts = ("letter# > 5", "character# > 5", "punc# > 5", 'letter@-1 equal "x"', 'punc@3 equal ","')
    for rule_text, per_char in _peak_bytes_per_char(rule_texts).items():
        assert per_char <= 16, (rule_text, per_char)


def test_prefix_reads_split_only_as_far_as_they_read():
    """`@n`, `!n` and `$n` make only the first n elements: at most 1 byte
    per response character at peak, where a full split made one tuple per
    element.  `line$1` also copies the text after the first line, which
    takes up to 2 bytes per character in a string of CJK text."""
    bounds = {
        'word@1 equal "x"': 1,
        'sentence!2 contain "x"': 1,
        'paragraph@2 equal "x"': 1,
        'bullet@1 equal "x"': 1,
        'pattern(/[0-9]+/)@1 equal "x"': 1,
        'punc!3 contain ","': 1,
        'line$1 contain "x"': 4,
    }
    for rule_text, per_char in _peak_bytes_per_char(tuple(bounds)).items():
        assert per_char <= bounds[rule_text], (rule_text, per_char)


def test_early_decisions_split_only_as_far_as_they_read():
    """A rule is decided at its first failing value, and a count reads at
    most value + 1 elements: each of these fails at its first selected text
    or passes after a few elements, so it peaks at 1 byte per response
    character at most, where every selected text or full count made one
    tuple per element."""
    rule_texts = (
        'word@ equal "x"',
        'sentence% equal "x"',
        'line@.word@ equal "x"',
        "word# > 5",
        "sentence# > 5",
        "pattern(/[0-9]+/)# > 2",
        "paragraph@.sentence# < 2",
    )
    for rule_text, per_char in _peak_bytes_per_char(rule_texts).items():
        assert per_char <= 1, (rule_text, per_char)


# The six numerical relations by their rule symbol.
_COUNT_RELATIONS = {
    "=": int.__eq__,
    "!=": int.__ne__,
    ">": int.__gt__,
    ">=": int.__ge__,
    "<": int.__lt__,
    "<=": int.__le__,
}
# The count levels whose elements are tuples; each regex matches once per
# element of _counted_text.
_TUPLE_COUNT_LEVELS = (
    "paragraph",
    "line",
    "bullet",
    "sentence",
    "word",
    "pattern(/[a-z]+/)",
    "pattern(/\\./)",
    "pattern(/(?m)^-/)",
)


def _counted_text(stems: list[str], gap: int) -> str:
    """One element per stem at every level of _TUPLE_COUNT_LEVELS: each stem
    is a paragraph of one line, a bullet, a sentence and a word."""
    return ("\n" * gap).join(f"- x{stem}." for stem in stems)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.text("abcdefghijklmnopqrstuvwxyz", max_size=4), max_size=10), st.integers(2, 3))
def test_capped_counts_decide_as_full_counts_at_their_edges(stems, gap):
    """`#` reads at most value + 1 elements: with exactly c elements, every
    relation at values c - 1, c and c + 1 (and below, where a prefix read
    leaves more than value + 1 made) decides as the full count does and as
    the oracle does, whether a longer prefix read of the same key came
    first or a full read comes after."""
    text = _counted_text(stems, gap)
    c = len(stems)
    for level in _TUPLE_COUNT_LEVELS:
        step = parse_rule(f"{level}# = 0").procedure[-1]
        elements = split(text, step.level, "en", step.pattern)
        assert len(elements) == c, (level, elements)
        key = text, step.level, step.regex
        for v in range(max(c - 3, 0), c + 2):
            for symbol, compare in _COUNT_RELATIONS.items():
                rule = parse_rule(f"{level}# {symbol} {v}")
                expected = compare(c, v)
                assert brute_verify(rule, text, "en") == expected, rule
                # a prefix read of all c first: an unfinished entry, longer
                # than value + 1 where v + 1 < c, which the count reads
                splits = _Splits("en")
                assert splits.upto(*key, c)[1] is not None
                assert engine._holds(rule, text, splits) == expected, rule
                # the capped count first, then a full read of the same key
                splits = _Splits("en")
                assert engine._holds(rule, text, splits) == expected, rule
                if c > v:  # v + 1 made, and the end of the split not seen
                    assert len(splits[key][0]) == v + 1 and splits[key][1] is not None, rule
                assert splits.whole(*key) == [elements, None, 0], rule
                assert engine._holds(rule, text, splits) == expected, rule


# How many copies of one unit the work test's responses are made of.
_WORK_COPIES = (1, 2, 4, 8)
# Per doubling of the text, the most its counted work may grow by.  The
# response is k copies of one unit, so a rule walked the same way at every
# k costs a*k + b in a linear engine, for fixed a and b: the work added by
# a doubling is exactly twice the work added by the one before.  A sum of
# such costs grows by at most 2 per doubling while the b's sum to 0 or
# more, as they do here: many rules stop at a fixed element, so their cost
# is all b.  A quadratic term grows by 4 per doubling; once it is an eighth
# of the work, a doubling grows the work by more than 2.25.
_WORK_GROWTH = 2.25


def _grid_rules() -> list:
    from test_rule_grid import CASES, VALUES, expected_codes, grid_steps

    return [
        Rule(grid_steps(kind), Relation(relation), VALUES[vtype])
        for kind, relation, vtype in CASES
        if not expected_codes(kind, relation, VALUES[vtype])
    ]


def test_verdict_work_grows_linearly_with_the_text(monkeypatch):
    """For the rule grid and sampled rules, `_verdict` with the loose search
    on k = 1, 2, 4 and 8 copies of a hostile unit (en and zh; plain,
    asterisk-heavy and many-line) makes elements, scans characters and
    calls `_select` in a count linear in k: per doubling, the total over
    all rules grows by at most `_WORK_GROWTH`, and so does the work each
    doubling adds for a rule whose verdict is the same at every k (a
    changed verdict may walk another way, a fixed amount more).  The work
    is one running total of the elements the splitters make, the characters
    `_chars` scans and the `_select` calls."""
    work = [0]

    def counted(splitter):
        def splits(text, language, regex):
            for element in splitter(text, language, regex):
                work[0] += 1
                yield element

        return splits

    # engine reads segment's own table, so one patch serves both modules
    for level, splitter in list(engine._SPLITTERS.items()):
        monkeypatch.setitem(engine._SPLITTERS, level, counted(splitter))
    chars, select = engine._chars, engine._select

    def counted_chars(text, level):
        work[0] += len(text)
        return chars(text, level)

    def counted_select(*args):
        work[0] += 1
        return select(*args)

    monkeypatch.setattr(engine, "_chars", counted_chars)
    monkeypatch.setattr(engine, "_select", counted_select)
    grid = _grid_rules()
    assert len(grid) == 26  # every allowed (terminal kind, relation) pair
    for language in ("en", "zh"):
        rules = grid + [rule for seed in range(2) for rule in sample_rules(language, seed, 100)]
        for shape, pieces in _LOOSE_SHAPES.items():
            unit = _hostile_text(7, 2000, pieces)
            totals = [0] * len(_WORK_COPIES)
            for rule in rules:
                counts, verdicts = [], set()
                for k in _WORK_COPIES:
                    work[0] = 0
                    verdict = engine._verdict((rule,), unit * k, language, True)
                    counts.append(work[0])
                    verdicts.add((verdict.strict_pass, verdict.loose_variant))
                totals = [t + c for t, c in zip(totals, counts)]
                if len(verdicts) == 1:
                    added = [b - a for a, b in zip(counts, counts[1:])]
                    for before, after in zip(added, added[1:]):
                        assert after <= _WORK_GROWTH * before, (language, shape, rule, counts)
            for small, large in zip(totals, totals[1:]):
                assert large <= _WORK_GROWTH * small, (language, shape, totals)
