"""One-line rule expressions: parsing, canonical formatting, round-trips."""

from __future__ import annotations

import hashlib
import random
import sys
import warnings
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from helpers import sample_rules
from lexcheck.dsl import ParseError, PatternError, ValidityError, format_rule, parse_rule
from lexcheck.rules import (
    Level,
    Predicate,
    PredicateKind,
    ProcedureStep,
    Relation,
    Rule,
    Violation,
)


class TestParseExamples:
    def test_nested_count(self):
        rule = parse_rule("paragraph@2.sentence# = 3")
        assert [s.level for s in rule.procedure] == [Level.PARAGRAPH, Level.SENTENCE]
        assert rule.procedure[0].predicate == Predicate(PredicateKind.INDEX, 2)
        assert rule.procedure[1].predicate == Predicate(PredicateKind.COUNT)
        assert rule.relation is Relation.EQ
        assert rule.value == 3

    def test_textual_rule(self):
        rule = parse_rule('word@1 startswith "The"')
        assert rule.procedure[0].predicate == Predicate(PredicateKind.INDEX, 1)
        assert rule.relation is Relation.STARTSWITH
        assert rule.value == "The"

    def test_last_element(self):
        rule = parse_rule('sentence@-1 endswith "."')
        assert rule.procedure[0].predicate == Predicate(PredicateKind.INDEX, -1)

    def test_bare_level_means_all(self):
        rule = parse_rule('sentence contain "x"')
        assert rule.procedure[0].predicate == Predicate(PredicateKind.ALL)

    def test_explicit_all_marker(self):
        assert parse_rule('sentence@ contain "x"') == parse_rule('sentence contain "x"')

    def test_before_after_between(self):
        assert parse_rule('word!2 contain "x"').procedure[0].predicate == Predicate(PredicateKind.BEFORE, 2)
        assert parse_rule('word$3 contain "x"').procedure[0].predicate == Predicate(PredicateKind.AFTER, 3)
        assert parse_rule('line% equal "a"').procedure[0].predicate == Predicate(PredicateKind.BETWEEN)

    def test_numeric_relations(self):
        for text, relation in [
            ("sentence# = 3", Relation.EQ),
            ("sentence# != 3", Relation.NEQ),
            ("sentence# > 3", Relation.GT),
            ("sentence# >= 3", Relation.GTE),
            ("sentence# < 3", Relation.LT),
            ("sentence# <= 3", Relation.LTE),
        ]:
            assert parse_rule(text).relation is relation

    def test_neq_without_space_after_bare_level(self):
        # "!" must lex as part of "!=" here, not as a before-predicate
        rule = parse_rule("sentence#!= 3")
        assert rule.relation is Relation.NEQ

    def test_pattern_step(self):
        rule = parse_rule("pattern(/[0-9]+/)# >= 2")
        assert rule.procedure[0].level is Level.PATTERN
        assert rule.procedure[0].pattern == "[0-9]+"

    def test_pattern_with_escaped_slash(self):
        rule = parse_rule(r'pattern(/a\/b/)@1 equal "x"')
        assert rule.procedure[0].pattern == "a/b"

    def test_pattern_keeps_other_escapes(self):
        rule = parse_rule(r'pattern(/\d+\.\d+/)# = 1')
        assert rule.procedure[0].pattern == r"\d+\.\d+"

    def test_escape_pairs_in_a_regex(self):
        assert parse_rule(r"pattern(/a\\/)# = 1").procedure[0].pattern == "a\\\\"
        assert parse_rule(r"pattern(/a\\\//)# = 1").procedure[0].pattern == "a\\\\/"
        assert parse_rule("pattern(/a\\\nb/)# = 1").procedure[0].pattern == "a\\\nb"

    def test_equal_steps_are_shared(self):
        first = parse_rule('paragraph@2.pattern(/a\\/b/)# = 3')
        second = parse_rule('paragraph@2 . pattern(/a/b/)# >= 1')
        assert first.procedure[0] is second.procedure[0]
        assert first.procedure[1] == second.procedure[1]

    def test_whitespace_between_tokens(self):
        assert parse_rule(" paragraph@2 . sentence#  =  3 ") == parse_rule(
            "paragraph@2.sentence# = 3"
        )

    def test_value_escapes(self):
        assert parse_rule(r'answer contain "a\"b"').value == 'a"b'
        assert parse_rule(r'answer contain "a\\b"').value == "a\\b"
        assert parse_rule(r'line% equal "\n"').value == "\n"
        assert parse_rule(r'line% equal "\r\n"').value == "\r\n"

    def test_answer_prefix(self):
        rule = parse_rule('answer.sentence@1 startswith "A"')
        assert rule.procedure[0].level is Level.ANSWER
        assert rule.procedure[0].predicate == Predicate(PredicateKind.ALL)

    def test_value_zero(self):
        assert parse_rule("bullet# = 0").value == 0


class TestParseErrors:
    def err(self, text: str) -> ParseError:
        with pytest.raises(ParseError) as info:
            parse_rule(text)
        return info.value

    def test_empty_input(self):
        assert self.err("").pos == 0
        assert "level name" in self.err("").expected

    def test_unknown_level(self):
        e = self.err('chapter@1 contain "x"')
        assert e.pos == 0 and "level name" in e.expected

    def test_index_zero(self):
        e = self.err('sentence@0 contain "x"')
        assert e.pos == len("sentence@")
        assert "numbering starts at 1" in e.expected

    def test_index_below_minus_one(self):
        e = self.err('sentence@-2 contain "x"')
        assert "-1" in e.expected

    def test_before_zero(self):
        e = self.err('sentence!0 contain "x"')
        assert "positive ordinal" in e.expected

    def test_after_zero(self):
        e = self.err('sentence$0 contain "x"')
        assert "positive ordinal" in e.expected

    def test_missing_relation(self):
        e = self.err("sentence@1")
        assert "a relation" in e.expected

    def test_empty_string_value(self):
        e = self.err('sentence@1 equal ""')
        assert "nonempty string" in e.expected

    def test_unterminated_string(self):
        e = self.err('sentence@1 equal "abc')
        assert "closing quote" in e.expected

    def test_bad_escape(self):
        e = self.err(r'sentence@1 equal "a\x"')
        assert "escape" in e.expected

    def test_bad_escape_points_at_the_backslash(self):
        for text in ('answer equal "ab\\', r'sentence@1 equal "a\x"'):
            e = self.err(text)
            assert text[e.pos] == "\\" and "escape" in e.expected, text

    def test_negative_value(self):
        e = self.err("sentence# = -3")
        assert "value" in e.expected

    def test_trailing_junk(self):
        e = self.err("sentence# = 3 extra")
        assert "end of expression" in e.expected

    def test_missing_pattern_open(self):
        e = self.err('pattern[0-9]# = 1')
        assert '"(/"' in e.expected

    def test_unterminated_regex(self):
        e = self.err('pattern(/abc# = 1')
        assert "/)" in e.expected

    def test_escaped_slash_does_not_end_a_regex(self):
        for text in (r"pattern(/a\/)# = 1", "pattern(/a\\"):
            e = self.err(text)
            assert e.pos == len("pattern(/") and "/)" in e.expected, text

    def test_missing_value(self):
        e = self.err("sentence# = ")
        assert "value" in e.expected


class TestPatternAndValidityErrors:
    def test_bad_regex(self):
        with pytest.raises(PatternError) as info:
            parse_rule('pattern(/[/)# = 1')
        assert "does not compile" in str(info.value)

    @pytest.mark.parametrize("regex", ["a{99999999999999}", "(" * 2_000], ids=["huge-repeat", "deep-nesting"])
    def test_regex_the_compiler_overflows_on(self, regex):
        # re.compile raises OverflowError and RecursionError on these
        with pytest.raises(PatternError) as info:
            parse_rule(f"pattern(/{regex}/)# = 1")
        assert info.value.pos == len("pattern(/")
        assert "does not compile" in str(info.value)

    def test_validity_error_carries_codes(self):
        with pytest.raises(ValidityError) as info:
            parse_rule("word@1 > 5")
        assert Violation.NUMERIC_WITHOUT_COUNT in info.value.violations

    def test_text_relation_with_count(self):
        with pytest.raises(ValidityError) as info:
            parse_rule('sentence# contain "a"')
        assert Violation.TEXT_WITH_COUNT in info.value.violations

    def test_bare_level_numeric_relation(self):
        with pytest.raises(ValidityError):
            parse_rule("sentence = 3")

    def test_level_order_violation(self):
        with pytest.raises(ValidityError) as info:
            parse_rule('word@1.sentence@1 contain "x"')
        assert Violation.LEVEL_ORDER in info.value.violations


class TestFormat:
    def test_canonical_spacing(self):
        assert format_rule(parse_rule("  paragraph@2 .sentence#   =   3")) == (
            "paragraph@2.sentence# = 3"
        )

    def test_answer_has_no_marker(self):
        rule = Rule((ProcedureStep(Level.ANSWER, Predicate(PredicateKind.ALL)),), Relation.CONTAIN, "x")
        assert format_rule(rule) == 'answer contain "x"'

    def test_all_marker_is_explicit_below_answer(self):
        assert format_rule(parse_rule('sentence contain "x"')) == 'sentence@ contain "x"'

    def test_value_escaping(self):
        rule = Rule((ProcedureStep(Level.LINE, Predicate(PredicateKind.BETWEEN)),), Relation.EQUAL, "\n")
        assert format_rule(rule) == 'line% equal "\\n"'
        quoted = Rule((ProcedureStep(Level.WORD, Predicate(PredicateKind.INDEX, 1)),), Relation.EQUAL, 'a"b\\c')
        assert format_rule(quoted) == 'word@1 equal "a\\"b\\\\c"'

    def test_pattern_slash_escaped(self):
        step = ProcedureStep(Level.PATTERN, Predicate(PredicateKind.COUNT), "a/b")
        rule = Rule((step,), Relation.EQ, 1)
        assert format_rule(rule) == r"pattern(/a\/b/)# = 1"

    def test_numeric_symbols(self):
        assert format_rule(parse_rule("sentence# != 2")) == "sentence# != 2"
        assert format_rule(parse_rule("sentence# >= 2")) == "sentence# >= 2"


class TestRoundTrip:
    def test_handpicked(self):
        for text in [
            "paragraph@2.sentence# = 3",
            'word@-1 equal "end"',
            'line% equal "\\n"',
            r"pattern(/a\/b/)@1 notcontain " + '"x"',
            "paragraph@1.line@2.pattern(/[0-9]+/)# <= 4",
            'sentence$2 equal "x"',
            'word!3 notcontain "y"',
            "bullet# = 0",
        ]:
            rule = parse_rule(text)
            assert parse_rule(format_rule(rule)) == rule
            assert format_rule(parse_rule(format_rule(rule))) == format_rule(rule)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["en", "zh"]))
    def test_sampled(self, seed, language):
        for rule in sample_rules(language, seed, 4):
            assert parse_rule(format_rule(rule)) == rule


# Tokens and characters a mutation inserts or substitutes: DSL punctuation,
# level and relation names, ASCII and non-ASCII digits, letters and spaces.
_MUTATION_TOKENS = (
    "@", "@0", "@-1", "@2", "!0", "!3", "!", "$", "$2", "%", "#", ".", "-",
    "pattern(/", "pattern", "(/", "/)", "/", "(", ")", '"', "\\", "\\/", '\\"',
    "\\n", "\\\\", "=", "!=", ">", ">=", "<", "<=", "0", "1", "7", "42", "00",
    "٣", "²", "answer", "paragraph", "line", "bullet", "sentence",
    "word", "character", "letter", "punc", "equal", "contain", "startswith",
    "notcontain", "endswith", "eq", "x", "é", "山", "[", "]", "*", "+",
    " ", "  ", "\t", "\n", "　", " ", "\x1c", "\x85",
)


def _mutate(text: str, rng: random.Random) -> str:
    for _ in range(rng.choice((1, 1, 2, 3))):
        op = rng.randrange(5)
        i = rng.randrange(len(text) + 1)
        if op == 0:  # insert a token
            text = text[:i] + rng.choice(_MUTATION_TOKENS) + text[i:]
        elif op == 1:  # delete a run of characters
            text = text[:i] + text[i + rng.randint(1, 3) :]
        elif op == 2:  # replace a run of characters with a token
            text = text[:i] + rng.choice(_MUTATION_TOKENS) + text[i + rng.randint(1, 3) :]
        else:  # delete one occurrence of a token, or swap it for another
            token = rng.choice(_MUTATION_TOKENS)
            at = text.find(token, i)
            if at >= 0:
                swap = rng.choice(_MUTATION_TOKENS) if op == 4 else ""
                text = text[:at] + swap + text[at + len(token) :]
    return text


def _outcome(text: str) -> str:
    """One line naming what parse_rule makes of `text`.  Any exception other
    than the three below escapes and fails the calling test."""
    try:
        rule = parse_rule(text)
    except ParseError as exc:
        return f"ParseError {exc.pos} {exc.expected}"
    except PatternError as exc:  # the reason is re's text, which varies by version
        return f"PatternError {exc.pos}"
    except ValidityError as exc:
        return "ValidityError " + ",".join(v.value for v in exc.violations)
    return f"ok {format_rule(rule)}"


class TestParserOutcomeDigest:
    """Pins what the parser accepts, rejects and reports on 24,000 seeded
    mutations of canonical rule lines."""

    DIGEST = "5a7af395b966d516d31f05c40ae87de6336821d230e5197a41c6b7e431d7d539"
    # Python 3.10's re has no possessive quantifiers, so one line differs:
    # pattern(/[0-9]*+/) is a PatternError there and a valid rule from 3.11 on.
    DIGEST_3_10 = "3638129ade28d4f6fa6949021a3469c78854691000e377cf65bdc5539fe5924b"

    def test_mutation_outcomes_are_pinned(self):
        rng = random.Random(20261018)
        lines = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FutureWarning)  # "Possible set difference"
            for language in ("en", "zh"):
                for rule in sample_rules(language, 20261018, 600):
                    canonical = format_rule(rule)
                    lines.append(_outcome(canonical))
                    lines.extend(_outcome(_mutate(canonical, rng)) for _ in range(20))
        kinds = Counter(line.split(" ", 1)[0] for line in lines)
        assert len(lines) == 25_200
        assert min(kinds[k] for k in ("ok", "ParseError", "PatternError", "ValidityError")) >= 50, kinds
        digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
        assert digest == (self.DIGEST_3_10 if sys.version_info < (3, 11) else self.DIGEST)
