"""Segmentation: per-level splitting, span fidelity, gaps between elements."""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from helpers import make_text
from lexcheck.dsl import parse_rule
from lexcheck.engine import _select, _Splits, verify_rule
from lexcheck.rules import Level
from lexcheck.segment import _chars, is_ascii_letter, is_cjk_char, is_punct_char, split

CONTENT_LEVELS = [
    Level.PARAGRAPH,
    Level.LINE,
    Level.BULLET,
    Level.SENTENCE,
    Level.WORD,
    Level.CHARACTER,
    Level.LETTER,
    Level.PUNC,
]


def texts(level: Level, text: str, language: str = "en") -> list[str]:
    return [el[0] for el in split(text, level, language)]


def holds(rule_text: str, text: str) -> bool:
    return verify_rule(parse_rule(rule_text), text)


class TestAnswer:
    def test_whole_text(self):
        assert split("ab", Level.ANSWER) == [("ab", 0, 2)]

    def test_empty_text_has_no_elements(self):
        assert split("", Level.ANSWER) == []


class TestParagraphs:
    def test_blank_line_separates(self):
        assert texts(Level.PARAGRAPH, "A\n\nB") == ["A", "B"]

    def test_longer_breaks_count_once(self):
        assert texts(Level.PARAGRAPH, "A\n\n\n\nB") == ["A", "B"]

    def test_single_newline_does_not_split(self):
        assert texts(Level.PARAGRAPH, "A\nB") == ["A\nB"]

    def test_content_trimmed_span_untrimmed(self):
        assert split("  A  \n\n\nB", Level.PARAGRAPH) == [("A", 0, 5), ("B", 8, 9)]

    def test_blank_pieces_dropped(self):
        assert texts(Level.PARAGRAPH, "\n\nA\n\n \n\nB\n\n") == ["A", "B"]
        assert texts(Level.PARAGRAPH, "   ") == []


class TestLines:
    def test_split_on_single_newline(self):
        assert texts(Level.LINE, "a\nb\nc") == ["a", "b", "c"]

    def test_blank_lines_dropped_content_raw(self):
        assert split(" a \n\n  \nb", Level.LINE) == [(" a ", 0, 3), ("b", 8, 9)]

    def test_trailing_newline(self):
        assert texts(Level.LINE, "a\n") == ["a"]


class TestBullets:
    def test_markers(self):
        text = "- a\n* b\nplain\n1. c\n2) d\n  + e\n10.f"
        assert texts(Level.BULLET, text) == ["a", "b", "c", "d", "e"]

    def test_span_covers_whole_line(self):
        assert split("- a\nx\n* bb", Level.BULLET) == [("a", 0, 3), ("bb", 6, 10)]

    def test_marker_needs_trailing_space(self):
        assert texts(Level.BULLET, "*emphasis*") == []
        assert texts(Level.BULLET, "-item") == []

    def test_numbered_markers(self):
        assert texts(Level.BULLET, "12. twelve\n3) three") == ["twelve", "three"]

    def test_extra_spaces_after_marker_are_consumed(self):
        assert texts(Level.BULLET, "-   spaced") == ["spaced"]


class TestSentencesEnglish:
    def test_basic(self):
        assert texts(Level.SENTENCE, "Hello world. How are you? Fine!") == [
            "Hello world.",
            "How are you?",
            "Fine!",
        ]

    def test_abbreviations_do_not_split(self):
        assert texts(Level.SENTENCE, "Dr. Smith went home. He slept.") == [
            "Dr. Smith went home.",
            "He slept.",
        ]
        assert texts(Level.SENTENCE, "Fruit, e.g. apples, is good. Yes.") == [
            "Fruit, e.g. apples, is good.",
            "Yes.",
        ]

    def test_decimal_point_does_not_split(self):
        assert texts(Level.SENTENCE, "Pi is 3.14 about. More.") == [
            "Pi is 3.14 about.",
            "More.",
        ]

    def test_terminal_runs(self):
        assert texts(Level.SENTENCE, "What?! Really?!") == ["What?!", "Really?!"]

    def test_trailer_without_terminal(self):
        assert texts(Level.SENTENCE, "One. And then") == ["One.", "And then"]

    def test_no_terminal_at_all(self):
        assert texts(Level.SENTENCE, "just words") == ["just words"]

    def test_leading_whitespace_skipped(self):
        assert split("  Hi. Yo.", Level.SENTENCE) == [("Hi.", 2, 5), ("Yo.", 6, 9)]

    def test_empty(self):
        assert texts(Level.SENTENCE, "") == []
        assert texts(Level.SENTENCE, "   ") == []

    def test_newline_counts_as_space_after_terminal(self):
        assert texts(Level.SENTENCE, "One.\nTwo.") == ["One.", "Two."]

    @pytest.mark.parametrize("text", ["a" * 50_000, "a." * 25_000 + "a"], ids=["letters", "dotted"])
    def test_one_long_token_is_split_in_linear_time(self, text):
        # a match attempt from inside a token would rescan the rest of it:
        # seconds here, against a millisecond for a linear scan
        start = time.thread_time()
        assert texts(Level.SENTENCE, text) == [text]
        assert time.thread_time() - start < 2.0


class TestSentencesChinese:
    def test_basic(self):
        assert texts(Level.SENTENCE, "今天。明天！后天", "zh") == ["今天。", "明天！", "后天"]

    def test_terminal_runs(self):
        assert texts(Level.SENTENCE, "你好。。好", "zh") == ["你好。。", "好"]

    def test_ellipsis(self):
        assert texts(Level.SENTENCE, "等等……然后。", "zh") == ["等等……", "然后。"]

    def test_no_space_required(self):
        assert texts(Level.SENTENCE, "好。b", "zh") == ["好。", "b"]

    def test_english_periods_ignored_in_zh(self):
        assert texts(Level.SENTENCE, "Hi. Yo.", "zh") == ["Hi. Yo."]

    def test_semicolon_is_not_a_terminator(self):
        assert texts(Level.SENTENCE, "一；二。", "zh") == ["一；二。"]


class TestWords:
    def test_punctuation_stripped_from_ends(self):
        assert split("Hello, world!", Level.WORD) == [("Hello", 0, 6), ("world", 7, 13)]

    def test_interior_punctuation_kept(self):
        assert texts(Level.WORD, "it's well-known") == ["it's", "well-known"]

    def test_pure_punctuation_token_dropped(self):
        assert texts(Level.WORD, "a -- b") == ["a", "b"]

    def test_asterisks_stripped(self):
        assert texts(Level.WORD, "*bold* text") == ["bold", "text"]


class TestCharClasses:
    def test_mixed_string(self):
        text = "a汉,b。〇"
        assert texts(Level.CHARACTER, text) == ["汉"]
        assert texts(Level.LETTER, text) == ["a", "b"]
        assert texts(Level.PUNC, text) == [",", "。"]

    def test_fullwidth_tilde_is_punctuation(self):
        assert texts(Level.PUNC, "好～") == ["～"]
        assert is_punct_char("～")

    def test_ascii_only_letters(self):
        assert texts(Level.LETTER, "éa") == ["a"]

    def test_cjk_ranges(self):
        assert is_cjk_char("一") and is_cjk_char("鿿")
        assert is_cjk_char("㐀") and is_cjk_char("䶿")
        assert not is_cjk_char("㏿") and not is_cjk_char("a")

    def test_letter_predicate(self):
        assert is_ascii_letter("Q") and not is_ascii_letter("1")

    def test_spans_are_single_positions(self):
        assert split("a.b", Level.PUNC) == [(".", 1, 2)]

    def test_levels_agree_with_predicates_on_every_code_point(self):
        """Checked against the oracle's own predicates: the library defines
        its CJK and letter predicates by the classes these levels use."""
        every = "".join(map(chr, range(0x110000)))
        for level, keep in (
            (Level.CHARACTER, oracle.is_cjk),
            (Level.LETTER, oracle.is_ascii_letter),
            (Level.PUNC, oracle.is_punct),
        ):
            got = [el[1] for el in split(every, level)]
            assert got == [cp for cp in range(0x110000) if keep(chr(cp))], level

    def test_joined_contents_agree_with_predicates_on_every_code_point(self):
        """The engine's string form of these levels selects what the
        oracle's predicates select, in order."""
        every = "".join(map(chr, range(0x110000)))
        for level, keep in (
            (Level.CHARACTER, oracle.is_cjk),
            (Level.LETTER, oracle.is_ascii_letter),
            (Level.PUNC, oracle.is_punct),
        ):
            assert _chars(every, level) == "".join(filter(keep, every)), level

    def test_punct_predicate_cache_is_bounded(self):
        assert is_punct_char.cache_info().maxsize is not None


class TestPattern:
    def test_matches_in_order(self):
        assert split("a1b22", Level.PATTERN, pattern="[0-9]+") == [("1", 1, 2), ("22", 3, 5)]

    def test_no_match(self):
        assert split("abc", Level.PATTERN, pattern="[0-9]+") == []

    def test_pattern_required_exactly_for_pattern_level(self):
        with pytest.raises(ValueError):
            split("x", Level.PATTERN)
        with pytest.raises(ValueError):
            split("x", Level.WORD, pattern="a")

    @pytest.mark.parametrize("regex", ["(", "a{99999999999999}"])
    def test_regex_that_does_not_compile(self, regex):
        with pytest.raises(ValueError, match="does not compile"):
            split("x", Level.PATTERN, pattern=regex)

    def test_unknown_language_rejected(self):
        with pytest.raises(ValueError):
            split("x", Level.WORD, language="fr")


class TestGaps:
    """`%` selects the raw text between consecutive elements."""

    def test_between_bullets(self):
        assert holds('bullet% equal "\\n"', "- a\n- b")

    def test_between_words(self):
        # the gaps "  " and " ": spaces only, untrimmed, one of each width
        text = "a  b c"
        assert holds("word%.pattern(/[^ ]/)# = 0", text)
        assert holds("word%.pattern(/ /)# >= 1", text)
        assert holds("word%.pattern(/ /)# <= 2", text)
        assert not holds("word%.pattern(/ /)# = 1", text)
        assert not holds("word%.pattern(/ /)# = 2", text)

    def test_count_is_k_minus_one(self):
        text = "one. two. three."
        assert holds('sentence% equal " "', text)
        step = parse_rule('sentence% equal " "').procedure[-1]
        assert len(list(_select(step, _Splits("en"), " ", text))) == len(split(text, Level.SENTENCE)) - 1

    def test_no_gap_for_zero_or_one_element(self):
        # an empty selection fails even a rule every gap would satisfy
        assert not holds("word%.pattern(/x/)# >= 0", "")
        assert not holds("word%.pattern(/x/)# >= 0", "word")
        assert holds("word%.pattern(/x/)# >= 0", "two words")


def _structured_texts():
    rng = random.Random(20260823)
    return [make_text(rng, lang) for lang in ("en", "zh") for _ in range(40)]


@pytest.mark.parametrize("text", _structured_texts())
def test_span_fidelity(text):
    """Slicing the parent by an element's span reproduces the documented raw region."""
    for language in ("en", "zh"):
        for level in CONTENT_LEVELS:
            for content, start, end in split(text, level, language):
                raw = text[start:end]
                if level is Level.PARAGRAPH:
                    assert content == raw.strip()
                elif level is Level.WORD:
                    assert content in raw and raw.find(content) >= 0
                elif level is Level.BULLET:
                    assert raw.endswith(content)
                else:
                    assert content == raw
        for content, start, end in split(text, Level.PATTERN, language, pattern="[A-Za-z0-9]+"):
            assert content == text[start:end]


@pytest.mark.parametrize("text", _structured_texts())
def test_spans_ordered_and_disjoint(text):
    for language in ("en", "zh"):
        for level in CONTENT_LEVELS:
            els = split(text, level, language)
            for a, b in zip(els, els[1:]):
                assert a[2] <= b[1]
            for _, start, end in els:
                assert 0 <= start <= end <= len(text)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["en", "zh"]))
def test_resegmenting_an_element_is_idempotent(seed, language):
    """An element's content splits into exactly itself at the same level.

    Bullet content loses its marker and pattern matches depend on surrounding
    context, so those two levels are exempt.
    """
    rng = random.Random(seed)
    text = make_text(rng, language)
    for level in [
        Level.PARAGRAPH,
        Level.LINE,
        Level.SENTENCE,
        Level.WORD,
        Level.CHARACTER,
        Level.LETTER,
        Level.PUNC,
    ]:
        for content, _, _ in split(text, level, language):
            assert texts(level, content, language) == [content], (level, content)
