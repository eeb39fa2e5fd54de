"""Granularity-aware text segmentation with source spans.

Each element records the content used for comparisons plus the span of the raw
region it came from, so slicing the parent by the span always reproduces the
raw text.  Content may differ from the raw slice where documented: paragraphs
are trimmed of surrounding whitespace, bullet items exclude their list marker,
and words shed leading/trailing punctuation.
"""

from __future__ import annotations

import functools
import re
import unicodedata
from itertools import chain
from typing import Callable, Iterator

from .rules import Level, check_regex, require_language

# The levels from paragraph to word are found by compiled patterns.  None
# nests an unbounded repeat, and each match attempt that can backtrack starts
# only at a line or token start, so every scan is linear.  On str patterns \s
# is exactly str.isspace, and [^\S\n] is \s without the newline.  "." stops
# only at "\n", so \r, \x0b, \x85 and \u2028 stay inside a line.
# A paragraph break matches as \n{2,} would; written with a literal first
# character, it lets `re` skip ahead to each newline instead of trying a
# match at every position.
_PARAGRAPH_BREAK = re.compile(r"\n\n+")
_LINE = re.compile(r"[^\n]+")
# a line whose content after indentation is a list marker, then whitespace;
# group 1 is the content after the marker
_BULLET = re.compile(r"^[^\S\n]*(?:[*+-]|[0-9]+[.)])[^\S\n]+(.*)", re.MULTILINE)
_WORD_TOKEN = re.compile(r"\S+")
# a whitespace-delimited token that ends in an English terminator; the
# look-behind keeps a match from starting inside a token, where a failed
# attempt would rescan the rest of it
_EN_SENTENCE_END = re.compile(r"(?<!\S)\S*[.!?](?!\S)")
_ZH_TERMINAL_RUN = re.compile(r"[。！？…]+")
_SENTENCE_END = {"en": _EN_SENTENCE_END, "zh": _ZH_TERMINAL_RUN}

#: Tokens that suppress an English sentence split when they end in a
#: terminator (matched against the whitespace-delimited token, verbatim).
EN_ABBREVIATIONS = frozenset(
    {"Mr.", "Mrs.", "Dr.", "Prof.", "St.", "e.g.", "i.e.", "etc.", "vs.", "Fig.", "Eq."}
)

_EXTRA_PUNCT = frozenset({"～"})  # fullwidth tilde has category Sm but reads as punctuation

# Character classes for the per-character levels; is_cjk_char and
# is_ascii_letter are defined by them.  The punctuation class is a superset of
# is_punct_char (no punctuation is alphanumeric or whitespace), so each of its
# matches is confirmed with the predicate.
_CJK_RANGES = r"\u4e00-\u9fff\u3400-\u4dbf"
_ASCII_RANGES = "A-Za-z"
_CJK_CHAR = re.compile(f"[{_CJK_RANGES}]")
_ASCII_LETTER = re.compile(f"[{_ASCII_RANGES}]")
_PUNCT_CANDIDATE = re.compile(r"[^\w\s]|_")
# Runs of what the character and letter levels leave out, deleted by _chars.
_OUTSIDE = {
    Level.CHARACTER: re.compile(f"[^{_CJK_RANGES}]+"),
    Level.LETTER: re.compile(f"[^{_ASCII_RANGES}]+"),
}

# One element as (content, start, end): what the splitters build.
_Span = tuple[str, int, int]


def is_cjk_char(ch: str) -> bool:
    return _CJK_CHAR.fullmatch(ch) is not None


def is_ascii_letter(ch: str) -> bool:
    return _ASCII_LETTER.fullmatch(ch) is not None


@functools.lru_cache(maxsize=4096)
def is_punct_char(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P") or ch in _EXTRA_PUNCT


#: The single-character levels, each with the test its elements pass.
CHAR_LEVEL_TESTS = {
    Level.CHARACTER: is_cjk_char,
    Level.LETTER: is_ascii_letter,
    Level.PUNC: is_punct_char,
}


# The splitters, one per level (`_SPLITTERS`): each is a generator that makes
# a text's elements left to right, as they are read, from (text, language,
# regex), and reads only what its level needs.  A splitter checks neither
# `language` nor `regex`: callers validate the language once, and every
# procedure step carries a compiled regex (`ProcedureStep.regex`) exactly
# when its level needs one.


def _answer(text: str, language: str, regex: re.Pattern[str] | None) -> Iterator[_Span]:
    if text:
        yield text, 0, len(text)


def _paragraphs(text: str, language: str, regex: re.Pattern[str] | None) -> Iterator[_Span]:
    prev = 0
    for m in _PARAGRAPH_BREAK.finditer(text):
        content = text[prev : m.start()].strip()
        if content:
            yield content, prev, m.start()
        prev = m.end()
    content = text[prev:].strip()
    if content:
        yield content, prev, len(text)


def _lines(text: str, language: str, regex: re.Pattern[str] | None) -> Iterator[_Span]:
    for m in _LINE.finditer(text):
        if not m[0].isspace():
            yield m[0], m.start(), m.end()


def _bullets(text: str, language: str, regex: re.Pattern[str] | None) -> Iterator[_Span]:
    for m in _BULLET.finditer(text):
        yield m[1], m.start(), m.end()


def _sentences(text: str, language: str, regex: re.Pattern[str] | None) -> Iterator[_Span]:
    """The pieces of `text` cut after each sentence end and at its end, each
    stripped of surrounding whitespace, with its trimmed region as the span;
    blank pieces are dropped.  A Chinese run of terminators is never an
    English abbreviation, so one filter serves both languages."""
    ends = (m.end() for m in _SENTENCE_END[language].finditer(text) if m[0] not in EN_ABBREVIATIONS)
    start = 0
    for end in chain(ends, (len(text),)):
        piece = text[start:end]
        content = piece.strip()
        if content:
            a = start + len(piece) - len(piece.lstrip())
            yield content, a, a + len(content)
        start = end


def _words(text: str, language: str, regex: re.Pattern[str] | None) -> Iterator[_Span]:
    for m in _WORD_TOKEN.finditer(text):
        token = m.group()
        a, b = 0, len(token)
        while a < b and is_punct_char(token[a]):
            a += 1
        while b > a and is_punct_char(token[b - 1]):
            b -= 1
        if a < b:
            yield token[a:b], m.start(), m.end()


def _puncs(text: str, language: str, regex: re.Pattern[str] | None) -> Iterator[_Span]:
    for m in _PUNCT_CANDIDATE.finditer(text):
        if is_punct_char(m[0]):
            yield m[0], m.start(), m.end()


def _matches(fixed: re.Pattern[str] | None) -> Callable[[str, str, re.Pattern[str] | None], Iterator[_Span]]:
    """The splitter whose elements are the matches of `fixed`, or of the
    step's own regex where `fixed` is None."""

    def matches(text: str, language: str, regex: re.Pattern[str] | None) -> Iterator[_Span]:
        for m in (fixed or regex).finditer(text):
            yield m[0], m.start(), m.end()

    return matches


_SPLITTERS = {
    Level.ANSWER: _answer,
    Level.PARAGRAPH: _paragraphs,
    Level.LINE: _lines,
    Level.BULLET: _bullets,
    Level.SENTENCE: _sentences,
    Level.WORD: _words,
    Level.CHARACTER: _matches(_CJK_CHAR),
    Level.LETTER: _matches(_ASCII_LETTER),
    Level.PUNC: _puncs,
    Level.PATTERN: _matches(None),
}


def _chars(text: str, level: Level) -> str:
    """The contents of `text`'s elements at a single-character level
    (character, letter or punc), joined in order: every element is one
    character, so this is ``"".join(el[0] for el in split(...))`` without
    a tuple per element."""
    if level is Level.PUNC:
        return "".join(filter(is_punct_char, _PUNCT_CANDIDATE.findall(text)))
    return _OUTSIDE[level].sub("", text)


def split(text: str, level: Level, language: str = "en", pattern: str | None = None) -> list[_Span]:
    """Split `text` into elements of `level` as (content, start, end) tuples,
    ordered by position.

    `pattern` must be supplied exactly when `level` is the regex level, and
    must compile (ValueError otherwise).  Sentence behavior depends on
    `language`; the remaining levels are language-independent.
    """
    if (pattern is None) == (level is Level.PATTERN):
        raise ValueError("a regex is required for the pattern level and only there")
    require_language(language)
    return list(_SPLITTERS[level](text, language, None if pattern is None else check_regex(pattern)))
