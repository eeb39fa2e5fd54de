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

from .rules import Level, require_language

_PARAGRAPH_BREAK = re.compile(r"\n{2,}")
_BULLET_MARKER = re.compile(r"^\s*(?:[*+-]|[0-9]+[.)])\s+")
_WORD_TOKEN = re.compile(r"\S+")
_EN_TERMINAL_RUN = re.compile(r"[.!?]+")
_ZH_TERMINAL_RUN = re.compile(r"[。！？…]+")

#: Tokens that suppress an English sentence split when they end at the
#: terminator run (matched against the whitespace-delimited token, verbatim).
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


@functools.lru_cache(maxsize=256)
def _compiled(pattern: str) -> re.Pattern[str]:
    return re.compile(pattern)


def _paragraphs(text: str) -> list[_Span]:
    out: list[_Span] = []
    prev = 0
    for m in _PARAGRAPH_BREAK.finditer(text):
        out.append((text[prev : m.start()].strip(), prev, m.start()))
        prev = m.end()
    out.append((text[prev:].strip(), prev, len(text)))
    return [el for el in out if el[0]]


def _line_regions(text: str) -> list[tuple[int, int]]:
    regions = []
    start = 0
    while start <= len(text):
        nl = text.find("\n", start)
        end = len(text) if nl < 0 else nl
        regions.append((start, end))
        if nl < 0:
            break
        start = nl + 1
    return regions


def _lines(text: str) -> list[_Span]:
    out = []
    for a, b in _line_regions(text):
        raw = text[a:b]
        if raw.strip():
            out.append((raw, a, b))
    return out


def _bullets(text: str) -> list[_Span]:
    out = []
    for a, b in _line_regions(text):
        raw = text[a:b]
        m = _BULLET_MARKER.match(raw)
        if m:
            out.append((raw[m.end() :], a, b))
    return out


def _sentences(text: str, run_re: re.Pattern[str], require_trailing_space: bool) -> list[_Span]:
    boundaries: list[int] = []
    for m in run_re.finditer(text):
        if require_trailing_space:
            if m.end() < len(text) and not text[m.end()].isspace():
                continue
            token_start = m.start()
            while token_start > 0 and not text[token_start - 1].isspace():
                token_start -= 1
            if text[token_start : m.end()] in EN_ABBREVIATIONS:
                continue
        boundaries.append(m.end())
    out: list[_Span] = []
    start = _skip_space(text, 0)
    for b in boundaries:
        if start < b:
            out.append((text[start:b], start, b))
        start = _skip_space(text, b)
    end = len(text)
    while end > start and text[end - 1].isspace():
        end -= 1
    if start < end:
        out.append((text[start:end], start, end))
    return out


def _skip_space(text: str, pos: int) -> int:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def _words(text: str) -> list[_Span]:
    out = []
    for m in _WORD_TOKEN.finditer(text):
        token = m.group()
        a, b = 0, len(token)
        while a < b and is_punct_char(token[a]):
            a += 1
        while b > a and is_punct_char(token[b - 1]):
            b -= 1
        if a < b:
            out.append((token[a:b], m.start(), m.end()))
    return out


def _chars(text: str, level: Level) -> str:
    """The contents of `text`'s elements at a single-character level
    (character, letter or punc), joined in order: every element is one
    character, so this is ``"".join(el[0] for el in _split(...))`` without
    a tuple per element."""
    if level is Level.PUNC:
        return "".join(filter(is_punct_char, _PUNCT_CANDIDATE.findall(text)))
    return _OUTSIDE[level].sub("", text)


def _matches(regex: re.Pattern[str], text: str) -> list[_Span]:
    return [(m.group(), m.start(), m.end()) for m in regex.finditer(text)]


def split(text: str, level: Level, language: str = "en", pattern: str | None = None) -> list[_Span]:
    """Split `text` into elements of `level` as (content, start, end) tuples,
    ordered by position.

    `pattern` must be supplied exactly when `level` is the regex level.
    Sentence behavior depends on `language`; the remaining levels are
    language-independent.
    """
    if (pattern is None) == (level is Level.PATTERN):
        raise ValueError("a regex is required for the pattern level and only there")
    require_language(language)
    return _split(text, level, language, pattern)


def _split(text: str, level: Level, language: str, pattern: str | None) -> list[_Span]:
    """:func:`split` without its checks.

    Neither `language` nor `pattern` is checked: callers validate the
    language once, and every procedure step carries a pattern exactly when
    its level needs it.
    """
    if level is Level.ANSWER:
        return [(text, 0, len(text))] if text else []
    if level is Level.PARAGRAPH:
        return _paragraphs(text)
    if level is Level.LINE:
        return _lines(text)
    if level is Level.BULLET:
        return _bullets(text)
    if level is Level.SENTENCE:
        if language == "zh":
            return _sentences(text, _ZH_TERMINAL_RUN, require_trailing_space=False)
        return _sentences(text, _EN_TERMINAL_RUN, require_trailing_space=True)
    if level is Level.WORD:
        return _words(text)
    if level is Level.CHARACTER:
        return _matches(_CJK_CHAR, text)
    if level is Level.LETTER:
        return _matches(_ASCII_LETTER, text)
    if level is Level.PUNC:
        return [el for el in _matches(_PUNCT_CANDIDATE, text) if is_punct_char(el[0])]
    return _matches(_compiled(pattern or ""), text)
