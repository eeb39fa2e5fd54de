"""Rule verification: scope refinement, target extraction, adjudication.

Verification starts from the whole answer as the only selected text, applies
each selection step in order, and finally compares what survives against the
rule's value.  Comparisons quantify universally: every selected text (or
per-text count) must satisfy the relation, and an empty selection fails.
"""

from __future__ import annotations

import operator
import re
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Sequence, TypeVar

from .rules import (
    Instruction,
    Level,
    PredicateKind,
    ProcedureStep,
    Relation,
    Rule,
    require_language,
)
from .segment import _SPLITTERS, CHAR_LEVEL_TESTS, _chars, _Span, _split

_T = TypeVar("_T")


def _select(elements: Sequence[_T], n: int) -> _T | None:
    if n == -1:
        return elements[-1] if elements else None
    return elements[n - 1] if 1 <= n <= len(elements) else None


def _refine(texts: list[str], step: ProcedureStep, splits: _Splits) -> list[str]:
    """Apply one non-count step to every text, preserving order.

    `splits` gives each text's elements at the step's level, with the shift
    to subtract from their spans; `@n`, `!n` and `$n` read only the first n
    (`_Splits.upto`).  Out-of-range ordinals simply contribute no texts;
    they are not errors.
    `before`/`after` keep the raw text on the named side of the element's
    span; `between` keeps the raw text separating consecutive elements.
    At a single-character level (`segment.CHAR_LEVEL_TESTS`) `all` and
    `index` read only the elements' contents, so they read them from one
    string, `splits.chars`.
    """
    kind = step.predicate.kind
    out: list[str] = []
    if step.level in CHAR_LEVEL_TESTS and kind in (PredicateKind.ALL, PredicateKind.INDEX):
        for text in texts:
            chars = splits.chars(text, step.level)
            if kind is PredicateKind.ALL:
                out.extend(chars)
            elif (ch := _select(chars, step.predicate.n)) is not None:
                out.append(ch)
        return out
    level, regex, n = step.level, step.regex, step.predicate.n
    prefix = n is not None and n > 0
    for text in texts:
        elements, shift = splits.upto(text, level, regex, n) if prefix else splits[text, level, regex]
        if kind is PredicateKind.ALL:
            out.extend(el[0] for el in elements)
        elif kind is PredicateKind.BETWEEN:
            out.extend(text[left[2] - shift : right[1] - shift] for left, right in zip(elements, elements[1:]))
        else:
            el = _select(elements, n)
            if el is None:
                continue
            if kind is PredicateKind.INDEX:
                out.append(el[0])
            elif kind is PredicateKind.BEFORE:
                out.append(text[: el[1] - shift])
            else:  # AFTER
                out.append(text[el[2] - shift :])
    return out


#: relation -> test(observed, value): a count against an integer, or a
#: selected text against a string
_COMPARE = {
    Relation.EQ: operator.eq,
    Relation.NEQ: operator.ne,
    Relation.GT: operator.gt,
    Relation.GTE: operator.ge,
    Relation.LT: operator.lt,
    Relation.LTE: operator.le,
    Relation.STARTSWITH: str.startswith,
    Relation.ENDSWITH: str.endswith,
    Relation.EQUAL: operator.eq,
    Relation.CONTAIN: operator.contains,
    Relation.NOTSTARTSWITH: lambda text, value: not text.startswith(value),
    Relation.NOTENDSWITH: lambda text, value: not text.endswith(value),
    Relation.NOTCONTAIN: lambda text, value: value not in text,
}


def verify_rule(rule: Rule, full_text: str, language: str = "en") -> bool:
    """Run the full pipeline for one rule against one answer text."""
    require_language(language)
    return _holds(rule, full_text, _Splits(language))


class _Splits(dict):
    """Elements by (text, level, compiled regex), each split on first use.

    A complete value is a pair (elements, shift): each element's start and
    end, less `shift`, are its span in the text.  A text split by itself has
    shift 0.  Reading a key by item splits it to the end.
    :meth:`upto` splits only as far as a step reads: a key it has begun but
    not finished is not in the dict but in `partial`, as the elements made
    so far and the running splitter that makes the rest
    (`segment._SPLITTERS`), so every read of a complete key stays one dict
    hit.
    `cuts` maps a text to (base, a, b) when the text is ``base[a:b]``, with
    `a` at 0 or just after a newline and `b` at a newline or the end.  At a
    level in `_DERIVE` such a text's elements are derived from the base's
    complete split instead of split by themselves: the base's own tuples,
    with shift `a`.
    The base's split is read from the dict itself, never through a closure,
    so the cache holds no reference cycle and is freed on return.
    `joined` holds the string form of the single-character levels' splits
    (`chars`), by (text, level).
    """

    __slots__ = ("language", "partial", "cuts", "joined")

    def __init__(self, language: str):
        super().__init__()
        self.language = language
        self.partial: dict[tuple[str, Level, re.Pattern[str] | None], tuple[list[_Span], Iterator[_Span]]] = {}
        self.cuts: dict[str, tuple[str, int, int]] = {}
        self.joined: dict[tuple[str, Level], str] = {}

    def chars(self, text: str, level: Level) -> str:
        """The contents of `text`'s elements at a single-character level,
        joined in order (`segment._chars`), made on first use.

        Whether a character is an element depends on it alone, so a cut
        ``base[a:b]`` takes the base's string less the elements of
        ``base[:a]`` and of ``base[b:]``.
        """
        found = self.joined.get((text, level))
        if found is None:
            cut = self.cuts.get(text)
            if cut is None:
                found = _chars(text, level)
            else:
                base, a, b = cut
                whole = self.chars(base, level)
                found = whole[len(_chars(base[:a], level)) : len(whole) - len(_chars(base[b:], level))]
            self.joined[text, level] = found
        return found

    def upto(self, text: str, level: Level, regex: re.Pattern[str] | None, n: int) -> _Shifted:
        """`text`'s (elements, shift) at `level` with at least the first `n`
        elements made, or all of them if there are fewer.

        A key not yet complete, a cut too, is split lazily on its own, with
        shift 0.
        """
        key = text, level, regex
        found = self.get(key)
        if found is not None:
            return found
        part = self.partial.pop(key, None)
        if part is None:
            part = [], _SPLITTERS[level](text, self.language, regex)
        elements, rest = part
        if len(elements) < n:
            # islice takes no stop above sys.maxsize; no text has that many elements
            elements.extend(islice(rest, min(n, sys.maxsize) - len(elements)))
            if len(elements) < n:  # the split has ended
                self[key] = found = elements, 0
                return found
        self.partial[key] = part
        return elements, 0

    def __missing__(self, key: tuple[str, Level, re.Pattern[str] | None]) -> _Shifted:
        text, level, regex = key
        part = self.partial.pop(key, None)
        cut = self.cuts.get(text)
        derive = _DERIVE.get(level) if cut else None
        if part is not None:
            elements, rest = part
            elements.extend(rest)
            found = elements, 0
        elif derive is None:
            found = _split(text, level, self.language, regex), 0
        else:
            base, a, b = cut
            elements, _ = self[base, level, None]  # a base is never a cut: shift 0
            found = derive(_inside(elements, a, b), a, text, level, self.language)
        self[key] = found
        return found


_START = operator.itemgetter(1)
_END = operator.itemgetter(2)
# One cached split: the elements and the shift to subtract from their spans.
_Shifted = tuple[list[_Span], int]


def _inside(elements: list[_Span], a: int, b: int) -> list[_Span]:
    """The ordered, disjoint `elements` lying within [a, b]."""
    return elements[bisect_left(elements, a, key=_START) : bisect_right(elements, b, key=_END)]


def _kept(inside: list[_Span], shift: int, text: str, level: Level, language: str) -> _Shifted:
    """A cut's elements at a level whose elements never cross a newline:
    the base's elements `inside` the cut, which starts at `shift`."""
    return inside, shift


def _edges_resplit(inside: list[_Span], shift: int, text: str, level: Level, language: str) -> _Shifted:
    """A cut's sentences or paragraphs: the base's elements `inside` the cut
    (which starts at `shift`) but the first and last, with only the text
    before the second and the text after the second-to-last split again and
    moved to the base's positions.

    A cut starts after a newline and ends at one, and what decides a
    boundary (the whitespace-delimited token that ends in a terminator, or
    a run of terminators in Chinese; a maximal run of newlines) reads the
    same in the cut as in the base, except next to the cut's ends.  The head holds the
    whole break before the second element, the tail the whole break after
    the second-to-last.
    """
    if len(inside) < 3:
        return _split(text, level, language, None), 0
    head = _split(text[: inside[1][1] - shift], level, language, None)
    q = inside[-2][2]
    tail = _split(text[q - shift :], level, language, None)
    return (
        [(content, start + shift, end + shift) for content, start, end in head]
        + inside[1:-1]
        + [(content, start + q, end + q) for content, start, end in tail]
    ), shift


#: How a cut's elements at each level come from its base's split; a cut is
#: split by itself at the levels not listed (answer and pattern: a regex's
#: ``^``, ``\s`` and lookarounds see across lines).  A cut is derived only
#: from its base's complete split: a prefix of the base may end before the
#: cut does, and its last element may still change at the cut's end.  A
#: prefix read (`_Splits.upto`) splits the cut lazily on its own, which
#: gives the same elements with shift 0.
_DERIVE = {
    Level.LINE: _kept,
    Level.BULLET: _kept,
    Level.WORD: _kept,
    Level.CHARACTER: _kept,
    Level.LETTER: _kept,
    Level.PUNC: _kept,
    Level.SENTENCE: _edges_resplit,
    Level.PARAGRAPH: _edges_resplit,
}


def _holds(rule: Rule, full_text: str, splits: _Splits) -> bool:
    """verify_rule with the language held by `splits`.

    Callers that pass one `splits` split each text at most once per level
    and pattern.
    """
    *steps, terminal = rule.procedure
    texts = [full_text]
    for step in steps:
        texts = _refine(texts, step, splits)
    if terminal.predicate.kind is not PredicateKind.COUNT:
        observed: list = _refine(texts, terminal, splits)
    elif terminal.level in CHAR_LEVEL_TESTS:
        observed = [len(splits.chars(text, terminal.level)) for text in texts]
    else:
        observed = [len(splits[text, terminal.level, terminal.regex][0]) for text in texts]
    test = _COMPARE[rule.relation]
    return bool(observed) and all(test(x, rule.value) for x in observed)


#: The relaxed rewrites in the order they are tried: id -> (strip asterisks,
#: lines dropped from the start, lines dropped from the end).
_LOOSE_REWRITES = {
    "identity": (False, 0, 0),
    "strip-asterisks": (True, 0, 0),
    "drop-first-line": (False, 1, 0),
    "drop-last-line": (False, 0, 1),
    "drop-first-last-lines": (False, 1, 1),
    "strip-asterisks+drop-first-line": (True, 1, 0),
    "strip-asterisks+drop-last-line": (True, 0, 1),
    "strip-asterisks+drop-first-last-lines": (True, 1, 1),
}


def _rewrites(response: str) -> Iterator[tuple[str, str, int, int]]:
    """(id, base, a, b) for each relaxed rewrite in order: the rewrite is
    ``base[a:b]``, where the base is the response or its asterisk-stripped
    copy.

    A dropped first line moves `a` to just after the first newline, a
    dropped last line moves `b` to the last newline; a text with too few
    lines gives ``a >= b``, an empty slice.
    """
    bases = (response, response.replace("*", ""))
    for vid, (strip, head, tail) in _LOOSE_REWRITES.items():
        base = bases[strip]
        a = (base.find("\n") + 1 or len(base)) if head else 0
        b = max(base.rfind("\n"), 0) if tail else len(base)
        yield vid, base, a, b


@dataclass(frozen=True)
class Verdict:
    """Outcome of checking one response against one instruction.

    `loose_pass` is None when the relaxed pass was skipped (strict-only runs).
    When computed, strict success implies loose success via the identity
    variant.
    """

    rule_results: tuple[tuple[Rule, bool], ...]
    strict_pass: bool
    loose_pass: bool | None
    loose_variant: str | None


def verify_instruction(instruction: Instruction, response: str, loose: bool = True) -> Verdict:
    """Check every rule on the raw response, then search the relaxed rewrites.

    A relaxed rewrite counts only if it satisfies *all* rules jointly; the
    first passing variant in the fixed order is recorded.
    """
    return _verdict(instruction.rules, response, instruction.language, loose)


def _verdict(rules: tuple[Rule, ...], response: str, language: str, loose: bool) -> Verdict:
    """verify_instruction on the rules and language of an instruction.

    The strict pass and every rewrite share one split cache, which is dropped
    on return.  The search skips what is already decided: the identity
    rewrite is the strict pass, and a rewrite equal to one tried before
    fails again.  Each rewrite is sliced only when the search reaches it,
    and each one shorter than its base (the response or its asterisk-stripped
    copy) is registered as a cut of the base, so its splits are derived
    from the base's (`_DERIVE`).  In each rewrite the rule that
    failed last is checked first; a rewrite must pass every rule, so the
    order changes no verdict.
    """
    splits = _Splits(language)
    results = tuple((rule, _holds(rule, response, splits)) for rule in rules)
    strict = all(ok for _, ok in results)
    if not loose:
        return Verdict(results, strict, None, None)
    if strict:  # the first rewrite, identity, is the response itself
        return Verdict(results, True, True, "identity")
    order = [rule for rule, ok in results if not ok] + [rule for rule, ok in results if ok]
    tried = {response}
    for vid, base, a, b in _rewrites(response):
        text = base[a:b]
        if text in tried:
            continue
        tried.add(text)
        if (a, b) != (0, len(base)):
            splits.cuts[text] = (base, a, b)
        for i, rule in enumerate(order):
            if not _holds(rule, text, splits):
                order.insert(0, order.pop(i))
                break
        else:
            return Verdict(results, False, True, vid)
    return Verdict(results, False, False, None)
