"""Rule verification: scope refinement, target extraction, adjudication.

Verification starts from the whole answer as the only selected text and
walks each selected text through the remaining selection steps, depth
first, before it selects the next; at the end of each path it compares what
was selected, or counted, against the rule's value.  Comparisons quantify
universally: every selected text (or per-text count) must satisfy the
relation, and an empty selection fails.  So the first value that fails
decides the rule, and the walk stops there.
"""

from __future__ import annotations

import operator
import re
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import partial
from itertools import chain, islice, pairwise, repeat
from typing import Iterable, Iterator

from .rules import (
    Instruction,
    Level,
    PredicateKind,
    ProcedureStep,
    Relation,
    Rule,
    require_language,
)
from .segment import _SPLITTERS, CHAR_LEVEL_TESTS, _chars, _Span

def _select(step: ProcedureStep, splits: _Splits, value: int | str, text: str) -> Iterable[str | int]:
    """What one step observes in `text`, in order, made as it is read: the
    texts it selects, or for a `#` step the one count.

    `@` and `%` read `text`'s elements through `_Splits.each`, which makes
    them only as far as they are read; `@n`, `!n` and `$n` read the first n
    (`_Splits.upto`), and `@-1` the whole split.  Out-of-range ordinals
    simply select nothing; they are not errors.
    `before`/`after` select the raw text on the named side of the element's
    span; `between` the raw text separating consecutive elements.
    A `#` count reads at most the rule's `value` + 1 elements: `upto` gives
    c' of the c elements with min(c, value + 1) <= c' <= c, and c' compares
    with the value as c does under every numerical relation.
    At a single-character level (`segment.CHAR_LEVEL_TESTS`) `#`, `all` and
    `index` read only the elements' contents, so they read them from one
    string, `splits.chars`.
    """
    kind, n = step.predicate.kind, step.predicate.n
    level, regex = step.level, step.regex
    if level in CHAR_LEVEL_TESTS and kind in _CONTENT_KINDS:
        chars = splits.chars(text, level)
        if kind is _COUNT:
            return (len(chars),)
        if kind is _ALL:
            return chars
        return chars[n - 1 : n] if n > 0 else chars[-1:]
    if kind is _COUNT:
        return (len(splits.upto(text, level, regex, value + 1)[0]),)
    if kind is _ALL:
        return map(_CONTENT, splits.each(text, level, regex)[0])
    if kind is _BETWEEN:
        elements, shift = splits.each(text, level, regex)
        return (text[left[2] - shift : right[1] - shift] for left, right in pairwise(elements))
    elements, _, shift = splits.upto(text, level, regex, n) if n > 0 else splits.whole(text, level, regex)
    if len(elements) < abs(n):  # n is a positive ordinal or -1
        return ()
    el = elements[n - 1 if n > 0 else -1]
    if kind is _INDEX:
        return (el[0],)
    if kind is _BEFORE:
        return (text[: el[1] - shift],)
    return (text[el[2] - shift :],)  # AFTER


# the predicate kinds `_select` tests, as module names: a name is read in
# a few ns, an enum member as a class attribute in over 100
_COUNT, _ALL, _BETWEEN, _INDEX, _BEFORE = (
    PredicateKind.COUNT,
    PredicateKind.ALL,
    PredicateKind.BETWEEN,
    PredicateKind.INDEX,
    PredicateKind.BEFORE,
)
#: The predicate kinds that read only elements' contents.
_CONTENT_KINDS = frozenset({_COUNT, _ALL, _INDEX})


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

#: The relations that hold of a selected text only if it contains the rule's
#: value.  Every text `_holds` compares is a substring of the text the walk
#: starts from: a splitter's content is a slice of its input, at most
#: trimmed, and `_select` yields contents, slices and single characters.  So
#: a rule with one of these relations fails on a text that lacks its value.
_NEEDS_VALUE = frozenset({Relation.STARTSWITH, Relation.ENDSWITH, Relation.EQUAL, Relation.CONTAIN})


def verify_rule(rule: Rule, full_text: str, language: str = "en") -> bool:
    """Run the full pipeline for one rule against one answer text."""
    require_language(language)
    return _holds(rule, full_text, _Splits(language))


class _Splits(dict):
    """One entry per (text, level, compiled regex), begun on first use: a
    list [elements, rest, shift] of the elements made so far, the running
    splitter that makes the rest (`segment._SPLITTERS`) or None once the
    split is complete, and the shift: each element's start and end, less
    `shift`, are its span in the text.  A text split by itself has shift 0.
    A step makes only as much of a split as it reads: `@n`, `!n`, `$n` and a
    `#` count (up to the rule's value + 1) through :meth:`upto`, `@` and `%`
    through :meth:`each`, in growing runs, until the walk stops; `@-1`
    through :meth:`whole`.
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

    __slots__ = ("language", "cuts", "joined")

    def __init__(self, language: str):
        super().__init__()
        self.language = language
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

    def upto(self, text: str, level: Level, regex: re.Pattern[str] | None, n: int) -> _Entry:
        """`text`'s entry at `level` with at least the first `n` elements
        made, or all of them if there are fewer.  An entry begun here, a
        cut's too, is split on its own, with shift 0."""
        entry = self.get((text, level, regex))
        if entry is None:
            entry = self[text, level, regex] = [[], _SPLITTERS[level](text, self.language, regex), 0]
        return _extend(entry, n)

    def each(self, text: str, level: Level, regex: re.Pattern[str] | None) -> tuple[Iterable[_Span], int]:
        """`text`'s elements at `level` with their shift, made as they are
        read: `_RUN` of them first, through :meth:`upto`, then at each
        further run `_RUN` times as many as are made.  A split that is
        complete, or ends within the first run, is its own list."""
        entry = self.upto(text, level, regex, _RUN)
        return (entry[0], entry[2]) if entry[1] is None else (chain.from_iterable(_runs(entry)), 0)

    def whole(self, text: str, level: Level, regex: re.Pattern[str] | None) -> _Entry:
        """`text`'s complete entry at `level`: a cut with no entry yet is
        derived at a level in `_DERIVE`, any other entry split to the end."""
        if text in self.cuts and level in _DERIVE and (text, level, regex) not in self:
            base, a, b = self.cuts[text]
            elements, _, _ = self.whole(base, level, None)  # a base is never a cut: shift 0
            elements, shift = _DERIVE[level](_inside(elements, a, b), a, text, level, self.language)
            self[text, level, regex] = [elements, None, shift]
        return self.upto(text, level, regex, sys.maxsize)


def _extend(entry: _Entry, n: int) -> _Entry:
    """`entry` with at least its first `n` elements made, or all of them if
    there are fewer."""
    elements, rest, _ = entry
    if rest is not None and len(elements) < n:
        # islice takes no stop above sys.maxsize; no text has that many elements
        elements.extend(islice(rest, min(n, sys.maxsize) - len(elements)))
        if len(elements) < n:  # the split has ended
            entry[1] = None
    return entry


def _runs(entry: _Entry) -> Iterator[list[_Span]]:
    """The runs `_Splits.each` reads of an unfinished `entry`: the elements
    made so far, then `_RUN` times as many at each run."""
    elements, done = entry[0], 0
    while done < len(_extend(entry, _RUN * done)[0]):
        yield elements[done:]
        done = len(elements)


#: How many elements `_Splits.each` makes in its first run, and the factor
#: each further run grows by.  A read that stops at the first element still
#: makes up to this many, but a split that ends within them (as most lines
#: and sentences a nested step reads do) needs no second run, which costs
#: more than the few elements made in vain.
_RUN = 8
_CONTENT = operator.itemgetter(0)
_START = operator.itemgetter(1)
_END = operator.itemgetter(2)
# A cut's derived elements and the shift to subtract from their spans.
_Shifted = tuple[list[_Span], int]
_Entry = list  # [elements, rest, shift], as `_Splits` holds it


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
    splitter = _SPLITTERS[level]
    if len(inside) < 3:
        return list(splitter(text, language, None)), 0
    head = splitter(text[: inside[1][1] - shift], language, None)
    q = inside[-2][2]
    tail = splitter(text[q - shift :], language, None)
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
#: lazy read (`_Splits.upto`, `_Splits.each`) splits the cut on its own,
#: which gives the same elements with shift 0, and a later whole read
#: (`_Splits.whole`) finishes that split instead of deriving one.
_DERIVE = {
    Level.LINE: _kept,
    Level.BULLET: _kept,
    Level.WORD: _kept,
    Level.SENTENCE: _edges_resplit,
    Level.PARAGRAPH: _edges_resplit,
}


def _holds(rule: Rule, full_text: str, splits: _Splits) -> bool:
    """verify_rule with the language held by `splits`.

    Depth first: each selected text goes through the remaining steps before
    the next one is selected, and the first observed value that fails the
    relation decides the rule.  Callers that pass one `splits` split each
    text at most once per level and pattern.  A rule whose relation is in
    `_NEEDS_VALUE` and whose value `full_text` lacks fails unwalked.
    """
    value = rule.value
    if rule.relation in _NEEDS_VALUE and value not in full_text:
        return False
    observed: Iterable = (full_text,)
    for step in rule.procedure:
        observed = chain.from_iterable(map(partial(_select, step, splits, value), observed))
    test = _COMPARE[rule.relation]
    for first in observed:  # at least one value, and none fails
        return test(first, value) and all(map(test, observed, repeat(value)))
    return False


#: The relaxed rewrites in the order they are tried: id -> (strip asterisks,
#: drop the first line, drop the last line).
_LOOSE_REWRITES = {
    "identity": (False, False, False),
    "strip-asterisks": (True, False, False),
    "drop-first-line": (False, True, False),
    "drop-last-line": (False, False, True),
    "drop-first-last-lines": (False, True, True),
    "strip-asterisks+drop-first-line": (True, True, False),
    "strip-asterisks+drop-last-line": (True, False, True),
    "strip-asterisks+drop-first-last-lines": (True, True, True),
}


def _rewrites(response: str, stripped: str) -> Iterator[tuple[str, str, int, int]]:
    """(id, base, a, b) for each relaxed rewrite in order: the rewrite is
    ``base[a:b]``, where the base is the response or `stripped`, its
    asterisk-stripped copy (``response.replace("*", "")``).

    A dropped first line moves `a` to just after the first newline, a
    dropped last line moves `b` to the last newline; a text with too few
    lines gives ``a >= b``, an empty slice.
    """
    bases = (response, stripped)
    for vid, (strip, head, tail) in _LOOSE_REWRITES.items():
        base = bases[strip]
        a = (base.find("\n") + 1 or len(base)) if head else 0
        b = max(base.rfind("\n"), 0) if tail else len(base)
        yield vid, base, a, b


@dataclass(frozen=True)
class Verdict:
    """Outcome of checking one response against one instruction.

    `loose_pass` is None only in a strict-only run.  Otherwise strict
    success implies loose success via the identity variant, and a relaxed
    search that no rewrite can pass, and so is not run, reports False.
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
    Every rewrite is a slice of the response or of its asterisk-stripped
    copy, so when a failed rule's relation is in `_NEEDS_VALUE` and neither
    holds its value, no rewrite passes and the search is not run.
    """
    splits = _Splits(language)
    results = tuple((rule, _holds(rule, response, splits)) for rule in rules)
    strict = all(ok for _, ok in results)
    if not loose:
        return Verdict(results, strict, None, None)
    if strict:  # the first rewrite, identity, is the response itself
        return Verdict(results, True, True, "identity")
    failed = [rule for rule, ok in results if not ok]
    stripped = response.replace("*", "")
    for rule in failed:
        if rule.relation in _NEEDS_VALUE and rule.value not in response and rule.value not in stripped:
            return Verdict(results, False, False, None)
    order = failed + [rule for rule, ok in results if ok]
    tried = {response}
    for vid, base, a, b in _rewrites(response, stripped):
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
