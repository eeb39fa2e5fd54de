"""Rule verification: scope refinement, target extraction, adjudication.

Verification starts from the whole answer as the only selected text, applies
each selection step in order, and finally compares what survives against the
rule's value.  Comparisons quantify universally: every selected text (or
per-text count) must satisfy the relation, and an empty selection fails.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable

from .rules import (
    Instruction,
    PredicateKind,
    ProcedureStep,
    Relation,
    Rule,
    require_language,
    require_valid,
)
from .segment import _Span, _split


def _select(elements: list[_Span], n: int) -> _Span | None:
    if n == -1:
        return elements[-1] if elements else None
    return elements[n - 1] if 1 <= n <= len(elements) else None


def _refine(
    texts: list[str], step: ProcedureStep, split: Callable[[str, ProcedureStep], list[_Span]]
) -> list[str]:
    """Apply one non-count step to every text, preserving order.

    `split(text, step)` gives the text's elements at the step's level.
    Out-of-range ordinals simply contribute no texts; they are not errors.
    `before`/`after` keep the raw text on the named side of the element's
    span; `between` keeps the raw text separating consecutive elements.
    """
    kind = step.predicate.kind
    out: list[str] = []
    for text in texts:
        elements = split(text, step)
        if kind is PredicateKind.ALL:
            out.extend(el[0] for el in elements)
        elif kind is PredicateKind.BETWEEN:
            out.extend(text[left[2] : right[1]] for left, right in zip(elements, elements[1:]))
        else:
            el = _select(elements, step.predicate.n)
            if el is None:
                continue
            if kind is PredicateKind.INDEX:
                out.append(el[0])
            elif kind is PredicateKind.BEFORE:
                out.append(text[: el[1]])
            else:  # AFTER
                out.append(text[el[2] :])
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
    require_valid(rule)
    require_language(language)
    return _holds(rule, full_text, language, {})


def _holds(rule: Rule, full_text: str, language: str, splits: dict) -> bool:
    """verify_rule for a valid rule and a known language.

    `splits` caches elements by (text, level, pattern), so callers that pass
    one dict split each text at most once per level and pattern.
    """

    def split(text: str, step: ProcedureStep) -> list[_Span]:
        key = (text, step.level, step.pattern)
        found = splits.get(key)
        if found is None:
            found = splits[key] = _split(text, step.level, language, step.pattern)
        return found

    *steps, terminal = rule.procedure
    texts = [full_text]
    for step in steps:
        texts = _refine(texts, step, split)
    if terminal.predicate.kind is PredicateKind.COUNT:
        observed: list = [len(split(text, terminal)) for text in texts]
    else:
        observed = _refine(texts, terminal, split)
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
LOOSE_VARIANT_IDS = tuple(_LOOSE_REWRITES)


def loose_variants(full_text: str) -> list[tuple[str, str]]:
    """The eight relaxed rewrites of an answer, in fixed evaluation order.

    Line removal works on newline-delimited lines of the raw text; removing a
    line from a text with at most one line leaves the empty string.
    """
    lines = full_text.split("\n")
    kept = {(head, tail): "\n".join(lines[head : len(lines) - tail]) for head in (0, 1) for tail in (0, 1)}
    return [
        (vid, kept[head, tail].replace("*", "") if strip else kept[head, tail])
        for vid, (strip, head, tail) in _LOOSE_REWRITES.items()
    ]


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
    for rule in instruction.rules:
        require_valid(rule)
    return _verdict(instruction.rules, response, instruction.language, loose)


def _verdict(rules: tuple[Rule, ...], response: str, language: str, loose: bool) -> Verdict:
    """verify_instruction for rules already known to be valid.

    The strict pass and every rewrite share one split cache, which is dropped
    on return.
    """
    splits: dict = {}
    results = tuple((rule, _holds(rule, response, language, splits)) for rule in rules)
    strict = all(ok for _, ok in results)
    if not loose:
        return Verdict(results, strict, None, None)
    for vid, text in loose_variants(response):
        ok = strict if vid == "identity" else all(_holds(rule, text, language, splits) for rule in rules)
        if ok:
            return Verdict(results, strict, True, vid)
    return Verdict(results, strict, False, None)
