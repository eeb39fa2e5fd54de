"""Rule verification: scope refinement, target extraction, adjudication.

Verification starts from the whole answer as a single scope segment, applies
each selection step in order, and finally compares what survives against the
rule's value.  Comparisons quantify universally: every surviving segment (or
per-segment count) must satisfy the relation, and an empty selection fails.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

from .rules import (
    Instruction,
    PredicateKind,
    ProcedureStep,
    Relation,
    Rule,
    require_valid,
)
from .segment import _Span, _split


@dataclass(frozen=True)
class ScopeSegment:
    """A surviving piece of text plus the selection path that produced it."""

    text: str
    path: str


@dataclass(frozen=True)
class Scope:
    segments: tuple[ScopeSegment, ...]
    language: str
    #: Elements already split during this verification, keyed by
    #: (text, level, pattern); shared by every scope refined from one initial
    #: scope, so a text is split at most once per level and pattern.
    splits: dict[tuple, list[_Span]] = field(default_factory=dict, compare=False, repr=False)

    @classmethod
    def initial(cls, full_text: str, language: str) -> Scope:
        return cls((ScopeSegment(full_text, "answer"),), language)

    def elements(self, text: str, step: ProcedureStep) -> list[_Span]:
        """`text` split at the step's level, as (content, start, end) tuples."""
        key = (text, step.level, step.pattern)
        found = self.splits.get(key)
        if found is None:
            found = self.splits[key] = _split(text, step.level, self.language, step.pattern)
        return found


@dataclass(frozen=True)
class Target:
    """What adjudication compares: per-segment counts or segment texts."""

    counts: tuple[int, ...] | None = None
    texts: tuple[str, ...] | None = None

    @classmethod
    def of_counts(cls, counts: tuple[int, ...]) -> Target:
        return cls(counts=counts)

    @classmethod
    def of_texts(cls, texts: tuple[str, ...]) -> Target:
        return cls(texts=texts)


def _select(elements: list[_Span], n: int) -> _Span | None:
    if n == -1:
        return elements[-1] if elements else None
    return elements[n - 1] if 1 <= n <= len(elements) else None


def refine_scope(scope: Scope, step: ProcedureStep) -> Scope:
    """Apply one non-count step to every segment, preserving order.

    Out-of-range ordinals simply contribute no sub-segments; they are not
    errors.  `before`/`after` keep the raw text on the named side of the
    element's span; `between` keeps the raw text separating consecutive
    elements.
    """
    if step.predicate.kind is PredicateKind.COUNT:
        raise ValueError("count is a terminal predicate; it does not refine a scope")
    out: list[ScopeSegment] = []
    tag = step.level.value
    for seg in scope.segments:
        elements = scope.elements(seg.text, step)
        kind = step.predicate.kind
        if kind is PredicateKind.INDEX:
            el = _select(elements, step.predicate.n or 0)
            if el is not None:
                out.append(ScopeSegment(el[0], f"{seg.path}/{tag}[{step.predicate.n}]"))
        elif kind is PredicateKind.ALL:
            out.extend(
                ScopeSegment(el[0], f"{seg.path}/{tag}[{i}]")
                for i, el in enumerate(elements, 1)
            )
        elif kind is PredicateKind.BEFORE:
            el = _select(elements, step.predicate.n or 0)
            if el is not None:
                out.append(ScopeSegment(seg.text[: el[1]], f"{seg.path}/{tag}!{step.predicate.n}"))
        elif kind is PredicateKind.AFTER:
            el = _select(elements, step.predicate.n or 0)
            if el is not None:
                out.append(ScopeSegment(seg.text[el[2] :], f"{seg.path}/{tag}${step.predicate.n}"))
        else:  # BETWEEN: the raw text separating consecutive elements
            out.extend(
                ScopeSegment(seg.text[left[2] : right[1]], f"{seg.path}/{tag}%[{j}]")
                for j, (left, right) in enumerate(zip(elements, elements[1:]), 1)
            )
    return Scope(tuple(out), scope.language, scope.splits)


def identify_target(scope: Scope, rule: Rule) -> Target:
    """Build the comparison target after all refinement steps have run."""
    terminal = rule.procedure[-1]
    if terminal.predicate.kind is PredicateKind.COUNT:
        if not scope.segments:
            # counting over nothing: a bare one-step count still counts the
            # (empty) answer and yields 0; deeper procedures yield no counts
            if len(rule.procedure) == 1:
                return Target.of_counts((0,))
            return Target.of_counts(())
        counts = tuple(len(scope.elements(seg.text, terminal)) for seg in scope.segments)
        return Target.of_counts(counts)
    return Target.of_texts(tuple(seg.text for seg in scope.segments))


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


def adjudicate(target: Target, relation: Relation, value: int | str) -> bool:
    """True iff every target entry satisfies the relation; empty targets fail."""
    observed = target.counts if target.counts is not None else target.texts or ()
    test = _COMPARE[relation]
    return bool(observed) and all(test(x, value) for x in observed)


def verify_rule(rule: Rule, full_text: str, language: str = "en") -> bool:
    """Run the full pipeline for one rule against one answer text."""
    require_valid(rule)
    return _holds(rule, full_text, language, {})


def _holds(rule: Rule, full_text: str, language: str, splits: dict) -> bool:
    """verify_rule for a rule already known to be valid, reusing `splits`."""
    scope = Scope((ScopeSegment(full_text, "answer"),), language, splits)
    steps = rule.procedure
    counting = steps[-1].predicate.kind is PredicateKind.COUNT
    for step in steps[:-1] if counting else steps:
        scope = refine_scope(scope, step)
    target = identify_target(scope, rule)
    return adjudicate(target, rule.relation, rule.value)


def _strip_asterisks(text: str) -> str:
    return text.replace("*", "")


#: Identifiers of the relaxed rewrites, in the order they are tried.
LOOSE_VARIANT_IDS = (
    "identity",
    "strip-asterisks",
    "drop-first-line",
    "drop-last-line",
    "drop-first-last-lines",
    "strip-asterisks+drop-first-line",
    "strip-asterisks+drop-last-line",
    "strip-asterisks+drop-first-last-lines",
)


def loose_variants(full_text: str) -> list[tuple[str, str]]:
    """The eight relaxed rewrites of an answer, in fixed evaluation order.

    Line removal works on newline-delimited lines of the raw text; removing a
    line from a text with at most one line leaves the empty string.
    """
    lines = full_text.split("\n")
    drop_first = "\n".join(lines[1:])
    drop_last = "\n".join(lines[:-1])
    drop_both = "\n".join(lines[1:-1])
    return [
        ("identity", full_text),
        ("strip-asterisks", _strip_asterisks(full_text)),
        ("drop-first-line", drop_first),
        ("drop-last-line", drop_last),
        ("drop-first-last-lines", drop_both),
        ("strip-asterisks+drop-first-line", _strip_asterisks(drop_first)),
        ("strip-asterisks+drop-last-line", _strip_asterisks(drop_last)),
        ("strip-asterisks+drop-first-last-lines", _strip_asterisks(drop_both)),
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
