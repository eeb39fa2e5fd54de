"""Brute-force reference checker used to cross-validate the verification engine.

Everything here is written directly from the documented segmentation and
selection behavior, with plain character loops and no shared code with the
library implementation (only the rule data types are imported).  Keep it dumb:
clarity over speed, no regex except for the pattern level, which is regex by
definition.
"""

from __future__ import annotations

import re
import unicodedata

from lexcheck.rules import Level, PredicateKind, Relation, Rule

EN_ABBREV = {"Mr.", "Mrs.", "Dr.", "Prof.", "St.", "e.g.", "i.e.", "etc.", "vs.", "Fig.", "Eq."}
EN_TERMINALS = ".!?"
ZH_TERMINALS = "。！？…"


def is_cjk(ch: str) -> bool:
    cp = ord(ch)
    return 0x4E00 <= cp <= 0x9FFF or 0x3400 <= cp <= 0x4DBF


def is_ascii_letter(ch: str) -> bool:
    return "A" <= ch <= "Z" or "a" <= ch <= "z"


def is_punct(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P") or ch == "～"


def para_spans(text: str):
    """Regions between runs of two or more newlines; whitespace-only dropped."""
    breaks = []
    i = 0
    while i < len(text):
        if text[i] == "\n":
            j = i
            while j < len(text) and text[j] == "\n":
                j += 1
            if j - i >= 2:
                breaks.append((i, j))
            i = j
        else:
            i += 1
    pieces = []
    prev = 0
    for a, b in breaks:
        pieces.append((prev, a))
        prev = b
    pieces.append((prev, len(text)))
    out = []
    for a, b in pieces:
        raw = text[a:b]
        if raw.strip():
            out.append((raw.strip(), a, b))
    return out


def line_spans(text: str):
    out = []
    start = 0
    for i in range(len(text) + 1):
        if i == len(text) or text[i] == "\n":
            raw = text[start:i]
            if raw.strip():
                out.append((raw, start, i))
            start = i + 1
    return out


def _bullet_content(line: str) -> str | None:
    k = 0
    while k < len(line) and line[k].isspace():
        k += 1
    if k >= len(line):
        return None
    m = None
    if line[k] in "*+-":
        m = k + 1
    elif line[k].isdigit() and line[k].isascii():
        j = k
        while j < len(line) and line[j].isdigit() and line[j].isascii():
            j += 1
        if j < len(line) and line[j] in ".)":
            m = j + 1
    if m is None:
        return None
    if m >= len(line) or not line[m].isspace():
        return None
    while m < len(line) and line[m].isspace():
        m += 1
    return line[m:]


def bullet_spans(text: str):
    out = []
    start = 0
    for i in range(len(text) + 1):
        if i == len(text) or text[i] == "\n":
            content = _bullet_content(text[start:i])
            if content is not None:
                out.append((content, start, i))
            start = i + 1
    return out


def sentence_spans_en(text: str):
    n = len(text)
    boundaries = []
    i = 0
    while i < n:
        if text[i] in EN_TERMINALS:
            j = i
            while j < n and text[j] in EN_TERMINALS:
                j += 1
            followed_ok = j == n or text[j].isspace()
            if followed_ok:
                k = i
                while k > 0 and not text[k - 1].isspace():
                    k -= 1
                token = text[k:j]
                if token not in EN_ABBREV:
                    boundaries.append(j)
            i = j
        else:
            i += 1
    return _assemble_sentences(text, boundaries)


def sentence_spans_zh(text: str):
    n = len(text)
    boundaries = []
    i = 0
    while i < n:
        if text[i] in ZH_TERMINALS:
            j = i
            while j < n and text[j] in ZH_TERMINALS:
                j += 1
            boundaries.append(j)
            i = j
        else:
            i += 1
    return _assemble_sentences(text, boundaries)


def _assemble_sentences(text: str, boundaries):
    out = []
    n = len(text)
    start = 0
    while start < n and text[start].isspace():
        start += 1
    for b in boundaries:
        if start < b:
            out.append((text[start:b], start, b))
        start = b
        while start < n and text[start].isspace():
            start += 1
    end = n
    while end > start and text[end - 1].isspace():
        end -= 1
    if start < end:
        out.append((text[start:end], start, end))
    return out


def word_spans(text: str):
    out = []
    i = 0
    n = len(text)
    while i < n:
        if text[i].isspace():
            i += 1
            continue
        j = i
        while j < n and not text[j].isspace():
            j += 1
        token = text[i:j]
        a = 0
        b = len(token)
        while a < b and is_punct(token[a]):
            a += 1
        while b > a and is_punct(token[b - 1]):
            b -= 1
        if a < b:
            out.append((token[a:b], i, j))
        i = j
    return out


def char_class_spans(text: str, keep) -> list:
    return [(ch, i, i + 1) for i, ch in enumerate(text) if keep(ch)]


def pattern_spans(text: str, regex: str):
    return [(m.group(0), m.start(), m.end()) for m in re.finditer(regex, text)]


def split_level(text: str, level: Level, language: str, regex: str | None):
    """Elements of `text` at `level` as (content, start, end) triples."""
    if level is Level.ANSWER:
        return [(text, 0, len(text))] if text else []
    if level is Level.PARAGRAPH:
        return para_spans(text)
    if level is Level.LINE:
        return line_spans(text)
    if level is Level.BULLET:
        return bullet_spans(text)
    if level is Level.SENTENCE:
        return sentence_spans_zh(text) if language == "zh" else sentence_spans_en(text)
    if level is Level.WORD:
        return word_spans(text)
    if level is Level.CHARACTER:
        return char_class_spans(text, is_cjk)
    if level is Level.LETTER:
        return char_class_spans(text, is_ascii_letter)
    if level is Level.PUNC:
        return char_class_spans(text, is_punct)
    if level is Level.PATTERN:
        return pattern_spans(text, regex or "")
    raise AssertionError(level)


def refine(texts: list[str], step, language: str) -> list[str]:
    """Apply one non-count step to each scope segment in order."""
    out: list[str] = []
    for text in texts:
        elements = split_level(text, step.level, language, step.pattern)
        kind = step.predicate.kind
        if kind is PredicateKind.INDEX:
            n = step.predicate.n
            if n == -1:
                if elements:
                    out.append(elements[-1][0])
            elif 1 <= n <= len(elements):
                out.append(elements[n - 1][0])
        elif kind is PredicateKind.ALL:
            out.extend(content for content, _, _ in elements)
        elif kind is PredicateKind.BEFORE:
            n = step.predicate.n
            if 1 <= n <= len(elements):
                out.append(text[: elements[n - 1][1]])
        elif kind is PredicateKind.AFTER:
            n = step.predicate.n
            if 1 <= n <= len(elements):
                out.append(text[elements[n - 1][2] :])
        elif kind is PredicateKind.BETWEEN:
            for left, right in zip(elements, elements[1:]):
                out.append(text[left[2] : right[1]])
        else:
            raise AssertionError(kind)
    return out


def compare_number(count: int, relation: Relation, value: int) -> bool:
    if relation is Relation.EQ:
        return count == value
    if relation is Relation.NEQ:
        return count != value
    if relation is Relation.GT:
        return count > value
    if relation is Relation.GTE:
        return count >= value
    if relation is Relation.LT:
        return count < value
    if relation is Relation.LTE:
        return count <= value
    raise AssertionError(relation)


def compare_text(text: str, relation: Relation, value: str) -> bool:
    if relation is Relation.STARTSWITH:
        return text.startswith(value)
    if relation is Relation.ENDSWITH:
        return text.endswith(value)
    if relation is Relation.EQUAL:
        return text == value
    if relation is Relation.CONTAIN:
        return value in text
    if relation is Relation.NOTSTARTSWITH:
        return not text.startswith(value)
    if relation is Relation.NOTENDSWITH:
        return not text.endswith(value)
    if relation is Relation.NOTCONTAIN:
        return value not in text
    raise AssertionError(relation)


def brute_verify(rule: Rule, full_text: str, language: str) -> bool:
    """Naive end-to-end check of one rule against one answer text."""
    steps = rule.procedure
    terminal = steps[-1]
    counting = terminal.predicate.kind is PredicateKind.COUNT
    scope = [full_text]
    for step in steps[:-1] if counting else steps:
        scope = refine(scope, step, language)
    if counting:
        if not scope:
            counts = [0] if len(steps) == 1 else []
        else:
            counts = [len(split_level(s, terminal.level, language, terminal.pattern)) for s in scope]
        if not counts:
            return False
        return all(compare_number(c, rule.relation, rule.value) for c in counts)
    if not scope:
        return False
    return all(compare_text(s, rule.relation, rule.value) for s in scope)


#: The README's relaxed rewrites in evaluation order: (id, strip asterisks,
#: drop the first line, drop the last line).
LOOSE_REWRITES = (
    ("identity", False, False, False),
    ("strip-asterisks", True, False, False),
    ("drop-first-line", False, True, False),
    ("drop-last-line", False, False, True),
    ("drop-first-last-lines", False, True, True),
    ("strip-asterisks+drop-first-line", True, True, False),
    ("strip-asterisks+drop-last-line", True, False, True),
    ("strip-asterisks+drop-first-last-lines", True, True, True),
)


def _without_asterisks(text: str) -> str:
    return "".join(ch for ch in text if ch != "*")


def _drop_lines(text: str, first: bool, last: bool) -> str:
    """Remove the first and/or last newline-delimited line; a text with too
    few lines leaves nothing."""
    starts, ends = [0], []
    for i, ch in enumerate(text):
        if ch == "\n":
            ends.append(i)
            starts.append(i + 1)
    ends.append(len(text))
    lines = [text[a:b] for a, b in zip(starts, ends)]
    if first:
        lines = lines[1:]
    if last:
        lines = lines[:-1]
    return "\n".join(lines)


def loose_rewrites(text: str) -> list[tuple[str, str]]:
    """The eight relaxed rewrites of `text`, in evaluation order."""
    out = []
    for rewrite_id, strip, first, last in LOOSE_REWRITES:
        base = _without_asterisks(text) if strip else text
        out.append((rewrite_id, _drop_lines(base, first, last)))
    return out


def brute_loose_variant(rules, text: str, language: str) -> str | None:
    """The first rewrite on which every rule passes, or None."""
    for rewrite_id, rewrite in loose_rewrites(text):
        if all(brute_verify(rule, rewrite, language) for rule in rules):
            return rewrite_id
    return None
