"""One-line rule expressions: parsing and canonical formatting.

Grammar (whitespace is ignored between tokens; predicate symbols bind tightly
to their ordinal, so ``@2`` is a single token)::

    rule       := procedure relation value
    procedure  := step ("." step)*
    step       := level [pred] | "pattern(/" regex "/)" [pred]
    pred       := "@" int | "@" | "!" int | "$" int | "%" | "#"
    relation   := "=" | "!=" | ">" | ">=" | "<" | "<=" | textual-name
    value      := nonneg-int | '"' escaped-text '"'

``@N`` selects the N-th element (``@-1`` the last, bare ``@`` all of them),
``!N``/``$N`` select the raw text before/after element N, ``%`` the text
between consecutive elements, and ``#`` counts elements.  String values escape
``\\"``, ``\\\\``, ``\\n`` and ``\\r``; regex bodies end at the first unescaped
``/)``.
"""

from __future__ import annotations

import re
import sys

from .rules import (
    VALUES,
    Level,
    PredicateKind,
    ProcedureStep,
    Relation,
    Rule,
    ValidityError,
    shared_step,
)


class ParseError(ValueError):
    """Syntax error with the offending position and what was expected there."""

    def __init__(self, pos: int, expected: str):
        self.pos = pos
        self.expected = expected
        super().__init__(f"syntax error at position {pos}: expected {expected}")


class PatternError(ValueError):
    """Regex inside a pattern step failed to compile."""

    def __init__(self, pos: int, reason: str):
        self.pos = pos
        self.reason = reason
        super().__init__(f"bad regex at position {pos}: {reason}")


_LEVEL_NAMES = {lv.value: lv for lv in Level}
# longest symbols first so ">=" wins over ">" (also in _RELATION's alternation)
_NUM_RELATION_SYMBOLS = (
    (">=", Relation.GTE),
    ("<=", Relation.LTE),
    ("!=", Relation.NEQ),
    ("=", Relation.EQ),
    (">", Relation.GT),
    ("<", Relation.LT),
)
_RELATIONS = dict(_NUM_RELATION_SYMBOLS) | {r.value: r for r in Relation if not r.is_numerical}
_RELATION_SYMBOL = {rel: sym for sym, rel in _RELATIONS.items()}
# a string value's escapes: the character after the backslash -> the one it stands for
_VALUE_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "r": "\r"}
_BAD_ESCAPE = "an escape among " + " ".join("\\" + code for code in _VALUE_ESCAPES)
_ESCAPE_TABLE = str.maketrans({char: "\\" + code for code, char in _VALUE_ESCAPES.items()})

# Each token is matched whole at the current position.  Names are ASCII
# letters and numbers ASCII digits; \s is exactly str.isspace.
_SPACE = re.compile(r"\s*")
_DOT = re.compile(r"\s*\.")
# a regex body runs to the first "/)" that is not part of an escape pair
_REGEX_BODY = re.compile(r"(?:[^\\/]|\\.|/(?!\)))*/\)", re.DOTALL)
_PREDICATE = re.compile(r"@(-?[0-9]*)|!([0-9]+)|\$(-?[0-9]*)|%|#")
# a relation and the whitespace after it, up to the value
_RELATION = re.compile(r"\s*(" + "|".join(re.escape(sym) for sym, _ in _NUM_RELATION_SYMBOLS) + r"|[A-Za-z]*)\s*")
_DIGITS = re.compile(r"[0-9]+")
# a level name (group 2) and the predicate right after it (as `_PREDICATE`
# reads it): all that `_parse_step` reads of a step at any level but pattern,
# whose regex body follows
_STEP_TOKEN = re.compile(r"\s*(([A-Za-z]*)(?:" + _PREDICATE.pattern + ")?)")
# the text of each step token parsed lately -> `shared_step`'s arguments for
# it, emptied when it holds as many as `shared_step` keeps.  It holds no
# step, so a step parsed after `shared_step.cache_clear()` is still the one
# `shared_step` returns.
_STEP_ARGS: dict[str, tuple[Level, PredicateKind, int | None]] = {}
_STEP_ARGS_LIMIT = shared_step.cache_info().maxsize
_STRING_RUN = re.compile(r'[^"\\]*')


def _integer(digits: str, pos: int, what: str) -> int:
    if digits in ("", "-"):
        raise ParseError(pos, what)
    try:
        return int(digits)
    except ValueError:  # more digits than int() converts
        raise ParseError(pos, f"{what} of at most {sys.get_int_max_str_digits()} digits") from None


def _parse_step(source: str, pos: int) -> tuple[ProcedureStep, int]:
    token = _STEP_TOKEN.match(source, pos)
    known = _STEP_ARGS.get(token[1])
    if known is not None:
        return shared_step(*known), token.end()
    level = _LEVEL_NAMES.get(token[2])
    if level is None:
        raise ParseError(token.start(2), "a level name")
    pos = token.end(2)
    if level is not Level.PATTERN:
        kind, n, pos = _parse_predicate(source, pos)
        if len(_STEP_ARGS) == _STEP_ARGS_LIMIT:
            _STEP_ARGS.clear()
        _STEP_ARGS[token[1]] = (level, kind, n)
        return shared_step(level, kind, n), pos
    if not source.startswith("(/", pos):
        raise ParseError(pos, '"(/" opening the regex')
    body_pos = pos + 2
    body = _REGEX_BODY.match(source, body_pos)
    if body is None:
        raise ParseError(body_pos, 'regex body terminated by "/)"')
    kind, n, pos = _parse_predicate(source, body.end())
    try:
        # ProcedureStep reads an escaped slash as a bare one
        return shared_step(level, kind, n, source[body_pos : body.end() - 2]), pos
    except ValueError as exc:  # the regex does not compile
        raise PatternError(body_pos, str(exc)) from exc


def _parse_predicate(source: str, pos: int) -> tuple[PredicateKind, int | None, int]:
    token = _PREDICATE.match(source, pos)
    if token is None:
        return PredicateKind.ALL, None, pos  # a "!" not before a digit is left for "!="
    index, before, after = token.groups()
    end = token.end()
    if index is not None:
        if not index:
            return PredicateKind.ALL, None, end
        n = _integer(index, pos + 1, "an element ordinal")
        if n == 0:
            raise ParseError(pos + 1, "a nonzero ordinal (element numbering starts at 1)")
        if n < -1:
            raise ParseError(pos + 1, "-1 (the only negative ordinal)")
        return PredicateKind.INDEX, n, end
    if before is None and after is None:
        return (PredicateKind.BETWEEN if source[pos] == "%" else PredicateKind.COUNT), None, end
    n = _integer(before or after, pos + 1, "a positive ordinal")
    if n < 1:
        raise ParseError(pos + 1, "a positive ordinal")
    return (PredicateKind.AFTER if before is None else PredicateKind.BEFORE), n, end


def _parse_value(source: str, pos: int) -> tuple[int | str, int]:
    if source.startswith('"', pos):
        return _parse_string(source, pos)
    digits = _DIGITS.match(source, pos)
    if digits is None:
        raise ParseError(pos, "an integer or a quoted string value")
    return _integer(digits[0], pos, "a value"), digits.end()


def _parse_string(source: str, open_pos: int) -> tuple[str, int]:
    parts: list[str] = []
    pos = open_pos + 1
    while True:
        run = _STRING_RUN.match(source, pos)
        parts.append(run[0])
        pos = run.end()
        if pos == len(source):
            raise ParseError(open_pos, "a closing quote")
        if source[pos] == '"':
            value = "".join(parts)
            if not value:
                raise ParseError(open_pos, "a nonempty string value")
            return value, pos + 1
        escaped = _VALUE_ESCAPES.get(source[pos + 1 : pos + 2])
        if escaped is None:
            raise ParseError(pos, _BAD_ESCAPE)
        parts.append(escaped)
        pos += 2


def parse_rule(source: str) -> Rule:
    """Parse a one-line rule expression; reject invalid predicate/relation mixes.

    Raises ParseError (with position), PatternError for a non-compiling regex,
    or ValidityError carrying the violation codes.
    """
    step, pos = _parse_step(source, 0)
    steps = [step]
    while dot := _DOT.match(source, pos):
        step, pos = _parse_step(source, dot.end())
        steps.append(step)
    relation = _RELATION.match(source, pos)
    rel = _RELATIONS.get(relation[1])
    if rel is None:
        raise ParseError(relation.start(1), "a relation")
    value, pos = _parse_value(source, relation.end())
    if pos != len(source):
        pos = _SPACE.match(source, pos).end()
        if pos != len(source):
            raise ParseError(pos, "end of expression")
    return Rule(tuple(steps), rel, value)


_ESCAPE_PAIR_OR_SLASH = re.compile(r"\\.|/", re.DOTALL)


def _escape_regex_body(body: str) -> str:
    """Escape bare slashes so the body cannot end early; keep escape pairs."""
    return _ESCAPE_PAIR_OR_SLASH.sub(lambda m: "\\/" if m.group(0) == "/" else m.group(0), body)


def _escape_value(value: str) -> str:
    return f'"{value.translate(_ESCAPE_TABLE)}"'


_PREDICATE_SYMBOL = {
    PredicateKind.INDEX: "@",
    PredicateKind.ALL: "@",
    PredicateKind.BEFORE: "!",
    PredicateKind.AFTER: "$",
    PredicateKind.BETWEEN: "%",
    PredicateKind.COUNT: "#",
}


def _format_predicate(step: ProcedureStep) -> str:
    pred = step.predicate
    if pred.kind is PredicateKind.ALL and step.level is Level.ANSWER:
        return ""  # answer always means the whole text; writing "@" there is redundant
    symbol = _PREDICATE_SYMBOL[pred.kind]
    return symbol if pred.n is None else f"{symbol}{pred.n}"


def format_rule(rule: Rule) -> str:
    """Render a rule in canonical one-line form; parse(format(rule)) == rule."""
    parts: list[str] = []
    for step in rule.procedure:
        if step.level is Level.PATTERN:
            base = f"pattern(/{_escape_regex_body(step.pattern or '')}/)"
        else:
            base = VALUES[step.level]
        parts.append(base + _format_predicate(step))
    relation = _RELATION_SYMBOL[rule.relation]
    if isinstance(rule.value, str):
        value = _escape_value(rule.value)
    else:
        value = str(rule.value)
    return f"{'.'.join(parts)} {relation} {value}"
