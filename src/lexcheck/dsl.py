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
``\\"``, ``\\\\`` and ``\\n``; regex bodies end at the first unescaped ``/)``.
"""

from __future__ import annotations

import re
import sys

from .rules import (
    Level,
    Predicate,
    PredicateKind,
    ProcedureStep,
    Relation,
    Rule,
    ValidityError,
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
_TEXT_RELATION_NAMES = {r.value: r for r in Relation if not r.is_numerical}
# longest symbols first so ">=" wins over ">"
_NUM_RELATION_SYMBOLS = (
    (">=", Relation.GTE),
    ("<=", Relation.LTE),
    ("!=", Relation.NEQ),
    ("=", Relation.EQ),
    (">", Relation.GT),
    ("<", Relation.LT),
)
_RELATION_SYMBOL = {rel: sym for sym, rel in _NUM_RELATION_SYMBOLS}


class _Cursor:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def at_end(self) -> bool:
        return self.pos >= len(self.text)


def _read_name(cur: _Cursor) -> str:
    start = cur.pos
    while not cur.at_end() and (cur.peek().isalpha() and cur.peek().isascii()):
        cur.pos += 1
    return cur.text[start : cur.pos]


def _read_int(cur: _Cursor, what: str) -> int:
    start = cur.pos
    negative = False
    if cur.peek() == "-":
        negative = True
        cur.pos += 1
    digits_start = cur.pos
    while not cur.at_end() and cur.peek().isdigit() and cur.peek().isascii():
        cur.pos += 1
    if cur.pos == digits_start:
        raise ParseError(start, what)
    try:
        n = int(cur.text[digits_start : cur.pos])
    except ValueError:  # more digits than int() converts
        raise ParseError(start, f"{what} of at most {sys.get_int_max_str_digits()} digits") from None
    return -n if negative else n


def _read_regex_body(cur: _Cursor) -> str:
    """Consume the body of ``pattern(/.../)`` up to the unescaped ``/)``."""
    start = cur.pos
    out: list[str] = []
    while not cur.at_end():
        ch = cur.take()
        if ch == "\\":
            if cur.at_end():
                break
            nxt = cur.take()
            if nxt == "/":
                out.append("/")  # DSL-level escape for a literal slash
            else:
                out.append(ch)
                out.append(nxt)
        elif ch == "/" and cur.peek() == ")":
            cur.pos += 1
            return "".join(out)
        else:
            out.append(ch)
    raise ParseError(start, 'regex body terminated by "/)"')


def _parse_step(cur: _Cursor) -> ProcedureStep:
    cur.skip_ws()
    name_pos = cur.pos
    name = _read_name(cur)
    level = _LEVEL_NAMES.get(name)
    if level is None:
        raise ParseError(name_pos, "a level name")
    regex: str | None = None
    if level is Level.PATTERN:
        if cur.text[cur.pos : cur.pos + 2] != "(/":
            raise ParseError(cur.pos, '"(/" opening the regex')
        cur.pos += 2
        body_pos = cur.pos
        regex = _read_regex_body(cur)
        predicate = _parse_predicate(cur)
        try:
            return ProcedureStep(level, predicate, regex)
        except ValueError as exc:  # the regex does not compile
            raise PatternError(body_pos, str(exc)) from exc
    return ProcedureStep(level, _parse_predicate(cur))


def _parse_predicate(cur: _Cursor) -> Predicate:
    ch = cur.peek()
    if ch == "@":
        cur.pos += 1
        nxt = cur.peek()
        if nxt == "-" or (nxt.isdigit() and nxt.isascii()):
            n_pos = cur.pos
            n = _read_int(cur, "an element ordinal")
            if n == 0:
                raise ParseError(n_pos, "a nonzero ordinal (element numbering starts at 1)")
            if n < -1:
                raise ParseError(n_pos, "-1 (the only negative ordinal)")
            return Predicate.index(n)
        return Predicate.all()
    if ch == "!":
        nxt = cur.text[cur.pos + 1 : cur.pos + 2]
        if not (nxt.isdigit() and nxt.isascii()):
            return Predicate.all()  # leave "!=" for the relation parser
        cur.pos += 1
        n_pos = cur.pos
        n = _read_int(cur, "a positive ordinal")
        if n < 1:
            raise ParseError(n_pos, "a positive ordinal")
        return Predicate.before(n)
    if ch == "$":
        cur.pos += 1
        n_pos = cur.pos
        n = _read_int(cur, "a positive ordinal")
        if n < 1:
            raise ParseError(n_pos, "a positive ordinal")
        return Predicate.after(n)
    if ch == "%":
        cur.pos += 1
        return Predicate.between()
    if ch == "#":
        cur.pos += 1
        return Predicate.count()
    return Predicate.all()


def _parse_relation(cur: _Cursor) -> Relation:
    cur.skip_ws()
    for sym, rel in _NUM_RELATION_SYMBOLS:
        if cur.text.startswith(sym, cur.pos):
            cur.pos += len(sym)
            return rel
    name_pos = cur.pos
    name = _read_name(cur)
    rel = _TEXT_RELATION_NAMES.get(name)
    if rel is None:
        raise ParseError(name_pos, "a relation")
    return rel


def _parse_value(cur: _Cursor) -> int | str:
    cur.skip_ws()
    if cur.peek() == '"':
        open_pos = cur.pos
        cur.pos += 1
        out: list[str] = []
        while not cur.at_end():
            ch = cur.take()
            if ch == '"':
                if not out:
                    raise ParseError(open_pos, "a nonempty string value")
                return "".join(out)
            if ch == "\\":
                backslash = cur.pos - 1
                esc = cur.take() if not cur.at_end() else ""
                if esc == '"':
                    out.append('"')
                elif esc == "\\":
                    out.append("\\")
                elif esc == "n":
                    out.append("\n")
                else:
                    raise ParseError(backslash, 'an escape among \\" \\\\ \\n')
            else:
                out.append(ch)
        raise ParseError(open_pos, "a closing quote")
    if cur.peek().isdigit() and cur.peek().isascii():
        return _read_int(cur, "a value")
    raise ParseError(cur.pos, "an integer or a quoted string value")


def parse_rule(source: str) -> Rule:
    """Parse a one-line rule expression; reject invalid predicate/relation mixes.

    Raises ParseError (with position), PatternError for a non-compiling regex,
    or ValidityError carrying the violation codes.
    """
    cur = _Cursor(source)
    steps = [_parse_step(cur)]
    while True:
        cur.skip_ws()
        if cur.peek() == ".":
            cur.pos += 1
            steps.append(_parse_step(cur))
        else:
            break
    relation = _parse_relation(cur)
    value = _parse_value(cur)
    cur.skip_ws()
    if not cur.at_end():
        raise ParseError(cur.pos, "end of expression")
    return Rule(tuple(steps), relation, value)


_ESCAPE_PAIR_OR_SLASH = re.compile(r"\\.|/", re.DOTALL)


def _escape_regex_body(body: str) -> str:
    """Escape bare slashes so the body cannot end early; keep escape pairs."""
    return _ESCAPE_PAIR_OR_SLASH.sub(lambda m: "\\/" if m.group(0) == "/" else m.group(0), body)


def _escape_value(value: str) -> str:
    escaped = value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return f'"{escaped}"'


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
            base = step.level.value
        parts.append(base + _format_predicate(step))
    relation = _RELATION_SYMBOL.get(rule.relation, rule.relation.value)
    if isinstance(rule.value, str):
        value = _escape_value(rule.value)
    else:
        value = str(rule.value)
    return f"{'.'.join(parts)} {relation} {value}"
