"""Rule model: text levels, selection predicates, relations, and validity checks.

A rule pairs a *procedure* (a chain of level-addressing steps that narrows the
answer down to some elements) with a *relation* and a *value* to compare the
selected elements against.  Rules are plain immutable data and valid by
construction: building a ``Rule`` checks the semantic constraints between its
steps, relation and value once, and raises one ``ValidityError`` carrying a
stable list of violation codes when any is broken.  No other function checks a
rule again.  An ``Instruction`` is valid by construction too: its ``depth``,
``count`` and ``difficulty`` must be what its rules give, so every instruction
that can be built, in Python or from a file, can be written and read back.
"""

from __future__ import annotations

import enum
import functools
import re
from dataclasses import dataclass, field

LANGUAGES = ("en", "zh")
DIFFICULTIES = ("easy", "medium", "hard")


class Level(str, enum.Enum):
    """Granularity tiers a procedure step can address, coarsest first."""

    ANSWER = "answer"
    PARAGRAPH = "paragraph"
    LINE = "line"
    BULLET = "bullet"
    SENTENCE = "sentence"
    WORD = "word"
    CHARACTER = "character"
    LETTER = "letter"
    PUNC = "punc"
    PATTERN = "pattern"


# Granularity ranks.  line/bullet and character/letter/punc share a rank and are
# mutually incomparable, so neither may follow the other in a procedure.  The
# pattern level is finer than every other: a regex step may follow any other
# level, and nothing is finer than a regex match.
LEVEL_RANK = {
    Level.ANSWER: 0,
    Level.PARAGRAPH: 1,
    Level.LINE: 2,
    Level.BULLET: 2,
    Level.SENTENCE: 3,
    Level.WORD: 4,
    Level.CHARACTER: 5,
    Level.LETTER: 5,
    Level.PUNC: 5,
    Level.PATTERN: 6,
}


def descends(outer: Level, inner: Level) -> bool:
    """True when a step at `inner` may directly follow a step at `outer`."""
    return LEVEL_RANK[inner] > LEVEL_RANK[outer]


class PredicateKind(str, enum.Enum):
    INDEX = "index"
    ALL = "all"
    BEFORE = "before"
    AFTER = "after"
    BETWEEN = "between"
    COUNT = "count"


@dataclass(frozen=True)
class Predicate:
    """Element selector attached to a procedure step.

    ``index`` takes n >= 1 or n == -1 (last element); ``before``/``after`` take
    a positive ordinal; the remaining kinds carry no argument.
    """

    kind: PredicateKind
    n: int | None = None

    def __post_init__(self) -> None:
        if self.kind is PredicateKind.INDEX:
            if not isinstance(self.n, int) or isinstance(self.n, bool):
                raise ValueError("index predicate requires an integer ordinal")
            if self.n == 0 or self.n < -1:
                raise ValueError("index ordinal must be >= 1, or -1 for the last element")
        elif self.kind in (PredicateKind.BEFORE, PredicateKind.AFTER):
            if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
                raise ValueError(f"{self.kind.value} predicate requires a positive ordinal")
        elif self.n is not None:
            raise ValueError(f"{self.kind.value} predicate takes no ordinal")


class Relation(str, enum.Enum):
    # numerical: compare an element count against an integer
    EQ = "eq"
    NEQ = "neq"
    GT = "gt"
    GTE = "gte"
    LT = "lt"
    LTE = "lte"
    # textual: compare selected element texts against a string
    STARTSWITH = "startswith"
    ENDSWITH = "endswith"
    EQUAL = "equal"
    CONTAIN = "contain"
    NOTSTARTSWITH = "notstartswith"
    NOTENDSWITH = "notendswith"
    NOTCONTAIN = "notcontain"

    @property
    def is_numerical(self) -> bool:
        return self in _NUMERICAL_RELATIONS


#: The relations that compare selected texts; index and all admit each of them.
_TEXTUAL_RELATIONS = (
    Relation.STARTSWITH,
    Relation.ENDSWITH,
    Relation.EQUAL,
    Relation.CONTAIN,
    Relation.NOTSTARTSWITH,
    Relation.NOTENDSWITH,
    Relation.NOTCONTAIN,
)

#: Relations admitted for each terminal predicate kind, in a fixed order so
#: samplers and docs enumerate them deterministically.
ALLOWED_RELATIONS: dict[PredicateKind, tuple[Relation, ...]] = {
    PredicateKind.COUNT: (
        Relation.EQ,
        Relation.NEQ,
        Relation.GT,
        Relation.GTE,
        Relation.LT,
        Relation.LTE,
    ),
    PredicateKind.INDEX: _TEXTUAL_RELATIONS,
    PredicateKind.ALL: _TEXTUAL_RELATIONS,
    PredicateKind.BEFORE: (Relation.CONTAIN, Relation.NOTCONTAIN),
    PredicateKind.AFTER: (Relation.CONTAIN, Relation.NOTCONTAIN, Relation.EQUAL),
    PredicateKind.BETWEEN: (Relation.EQUAL,),
}

#: The relations that compare an element count against an integer.
_NUMERICAL_RELATIONS = frozenset(ALLOWED_RELATIONS[PredicateKind.COUNT])

#: Each level, predicate kind and relation -> its value.  ``member.value``
#: goes through the enum's Python-level descriptor on every read; rendering
#: reads these values in a loop, so it looks them up here.
VALUES: dict[Level | PredicateKind | Relation, str] = {
    member: member.value for members in (Level, PredicateKind, Relation) for member in members
}


_ESCAPE_PAIR = re.compile(r"\\(.)", re.DOTALL)


def _canonical_regex(source: str) -> str:
    """Rewrite escaped slashes to bare slashes; the two spell the same regex."""
    return _ESCAPE_PAIR.sub(lambda m: "/" if m.group(1) == "/" else m.group(0), source)


def check_regex(source: str) -> re.Pattern[str]:
    """`source` compiled as a pattern step's regex; ValueError unless it compiles.

    Besides ``re.error``, the compiler raises OverflowError for a repeat
    count too large (``a{99999999999999}``) and RecursionError for groups
    nested too deeply; all three are reported the same way.
    """
    try:
        return re.compile(source)
    except (re.error, OverflowError, RecursionError) as exc:
        raise ValueError(f"pattern step regex does not compile: {exc}") from exc


@dataclass(frozen=True)
class ProcedureStep:
    """One link in a procedure: a level plus a selection predicate.

    `pattern` holds the regex source and must be present exactly when the level
    is `pattern`; it is canonicalized and compiled at construction time, and
    `regex` keeps the compiled form (None at the other levels).  `regex` takes
    no part in equality, hashing or repr: the source alone identifies a step.
    """

    level: Level
    predicate: Predicate
    pattern: str | None = None
    regex: re.Pattern[str] | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.level is Level.PATTERN:
            if self.pattern is None:
                raise ValueError("pattern step requires a regex source")
            canonical = _canonical_regex(self.pattern)
            object.__setattr__(self, "regex", check_regex(canonical))
            object.__setattr__(self, "pattern", canonical)
        elif self.pattern is not None:
            raise ValueError(f"{self.level.value} step takes no regex")


@functools.lru_cache(maxsize=1024)
def shared_step(
    level: Level, kind: PredicateKind, n: int | None = None, pattern: str | None = None
) -> ProcedureStep:
    """The step at `level` selecting by `kind` and `n`; steps are frozen, so
    equal steps built by the parser or the sampler share one object."""
    return ProcedureStep(level, Predicate(kind, n), pattern)


@dataclass(frozen=True)
class Rule:
    """A single lexical constraint: procedure, relation, comparison value.

    Raises ValidityError when the parts conflict, so every Rule is valid.
    """

    procedure: tuple[ProcedureStep, ...]
    relation: Relation
    value: int | str

    def __post_init__(self) -> None:
        if not isinstance(self.procedure, tuple):
            object.__setattr__(self, "procedure", tuple(self.procedure))
        value = self.value
        if isinstance(value, str):
            if not value:
                raise ValueError("text rule value must be a nonempty string")
        elif isinstance(value, bool):
            raise ValueError("rule value must be an integer or string, not a boolean")
        elif isinstance(value, int):
            if value < 0:
                raise ValueError("integer rule value must be >= 0")
        else:
            raise ValueError("rule value must be an integer or string")
        violations = _violations(self)
        if violations:
            raise ValidityError(violations)


class Violation(str, enum.Enum):
    """Stable codes for the semantic conflicts a ValidityError reports."""

    EMPTY_PROCEDURE = "empty-procedure"
    NUMERIC_WITHOUT_COUNT = "numeric-relation-without-count"
    TEXT_WITH_COUNT = "text-relation-with-count"
    BEFORE_RELATION = "relation-not-allowed-for-before"
    AFTER_RELATION = "relation-not-allowed-for-after"
    BETWEEN_RELATION = "relation-not-allowed-for-between"
    VALUE_TYPE_MISMATCH = "value-type-mismatch"
    LEVEL_ORDER = "levels-not-descending"
    ANSWER_NOT_FIRST = "answer-not-first"
    ANSWER_PREDICATE = "answer-with-predicate"
    COUNT_NOT_TERMINAL = "count-not-terminal"


#: The code reported when a textual relation is not allowed for the terminal
#: predicate; index and all admit every textual relation.
_PAIRING_VIOLATION = {
    PredicateKind.BEFORE: Violation.BEFORE_RELATION,
    PredicateKind.AFTER: Violation.AFTER_RELATION,
    PredicateKind.BETWEEN: Violation.BETWEEN_RELATION,
}


# An enum member read through its class goes through the enum type's
# attribute lookup, several times slower than a module name; the per-rule
# check reads these names.
_ANSWER, _ALL, _COUNT = Level.ANSWER, PredicateKind.ALL, PredicateKind.COUNT


def _violations(rule: Rule) -> list[Violation]:
    """Every violation code that applies to the rule being built, in a fixed
    order; empty when it is valid.  The steps are read in one loop."""
    steps = rule.procedure
    if not steps:
        return [Violation.EMPTY_PROCEDURE]
    found: list[Violation] = []
    kind = steps[-1].predicate.kind
    counting = kind is _COUNT

    numerical = rule.relation in _NUMERICAL_RELATIONS
    if numerical:
        if not counting:
            found.append(Violation.NUMERIC_WITHOUT_COUNT)
    elif counting:
        found.append(Violation.TEXT_WITH_COUNT)
    elif rule.relation not in ALLOWED_RELATIONS[kind]:
        found.append(_PAIRING_VIOLATION[kind])

    if numerical != isinstance(rule.value, int):
        found.append(Violation.VALUE_TYPE_MISMATCH)

    first = steps[0]
    count_early = answer_late = disordered = False
    outer, outer_rank = first, LEVEL_RANK[first.level]
    for step in steps[1:]:
        count_early = count_early or outer.predicate.kind is _COUNT
        answer_late = answer_late or step.level is _ANSWER
        rank = LEVEL_RANK[step.level]
        disordered = disordered or rank <= outer_rank
        outer, outer_rank = step, rank
    if count_early:
        found.append(Violation.COUNT_NOT_TERMINAL)
    if first.level is _ANSWER and first.predicate.kind is not _ALL:
        found.append(Violation.ANSWER_PREDICATE)
    if answer_late:
        found.append(Violation.ANSWER_NOT_FIRST)
    if disordered:
        found.append(Violation.LEVEL_ORDER)
    return found


class ValidityError(ValueError):
    """A rule breaks the validity constraints; `violations` lists their codes."""

    def __init__(self, violations: list[Violation]):
        self.violations = violations
        codes = ", ".join(v.value for v in violations)
        super().__init__(f"invalid rule: {codes}")


def require_language(language: str) -> None:
    """Raise ValueError unless `language` is one of LANGUAGES."""
    if language not in LANGUAGES:
        raise ValueError(f"unknown language {language!r}")


@dataclass(frozen=True)
class Instruction:
    """A prompt bundled with the rules a response to it must satisfy."""

    id: str
    language: str
    prompt: str
    rules: tuple[Rule, ...]
    difficulty: str
    depth: int
    count: int

    def __post_init__(self) -> None:
        if not isinstance(self.rules, tuple):
            object.__setattr__(self, "rules", tuple(self.rules))
        require_language(self.language)
        if self.difficulty not in DIFFICULTIES:
            raise ValueError(f"unknown difficulty {self.difficulty!r}")
        if not self.rules:
            raise ValueError("instruction requires at least one rule")
        # depth and count are derivable; stored copies must agree
        derived_depth = max([len(r.procedure) for r in self.rules])
        if self.depth != derived_depth:
            raise ValueError(f"depth {self.depth} does not match procedures (expected {derived_depth})")
        if self.count != len(self.rules):
            raise ValueError(f"count {self.count} does not match number of rules ({len(self.rules)})")
        graded = difficulty_grade(self.rules)
        if self.difficulty != graded:
            raise ValueError(f"difficulty {self.difficulty!r} does not match the rules (graded {graded!r})")


# grading imports this module, so its one name is taken here, once the names it reads exist
from .grading import difficulty_grade  # noqa: E402
