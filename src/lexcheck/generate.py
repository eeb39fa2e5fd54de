"""Deterministic sampling of valid rules and difficulty-bucketed datasets.

Sampling is generation-filtered: the terminal predicate is drawn first, then a
relation from its allowed set, then a type-matching value, so every emitted
rule passes validity by construction.  Datasets are rejection-sampled into the
requested difficulty buckets; identical configs reproduce identical bytes.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from .dsl import format_rule
from .grading import grade_difficulty
from .rules import (
    ALLOWED_RELATIONS,
    DIFFICULTIES,
    LEVEL_RANK,
    Instruction,
    Level,
    Predicate,
    PredicateKind,
    ProcedureStep,
    Relation,
    Rule,
    check_regex,
    descends,
    require_language,
)
from .segment import CHAR_LEVEL_TESTS
from .templates import TemplateKey, render_prompt

MAX_DEPTH_LIMIT = 4
MAX_CONSTRAINTS_LIMIT = 5
ATTEMPTS_PER_SLOT = 10_000


class LexiconError(ValueError):
    """The lexicon cannot produce a value of the required type."""


class BucketError(RuntimeError):
    """A difficulty bucket could not be filled within the attempt budget."""

    def __init__(self, grade: str, wanted: int, got: int):
        self.grade = grade
        self.wanted = wanted
        self.got = got
        super().__init__(
            f"could not fill the {grade} bucket: {got} of {wanted} instructions "
            f"after {ATTEMPTS_PER_SLOT} attempts on one slot"
        )


@dataclass(frozen=True)
class Lexicon:
    """Candidate comparison values: whole words, single characters, regexes.

    A word or character is a rule value, so it may not be empty; a regex is
    a pattern step's regex, so it must compile.
    """

    words: tuple[str, ...] = ()
    characters: tuple[str, ...] = ()
    regexes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if "" in self.words or "" in self.characters:
            raise ValueError("lexicon words and characters must be nonempty strings")
        for regex in self.regexes:
            try:
                check_regex(regex)
            except ValueError as exc:
                raise ValueError(f"lexicon regex {regex!r}: {exc}") from exc


DEFAULT_LEXICONS: dict[str, Lexicon] = {
    "en": Lexicon(
        words=(
            "answer", "autumn", "balance", "bridge", "clear", "data", "detail",
            "example", "first", "forest", "garden", "however", "idea", "journey",
            "light", "model", "music", "note", "point", "result", "river",
            "second", "simple", "sky", "step", "story", "summary", "therefore",
            "time", "travel",
        ),
        characters=("a", "e", "i", "o", "t", "n", "s", ".", ",", "!", "?", ":", ";", "-"),
        regexes=("[A-Z][a-z]+", "[0-9]+", "[aeiou]{2}", "[.!?]", "[A-Za-z]+ing"),
    ),
    "zh": Lexicon(
        words=(
            "因此", "但是", "例如", "数据", "模型", "结果", "第一", "第二", "音乐",
            "花园", "河流", "天空", "问题", "方法", "总结", "旅行", "故事", "清晰",
            "细节", "平衡", "桥梁", "森林", "想法", "时间", "步骤", "光线", "秋天",
            "简单", "答案", "要点",
        ),
        characters=("的", "是", "了", "在", "有", "人", "山", "水", "天", "心", "。", "，", "！", "？", "；", "："),
        regexes=("[0-9]+", "[一二三四五六七八九十]+", "[。！？]", "[一-鿿]{2}"),
    ),
}

DEFAULT_SEED_TASKS: dict[str, tuple[str, ...]] = {
    "en": (
        "Describe your favorite season of the year.",
        "Explain how to prepare a cup of tea.",
        "Write a short story about a lost key.",
        "Summarize the benefits of regular exercise.",
        "Describe a city you would like to visit.",
        "Explain why reading habits matter.",
        "Give advice to someone starting a vegetable garden.",
        "Describe what makes a good team meeting.",
        "Explain how rivers shape the landscape around them.",
        "Write about a piece of music that you enjoy.",
    ),
    "zh": (
        "描述你最喜欢的季节。",
        "解释如何泡一杯茶。",
        "写一个关于丢失钥匙的小故事。",
        "总结定期锻炼的好处。",
        "介绍一座你想去的城市。",
        "谈谈阅读习惯为什么重要。",
        "给刚开始种菜的人一些建议。",
        "描述一次高效的团队会议是什么样的。",
        "解释河流如何塑造周围的地貌。",
        "写一写你喜欢的一段音乐。",
    ),
}

# Levels the sampler may emit per language: English answers are segmented down
# to letters, Chinese down to CJK characters; word/letter splits assume spaces.
_SAMPLED_LEVELS: dict[str, tuple[Level, ...]] = {
    "en": (
        Level.PARAGRAPH, Level.LINE, Level.BULLET, Level.SENTENCE,
        Level.WORD, Level.LETTER, Level.PUNC, Level.PATTERN,
    ),
    "zh": (
        Level.PARAGRAPH, Level.LINE, Level.BULLET, Level.SENTENCE,
        Level.CHARACTER, Level.PUNC, Level.PATTERN,
    ),
}
# A chain passes only through levels that contain text: a single character
# holds none, and nothing may follow a regex step.
_ANCESTOR_LEVELS: dict[str, tuple[Level, ...]] = {
    language: tuple(lv for lv in levels if lv not in CHAR_LEVEL_TESTS and lv is not Level.PATTERN)
    for language, levels in _SAMPLED_LEVELS.items()
}

# Values that can actually appear between consecutive elements of a level;
# between-rules drawn outside these would be unsatisfiable by construction.
# Chinese prose puts no spaces between sentences, so zh keeps only the
# newline-separated levels.
_GAP_VALUES: dict[str, dict[Level, tuple[str, ...]]] = {
    "en": {
        Level.PARAGRAPH: ("\n\n",),
        Level.LINE: ("\n",),
        Level.BULLET: ("\n",),
        Level.SENTENCE: (" ", "  "),
        Level.WORD: (" ",),
    },
    "zh": {
        Level.PARAGRAPH: ("\n\n",),
        Level.LINE: ("\n",),
        Level.BULLET: ("\n",),
    },
}

_TERMINAL_KIND_WEIGHTS = (
    (PredicateKind.COUNT, 30),
    (PredicateKind.INDEX, 30),
    (PredicateKind.ALL, 15),
    (PredicateKind.BEFORE, 8),
    (PredicateKind.AFTER, 8),
    (PredicateKind.BETWEEN, 9),
)
_PREFIX_KIND_WEIGHTS = (
    (PredicateKind.INDEX, 65),
    (PredicateKind.ALL, 20),
    (PredicateKind.BEFORE, 7),
    (PredicateKind.AFTER, 8),
)


@dataclass
class GenConfig:
    """Everything a dataset build depends on; two equal configs yield equal bytes."""

    seed: int
    language: str
    easy: int = 0
    medium: int = 0
    hard: int = 0
    max_depth: int = 3
    max_constraints: int = 3
    lexicon: Lexicon | None = None
    seed_tasks: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        require_language(self.language)
        if not 1 <= self.max_depth <= MAX_DEPTH_LIMIT:
            raise ValueError(f"max_depth must be in 1..{MAX_DEPTH_LIMIT}")
        if not 1 <= self.max_constraints <= MAX_CONSTRAINTS_LIMIT:
            raise ValueError(f"max_constraints must be in 1..{MAX_CONSTRAINTS_LIMIT}")
        if min(self.easy, self.medium, self.hard) < 0:
            raise ValueError("bucket sizes must be >= 0")
        if self.lexicon is None:
            self.lexicon = DEFAULT_LEXICONS[self.language]
        if not self.seed_tasks:
            self.seed_tasks = DEFAULT_SEED_TASKS[self.language]
        else:
            self.seed_tasks = tuple(self.seed_tasks)


def _weighted_kind(rng: random.Random, table: tuple[tuple[PredicateKind, int], ...]) -> PredicateKind:
    total = sum(w for _, w in table)
    roll = rng.randrange(total)
    for kind, weight in table:
        roll -= weight
        if roll < 0:
            return kind
    raise AssertionError("unreachable")


def _pick_ordinal(rng: random.Random) -> int:
    if rng.random() < 0.2:
        return -1
    return rng.randint(1, 5)


def _make_predicate(kind: PredicateKind, rng: random.Random) -> Predicate:
    if kind is PredicateKind.INDEX:
        return Predicate.index(_pick_ordinal(rng))
    if kind is PredicateKind.BEFORE:
        return Predicate.before(rng.randint(2, 4))
    if kind is PredicateKind.AFTER:
        return Predicate.after(rng.randint(1, 4))
    if kind is PredicateKind.ALL:
        return Predicate.all()
    if kind is PredicateKind.BETWEEN:
        return Predicate.between()
    return Predicate.count()


def _make_step(level: Level, predicate: Predicate, lexicon: Lexicon, rng: random.Random) -> ProcedureStep:
    if level is Level.PATTERN:
        if not lexicon.regexes:
            raise LexiconError("lexicon has no regexes for a pattern step")
        return ProcedureStep(level, predicate, rng.choice(lexicon.regexes))
    return ProcedureStep(level, predicate)


def _char_pool(level: Level, lexicon: Lexicon) -> tuple[str, ...]:
    test = CHAR_LEVEL_TESTS[level]
    pool = tuple(c for c in lexicon.characters if len(c) == 1 and test(c))
    if not pool:
        raise LexiconError(f"lexicon has no single characters usable at level {level.value}")
    return pool


def _text_value(
    terminal: ProcedureStep, language: str, lexicon: Lexicon, rng: random.Random
) -> str:
    if terminal.predicate.kind is PredicateKind.BETWEEN:
        return rng.choice(_GAP_VALUES[language][terminal.level])
    if terminal.level in CHAR_LEVEL_TESTS:
        return rng.choice(_char_pool(terminal.level, lexicon))
    pool = lexicon.words + lexicon.characters
    if not pool:
        raise LexiconError("lexicon has no words or characters")
    return rng.choice(pool)


def _int_value(relation: Relation, rng: random.Random) -> int:
    if relation in (Relation.LT, Relation.LTE):
        return rng.randint(2, 10)
    return rng.randint(1, 8)


def _try_chain(
    terminal_level: Level, depth: int, language: str, rng: random.Random
) -> list[Level] | None:
    """A strictly descending level chain ending at `terminal_level`, or None."""
    if depth == 1:
        return [terminal_level]
    ancestors = [lv for lv in _ANCESTOR_LEVELS[language] if descends(lv, terminal_level)]
    candidate_ranks = sorted({LEVEL_RANK[lv] for lv in ancestors})
    if len(candidate_ranks) < depth - 1:
        return None
    ranks = sorted(rng.sample(candidate_ranks, depth - 1))
    chain = []
    for rank in ranks:
        options = [lv for lv in ancestors if LEVEL_RANK[lv] == rank]
        chain.append(rng.choice(options))
    chain.append(terminal_level)
    return chain


def sample_rule(config: GenConfig, rng: random.Random) -> Rule:
    """Draw one valid rule: terminal predicate, then relation, then value."""
    assert config.lexicon is not None
    for _ in range(256):
        kind = _weighted_kind(rng, _TERMINAL_KIND_WEIGHTS)
        relation = rng.choice(ALLOWED_RELATIONS[kind])
        depth = rng.randint(1, config.max_depth)

        candidates = list(_SAMPLED_LEVELS[config.language])
        if kind is PredicateKind.BETWEEN:
            candidates = [lv for lv in candidates if lv in _GAP_VALUES[config.language]]
        if kind is PredicateKind.ALL and depth == 1:
            candidates.append(Level.ANSWER)
        terminal_level = rng.choice(candidates)

        # an answer terminal only comes with depth 1, so its chain is [answer]
        chain = _try_chain(terminal_level, depth, config.language, rng)
        if chain is None:
            continue
        steps = []
        for level in chain[:-1]:
            predicate = _make_predicate(_weighted_kind(rng, _PREFIX_KIND_WEIGHTS), rng)
            steps.append(_make_step(level, predicate, config.lexicon, rng))
        steps.append(_make_step(terminal_level, _make_predicate(kind, rng), config.lexicon, rng))

        value: int | str
        if relation.is_numerical:
            value = _int_value(relation, rng)
        else:
            value = _text_value(steps[-1], config.language, config.lexicon, rng)
        return Rule(tuple(steps), relation, value)
    raise RuntimeError("rule sampling failed to produce a structurally possible chain")


def _propose_constraint_count(grade: str, config: GenConfig, rng: random.Random) -> int:
    cap = config.max_constraints
    if grade == "easy":
        return 1
    if grade == "medium":
        return rng.choice((1, 1, min(2, cap)))
    choices = [k for k in range(2, cap + 1)] or [1]
    return rng.choice(choices)


def stable_id(language: str, seed: int, index: int) -> str:
    digest = hashlib.sha256(f"{seed}:{index}".encode("utf-8")).hexdigest()[:12]
    return f"{language}-{digest}"


def generate_dataset(
    config: GenConfig,
    templates: dict[TemplateKey, str] | None = None,
) -> list[Instruction]:
    """Emit the requested number of instructions per difficulty bucket.

    Buckets are filled in easy/medium/hard order by rejection sampling.  No two
    instructions in one dataset share the same multiset of rules.  A slot that
    stays unfillable for ATTEMPTS_PER_SLOT draws raises BucketError with the
    shortfall.
    """
    rng = random.Random(config.seed)
    wanted = {"easy": config.easy, "medium": config.medium, "hard": config.hard}
    seen: set[tuple[str, ...]] = set()
    out: list[Instruction] = []
    for grade in DIFFICULTIES:
        filled = 0
        for _ in range(wanted[grade]):
            for attempt in range(ATTEMPTS_PER_SLOT):
                k = _propose_constraint_count(grade, config, rng)
                rules = tuple(sample_rule(config, rng) for _ in range(k))
                if grade_difficulty(rules).grade != grade:
                    continue
                key = tuple(sorted(format_rule(r) for r in rules))
                if key in seen:
                    continue
                seen.add(key)
                prompt = render_prompt(rules, config.language, rng.choice(config.seed_tasks), templates)
                out.append(
                    Instruction(
                        id=stable_id(config.language, config.seed, len(out)),
                        language=config.language,
                        prompt=prompt,
                        rules=rules,
                        difficulty=grade,
                        depth=max(len(r.procedure) for r in rules),
                        count=k,
                    )
                )
                filled += 1
                break
            else:
                raise BucketError(grade, wanted[grade], filled)
    return out
