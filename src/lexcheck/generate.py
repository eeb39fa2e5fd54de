"""Deterministic sampling of valid rules and difficulty-bucketed datasets.

Sampling is generation-filtered: the terminal predicate is drawn first, then a
relation from its allowed set, then a type-matching value, so every emitted
rule passes validity by construction.  Datasets are rejection-sampled into the
requested difficulty buckets; identical configs reproduce identical bytes.
"""

from __future__ import annotations

import functools
import random
from collections import Counter
from dataclasses import dataclass

from .grading import grade_difficulty
from .rules import (
    ALLOWED_RELATIONS,
    DIFFICULTIES,
    LEVEL_RANK,
    Instruction,
    Level,
    PredicateKind,
    ProcedureStep,
    Relation,
    Rule,
    check_regex,
    descends,
    require_language,
    shared_step,
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


def _by_roll(weights: tuple[tuple[PredicateKind, int], ...]) -> tuple[PredicateKind, ...]:
    """Each kind repeated by its weight: entry `randrange(total)` is the drawn kind."""
    return tuple(kind for kind, weight in weights for _ in range(weight))


_TERMINAL_KINDS = _by_roll(_TERMINAL_KIND_WEIGHTS)
_PREFIX_KINDS = _by_roll(_PREFIX_KIND_WEIGHTS)


def _terminal_levels(language: str, kind: PredicateKind, single_step: bool) -> tuple[Level, ...]:
    levels = _SAMPLED_LEVELS[language]
    if kind is PredicateKind.BETWEEN:
        levels = tuple(lv for lv in levels if lv in _GAP_VALUES[language])
    if kind is PredicateKind.ALL and single_step:
        levels += (Level.ANSWER,)
    return levels


# The terminal levels to draw from, by (language, terminal kind, depth == 1):
# a between-rule only where gaps are known, and only a one-step all-rule may
# address the whole answer.
_TERMINAL_LEVELS: dict[tuple[str, PredicateKind, bool], tuple[Level, ...]] = {
    (language, kind, single_step): _terminal_levels(language, kind, single_step)
    for language in _SAMPLED_LEVELS
    for kind, _ in _TERMINAL_KIND_WEIGHTS
    for single_step in (False, True)
}


def _ancestors(language: str, terminal: Level) -> tuple[tuple[int, ...], dict[int, tuple[Level, ...]]]:
    """The ranks a chain ending at `terminal` may pass through, ascending, and
    the levels at each rank.  A chain passes only through levels that contain
    text: a single character holds none, and nothing may follow a regex step."""
    by_rank: dict[int, tuple[Level, ...]] = {}
    for lv in _SAMPLED_LEVELS[language]:
        if lv not in CHAR_LEVEL_TESTS and descends(lv, terminal):
            by_rank[LEVEL_RANK[lv]] = by_rank.get(LEVEL_RANK[lv], ()) + (lv,)
    return tuple(sorted(by_rank)), by_rank


_CHAINS: dict[tuple[str, Level], tuple[tuple[int, ...], dict[int, tuple[Level, ...]]]] = {
    (language, terminal): _ancestors(language, terminal)
    for language, levels in _SAMPLED_LEVELS.items()
    for terminal in levels
}


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


def _ordinal(kind: PredicateKind, rng: random.Random) -> int | None:
    if kind is PredicateKind.INDEX:
        return -1 if rng.random() < 0.2 else rng.randint(1, 5)
    if kind is PredicateKind.BEFORE:
        return rng.randint(2, 4)
    if kind is PredicateKind.AFTER:
        return rng.randint(1, 4)
    return None


def _make_step(level: Level, kind: PredicateKind, lexicon: Lexicon, rng: random.Random) -> ProcedureStep:
    n = _ordinal(kind, rng)
    if level is Level.PATTERN:
        if not lexicon.regexes:
            raise LexiconError("lexicon has no regexes for a pattern step")
        return shared_step(level, kind, n, rng.choice(lexicon.regexes))
    return shared_step(level, kind, n)


@functools.lru_cache(maxsize=16)
def _value_pools(lexicon: Lexicon) -> dict[Level, tuple[str, ...]]:
    """The text values a rule may compare against, by terminal level: at a
    single-character level the lexicon's characters that pass its test, at
    any other level every word and character."""
    pools = {
        level: tuple(c for c in lexicon.characters if len(c) == 1 and test(c))
        for level, test in CHAR_LEVEL_TESTS.items()
    }
    return {level: pools.get(level, lexicon.words + lexicon.characters) for level in Level}


def _text_value(terminal: ProcedureStep, language: str, lexicon: Lexicon, rng: random.Random) -> str:
    level = terminal.level
    if terminal.predicate.kind is PredicateKind.BETWEEN:
        return rng.choice(_GAP_VALUES[language][level])
    pool = _value_pools(lexicon)[level]
    if not pool:
        if level in CHAR_LEVEL_TESTS:
            raise LexiconError(f"lexicon has no single characters usable at level {level.value}")
        raise LexiconError("lexicon has no words or characters")
    return rng.choice(pool)


def _int_value(relation: Relation, rng: random.Random) -> int:
    if relation in (Relation.LT, Relation.LTE):
        return rng.randint(2, 10)
    return rng.randint(1, 8)


def _try_chain(terminal_level: Level, depth: int, language: str, rng: random.Random) -> list[Level] | None:
    """A strictly descending level chain ending at `terminal_level`, or None."""
    if depth == 1:
        return [terminal_level]
    ranks, levels_at = _CHAINS[language, terminal_level]
    if len(ranks) < depth - 1:
        return None
    chain = [rng.choice(levels_at[rank]) for rank in sorted(rng.sample(ranks, depth - 1))]
    chain.append(terminal_level)
    return chain


def sample_rule(config: GenConfig, rng: random.Random) -> Rule:
    """Draw one valid rule: terminal predicate, then relation, then value."""
    assert config.lexicon is not None
    language, lexicon = config.language, config.lexicon
    for _ in range(256):
        kind = _TERMINAL_KINDS[rng.randrange(len(_TERMINAL_KINDS))]
        relation = rng.choice(ALLOWED_RELATIONS[kind])
        depth = rng.randint(1, config.max_depth)
        terminal_level = rng.choice(_TERMINAL_LEVELS[language, kind, depth == 1])

        # an answer terminal only comes with depth 1, so its chain is [answer]
        chain = _try_chain(terminal_level, depth, language, rng)
        if chain is None:
            continue
        steps = [
            _make_step(level, _PREFIX_KINDS[rng.randrange(len(_PREFIX_KINDS))], lexicon, rng)
            for level in chain[:-1]
        ]
        steps.append(_make_step(terminal_level, kind, lexicon, rng))

        value: int | str
        if relation.is_numerical:
            value = _int_value(relation, rng)
        else:
            value = _text_value(steps[-1], language, lexicon, rng)
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
    import hashlib  # loads OpenSSL's libcrypto, which only generate needs

    digest = hashlib.sha256(f"{seed}:{index}".encode("utf-8")).hexdigest()[:12]
    return f"{language}-{digest}"


def generate_dataset(
    config: GenConfig,
    templates: dict[TemplateKey, str] | None = None,
) -> list[Instruction]:
    """Emit the requested number of instructions per difficulty bucket.

    Buckets are filled in easy/medium/hard order by rejection sampling.  No two
    instructions in one dataset share the same multiset of rules, compared by
    value.  A slot that stays unfillable for ATTEMPTS_PER_SLOT draws raises
    BucketError with the shortfall.
    """
    rng = random.Random(config.seed)
    wanted = {"easy": config.easy, "medium": config.medium, "hard": config.hard}
    seen: set[frozenset[tuple[Rule, int]]] = set()
    out: list[Instruction] = []
    for grade in DIFFICULTIES:
        filled = 0
        for _ in range(wanted[grade]):
            for attempt in range(ATTEMPTS_PER_SLOT):
                k = _propose_constraint_count(grade, config, rng)
                rules = tuple(sample_rule(config, rng) for _ in range(k))
                if grade_difficulty(rules).grade != grade:
                    continue
                key = frozenset(Counter(rules).items())
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
