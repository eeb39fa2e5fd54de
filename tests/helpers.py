"""Deterministic builders for test inputs: messy texts, sampled rules,
instructions and response files.

Texts mix paragraphs, bullet lines, abbreviation-laden sentences, asterisk
emphasis, digits and CJK terminators so that segmentation edge cases actually
occur; everything is driven by a caller-supplied random.Random for
reproducibility.
"""

from __future__ import annotations

import json
import os
import random
from pathlib import Path
from typing import Any, Iterable

from lexcheck.generate import GenConfig, sample_rule
from lexcheck.grading import grade_difficulty
from lexcheck.rules import Instruction, ProcedureStep, Relation, Rule, ValidityError, Violation

EN_WORDS = (
    "The", "quick", "brown", "fox", "jumps", "over", "a", "lazy", "dog",
    "Results", "show", "42", "items", "only", "e.g.", "Dr.", "Smith",
    "etc.", "it's", "was", "*fine*", "really", "No", "3.14", "running",
    "second", "first", "data-set", "(note)", "O'Neill", "Singing",
)
ZH_CHUNKS = (
    "今天天气很好", "我们去公园散步", "他说", "数据显示", "第一点很重要",
    "模型其实很简单", "山水之间", "时间过得很快", "例如这样", "答案是42",
    "共有3行", "一二三四", "天心相连",
)
EN_SENTENCE_ENDS = (".", "!", "?", "...", "?!", ".", ".")
ZH_SENTENCE_ENDS = ("。", "！", "？", "……", "。", "！？")
BULLET_MARKERS = ("- ", "* ", "+ ", "1. ", "2) ", "  - ", "10. ")

_SOUP_ALPHABET = {
    "en": "ab cZ.!?\n*-ed 13:;\"'()/ing ",
    "zh": "山水。！？…\n，*一二 3的；～ab.",
}


def make_sentence(rng: random.Random, language: str) -> str:
    if language == "zh":
        body = "，".join(rng.choice(ZH_CHUNKS) for _ in range(rng.randint(1, 2)))
        return body + rng.choice(ZH_SENTENCE_ENDS)
    words = [rng.choice(EN_WORDS) for _ in range(rng.randint(2, 6))]
    return " ".join(words) + rng.choice(EN_SENTENCE_ENDS)


def make_line(rng: random.Random, language: str) -> str:
    sentences = [make_sentence(rng, language) for _ in range(rng.randint(1, 3))]
    joiner = "" if language == "zh" else (" " if rng.random() < 0.8 else "  ")
    line = joiner.join(sentences)
    roll = rng.random()
    if roll < 0.3:
        line = rng.choice(BULLET_MARKERS) + line
    elif roll < 0.4:
        line = "**" + line + "**"
    return line


def make_text(rng: random.Random, language: str = "en") -> str:
    """One answer-like text, at most 500 characters; occasionally empty."""
    if rng.random() < 0.25:
        alphabet = _SOUP_ALPHABET[language]
        return "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 120)))
    paragraphs = []
    for _ in range(rng.randint(1, 3)):
        lines = [make_line(rng, language) for _ in range(rng.randint(1, 3))]
        paragraphs.append("\n".join(lines))
    sep = "\n\n" if rng.random() < 0.8 else "\n\n\n"
    text = sep.join(paragraphs)
    if rng.random() < 0.15:
        text = "\n" + text
    if rng.random() < 0.15:
        text = text + "\n"
    return text[:500]


_MESSY_PIECES = ("\r\n", "\t", "\u00a0", "\u3000", "，", "。", "！", "？", "：", "（", "）", "～", "\r\n\r\n", "**")


def make_long_text(rng: random.Random, language: str) -> str:
    """2,000+ characters mixing make_text output with CRLF, tabs, NBSP,
    U+3000, fullwidth punctuation and bold markers."""
    pieces = list(_MESSY_PIECES) * 3
    rng.shuffle(pieces)
    parts: list[str] = []
    while pieces or sum(map(len, parts)) < 2000:
        parts.append(make_text(rng, language))
        parts.append(pieces.pop() if pieces else rng.choice(_MESSY_PIECES))
    return "".join(parts)


def sample_rules(language: str, seed: int, n: int, max_depth: int = 3) -> list[Rule]:
    """n independently sampled valid rules for one language."""
    config = GenConfig(seed=0, language=language, max_depth=max_depth)
    rng = random.Random(seed)
    return [sample_rule(config, rng) for _ in range(n)]


def violations(procedure: Iterable[ProcedureStep], relation: Relation, value: int | str) -> list[Violation]:
    """The codes a Rule built from these parts is refused with; empty when
    it is valid."""
    try:
        Rule(tuple(procedure), relation, value)
    except ValidityError as exc:
        return exc.violations
    return []


def build_instruction(
    instruction_id: str, language: str, prompt: str, rules: tuple[Rule, ...]
) -> Instruction:
    """An instruction whose difficulty, depth and count are derived from `rules`."""
    return Instruction(
        id=instruction_id,
        language=language,
        prompt=prompt,
        rules=tuple(rules),
        difficulty=grade_difficulty(rules).grade,
        depth=max(len(r.procedure) for r in rules),
        count=len(rules),
    )


def write_responses(path: str | Path, responses: Iterable[dict[str, Any]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in responses:
            fh.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")


def count_forks(monkeypatch, cpus: int | None) -> list[int]:
    """Make `lexcheck.report` see `cpus` CPUs, as `os.cpu_count` reports
    them (None included), and wrap its `os.fork` to count calls: the list
    returned gets one entry per fork, in the calling process."""
    forks: list[int] = []
    fork = os.fork

    def counting_fork() -> int:
        forks.append(1)
        return fork()

    monkeypatch.setattr("lexcheck.report.os.fork", counting_fork)
    monkeypatch.delattr("lexcheck.report.os.sched_getaffinity", raising=False)
    monkeypatch.setattr("lexcheck.report.os.cpu_count", lambda: cpus)
    return forks
