"""Every way of building an invalid rule raises the same ValidityError."""

from __future__ import annotations

import json
import random

import pytest

import lexcheck
from helpers import make_text
from lexcheck import dsl, rules
from lexcheck.dsl import format_rule, parse_rule
from lexcheck.generate import GenConfig, generate_dataset
from lexcheck.records import DataError, build, instruction_to_dict, read_instructions
from lexcheck.report import score
from lexcheck.rules import (
    Level,
    Predicate,
    PredicateKind,
    ProcedureStep,
    Relation,
    Rule,
    ValidityError,
    Violation,
)
from lexcheck.templates import render_prompt

# a textual relation on a count, with an integer value: two violations
STEPS = (
    ProcedureStep(Level.PARAGRAPH, Predicate(PredicateKind.INDEX, 1)),
    ProcedureStep(Level.WORD, Predicate(PredicateKind.COUNT)),
)
SOURCE = "paragraph@1.word# contain 3"
DATA = {
    "procedure": [
        {"level": "paragraph", "predicate": {"kind": "index", "n": 1}},
        {"level": "word", "predicate": {"kind": "count"}},
    ],
    "relation": "contain",
    "value": 3,
}
CODES = [Violation.TEXT_WITH_COUNT, Violation.VALUE_TYPE_MISMATCH]
MESSAGE = "invalid rule: text-relation-with-count, value-type-mismatch"

ENTRIES = {
    "Rule": lambda: Rule(STEPS, Relation.CONTAIN, 3),
    "parse_rule": lambda: parse_rule(SOURCE),
    "build": lambda: build(Rule, DATA),
}


def test_one_class():
    assert lexcheck.ValidityError is dsl.ValidityError is rules.ValidityError
    assert issubclass(ValidityError, ValueError)


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_entry_raises_validity_error(entry):
    with pytest.raises(ValidityError) as info:
        ENTRIES[entry]()
    assert info.value.violations == CODES
    assert str(info.value) == MESSAGE


def test_data_error_names_file_and_line(tmp_path):
    record = {
        "id": "x",
        "language": "en",
        "prompt": "p",
        "rules": [DATA],
        "difficulty": "easy",
        "depth": 2,
        "count": 1,
    }
    path = tmp_path / "ins.jsonl"
    path.write_text("\n" + json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(DataError) as info:
        read_instructions(path)
    assert info.value.line == 2
    assert str(info.value) == f"{path}:2: bad instruction record: {MESSAGE}"


def test_each_rule_is_checked_once(tmp_path, monkeypatch):
    dataset = generate_dataset(GenConfig(seed=5, language="en", easy=4, medium=4, hard=4))
    lines = []
    for k, instruction in enumerate(dataset):
        record = instruction_to_dict(instruction)
        if k % 2:  # every other record carries its rules as expressions
            record["rules"] = [format_rule(rule) for rule in instruction.rules]
        lines.append(json.dumps(record, ensure_ascii=False))
    path = tmp_path / "ins.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rng = random.Random(5)
    responses = {instruction.id: make_text(rng) for instruction in dataset}
    k = sum(instruction.count for instruction in dataset)

    checked = []
    real = rules._violations
    monkeypatch.setattr(rules, "_violations", lambda rule: checked.append(rule) or real(rule))
    loaded = read_instructions(path)
    assert loaded == dataset
    assert len(checked) == k
    score(loaded, responses)
    score(loaded, responses, loose=False)
    for instruction in loaded:
        render_prompt(instruction.rules, instruction.language, "Task.")
    assert len(checked) == k
