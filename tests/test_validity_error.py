"""Every public entry rejects an invalid rule with the same ValidityError."""

from __future__ import annotations

import json

import pytest

import lexcheck
from lexcheck import dsl, rules
from lexcheck.dsl import format_rule, parse_rule
from lexcheck.engine import verify_instruction, verify_rule
from lexcheck.grading import grade_difficulty
from lexcheck.records import DataError, read_instructions, rule_from_dict, rule_to_dict
from lexcheck.rules import (
    Instruction,
    Level,
    Predicate,
    ProcedureStep,
    Relation,
    Rule,
    ValidityError,
    Violation,
    check_validity,
)
from lexcheck.templates import render_rule_sentence

# a textual relation on a count, with an integer value: two violations
INVALID = Rule(
    (ProcedureStep(Level.PARAGRAPH, Predicate.index(1)), ProcedureStep(Level.WORD, Predicate.count())),
    Relation.CONTAIN,
    3,
)
CODES = [Violation.TEXT_WITH_COUNT, Violation.VALUE_TYPE_MISMATCH]
MESSAGE = "invalid rule: text-relation-with-count, value-type-mismatch"

ENTRIES = {
    "parse_rule": lambda: parse_rule(format_rule(INVALID)),
    "rule_from_dict": lambda: rule_from_dict(rule_to_dict(INVALID)),
    "verify_rule": lambda: verify_rule(INVALID, "one two three"),
    "verify_instruction": lambda: verify_instruction(
        Instruction("x", "en", "p", (INVALID,), "easy", 2, 1), "one two three"
    ),
    "grade_difficulty": lambda: grade_difficulty([INVALID]),
    "render_rule_sentence": lambda: render_rule_sentence(INVALID, "en"),
}


def test_one_class():
    assert lexcheck.ValidityError is dsl.ValidityError is rules.ValidityError
    assert issubclass(ValidityError, ValueError)


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_entry_raises_validity_error(entry):
    assert check_validity(INVALID) == CODES
    with pytest.raises(ValidityError) as info:
        ENTRIES[entry]()
    assert info.value.violations == CODES
    assert str(info.value) == MESSAGE


def test_data_error_names_file_and_line(tmp_path):
    record = {
        "id": "x",
        "language": "en",
        "prompt": "p",
        "rules": [rule_to_dict(INVALID)],
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
