"""JSONL record files and the structured encodings they carry.

Instruction files hold one JSON object per line with the fields id, language,
prompt, rules, difficulty, depth and count; rules may be structured objects or
one-line rule expressions.  Response files pair ids with response texts.
Loaders validate as they read and report the offending line on failure.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable

from .dsl import parse_rule
from .grading import _grade
from .rules import (
    Instruction,
    Level,
    Predicate,
    PredicateKind,
    ProcedureStep,
    Relation,
    Rule,
    require_valid,
)


class DataError(ValueError):
    """A record file failed validation; points at the file line if known."""

    def __init__(self, reason: str, path: str | Path | None = None, line: int | None = None):
        self.path = str(path) if path is not None else None
        self.line = line
        prefix = ""
        if self.path is not None:
            prefix = self.path if line is None else f"{self.path}:{line}"
            prefix += ": "
        super().__init__(prefix + reason)


def predicate_to_dict(pred: Predicate) -> dict[str, Any]:
    data: dict[str, Any] = {"kind": pred.kind.value}
    if pred.n is not None:
        data["n"] = pred.n
    return data


def predicate_from_dict(data: dict[str, Any]) -> Predicate:
    kind = PredicateKind(data["kind"])
    return Predicate(kind, data.get("n"))


def rule_to_dict(rule: Rule) -> dict[str, Any]:
    steps = []
    for step in rule.procedure:
        entry: dict[str, Any] = {
            "level": step.level.value,
            "predicate": predicate_to_dict(step.predicate),
        }
        if step.pattern is not None:
            entry["pattern"] = step.pattern
        steps.append(entry)
    return {"procedure": steps, "relation": rule.relation.value, "value": rule.value}


def rule_from_dict(data: dict[str, Any] | str) -> Rule:
    if isinstance(data, str):
        return parse_rule(data)
    steps = tuple(
        ProcedureStep(
            Level(entry["level"]),
            predicate_from_dict(entry["predicate"]),
            entry.get("pattern"),
        )
        for entry in data["procedure"]
    )
    return require_valid(Rule(steps, Relation(data["relation"]), data["value"]))


def instruction_to_dict(instruction: Instruction) -> dict[str, Any]:
    return {
        "id": instruction.id,
        "language": instruction.language,
        "prompt": instruction.prompt,
        "rules": [rule_to_dict(r) for r in instruction.rules],
        "difficulty": instruction.difficulty,
        "depth": instruction.depth,
        "count": instruction.count,
    }


def instruction_from_dict(data: dict[str, Any]) -> Instruction:
    rules = tuple(rule_from_dict(r) for r in data["rules"])
    instruction = Instruction(
        id=str(data["id"]),
        language=data["language"],
        prompt=data["prompt"],
        rules=rules,
        difficulty=data["difficulty"],
        depth=data["depth"],
        count=data["count"],
    )
    graded = _grade(rules).grade  # rule_from_dict has validated every rule
    if graded != instruction.difficulty:
        raise ValueError(
            f"difficulty {instruction.difficulty!r} does not match the rules (graded {graded!r})"
        )
    return instruction


def _iter_jsonl(path: str | Path) -> Iterable[tuple[int, dict[str, Any]]]:
    with open(path, encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    data = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise DataError(f"malformed JSON ({exc.msg})", path, lineno) from exc
                if not isinstance(data, dict):
                    raise DataError("record is not a JSON object", path, lineno)
                yield lineno, data
        except UnicodeDecodeError as exc:
            raise DataError("not valid UTF-8", path, _undecodable_line(path)) from exc


def _undecodable_line(path: str | Path) -> int | None:
    """Number of the first line that is not valid UTF-8, counted as reading counts it."""
    # undecodable bytes become lone surrogates, which valid UTF-8 never yields
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, 1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                return lineno
    return None


def read_instructions(path: str | Path) -> list[Instruction]:
    out: list[Instruction] = []
    ids: set[str] = set()
    for lineno, data in _iter_jsonl(path):
        try:
            instruction = instruction_from_dict(data)
        except (KeyError, ValueError, TypeError) as exc:
            detail = repr(exc) if isinstance(exc, KeyError) else str(exc)
            raise DataError(f"bad instruction record: {detail}", path, lineno) from exc
        if instruction.id in ids:
            raise DataError(f"duplicate instruction id {instruction.id!r}", path, lineno)
        ids.add(instruction.id)
        out.append(instruction)
    return out


def write_instructions(path: str | Path, instructions: Iterable[Instruction]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for instruction in instructions:
            fh.write(json.dumps(instruction_to_dict(instruction), ensure_ascii=False, sort_keys=True) + "\n")


def read_responses(path: str | Path) -> dict[str, str]:
    """Map of instruction id to response text, in file order."""
    out: dict[str, str] = {}
    for lineno, data in _iter_jsonl(path):
        if "id" not in data or "response" not in data:
            raise DataError("response record needs id and response fields", path, lineno)
        rid = str(data["id"])
        response = data["response"]
        if not isinstance(response, str):
            raise DataError("response field must be a string", path, lineno)
        if rid in out:
            raise DataError(f"duplicate response id {rid!r}", path, lineno)
        out[rid] = response
    return out


def write_responses(path: str | Path, responses: Iterable[dict[str, Any]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in responses:
            fh.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")
