"""Reading outside files: JSONL records, JSON documents and config files.

Instruction files hold one JSON object per line with the fields id, language,
prompt, rules, difficulty, depth and count; rules may be structured objects or
one-line rule expressions.  Response files pair ids with response texts.
Loaders validate as they read and report the offending line on failure.
Every file is opened, read and decoded here (`read_text`, `read_json`,
`decode_json`), so each way a file can fail to open or decode is worded
once, as a `DataError` naming the path.  `read_fields` type-checks a JSON
object against a dataclass's own fields, for report files and config files
alike, and `read_config` builds a config dataclass from a JSON file.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import typing
from pathlib import Path
from typing import Any, Callable, Iterable, TextIO, TypeVar

from .dsl import parse_rule
from .grading import grade_difficulty
from .rules import (
    Instruction,
    Level,
    Predicate,
    PredicateKind,
    ProcedureStep,
    Relation,
    Rule,
)

T = TypeVar("T")


class DataError(ValueError):
    """An outside file failed to decode or validate; points at the file line
    if known."""

    def __init__(self, reason: str, path: str | Path | None = None, line: int | None = None):
        self.path = str(path) if path is not None else None
        self.line = line
        prefix = ""
        if self.path is not None:
            prefix = self.path if line is None else f"{self.path}:{line}"
            prefix += ": "
        super().__init__(prefix + reason)


class _Mismatch(Exception):
    """A value does not have the type its field declares."""


def read_fields(cls: type, data: Any) -> dict[str, Any]:
    """The entries of a JSON object that name fields of dataclass `cls`, each
    checked against the field's annotation.

    An integer is not a bool, a float field takes any number, `X | None`
    takes null, `tuple[X, ...]` takes a list of X, `dict[K, V]` an object,
    and a dataclass an object read the same way.  Unknown keys are ignored
    and missing ones left to the constructor; a value of the wrong type
    raises ValueError.
    """
    if type(data) is not dict:
        raise ValueError(f"{cls.__name__} must be an object, not {data!r:.60}")
    out = {}
    try:
        for name, annotation, kinds, convert in _field_types(cls):
            if name in data:
                value = data[name]
                if type(value) not in kinds:
                    raise _Mismatch
                out[name] = value if convert is None else convert(value)
    except _Mismatch:
        raise ValueError(f"{name} must be {annotation}, not {value!r:.60}") from None
    return out


def missing_fields(cls: type, data: dict[str, Any]) -> list[str]:
    """Sorted names of the fields of dataclass `cls` with no default and no
    entry in `data`."""
    return sorted(
        f.name for f in dataclasses.fields(cls) if f.default is dataclasses.MISSING and f.name not in data
    )


_Accepts = tuple[frozenset, Callable[[Any], Any] | None]


@functools.cache
def _field_types(cls: type) -> tuple[tuple[Any, ...], ...]:
    """(name, annotation text, accepted types, convert) for each field."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name, f.type, *_accepts(hints[f.name])) for f in dataclasses.fields(cls))


def _accepts(hint: Any) -> _Accepts:
    """The types a JSON value for `hint` may have, and a function that checks
    and converts its contents (None when the type alone decides)."""
    args = typing.get_args(hint)
    if type(None) in args:
        (inner,) = set(args) - {type(None)}
        kinds, convert = _accepts(inner)
        return kinds | {type(None)}, convert and (lambda v: v if v is None else convert(v))
    if dataclasses.is_dataclass(hint):
        return frozenset({dict, hint}), lambda v: hint(**read_fields(hint, v)) if type(v) is dict else v
    origin = typing.get_origin(hint)
    if origin is tuple:
        item = _accepts(args[0])
        return frozenset({list, tuple}), lambda v: tuple(_each(item, v))
    if origin is dict:
        key, value = map(_accepts, args)
        return frozenset({dict}), lambda v: dict(zip(_each(key, v), _each(value, v.values())))
    return frozenset({int, float} if hint is float else {hint}), None


def _each(accepts: _Accepts, values: Any) -> Iterable[Any]:
    kinds, convert = accepts
    if not kinds.issuperset(map(type, values)):
        raise _Mismatch
    return values if convert is None else map(convert, values)


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
    return Rule(steps, Relation(data["relation"]), data["value"])


_INSTRUCTION_FIELDS = tuple(f.name for f in dataclasses.fields(Instruction))


def instruction_to_dict(instruction: Instruction) -> dict[str, Any]:
    out = {name: getattr(instruction, name) for name in _INSTRUCTION_FIELDS}
    out["rules"] = [rule_to_dict(r) for r in instruction.rules]
    return out


def instruction_from_dict(data: dict[str, Any]) -> Instruction:
    rules = tuple(rule_from_dict(r) for r in data["rules"])
    for name, kind in (("id", str), ("prompt", str), ("depth", int), ("count", int)):
        if type(data[name]) is not kind:
            raise ValueError(f"{name} must be {kind.__name__}, not {data[name]!r:.60}")
    values = {name: data[name] for name in _INSTRUCTION_FIELDS}
    values["rules"] = rules
    instruction = Instruction(**values)
    graded = grade_difficulty(rules).grade
    if graded != instruction.difficulty:
        raise ValueError(
            f"difficulty {instruction.difficulty!r} does not match the rules (graded {graded!r})"
        )
    return instruction


def decode_json(text: str) -> Any:
    """The JSON value in `text`; ValueError with one reason per way to fail."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON ({exc.msg})") from exc
    except ValueError as exc:  # an integer with more digits than int() converts
        raise ValueError(f"integer of more than {sys.get_int_max_str_digits()} digits") from exc
    except RecursionError as exc:
        raise ValueError("JSON nested too deeply") from exc


def _open(path: str | Path) -> TextIO:
    """A UTF-8 text file opened for reading; DataError naming the path if it
    cannot be opened."""
    try:
        return open(path, encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open ({exc.strerror or exc})", path) from exc


def read_text(path: str | Path) -> str:
    """The text of a UTF-8 file; DataError if it cannot be opened or its
    bytes are not UTF-8."""
    try:
        with _open(path) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DataError(f"not valid UTF-8 (byte {exc.start})", path) from exc


def read_json(path: str | Path) -> dict[str, Any]:
    """The one JSON object a file holds; DataError naming the path if the
    file cannot be opened, is not UTF-8 or not JSON, or holds some other JSON
    value."""
    text = read_text(path)
    try:
        data = decode_json(text)
    except ValueError as exc:
        raise DataError(str(exc), path) from exc
    if type(data) is not dict:
        raise DataError(f"not a JSON object but {type(data).__name__}", path)
    return data


def read_config(cls: type[T], path: str | Path, **overrides: Any) -> T:
    """Dataclass `cls` built from the JSON object in a file, with each
    override that is not None replacing the file's entry.

    A missing required key or a value of the wrong type raises ValueError,
    as does `cls`'s own validation.
    """
    data = read_json(path)
    data.update((name, value) for name, value in overrides.items() if value is not None)
    missing = missing_fields(cls, data)
    if missing:
        raise ValueError(f"missing required keys: {missing}")
    return cls(**read_fields(cls, data))


def _iter_jsonl(path: str | Path) -> Iterable[tuple[int, dict[str, Any]]]:
    with _open(path) as fh:
        try:
            for lineno, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    data = decode_json(line)
                except ValueError as exc:
                    raise DataError(str(exc), path, lineno) from exc
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
        rid = data["id"]
        response = data["response"]
        if type(rid) is not str:
            raise DataError(f"id field must be a string, not {rid!r:.60}", path, lineno)
        if not isinstance(response, str):
            raise DataError("response field must be a string", path, lineno)
        if rid in out:
            raise DataError(f"duplicate response id {rid!r}", path, lineno)
        out[rid] = response
    return out

