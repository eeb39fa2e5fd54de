"""Reading outside files: JSONL records, JSON documents and config files.

Instruction files hold one JSON object per line with the fields id, language,
prompt, rules, difficulty, depth and count; rules may be structured objects or
one-line rule expressions.  Response files pair ids with response texts.
Loaders validate as they read and report the offending line on failure.
Every file is opened, read and decoded here (`read_text`, `read_json`,
`decode_json`), so each way a file can fail to open or decode is worded
once, as a `DataError` naming the path.  `build` is the one way a JSON
object becomes a dataclass: instruction records and their rules, reports
and configs are all checked against their dataclasses' own fields, at
every depth.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import inspect
import json
import math
import sys
import types
import typing
from pathlib import Path
from typing import Any, Iterable, TextIO, TypeVar

from .dsl import parse_rule
from .grading import grade_difficulty
from .rules import Instruction, Rule

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


class _Table(dict):
    """A dict in which a missing key raises _Mismatch."""

    def __missing__(self, key: Any) -> Any:
        raise _Mismatch


_REQUIRED = inspect.Parameter.empty


def build(cls: type[T], data: Any) -> T:
    """Dataclass `cls` built from a JSON object, each entry checked against
    its field's annotation.

    An integer is not a bool, a float field takes any number, a `str` enum
    takes one of its values, a union takes what any of its members takes,
    `tuple[X, ...]` takes a list of X, `dict[K, V]` an object, and a
    dataclass an object built the same way; a `Rule` may also be written as
    a one-line rule expression.  Unknown keys and fields that `__init__`
    does not take are ignored.  A missing required key or a value of the
    wrong type raises ValueError at any depth (`missing required keys:
    [...]`, `<field> must be <type>, not <value>`), as does `cls`'s own
    validation.
    """
    if type(data) is not dict:
        raise ValueError(f"{cls.__name__} must be an object, not {data!r:.60}")
    values = []
    try:
        for name, annotation, readers, default in _fields(cls):
            if name in data:
                value = data[name]
                read = readers[type(value)]
                values.append(value if read is None else read(value))
            elif default is _REQUIRED:
                missing = sorted(n for n, _, _, d in _fields(cls) if d is _REQUIRED and n not in data)
                raise ValueError(f"missing required keys: {missing}")
            else:
                values.append(default)
    except _Mismatch:
        raise ValueError(f"{name} must be {annotation}, not {value!r:.60}") from None
    return cls(*values)


@functools.cache
def _fields(cls: type) -> tuple[tuple[str, str, _Table, Any], ...]:
    """(name, annotation text, readers, default) for each parameter of
    `cls`'s `__init__`, in order; the default is _REQUIRED if it has none."""
    hints = typing.get_type_hints(cls)
    params = inspect.signature(cls).parameters.values()
    return tuple((p.name, p.annotation, _readers(hints[p.name]), p.default) for p in params)


def _readers(hint: Any) -> _Table:
    """For each type of JSON value that `hint` accepts, None to take the
    value as it is or a function that checks and converts it."""
    args = typing.get_args(hint)
    origin = typing.get_origin(hint)
    if origin is typing.Union or origin is types.UnionType:
        return _Table(kv for arg in args for kv in _readers(arg).items())
    if origin is tuple:
        return _Table.fromkeys((list, tuple), functools.partial(_each, _readers(args[0])))
    if origin is dict:
        keys, values = map(_readers, args)
        return _Table({dict: lambda v: dict(zip(_each(keys, v), _each(values, v.values())))})
    if dataclasses.is_dataclass(hint):
        readers = _Table({dict: functools.partial(build, hint), hint: None})
        if hint is Rule:
            # parse_rule is looked up per call, so a wrapper put in its place is used
            readers[str] = lambda v: parse_rule(v)
        return readers
    if isinstance(hint, enum.EnumMeta):
        members = _Table(hint._value2member_map_)
        return _Table.fromkeys({type(value) for value in members}, members.__getitem__)
    return _Table.fromkeys((int, float) if hint is float else (hint,))


def _each(readers: _Table, values: Iterable[Any]) -> tuple[Any, ...]:
    out = []
    for value in values:
        read = readers[type(value)]
        out.append(value if read is None else read(value))
    return tuple(out)


def rule_to_dict(rule: Rule) -> dict[str, Any]:
    steps = []
    for step in rule.procedure:
        predicate: dict[str, Any] = {"kind": step.predicate.kind.value}
        if step.predicate.n is not None:
            predicate["n"] = step.predicate.n
        entry: dict[str, Any] = {"level": step.level.value, "predicate": predicate}
        if step.pattern is not None:
            entry["pattern"] = step.pattern
        steps.append(entry)
    return {"procedure": steps, "relation": rule.relation.value, "value": rule.value}


_INSTRUCTION_FIELDS = tuple(f.name for f in dataclasses.fields(Instruction))


def instruction_to_dict(instruction: Instruction) -> dict[str, Any]:
    out = {name: getattr(instruction, name) for name in _INSTRUCTION_FIELDS}
    out["rules"] = [rule_to_dict(r) for r in instruction.rules]
    return out


def instruction_from_dict(data: dict[str, Any]) -> Instruction:
    """The instruction a record holds; its difficulty must be the one its
    rules grade to."""
    instruction = build(Instruction, data)
    graded = grade_difficulty(instruction.rules).grade
    if graded != instruction.difficulty:
        raise ValueError(
            f"difficulty {instruction.difficulty!r} does not match the rules (graded {graded!r})"
        )
    return instruction


class _NonFinite(ValueError):
    """A JSON number that is no finite float."""


def _refuse_constant(name: str) -> Any:
    raise _NonFinite(f"non-finite number {name}")


def _finite_float(source: str) -> float:
    value = float(source)
    if math.isinf(value):
        raise _NonFinite(f"number {source} is beyond the float range")
    return value


# `json.loads` reads NaN, Infinity and -Infinity, which are not JSON, and
# turns a number like 1e999 into inf; one decoder built once refuses them
# and keeps the C scanner
_DECODER = json.JSONDecoder(parse_float=_finite_float, parse_constant=_refuse_constant)


def decode_json(text: str) -> Any:
    """The JSON value in `text`; ValueError with one reason per way to fail."""
    try:
        if text.startswith("\ufeff"):  # as `json.loads` checks before it decodes
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        return _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON ({exc.msg})") from exc
    except _NonFinite:
        raise
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
    return build(cls, data)


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
        except ValueError as exc:
            raise DataError(f"bad instruction record: {exc}", path, lineno) from exc
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

