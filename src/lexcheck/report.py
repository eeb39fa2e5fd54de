"""Scoring responses against instructions and shaping the results for humans.

A report carries per-instruction verdict rows plus aggregates: overall,
per-language and per-difficulty accuracies, and a (depth, count) grid of
strict accuracy.  Accuracies are fractions in [0, 1]; renderers multiply by
100 and show one decimal.  Instructions without a response are excluded from
every denominator and listed as unscored.
"""

from __future__ import annotations

import csv
import io
import marshal
import math
import os
import threading
from dataclasses import dataclass, field, fields
from json.encoder import encode_basestring
from operator import attrgetter
from pathlib import Path
from typing import Any, Iterable, NoReturn, Sequence

from .engine import _LOOSE_REWRITES, verify_instruction
from .records import DataError, build, read_instructions, read_json, read_responses
from .rules import DIFFICULTIES, LANGUAGES, Instruction


@dataclass(frozen=True)
class SliceStats:
    """Accuracy of one slice of the scored set.

    As in CellStats, `n` counts the slice's verdict rows and each other field
    is the mean of the verdict field of that name (None if no row has one).
    """

    n: float
    strict: float | None
    loose: float | None


@dataclass(frozen=True)
class CellStats:
    """Strict accuracy for one (procedure depth, constraint count) cell."""

    n: float
    strict: float


@dataclass(frozen=True)
class InstructionVerdict:
    """Flattened outcome for one scored instruction."""

    id: str
    language: str
    difficulty: str
    depth: int
    count: int
    strict: bool
    loose: bool | None
    loose_variant: str | None
    rule_passes: tuple[bool, ...]


@dataclass(frozen=True)
class EvalReport:
    overall: SliceStats
    by_language: dict[str, SliceStats]
    by_difficulty: dict[str, SliceStats]
    cells: dict[tuple[int, int], CellStats]
    verdicts: tuple[InstructionVerdict, ...]
    unscored: tuple[str, ...]
    runs: int = field(default=1, compare=False)


#: the verdict fields that key a cell, in key order
_CELL_KEY = ("depth", "count")

#: slice section of a report -> (its stats type, the key of a verdict row)
_SECTIONS = {
    "by_language": (SliceStats, attrgetter("language")),
    "by_difficulty": (SliceStats, attrgetter("difficulty")),
    "cells": (CellStats, attrgetter(*_CELL_KEY)),
}


def _group(pairs: Iterable[tuple[Any, Any]]) -> dict[Any, list]:
    groups: dict[Any, list] = {}
    for key, value in pairs:
        groups.setdefault(key, []).append(value)
    return groups


def _mean(values: Sequence[float | None]) -> float | None:
    present = [v for v in values if v is not None]
    return sum(present) / len(present) if present else None


def _summary(cls: type, rows: Sequence[InstructionVerdict]) -> Any:
    """`cls` stats over verdict rows: their count, then the mean of each row
    field that `cls` names."""
    return cls(len(rows), *[_mean(list(map(attrgetter(f.name), rows))) for f in fields(cls)[1:]])


def _merged(stats: Sequence[tuple[Any, int]]) -> Any:
    """Field-by-field mean of (stats, runs) pairs of one stats type, each
    weighted by the runs it averages; None values are skipped."""
    cls = type(stats[0][0])
    means = []
    for f in fields(cls):
        present = [(getattr(s, f.name), runs) for s, runs in stats if getattr(s, f.name) is not None]
        total = sum(runs for _, runs in present)
        means.append(sum(value * runs for value, runs in present) / total if present else None)
    return cls(*means)


def aggregate(rows: Sequence[InstructionVerdict], unscored: Sequence[str] = ()) -> EvalReport:
    """Build a report from verdict rows; every aggregate is recomputed here."""
    sections = {}
    for name, (cls, key_of) in _SECTIONS.items():
        groups = _group(zip(map(key_of, rows), rows))
        sections[name] = {key: _summary(cls, group) for key, group in groups.items()}
    return EvalReport(
        overall=_summary(SliceStats, rows), **sections, verdicts=tuple(rows), unscored=tuple(unscored)
    )


#: (instruction, response) pairs per chunk of `score`; process k mod
#: workers scores chunk k
_CHUNK = 32

_Chunks = Sequence[Sequence[tuple[Instruction, str]]]


def _cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _outcomes(chunks: _Chunks, loose: bool) -> list[list[tuple]]:
    """Per chunk, the (strict, loose, loose_variant, rule_passes) outcome of
    each (instruction, response) pair: plain values that `marshal` sends."""
    shares = []
    for chunk in chunks:
        share = []
        for instruction, response in chunk:
            verdict = verify_instruction(instruction, response, loose=loose)
            share.append((
                verdict.strict_pass, verdict.loose_pass, verdict.loose_variant,
                tuple([ok for _, ok in verdict.rule_results]),
            ))
        shares.append(share)
    return shares


def _child(chunks: _Chunks, loose: bool, out: int, inherited: list[int]) -> NoReturn:
    """Score `chunks` in a forked child, write the marshalled `_outcomes` to
    the pipe end `out` and exit, with status 1 on any failure.  It closes the
    read ends it `inherited`, so a write to a pipe whose reader is gone
    fails rather than waits.  Only `os._exit` leaves: no `finally` of the
    caller runs here, and no stdio buffer it holds is flushed twice."""
    status = 1
    try:
        for fd in inherited:
            os.close(fd)
        with open(out, "wb") as pipe:
            pipe.write(marshal.dumps(_outcomes(chunks, loose)))
        status = 0
    except Exception:
        import traceback

        os.write(2, traceback.format_exc().encode("utf-8", "replace"))
    finally:
        os._exit(status)


def _forked_outcomes(chunks: _Chunks, workers: int, loose: bool) -> list[list[list[tuple]]]:
    """For each k below `workers`, the `_outcomes` of chunks k, k + workers,
    ...: the calling process scores k = 0 and a forked child each other k.
    A child that exits non-zero raises RuntimeError.  On any exception every
    child not yet reaped is killed and reaped, and every pipe end is closed."""
    pids: list[int] = []
    pipes: list[int] = []  # read ends, one per child not yet read
    try:
        for k in range(1, workers):
            read_end, write_end = os.pipe()
            pipes.append(read_end)
            try:
                pid = os.fork()
                if pid == 0:
                    _child(chunks[k::workers], loose, write_end, pipes)
            finally:
                os.close(write_end)
            pids.append(pid)
        shares = [_outcomes(chunks[0::workers], loose)]
        while pids:
            with open(pipes[0], "rb") as pipe:
                del pipes[0]  # the file object closes it now
                data = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pids[0], 0)[1])
            pid = pids.pop(0)
            if status != 0:
                raise RuntimeError(f"scoring process {pid} exited with status {status}")
            shares.append(marshal.loads(data))
        return shares
    except BaseException:
        import signal

        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        for pid in pids:
            os.waitpid(pid, 0)
        raise
    finally:
        for fd in pipes:
            os.close(fd)


def score(
    instructions: str | Path | Sequence[Instruction],
    responses: str | Path | dict[str, str],
    jobs: int = 1,
    loose: bool = True,
) -> EvalReport:
    """Score a response set; identical inputs yield identical reports for any
    `jobs`.

    `jobs` counts processes, this one included.  The scored pairs are cut
    into chunks of `_CHUNK`, and forked children score a share of them: no
    more processes run than `jobs`, chunks or CPUs.  This process scores
    alone where the platform has no `os.fork` or it runs more than one
    thread, since a forked child copies only the thread that forked."""
    if isinstance(instructions, (str, Path)):
        instructions = read_instructions(instructions)
    source = responses if isinstance(responses, (str, Path)) else None
    if source is not None:
        responses = read_responses(source)
    known = {i.id for i in instructions}
    unknown = [rid for rid in responses if rid not in known]
    if unknown:
        raise DataError(f"responses reference unknown instruction ids: {sorted(unknown)[:5]}", source)
    pairs = [(i, responses[i.id]) for i in instructions if i.id in responses]
    unscored = [i.id for i in instructions if i.id not in responses]
    chunks = [pairs[k : k + _CHUNK] for k in range(0, len(pairs), _CHUNK)]
    workers = min(jobs, len(chunks), _cpus())
    if workers < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        workers = 1
    shares = _forked_outcomes(chunks, workers, loose)
    outcomes = [outcome for k in range(len(chunks)) for outcome in shares[k % workers][k // workers]]
    rows = [
        InstructionVerdict(i.id, i.language, i.difficulty, i.depth, i.count, *outcome)
        for (i, _), outcome in zip(pairs, outcomes)
    ]
    return aggregate(rows, unscored)


def heatmap(report: EvalReport) -> list[tuple[int, int, float, float]]:
    """(depth, count, strict accuracy, n) rows, sorted by depth then count."""
    return [
        (depth, count, cell.strict, cell.n)
        for (depth, count), cell in sorted(report.cells.items())
    ]


def merge(reports: Sequence[EvalReport]) -> EvalReport:
    """Average of several runs, slice by slice, each input weighted by the
    runs it averages.

    Per-instruction verdict rows survive only if identical in every input;
    merging identical reports therefore reproduces them unchanged.
    """
    if not reports:
        raise ValueError("merge needs at least one report")
    if len(reports) == 1:
        return reports[0]
    sections = {}
    for name in _SECTIONS:
        groups = _group((key, (stats, r.runs)) for r in reports for key, stats in getattr(r, name).items())
        sections[name] = {key: _merged(group) for key, group in groups.items()}
    first = reports[0]
    others = [set(r.verdicts) for r in reports[1:]]
    verdicts = tuple(row for row in first.verdicts if all(row in rows for rows in others))
    if all(r.unscored == first.unscored for r in reports[1:]):
        unscored = first.unscored
    else:
        unscored = tuple(sorted({u for r in reports for u in r.unscored}))
    return EvalReport(
        overall=_merged([(r.overall, r.runs) for r in reports]),
        **sections,
        verdicts=verdicts,
        unscored=unscored,
        runs=sum(r.runs for r in reports),
    )


def report_to_dict(report: EvalReport) -> dict[str, Any]:
    return {
        "runs": report.runs,
        "overall": dict(vars(report.overall)),
        "by_language": {k: dict(vars(v)) for k, v in report.by_language.items()},
        "by_difficulty": {k: dict(vars(v)) for k, v in report.by_difficulty.items()},
        "cells": [dict(zip(_CELL_KEY, key), **vars(cell)) for key, cell in sorted(report.cells.items())],
        "verdicts": [dict(vars(r)) for r in report.verdicts],
        "unscored": list(report.unscored),
    }


@dataclass(frozen=True)
class _CellEntry(CellStats):
    """One entry of a structured report's `cells` list: a cell with its key."""

    depth: int
    count: int


def _unique(what: str, keys: Iterable[Any]) -> set[Any]:
    """The set of `keys`; ValueError naming the first key that repeats."""
    seen: set[Any] = set()
    for key in keys:
        if key in seen:
            raise ValueError(f"duplicate {what}: {key!r}")
        seen.add(key)
    return seen


def report_from_dict(data: dict[str, Any]) -> EvalReport:
    """Read back `report_to_dict` output; a missing key, a value of the
    wrong type, a repeated cell, verdict id or unscored id, an id both
    scored and unscored, a verdict row that `score` could not write, or a
    single-run report whose slices are not the aggregate of its rows raises
    ValueError.  A merged report averages its runs, so its slices cannot be
    recomputed from the rows it keeps; they are refused only where no run
    could have written them: an unknown language or difficulty, a cell's
    depth or count below 1, an `n` below 0, or an accuracy outside [0, 1]."""
    if "cells" in data:
        entries = data["cells"]
        if type(entries) is not list or any(type(entry) is not dict for entry in entries):
            raise ValueError(f"cells must be a list of objects, not {entries!r:.60}")
        cells = [build(_CellEntry, entry) for entry in entries]
        _unique("cell (depth, count)", ((c.depth, c.count) for c in cells))
        data = {**data, "cells": {(c.depth, c.count): CellStats(c.n, c.strict) for c in cells}}
    report = build(EvalReport, data)
    if report.runs < 1:
        raise ValueError(f"runs must be at least 1, not {report.runs}")
    scored = _unique("verdict id", (row.id for row in report.verdicts))
    for rid in _unique("unscored id", report.unscored):
        if rid in scored:
            raise ValueError(f"duplicate id in verdicts and unscored: {rid!r}")
    for row in report.verdicts:
        if not (
            row.language in LANGUAGES and row.difficulty in DIFFICULTIES
            and row.depth >= 1 and row.count == len(row.rule_passes) >= 1
            and row.strict == all(row.rule_passes) and not (row.strict and row.loose is False)
            and (row.loose_variant in _LOOSE_REWRITES if row.loose else row.loose_variant is None)
        ):
            raise ValueError(f"verdict {row.id!r} contradicts itself")
    if report.runs == 1:
        recomputed = aggregate(report.verdicts, report.unscored)
        for name in ("overall", *_SECTIONS):
            if getattr(report, name) != getattr(recomputed, name):
                raise ValueError(f"{name} does not match the verdict rows of a single-run report")
    # a merged report's slices are read as written, but no run could write these
    for name, known in (("by_language", LANGUAGES), ("by_difficulty", DIFFICULTIES)):
        for key in getattr(report, name):
            if key not in known:
                raise ValueError(f"unknown {name} key {key!r}")
    for key in report.cells:
        if min(key) < 1:
            raise ValueError(f"cell (depth, count) below 1: {key!r}")
    slices = [("overall", report.overall)]
    slices += [(f"{name} {key!r}", stats) for name in _SECTIONS for key, stats in getattr(report, name).items()]
    for where, stats in slices:
        if stats.n < 0:
            raise ValueError(f"{where} n {stats.n} is below 0")
        for f in fields(stats)[1:]:
            value = getattr(stats, f.name)
            if value is not None and not 0 <= value <= 1:
                raise ValueError(f"{where} {f.name} {value} is outside [0, 1]")
    return report


def _pct(value: float | None) -> str:
    return "-" if value is None else f"{100.0 * value:.1f}"


def _gain(stats: SliceStats) -> str:
    if stats.strict is None or stats.loose is None:
        return "-"
    return f"{100.0 * (stats.loose - stats.strict):.1f}"


_LANGUAGE_HEADINGS = {"zh": "CN", "en": "EN"}


def render_table(report: EvalReport) -> str:
    """Plain-text tables: language rows, difficulty rows, then the depth/count grid."""
    lines: list[str] = []
    width = 10

    def row(label: str, stats: SliceStats | None) -> str:
        cells = ("-", "-", "-") if stats is None else (_pct(stats.strict), _pct(stats.loose), _gain(stats))
        return f"{label:<10}" + "".join(f"{c:>{width}}" for c in cells)

    header = f"{'':<10}" + "".join(f"{h:>{width}}" for h in ("Strict", "Loose", "Gain"))
    lines.append("Accuracy by language (%)")
    lines.append(header)
    for lang in ("zh", "en"):
        lines.append(row(_LANGUAGE_HEADINGS[lang], report.by_language.get(lang)))
    lines.append(row("Overall", report.overall))
    if report.by_difficulty:
        lines.append("")
        lines.append("Accuracy by difficulty (%)")
        lines.append(header)
        for grade in DIFFICULTIES:
            if grade in report.by_difficulty:
                lines.append(row(grade, report.by_difficulty[grade]))
    if report.cells:
        lines.append("")
        lines.append("Strict accuracy by procedure depth and constraint count (%)")
        lines.append(f"{'depth':>6}{'count':>7}{'strict':>{width}}{'n':>7}")
        for depth, count, strict, n in heatmap(report):
            n_text = str(int(n)) if float(n).is_integer() else f"{n:.2f}"
            lines.append(f"{depth:>6}{count:>7}{100.0 * strict:>{width}.1f}{n_text:>7}")
    if report.unscored:
        lines.append("")
        lines.append(f"Unscored instructions ({len(report.unscored)}): " + ", ".join(report.unscored))
    if report.runs > 1:
        lines.append("")
        lines.append(f"Averaged over {report.runs} runs.")
    return "\n".join(lines) + "\n"


_CSV_COLUMNS = (
    "id", "language", "difficulty", "depth", "count",
    "scored", "strict", "loose", "loose_variant", "rule_passes",
)


def render_csv(report: EvalReport) -> str:
    """Per-instruction rows, an export format like the table.

    Only structured JSON reads back; a merged report keeps only verdict rows
    that were identical across runs, so its CSV lists those rows alone.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for r in report.verdicts:
        writer.writerow(
            [
                r.id,
                r.language,
                r.difficulty,
                r.depth,
                r.count,
                "1",
                "T" if r.strict else "F",
                "" if r.loose is None else ("T" if r.loose else "F"),
                r.loose_variant or "",
                "".join("T" if ok else "F" for ok in r.rule_passes),
            ]
        )
    for rid in report.unscored:
        writer.writerow([rid, "", "", "", "", "0", "", "", "", ""])
    return buf.getvalue()


def _render_structured(report: EvalReport) -> str:
    return _json_text(report_to_dict(report), "\n") + "\n"


def _json_text(value: Any, indent: str) -> str:
    """`value` as ``json.dumps(value, ensure_ascii=False, sort_keys=True,
    indent=2)`` writes it, where `indent` is the newline and indentation its
    text begins under.  Dict keys are strings.  Each object or array is one
    `join` of its entries, and strings go through json's C string encoder;
    `json.dumps` with an indent runs json's pure-Python encoder instead."""
    if isinstance(value, str):
        return encode_basestring(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if math.isinf(value):
            return "Infinity" if value > 0 else "-Infinity"
        return float.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        entries = [f"{encode_basestring(key)}: {_json_text(item, inner)}" for key, item in sorted(value.items())]
        return f"{{{inner}{(',' + inner).join(entries)}{indent}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return f"[{inner}{(',' + inner).join([_json_text(item, inner) for item in value])}{indent}]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


_RENDERERS = {"structured": _render_structured, "table": render_table, "csv": render_csv}
REPORT_FORMATS = tuple(_RENDERERS)


def render_report(report: EvalReport, fmt: str = "structured") -> str:
    if fmt not in _RENDERERS:
        raise ValueError(f"unknown report format {fmt!r} (expected one of {REPORT_FORMATS})")
    return _RENDERERS[fmt](report)


def load_report(path: str | Path) -> EvalReport:
    """Read back a structured (JSON) report file."""
    data = read_json(path)
    try:
        return report_from_dict(data)
    except ValueError as exc:
        raise DataError(f"bad report structure: {exc}", path) from exc
