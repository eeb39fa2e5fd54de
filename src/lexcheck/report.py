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
import json
import multiprocessing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from .engine import verify_instruction
from .records import DataError, read_instructions, read_responses
from .rules import DIFFICULTIES, Instruction

REPORT_FORMATS = ("structured", "table", "csv")


@dataclass(frozen=True)
class SliceStats:
    """Accuracy of one slice of the scored set."""

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


def _mean_bool(values: Sequence[bool]) -> float:
    return sum(1 for v in values if v) / len(values)


def _slice_stats(rows: Sequence[InstructionVerdict]) -> SliceStats:
    if not rows:
        return SliceStats(0, None, None)
    strict = _mean_bool([r.strict for r in rows])
    loose_flags = [r.loose for r in rows]
    loose = None if any(v is None for v in loose_flags) else _mean_bool(loose_flags)  # type: ignore[arg-type]
    return SliceStats(len(rows), strict, loose)


def aggregate(rows: Sequence[InstructionVerdict], unscored: Sequence[str] = ()) -> EvalReport:
    """Build a report from verdict rows; every aggregate is recomputed here."""
    by_language: dict[str, SliceStats] = {}
    for lang in sorted({r.language for r in rows}):
        by_language[lang] = _slice_stats([r for r in rows if r.language == lang])
    by_difficulty: dict[str, SliceStats] = {}
    for grade in DIFFICULTIES:
        grade_rows = [r for r in rows if r.difficulty == grade]
        if grade_rows:
            by_difficulty[grade] = _slice_stats(grade_rows)
    cells: dict[tuple[int, int], CellStats] = {}
    for key in sorted({(r.depth, r.count) for r in rows}):
        cell_rows = [r for r in rows if (r.depth, r.count) == key]
        cells[key] = CellStats(len(cell_rows), _mean_bool([r.strict for r in cell_rows]))
    return EvalReport(
        overall=_slice_stats(rows),
        by_language=by_language,
        by_difficulty=by_difficulty,
        cells=cells,
        verdicts=tuple(rows),
        unscored=tuple(unscored),
    )


def _verdict_row(args: tuple[Instruction, str, bool]) -> InstructionVerdict:
    instruction, response, loose = args
    verdict = verify_instruction(instruction, response, loose=loose)
    return InstructionVerdict(
        id=instruction.id,
        language=instruction.language,
        difficulty=instruction.difficulty,
        depth=instruction.depth,
        count=instruction.count,
        strict=verdict.strict_pass,
        loose=verdict.loose_pass,
        loose_variant=verdict.loose_variant,
        rule_passes=tuple(ok for _, ok in verdict.rule_results),
    )


def score(
    instructions: str | Path | Sequence[Instruction],
    responses: str | Path | dict[str, str],
    jobs: int = 1,
    loose: bool = True,
) -> EvalReport:
    """Score a response set; identical inputs yield identical reports for any
    worker count."""
    if isinstance(instructions, (str, Path)):
        instructions = read_instructions(instructions)
    if isinstance(responses, (str, Path)):
        responses = read_responses(responses)
    known = {i.id for i in instructions}
    unknown = [rid for rid in responses if rid not in known]
    if unknown:
        raise DataError(f"responses reference unknown instruction ids: {sorted(unknown)[:5]}")
    pairs = [(i, responses[i.id], loose) for i in instructions if i.id in responses]
    unscored = [i.id for i in instructions if i.id not in responses]
    if jobs > 1 and len(pairs) > 1:
        with multiprocessing.Pool(jobs) as pool:
            rows = pool.map(_verdict_row, pairs, chunksize=64)
    else:
        rows = [_verdict_row(p) for p in pairs]
    return aggregate(rows, unscored)


def heatmap(report: EvalReport) -> list[tuple[int, int, float, float]]:
    """(depth, count, strict accuracy, n) rows, sorted by depth then count."""
    return [
        (depth, count, cell.strict, cell.n)
        for (depth, count), cell in sorted(report.cells.items())
    ]


def merge(reports: Sequence[EvalReport]) -> EvalReport:
    """Equal-weight average of several runs, slice by slice.

    Per-instruction verdict rows survive only if identical in every input;
    merging identical reports therefore reproduces them unchanged.
    """
    if not reports:
        raise ValueError("merge needs at least one report")
    if len(reports) == 1:
        return reports[0]

    def avg(values: list[float | None]) -> float | None:
        present = [v for v in values if v is not None]
        if not present:
            return None
        return sum(present) / len(present)

    def merge_slices(slices: list[SliceStats]) -> SliceStats:
        n = sum(s.n for s in slices) / len(slices)
        return SliceStats(n, avg([s.strict for s in slices]), avg([s.loose for s in slices]))

    overall = merge_slices([r.overall for r in reports])
    by_language = {}
    for lang in sorted({k for r in reports for k in r.by_language}):
        by_language[lang] = merge_slices([r.by_language[lang] for r in reports if lang in r.by_language])
    by_difficulty = {}
    for grade in DIFFICULTIES:
        present = [r.by_difficulty[grade] for r in reports if grade in r.by_difficulty]
        if present:
            by_difficulty[grade] = merge_slices(present)
    cells = {}
    for key in sorted({k for r in reports for k in r.cells}):
        present_cells = [r.cells[key] for r in reports if key in r.cells]
        n = sum(c.n for c in present_cells) / len(present_cells)
        strict = sum(c.strict for c in present_cells) / len(present_cells)
        cells[key] = CellStats(n, strict)

    first = reports[0]
    others = [set(r.verdicts) for r in reports[1:]]
    verdicts = tuple(row for row in first.verdicts if all(row in rows for rows in others))
    if all(r.unscored == first.unscored for r in reports[1:]):
        unscored = first.unscored
    else:
        unscored = tuple(sorted({u for r in reports for u in r.unscored}))
    return EvalReport(
        overall=overall,
        by_language=by_language,
        by_difficulty=by_difficulty,
        cells=cells,
        verdicts=verdicts,
        unscored=unscored,
        runs=sum(r.runs for r in reports),
    )


def _slice_to_dict(stats: SliceStats) -> dict[str, Any]:
    return {"n": stats.n, "strict": stats.strict, "loose": stats.loose}


def _slice_from_dict(data: dict[str, Any]) -> SliceStats:
    return SliceStats(data["n"], data["strict"], data["loose"])


def report_to_dict(report: EvalReport) -> dict[str, Any]:
    return {
        "runs": report.runs,
        "overall": _slice_to_dict(report.overall),
        "by_language": {k: _slice_to_dict(v) for k, v in report.by_language.items()},
        "by_difficulty": {k: _slice_to_dict(v) for k, v in report.by_difficulty.items()},
        "cells": [
            {"depth": d, "count": c, "n": cell.n, "strict": cell.strict}
            for (d, c), cell in sorted(report.cells.items())
        ],
        "verdicts": [
            {
                "id": r.id,
                "language": r.language,
                "difficulty": r.difficulty,
                "depth": r.depth,
                "count": r.count,
                "strict": r.strict,
                "loose": r.loose,
                "loose_variant": r.loose_variant,
                "rule_passes": list(r.rule_passes),
            }
            for r in report.verdicts
        ],
        "unscored": list(report.unscored),
    }


def report_from_dict(data: dict[str, Any]) -> EvalReport:
    return EvalReport(
        overall=_slice_from_dict(data["overall"]),
        by_language={k: _slice_from_dict(v) for k, v in data["by_language"].items()},
        by_difficulty={k: _slice_from_dict(v) for k, v in data["by_difficulty"].items()},
        cells={
            (entry["depth"], entry["count"]): CellStats(entry["n"], entry["strict"])
            for entry in data["cells"]
        },
        verdicts=tuple(
            InstructionVerdict(
                id=r["id"],
                language=r["language"],
                difficulty=r["difficulty"],
                depth=r["depth"],
                count=r["count"],
                strict=r["strict"],
                loose=r["loose"],
                loose_variant=r["loose_variant"],
                rule_passes=tuple(r["rule_passes"]),
            )
            for r in data["verdicts"]
        ),
        unscored=tuple(data["unscored"]),
        runs=data.get("runs", 1),
    )


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


def render_report(report: EvalReport, fmt: str = "structured") -> str:
    if fmt == "structured":
        return json.dumps(report_to_dict(report), ensure_ascii=False, sort_keys=True, indent=2) + "\n"
    if fmt == "table":
        return render_table(report)
    if fmt == "csv":
        return render_csv(report)
    raise ValueError(f"unknown report format {fmt!r} (expected one of {REPORT_FORMATS})")


def load_report(path: str | Path) -> EvalReport:
    """Read back a structured (JSON) report file."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise DataError(f"report is not valid UTF-8 (byte {exc.start})", path) from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"malformed report JSON: {exc.msg}", path) from exc
    try:
        return report_from_dict(data)
    except (KeyError, TypeError, AttributeError) as exc:
        raise DataError(f"bad report structure: {exc!r}", path) from exc
