"""Scoring and reporting: aggregation math, merging, renderings, round-trips."""

from __future__ import annotations

import json
import re
import time

import pytest

from helpers import write_responses
from lexcheck.engine import verify_instruction
from lexcheck.generate import GenConfig, generate_dataset
from lexcheck.records import DataError, write_instructions
from lexcheck.report import (
    CellStats,
    EvalReport,
    InstructionVerdict,
    SliceStats,
    aggregate,
    heatmap,
    load_report,
    merge,
    render_csv,
    render_report,
    render_table,
    report_from_dict,
    report_to_dict,
    score,
)


def row(
    rid: str,
    language: str = "en",
    difficulty: str = "easy",
    depth: int = 1,
    count: int = 1,
    strict: bool = False,
    loose: bool | None = False,
    variant: str | None = None,
    passes: tuple[bool, ...] = (False,),
) -> InstructionVerdict:
    return InstructionVerdict(rid, language, difficulty, depth, count, strict, loose, variant, passes)


@pytest.fixture(scope="module")
def small_eval():
    """A 12-instruction bilingual evaluation with deterministic responses."""
    instructions = generate_dataset(GenConfig(seed=31, language="en", easy=2, medium=2, hard=2))
    instructions += generate_dataset(GenConfig(seed=32, language="zh", easy=2, medium=2, hard=2))
    responses = {}
    for k, ins in enumerate(instructions):
        responses[ins.id] = ["Short one.", "A line.\nAnother line.", "好。\n\n- 第二行。"][k % 3]
    return instructions, responses


class TestAggregate:
    def test_slice_math(self):
        rows = [
            row("a", strict=True, loose=True, variant="identity", passes=(True,)),
            row("b", strict=False, loose=True, variant="drop-first-line"),
            row("c", language="zh", difficulty="hard", depth=2, count=2, strict=False, loose=False),
            row("d", strict=False, loose=False),
        ]
        report = aggregate(rows, unscored=["zz"])
        assert report.overall == SliceStats(4, 0.25, 0.5)
        assert report.by_language["en"] == SliceStats(3, 1 / 3, 2 / 3)
        assert report.by_language["zh"] == SliceStats(1, 0.0, 0.0)
        assert report.by_difficulty["easy"] == SliceStats(3, 1 / 3, 2 / 3)
        assert report.by_difficulty["hard"] == SliceStats(1, 0.0, 0.0)
        assert "medium" not in report.by_difficulty
        assert report.cells == {
            (1, 1): CellStats(3, 1 / 3),
            (2, 2): CellStats(1, 0.0),
        }
        assert report.unscored == ("zz",)
        assert report.runs == 1

    def test_empty_rows(self):
        report = aggregate([], unscored=["a", "b"])
        assert report.overall == SliceStats(0, None, None)
        assert report.by_language == {} and report.cells == {}

    def test_loose_none_propagates(self):
        rows = [row("a", strict=True, loose=None)]
        assert aggregate(rows).overall.loose is None


class TestScore:
    def test_matches_direct_verification(self, small_eval):
        instructions, responses = small_eval
        report = score(instructions, responses)
        expected_strict = [
            verify_instruction(i, responses[i.id]).strict_pass for i in instructions
        ]
        assert [v.strict for v in report.verdicts] == expected_strict
        assert report.overall.n == len(instructions)
        assert report.unscored == ()

    def test_path_inputs(self, small_eval, tmp_path):
        instructions, responses = small_eval
        ins_path = tmp_path / "ins.jsonl"
        res_path = tmp_path / "res.jsonl"
        write_instructions(ins_path, instructions)
        write_responses(res_path, [{"id": k, "response": v} for k, v in responses.items()])
        assert score(ins_path, res_path) == score(instructions, responses)

    def test_missing_responses_become_unscored(self, small_eval):
        instructions, responses = small_eval
        partial = dict(list(responses.items())[:-3])
        report = score(instructions, partial)
        assert len(report.unscored) == 3
        assert report.overall.n == len(instructions) - 3
        assert set(report.unscored) == set(responses) - set(partial)

    def test_unknown_response_id_rejected(self, small_eval):
        instructions, responses = small_eval
        with pytest.raises(DataError, match="unknown instruction ids"):
            score(instructions, {**responses, "ghost": "x"})

    def test_strict_only(self, small_eval):
        instructions, responses = small_eval
        report = score(instructions, responses, loose=False)
        assert report.overall.loose is None
        assert all(v.loose is None for v in report.verdicts)

    def test_parallel_equals_serial(self, small_eval):
        instructions, responses = small_eval
        assert score(instructions, responses, jobs=4) == score(instructions, responses, jobs=1)

    def test_verdict_order_follows_instructions(self, small_eval):
        instructions, responses = small_eval
        report = score(instructions, responses, jobs=4)
        assert [v.id for v in report.verdicts] == [i.id for i in instructions]


class TestHeatmap:
    def test_sorted_rows(self):
        rows = [
            row("a", depth=2, count=1, strict=True, passes=(True,)),
            row("b", depth=1, count=2),
            row("c", depth=1, count=1),
        ]
        report = aggregate(rows)
        grid = heatmap(report)
        assert [(d, c) for d, c, _, _ in grid] == [(1, 1), (1, 2), (2, 1)]
        assert grid[2][2] == 1.0


class TestMerge:
    def test_single_report_is_returned_unchanged(self, small_eval):
        instructions, responses = small_eval
        report = score(instructions, responses)
        assert merge([report]) is report

    def test_identical_runs_average_to_themselves(self, small_eval):
        instructions, responses = small_eval
        a = score(instructions, responses)
        b = score(instructions, responses)
        merged = merge([a, b])
        assert merged == a
        assert merged.runs == 2
        assert merged.verdicts == a.verdicts

    def test_differing_runs_average(self):
        a = aggregate([row("x", strict=True, loose=True, variant="identity", passes=(True,))])
        b = aggregate([row("x", strict=False, loose=False)])
        merged = merge([a, b])
        assert merged.overall == SliceStats(1, 0.5, 0.5)
        assert merged.cells[(1, 1)] == CellStats(1, 0.5)
        assert merged.verdicts == ()
        assert merged.runs == 2

    def test_slice_present_in_one_run_only(self):
        a = aggregate([row("x", language="en", strict=True, loose=True, variant="identity")])
        b = aggregate([row("y", language="zh", strict=False, loose=False)])
        merged = merge([a, b])
        assert merged.by_language["en"].strict == 1.0
        assert merged.by_language["zh"].strict == 0.0

    def test_unscored_union_when_different(self):
        a = aggregate([row("x")], unscored=["u1"])
        b = aggregate([row("x")], unscored=["u2"])
        assert merge([a, b]).unscored == ("u1", "u2")

    def test_empty_merge_rejected(self):
        with pytest.raises(ValueError):
            merge([])

    def test_merge_time_grows_linearly_with_rows(self):
        def best_merge_s(n: int) -> float:
            # equal but distinct rows in each run, as when loaded from files
            reports = [aggregate([row(f"r{k}", strict=k % 2 == 0) for k in range(n)]) for _ in range(3)]
            times = []
            for _ in range(5):
                start = time.perf_counter()
                merged = merge(reports)
                times.append(time.perf_counter() - start)
            assert len(merged.verdicts) == n
            return min(times)

        # linear growth gives about 4x; scanning the other runs' rows per row gives about 16x
        assert best_merge_s(4000) < 8 * best_merge_s(1000)


class TestStructuredRoundTrip:
    def test_dict_round_trip(self, small_eval):
        instructions, responses = small_eval
        report = score(instructions, responses)
        clone = report_from_dict(json.loads(json.dumps(report_to_dict(report))))
        assert clone == report
        assert clone.runs == report.runs

    def test_load_report(self, small_eval, tmp_path):
        instructions, responses = small_eval
        report = score(instructions, responses)
        path = tmp_path / "report.json"
        path.write_text(render_report(report, "structured"), encoding="utf-8")
        assert load_report(path) == report

    def test_load_report_errors(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(DataError) as info:
            load_report(bad)
        assert str(info.value) == f"{bad}: malformed JSON (Expecting property name enclosed in double quotes)"
        wrong = tmp_path / "wrong.json"
        wrong.write_text('{"overall": {}}', encoding="utf-8")
        with pytest.raises(DataError, match="bad report structure"):
            load_report(wrong)

    @pytest.mark.parametrize(
        "literal, message",
        [
            ("NaN", "non-finite number NaN"),
            ("Infinity", "non-finite number Infinity"),
            ("-Infinity", "non-finite number -Infinity"),
            ("1e999", "number 1e999 is beyond the float range"),
        ],
    )
    def test_non_finite_rate_refused(self, small_eval, tmp_path, literal, message):
        """A merged report's slices are read as written, so a rate that is
        no finite number must be refused where the file is decoded."""
        instructions, responses = small_eval
        runs = [score(instructions, responses), score(instructions, {rid: "Other." for rid in responses})]
        data = report_to_dict(merge(runs))
        data["overall"]["strict"] = 12345.678
        path = tmp_path / "merged.json"
        path.write_text(json.dumps(data).replace("12345.678", literal), encoding="utf-8")
        with pytest.raises(DataError) as info:
            load_report(path)
        assert str(info.value) == f"{path}: {message}"

    BROKEN = {
        "report": (lambda d: d.pop("verdicts"), "missing required keys: ['verdicts']"),
        "slice": (lambda d: d["overall"].pop("n"), "missing required keys: ['n']"),
        "verdict": (lambda d: d["verdicts"][0].pop("strict"), "missing required keys: ['strict']"),
        "cell": (lambda d: d["cells"][0].pop("depth"), "missing required keys: ['depth']"),
        "cells-object": (lambda d: d.update(cells={}), "cells must be a list of objects, not {}"),
        "cell-not-object": (lambda d: d.update(cells=[5]), "cells must be a list of objects, not [5]"),
    }

    @pytest.mark.parametrize("case", sorted(BROKEN))
    def test_broken_structure_named(self, small_eval, tmp_path, case):
        instructions, responses = small_eval
        data = report_to_dict(score(instructions, responses))
        breaks, message = self.BROKEN[case]
        breaks(data)
        path = tmp_path / "report.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(DataError) as info:
            load_report(path)
        assert str(info.value) == f"{path}: bad report structure: {message}"

    @pytest.mark.parametrize(
        "case", ["cell", "verdict", "scored-and-unscored", "unscored", "overall", "by-language", "cell-strict"]
    )
    def test_self_contradicting_report_rejected(self, small_eval, tmp_path, case):
        instructions, responses = small_eval
        data = report_to_dict(score(instructions, responses))
        cell, row = data["cells"][-1], data["verdicts"][-1]
        if case == "cell":
            data["cells"].append(dict(cell, n=1, strict=0.0))
            message = f"duplicate cell (depth, count): ({cell['depth']}, {cell['count']})"
        elif case == "verdict":
            data["verdicts"].append(dict(row, strict=not row["strict"]))
            message = f"duplicate verdict id: {row['id']!r}"
        elif case == "scored-and-unscored":
            data["unscored"].append(row["id"])
            message = f"duplicate id in verdicts and unscored: {row['id']!r}"
        elif case == "unscored":
            data["unscored"] = ["en-a", "en-b", "en-a"]
            message = "duplicate unscored id: 'en-a'"
        elif case == "overall":
            data["overall"].update(n=99, strict=0.5)
            message = "overall does not match the verdict rows of a single-run report"
        elif case == "by-language":
            data["by_language"]["zh"]["loose"] = 0.25
            message = "by_language does not match the verdict rows of a single-run report"
        else:
            cell["strict"] = 1.0 - cell["strict"]
            message = "cells does not match the verdict rows of a single-run report"
        path = tmp_path / "report.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(DataError) as info:
            load_report(path)
        assert str(info.value) == f"{path}: bad report structure: {message}"


    def test_merged_slices_are_not_recomputed(self, small_eval):
        """A merged report averages its runs' slices, and keeps only the rows
        every run agrees on, so its slices are read as written."""
        instructions, responses = small_eval
        first = score(instructions, responses)
        second = score(instructions, {rid: "Other." for rid in responses})
        merged = merge([first, second])
        assert merged.overall != aggregate(merged.verdicts).overall
        clone = report_from_dict(json.loads(json.dumps(report_to_dict(merged))))
        assert clone == merged
        assert clone.runs == 2


class TestCsv:
    def test_unscored_rows_marked(self, small_eval):
        instructions, responses = small_eval
        partial = dict(list(responses.items())[:-1])
        text = render_csv(score(instructions, partial))
        last = text.strip().splitlines()[-1].split(",")
        assert last[5] == "0"


class TestRenderTable:
    def test_layout(self, small_eval):
        instructions, responses = small_eval
        table = render_table(score(instructions, responses))
        lines = table.splitlines()
        assert lines[0] == "Accuracy by language (%)"
        assert lines[1] == f"{'':<10}{'Strict':>10}{'Loose':>10}{'Gain':>10}"
        assert lines[2].startswith("CN")
        assert lines[3].startswith("EN")
        assert lines[4].startswith("Overall")
        assert "Accuracy by difficulty (%)" in table
        assert "Strict accuracy by procedure depth and constraint count (%)" in table

    def test_missing_language_shows_dashes(self):
        report = aggregate([row("a", language="en", strict=True, loose=True, variant="identity")])
        table = render_table(report)
        cn_row = next(line for line in table.splitlines() if line.startswith("CN"))
        assert cn_row.split() == ["CN", "-", "-", "-"]

    def test_percentages_one_decimal(self):
        rows = [row(f"r{k}", strict=(k < 1), loose=(k < 2), variant=None) for k in range(3)]
        table = render_table(aggregate(rows))
        overall = next(line for line in table.splitlines() if line.startswith("Overall"))
        assert overall.split() == ["Overall", "33.3", "66.7", "33.3"]

    def test_unscored_listed(self):
        table = render_table(aggregate([row("a")], unscored=["u1", "u2"]))
        assert "Unscored instructions (2): u1, u2" in table

    def test_merged_note(self, small_eval):
        instructions, responses = small_eval
        merged = merge([score(instructions, responses)] * 3)
        assert "Averaged over 3 runs." in render_table(merged)

    def test_gain_uses_full_precision(self):
        # 142/625 = 22.72% and 156/625 = 24.96% round to 22.7 and 25.0,
        # but the gain column must show 2.2 (= 2.24 rounded), not 25.0-22.7
        rows = (
            [row(f"s{k}", strict=True, loose=True, variant="identity") for k in range(142)]
            + [row(f"l{k}", strict=False, loose=True, variant="drop-first-line") for k in range(14)]
            + [row(f"f{k}", strict=False, loose=False) for k in range(469)]
        )
        table = render_table(aggregate(rows))
        assert re.search(r"^Overall\s+22\.7\s+25\.0\s+2\.2$", table, re.M)


class TestRenderReport:
    def test_formats(self, small_eval):
        instructions, responses = small_eval
        report = score(instructions, responses)
        assert render_report(report, "structured").startswith("{")
        assert render_report(report, "table").startswith("Accuracy")
        assert render_report(report, "csv").startswith("id,language")
        with pytest.raises(ValueError, match="unknown report format"):
            render_report(report, "yaml")
