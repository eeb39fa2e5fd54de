"""Scoring and reporting: aggregation math, merging, renderings, round-trips."""

from __future__ import annotations

import json
import math
import os
import random
import re
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from helpers import count_forks, make_text, write_responses
from lexcheck.engine import verify_instruction
from lexcheck.generate import GenConfig, generate_dataset
from lexcheck.records import DataError, write_instructions
from lexcheck.report import (
    CellStats,
    EvalReport,
    InstructionVerdict,
    SliceStats,
    _CHUNK,
    _json_text,
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


@pytest.fixture(scope="module")
def two_chunk_eval():
    """36 instructions, one more chunk than `score` cuts from 32."""
    instructions = generate_dataset(GenConfig(seed=33, language="en", easy=12, medium=12, hard=12))
    rng = random.Random(33)
    return instructions, {ins.id: make_text(rng, "en") for ins in instructions}


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

    def test_parallel_equals_serial(self, small_eval, two_chunk_eval):
        for instructions, responses in (small_eval, two_chunk_eval):
            assert score(instructions, responses, jobs=4) == score(instructions, responses, jobs=1)

    @staticmethod
    def _forks(eval_set, monkeypatch, cpus):
        """The forks `score` makes scoring `eval_set` with `jobs` 10**6 on a
        machine reporting `cpus` CPUs; its report is the serial one."""
        instructions, responses = eval_set
        forks = count_forks(monkeypatch, cpus)
        assert score(instructions, responses, jobs=10**6) == score(instructions, responses, jobs=1)
        return len(forks)

    def test_no_more_workers_than_chunks(self, small_eval, two_chunk_eval, monkeypatch):
        assert self._forks(small_eval, monkeypatch, cpus=64) == 0
        assert self._forks(two_chunk_eval, monkeypatch, cpus=64) == 1

    @pytest.mark.parametrize("cpus, forks", [(2, 1), (1, 0), (None, 0)])
    def test_no_more_workers_than_cpus(self, two_chunk_eval, monkeypatch, cpus, forks):
        assert self._forks(two_chunk_eval, monkeypatch, cpus) == forks

    @pytest.mark.parametrize("allowed, forks", [(2, 1), (1, 0)])
    def test_cpus_are_those_the_process_may_run_on(self, two_chunk_eval, monkeypatch, allowed, forks):
        instructions, responses = two_chunk_eval
        counted = count_forks(monkeypatch, 64)
        monkeypatch.setattr("lexcheck.report.os.sched_getaffinity", lambda pid: set(range(allowed)), raising=False)
        assert score(instructions, responses, jobs=64) == score(instructions, responses, jobs=1)
        assert len(counted) == forks

    def test_jobs_defaults_to_one_process(self, two_chunk_eval, monkeypatch):
        instructions, responses = two_chunk_eval
        forks = count_forks(monkeypatch, 2)
        score(instructions, responses)
        assert forks == []

    def test_a_second_thread_keeps_scoring_in_this_process(self, two_chunk_eval, monkeypatch):
        instructions, responses = two_chunk_eval
        serial = score(instructions, responses, jobs=1)
        forks = count_forks(monkeypatch, 2)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            report = score(instructions, responses, jobs=2)
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert forks == []
        assert report == serial

    @pytest.mark.parametrize(
        "position, raised, expected, match",
        [
            (_CHUNK, ValueError, RuntimeError, "exited with status 1"),
            (0, ValueError, ValueError, "doomed"),
            (0, KeyboardInterrupt, KeyboardInterrupt, "doomed"),
        ],
        ids=["child", "parent", "parent-interrupted"],
    )
    def test_a_failure_leaves_no_process_or_pipe(
        self, two_chunk_eval, monkeypatch, position, raised, expected, match
    ):
        """Chunk 0 is this process's share and chunk 1 the child's.  A child
        that fails exits with status 1, which `score` raises as an error;
        any failure here kills and reaps the child and closes every pipe.
        The child's last pair takes a minute, so a child left to finish
        would hold up the reaping."""
        instructions, responses = two_chunk_eval
        doomed = instructions[position].id
        slow = instructions[-1].id

        def verify(instruction, response, loose=True):
            if instruction.id == doomed:
                raise raised("doomed")
            if instruction.id == slow:
                time.sleep(60)
            return verify_instruction(instruction, response, loose=loose)

        monkeypatch.setattr("lexcheck.report.verify_instruction", verify)
        forks = count_forks(monkeypatch, 2)
        fds = set(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else set()
        started = time.monotonic()
        with pytest.raises(expected, match=match):
            score(instructions, responses, jobs=2)
        assert time.monotonic() - started < 30
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        if fds:
            assert set(os.listdir("/proc/self/fd")) == fds

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

    def test_merged_report_counts_its_runs(self):
        a = aggregate([row("x", strict=True, loose=True, variant="identity", passes=(True,)),
                       row("y", strict=True, loose=True, variant="identity", passes=(True,))])
        b = aggregate([row("x"), row("y")])
        c = aggregate([row("x"), row("y")])
        nested, flat = merge([merge([a, b]), c]), merge([a, b, c])
        assert flat.overall.strict == 1 / 3
        assert nested.runs == flat.runs == 3
        assert (nested.overall, nested.by_language, nested.cells) == (flat.overall, flat.by_language, flat.cells)

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

    #: edits that make a verdict row no `score` run could write, applied to
    #: a row that passes every rule and so passes strictly and as identity
    ROW_EDITS = {
        "language": lambda r: {"language": "fr"},
        "difficulty": lambda r: {"difficulty": "extreme"},
        "depth": lambda r: {"depth": 0},
        "count": lambda r: {"count": r["count"] + 1},
        "no-rules": lambda r: {"count": 0, "rule_passes": []},
        "strict-with-a-failed-rule": lambda r: {"rule_passes": [False] + r["rule_passes"][1:]},
        "not-strict-with-every-rule": lambda r: {"strict": False},
        "strict-but-not-loose": lambda r: {"loose": False, "loose_variant": None},
        "unknown-variant": lambda r: {"loose_variant": "bogus"},
        "loose-without-variant": lambda r: {"loose_variant": None},
        "variant-without-loose": lambda r: {
            "strict": False, "loose": False, "rule_passes": [False] * r["count"]},
        "strict-only-variant": lambda r: {"loose": None},
        "every-contradiction": lambda r: {
            "language": "fr", "depth": -3, "count": 0, "rule_passes": [True, False, True, True],
            "strict": True, "loose": False, "loose_variant": "bogus"},
    }

    @pytest.mark.parametrize(
        "case",
        ["cell", "verdict", "scored-and-unscored", "unscored", "overall", "by-language", "cell-strict", *ROW_EDITS],
    )
    def test_self_contradicting_report_rejected(self, small_eval, tmp_path, case):
        instructions, responses = small_eval
        data = report_to_dict(score(instructions, responses))
        cell, row = data["cells"][-1], data["verdicts"][-1]
        if case in self.ROW_EDITS:
            # the edited row's slices are recomputed, so only the row itself
            # gives the contradiction away
            row.update(strict=True, loose=True, loose_variant="identity", rule_passes=[True] * row["count"])
            row.update(self.ROW_EDITS[case](row))
            rows = [InstructionVerdict(**dict(r, rule_passes=tuple(r["rule_passes"]))) for r in data["verdicts"]]
            data = report_to_dict(aggregate(rows, data["unscored"]))
            message = f"verdict {row['id']!r} contradicts itself"
        elif case == "cell":
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

    #: edits that give a merged report a slice no run could write, each with
    #: the reason it is refused for
    MERGED_EDITS = {
        "language": (lambda d: d["by_language"].update(fr=d["by_language"]["en"]), "unknown by_language key 'fr'"),
        "difficulty": (
            lambda d: d["by_difficulty"].update(bogus=d["overall"]), "unknown by_difficulty key 'bogus'"),
        "cell-depth": (lambda d: d["cells"].append({"depth": 0, "count": 1, "n": 1, "strict": 0.5}),
                       "cell (depth, count) below 1: (0, 1)"),
        "cell-count": (lambda d: d["cells"].append({"depth": 2, "count": -3, "n": 1, "strict": 0.5}),
                       "cell (depth, count) below 1: (2, -3)"),
        "overall-n": (lambda d: d["overall"].update(n=-1), "overall n -1 is below 0"),
        "cell-n": (lambda d: d["cells"][0].update(n=-0.5), "cells (1, 1) n -0.5 is below 0"),
        "overall-strict": (lambda d: d["overall"].update(strict=2.0), "overall strict 2.0 is outside [0, 1]"),
        "language-loose": (
            lambda d: d["by_language"]["en"].update(loose=-0.25), "by_language 'en' loose -0.25 is outside [0, 1]"),
        "cell-strict": (lambda d: d["cells"][0].update(strict=7.5), "cells (1, 1) strict 7.5 is outside [0, 1]"),
    }

    @pytest.mark.parametrize("case", sorted(MERGED_EDITS))
    def test_impossible_merged_slice_rejected(self, small_eval, tmp_path, case):
        instructions, responses = small_eval
        merged = merge([score(instructions, responses), score(instructions, {rid: "Other." for rid in responses})])
        data = report_to_dict(merged)
        assert data["cells"][0]["depth"] == data["cells"][0]["count"] == 1
        edit, message = self.MERGED_EDITS[case]
        edit(data)
        path = tmp_path / "report.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(DataError) as info:
            load_report(path)
        assert str(info.value) == f"{path}: bad report structure: {message}"


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


# Report-shaped JSON values: text with non-ASCII and control characters,
# finite and non-finite floats, ints past 64 bits, bools and None, in empty
# and nested lists, tuples and objects.
_JSON_SCALARS = (
    st.text(st.characters(codec="utf-8"))
    | st.sampled_from(["", "\x00\x1f\x7f", '"\\/\n\r\t\b\f', "\u2028\u2029", "中文", "é😀"])
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 0.1])
    | st.integers(-(2**200), 2**200)
    | st.booleans()
    | st.none()
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(st.characters(codec="utf-8"), max_size=6), inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_JSON_VALUES)
def test_structured_writer_writes_what_json_dumps_does(value):
    assert _json_text(value, "\n") == json.dumps(value, ensure_ascii=False, sort_keys=True, indent=2)
