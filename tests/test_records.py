"""JSONL record files: structured encodings, loaders, line-anchored errors."""

from __future__ import annotations

import io
import json
import re
from dataclasses import dataclass
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from helpers import build_instruction, sample_rules, write_responses
from lexcheck.dsl import format_rule, parse_rule
from lexcheck import records
from lexcheck.generate import GenConfig, generate_dataset
from lexcheck.records import (
    DataError,
    build,
    instruction_to_dict,
    read_config,
    read_instructions,
    read_responses,
    read_stdin,
    read_text,
    rule_to_dict,
    write_instructions,
)
from lexcheck.rules import DIFFICULTIES, Instruction, Level, Predicate, PredicateKind, Rule, shared_step


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(GenConfig(seed=21, language="zh", easy=3, medium=3, hard=3))


@dataclass(frozen=True)
class Inner:
    flags: tuple[bool, ...] = ()


@dataclass(frozen=True)
class Outer:
    count: int
    ratio: float
    label: str | None = None
    inner: Inner | None = None
    table: dict[str, Inner] | None = None


class TestBuild:
    def test_values_checked_and_converted(self):
        data = {
            "count": 2,
            "ratio": 1,
            "label": None,
            "inner": {"flags": [True, False]},
            "table": {"a": {}},
            "other": "ignored",
        }
        assert build(Outer, data) == Outer(2, 1, None, Inner((True, False)), {"a": Inner()})

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"count": True}, "count must be int, not True"),
            ({"count": 2.0}, "count must be int, not 2.0"),
            ({"ratio": "1"}, "ratio must be float, not '1'"),
            ({"ratio": False}, "ratio must be float, not False"),
            ({"label": 3}, "label must be str | None, not 3"),
            ({"inner": {"flags": "TF"}}, "flags must be tuple[bool, ...], not 'TF'"),
            ({"inner": {"flags": [1]}}, "flags must be tuple[bool, ...], not [1]"),
            ({"inner": []}, "inner must be Inner | None, not []"),
            ({"table": {"a": 1}}, "table must be dict[str, Inner] | None, not {'a': 1}"),
        ],
    )
    def test_wrong_type_is_value_error(self, data, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            build(Outer, {"count": 1, "ratio": 0.5, **data})

    def test_not_an_object(self):
        with pytest.raises(ValueError, match="Outer must be an object"):
            build(Outer, [1])

    def test_missing_fields_sorted(self):
        with pytest.raises(ValueError) as info:
            build(Outer, {"label": "x"})
        assert str(info.value) == "missing required keys: ['count', 'ratio']"
        assert build(Outer, {"count": 1, "ratio": 0.5}) == Outer(1, 0.5)


class TestReadConfig:
    def write(self, tmp_path, data):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        return path

    def test_override_of_none_keeps_the_files_value(self, tmp_path):
        path = self.write(tmp_path, {"count": 2, "ratio": 0.5, "label": "file"})
        assert read_config(Outer, path, count=None, label=None) == Outer(2, 0.5, "file")

    def test_other_overrides_replace_the_files_value(self, tmp_path):
        path = self.write(tmp_path, {"count": 2, "ratio": 0.5, "label": "file"})
        assert read_config(Outer, path, count=7, label="flag") == Outer(7, 0.5, "flag")

    def test_an_override_supplies_a_required_key(self, tmp_path):
        path = self.write(tmp_path, {"ratio": 0.5})
        assert read_config(Outer, path, count=3) == Outer(3, 0.5)
        with pytest.raises(ValueError) as info:
            read_config(Outer, path, count=None)
        assert str(info.value) == "missing required keys: ['count']"

    def test_overrides_are_type_checked(self, tmp_path):
        path = self.write(tmp_path, {"count": 2, "ratio": 0.5})
        with pytest.raises(ValueError) as info:
            read_config(Outer, path, count="3")
        assert str(info.value) == "count must be int, not '3'"


class TestPredicateCodec:
    #: every predicate kind, and index with a positive and a last ordinal
    RULES = ('paragraph@3.line@-1.sentence@.word# = 2', 'paragraph!2.line$1.sentence% equal "x"')

    def entries(self):
        for text in self.RULES:
            rule = parse_rule(text)
            for step, entry in zip(rule.procedure, rule_to_dict(rule)["procedure"]):
                yield step.predicate, entry["predicate"]

    def test_round_trip(self):
        kinds = set()
        for pred, entry in self.entries():
            assert build(Predicate, entry) == pred
            kinds.add(pred.kind)
        assert kinds == set(PredicateKind)

    def test_no_null_n_key(self):
        for pred, entry in self.entries():
            assert ("n" in entry) == (pred.n is not None)


class TestRuleCodec:
    def test_round_trip(self):
        rule = parse_rule('paragraph@2.pattern(/[0-9]+/)# >= 1')
        assert build(Rule, rule_to_dict(rule)) == rule

    def test_dsl_string_accepted(self):
        rules = parse_rule("sentence# = 3"), parse_rule('word@1 startswith "A"')
        data = {"id": "x", "language": "en", "prompt": "p", "difficulty": "medium", "depth": 1, "count": 2}
        data["rules"] = ["sentence# = 3", rule_to_dict(rules[1])]
        assert build(Instruction, data).rules == rules

    def test_invalid_structured_rule_rejected(self):
        data = rule_to_dict(parse_rule("sentence# = 3"))
        data["relation"] = "contain"
        data["value"] = "x"
        with pytest.raises(ValueError, match="text-relation-with-count"):
            build(Rule, data)


class TestInstructionCodec:
    def test_round_trip(self, dataset):
        for ins in dataset:
            assert build(Instruction, instruction_to_dict(ins)) == ins

    def test_difficulty_regraded_on_load(self, dataset):
        data = instruction_to_dict(dataset[0])
        assert data["difficulty"] == "easy"
        data["difficulty"] = "hard"
        data["id"] = "zh-tampered"
        with pytest.raises(ValueError, match="does not match the rules"):
            build(Instruction, data)


class TestInstructionFiles:
    def test_file_round_trip(self, dataset, tmp_path):
        path = tmp_path / "ins.jsonl"
        write_instructions(path, dataset)
        assert read_instructions(path) == list(dataset)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["en", "zh"]), st.integers(1, 4))
    def test_every_instruction_that_builds_reads_back(self, tmp_path_factory, seed, language, n):
        rules = tuple(sample_rules(language, seed, n))
        depth = max(len(r.procedure) for r in rules)
        built = []
        for difficulty in DIFFICULTIES:
            try:
                built.append(Instruction(f"{language}-{difficulty}", language, "p", rules, difficulty, depth, n))
            except ValueError:
                continue
        assert len(built) == 1  # the one label the rules grade to
        path = tmp_path_factory.mktemp("ins") / "ins.jsonl"
        write_instructions(path, built)
        assert read_instructions(path) == built

    def test_structured_steps_are_the_expressions_steps(self, dataset, tmp_path):
        structured = tmp_path / "structured.jsonl"
        expressions = tmp_path / "expressions.jsonl"
        write_instructions(structured, dataset)
        with open(expressions, "w", encoding="utf-8") as fh:
            for instruction in dataset:
                data = instruction_to_dict(instruction)
                data["rules"] = [format_rule(rule) for rule in instruction.rules]
                fh.write(json.dumps(data, ensure_ascii=False) + "\n")

        def steps(path):
            return [step for i in read_instructions(path) for rule in i.rules for step in rule.procedure]

        written = steps(expressions)
        assert any(step.pattern is not None for step in written)
        for read in (steps(structured), steps(structured)):  # the second read hits the memo
            assert read == written
            assert all(a is b for a, b in zip(read, written))

    def test_step_memo_is_bounded(self, tmp_path, monkeypatch):
        monkeypatch.setattr(records, "_STEP_ARGS", {})
        monkeypatch.setattr(records, "_STEP_ARGS_LIMIT", 4)
        path = tmp_path / "ins.jsonl"
        write_instructions(
            path,
            [build_instruction(f"en-{n}", "en", "p", (parse_rule(f'word@{n} contain "a"'),)) for n in range(1, 11)],
        )
        for _ in range(2):
            steps = [i.rules[0].procedure[0] for i in read_instructions(path)]
            assert len(records._STEP_ARGS) <= 4
            assert all(s is shared_step(Level.WORD, PredicateKind.INDEX, n) for n, s in enumerate(steps, 1))

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"n": True}, "n must be int | None, not True"),
            ({"n": 1.0}, "n must be int | None, not 1.0"),
            ({"level": ["word"]}, "level must be Level, not ['word']"),
        ],
    )
    def test_step_equal_to_one_read_before_is_still_checked(self, tmp_path, change, message):
        instruction = build_instruction("en-0", "en", "p", (parse_rule('word@1 contain "a"'),))
        good = instruction_to_dict(instruction)
        bad = instruction_to_dict(instruction)
        step = bad["rules"][0]["procedure"][0] = dict(bad["rules"][0]["procedure"][0])
        step.update(change) if "level" in change else step.update(predicate={"kind": "index", **change})
        path = tmp_path / "ins.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n", encoding="utf-8")
        with pytest.raises(DataError) as info:
            read_instructions(path)
        assert str(info.value) == f"{path}:2: bad instruction record: {message}"

    def test_cjk_written_verbatim(self, dataset, tmp_path):
        path = tmp_path / "ins.jsonl"
        write_instructions(path, dataset)
        text = path.read_text(encoding="utf-8")
        assert "要求：" in text
        assert "\\u8981" not in text

    def test_blank_lines_skipped(self, dataset, tmp_path):
        path = tmp_path / "ins.jsonl"
        lines = [json.dumps(instruction_to_dict(i), ensure_ascii=False) for i in dataset[:2]]
        path.write_text(lines[0] + "\n\n  \n" + lines[1] + "\n", encoding="utf-8")
        assert len(read_instructions(path)) == 2

    def test_malformed_json_points_at_line(self, dataset, tmp_path):
        path = tmp_path / "ins.jsonl"
        good = json.dumps(instruction_to_dict(dataset[0]), ensure_ascii=False)
        path.write_text(good + "\n{broken\n", encoding="utf-8")
        with pytest.raises(DataError) as info:
            read_instructions(path)
        assert info.value.line == 2
        assert f"{path}:2" in str(info.value)

    def test_non_object_record(self, tmp_path):
        path = tmp_path / "ins.jsonl"
        path.write_text("[1, 2]\n", encoding="utf-8")
        with pytest.raises(DataError, match="not a JSON object"):
            read_instructions(path)

    def test_missing_field_reported(self, dataset, tmp_path):
        path = tmp_path / "ins.jsonl"
        data = instruction_to_dict(dataset[0])
        del data["rules"]
        path.write_text(json.dumps(data, ensure_ascii=False) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match="bad instruction record"):
            read_instructions(path)

    def test_duplicate_ids_rejected(self, dataset, tmp_path):
        path = tmp_path / "ins.jsonl"
        write_instructions(path, [dataset[0], dataset[0]])
        with pytest.raises(DataError, match="duplicate instruction id") as info:
            read_instructions(path)
        assert info.value.line == 2

    @pytest.mark.parametrize(
        "field, value, named",
        [
            ("depth", True, "depth must be int, not True"),
            ("depth", 1.0, "depth must be int, not 1.0"),
            ("count", True, "count must be int, not True"),
            ("prompt", 5, "prompt must be str, not 5"),
            ("prompt", None, "prompt must be str, not None"),
        ],
    )
    def test_field_of_wrong_type(self, dataset, tmp_path, field, value, named):
        path = tmp_path / "ins.jsonl"
        data = instruction_to_dict(dataset[0])
        data[field] = value
        path.write_text("\n" + json.dumps(data, ensure_ascii=False) + "\n", encoding="utf-8")
        with pytest.raises(DataError) as info:
            read_instructions(path)
        assert str(info.value) == f"{path}:2: bad instruction record: {named}"

    @pytest.mark.parametrize("value", [None, 1, ["en-0"]])
    def test_id_must_be_a_string(self, dataset, tmp_path, value):
        path = tmp_path / "ins.jsonl"
        data = instruction_to_dict(dataset[0])
        data["id"] = value
        path.write_text(json.dumps(data, ensure_ascii=False) + "\n", encoding="utf-8")
        with pytest.raises(DataError) as info:
            read_instructions(path)
        assert str(info.value) == f"{path}:1: bad instruction record: id must be str, not {value!r}"

    def test_rules_supplied_as_dsl_strings(self, tmp_path):
        data = {
            "id": "en-manual",
            "language": "en",
            "prompt": "p",
            "rules": ["sentence# = 2"],
            "difficulty": "easy",
            "depth": 1,
            "count": 1,
        }
        path = tmp_path / "ins.jsonl"
        path.write_text(json.dumps(data) + "\n", encoding="utf-8")
        loaded = read_instructions(path)
        assert loaded[0].rules == (parse_rule("sentence# = 2"),)

    STEP = {"level": "sentence", "predicate": {"kind": "count"}}
    RULE = {"procedure": [STEP], "relation": "eq", "value": 2}
    BAD_RULES = {
        "rules-object": ({"sentence# = 2": 0}, "rules must be tuple[Rule, ...], not {'sentence# = 2': 0}"),
        "rule-int": ([5], "rules must be tuple[Rule, ...], not [5]"),
        "procedure-int": ([dict(RULE, procedure=5)], "procedure must be tuple[ProcedureStep, ...], not 5"),
        "predicate-string": (
            [dict(RULE, procedure=[dict(STEP, predicate="x")])],
            "predicate must be Predicate, not 'x'",
        ),
        "predicate-without-kind": (
            [dict(RULE, procedure=[dict(STEP, predicate={"n": 1})])],
            "missing required keys: ['kind']",
        ),
        "pattern-int": (
            [dict(RULE, procedure=[dict(STEP, level="pattern", pattern=5)])],
            "pattern must be str | None, not 5",
        ),
        "level-int": ([dict(RULE, procedure=[dict(STEP, level=5)])], "level must be Level, not 5"),
        "level-unknown": ([dict(RULE, procedure=[dict(STEP, level="Word")])], "level must be Level, not 'Word'"),
        "value-float": ([dict(RULE, value=2.0)], "value must be int | str, not 2.0"),
        "relation-missing": ([{"procedure": [STEP], "value": 2}], "missing required keys: ['relation']"),
    }

    def write_record(self, tmp_path, rules, difficulty="easy"):
        data = {"id": "x", "language": "en", "prompt": "p", "rules": rules}
        data.update(difficulty=difficulty, depth=1, count=1)
        path = tmp_path / "i.jsonl"
        path.write_text(json.dumps(data) + "\n", encoding="utf-8")
        return path

    @pytest.mark.parametrize("case", sorted(BAD_RULES))
    def test_malformed_rules(self, tmp_path, case):
        rules, message = self.BAD_RULES[case]
        path = self.write_record(tmp_path, rules)
        with pytest.raises(DataError) as info:
            read_instructions(path)
        assert str(info.value) == f"{path}:1: bad instruction record: {message}"

    def test_regex_key_on_a_step_is_ignored(self, tmp_path):
        step = {"level": "pattern", "predicate": {"kind": "count"}, "pattern": "[0-9]+", "regex": "x"}
        path = self.write_record(tmp_path, [dict(self.RULE, procedure=[step])], difficulty="medium")
        assert read_instructions(path)[0].rules == (parse_rule("pattern(/[0-9]+/)# = 2"),)


class TestResponseFiles:
    def test_non_utf8_line_is_named(self, tmp_path):
        # the bad line lies well past the first block the reader decodes
        path = tmp_path / "res.jsonl"
        write_responses(path, [{"id": str(k), "response": "二" * 40} for k in range(400)])
        lines = path.read_bytes().splitlines(keepends=True)
        lines[299] = lines[299].replace("二".encode("utf-8"), b"\xe4\xba", 1)
        path.write_bytes(b"".join(lines))
        with pytest.raises(DataError) as info:
            read_responses(path)
        assert info.value.line == 300
        assert str(info.value) == f"{path}:300: not valid UTF-8"

    def test_first_bad_line_is_named_whatever_is_wrong(self, tmp_path):
        path = tmp_path / "res.jsonl"
        path.write_bytes(b'{broken\n{"id": "a", "response": "\xff"}\n')
        with pytest.raises(DataError) as info:
            read_responses(path)
        assert str(info.value) == f"{path}:1: malformed JSON (Expecting property name enclosed in double quotes)"

    def test_carriage_return_between_tokens_is_whitespace(self, tmp_path):
        # RFC 8259 section 2; a line ends at "\n" only
        path = tmp_path / "res.jsonl"
        path.write_bytes(b'{"id": "a",\r"response": "x"}\n')
        assert read_responses(path) == {"a": "x"}

    def test_round_trip(self, tmp_path):
        path = tmp_path / "res.jsonl"
        write_responses(path, [
            {"id": "a", "response": "one", "latency_s": 0.5},
            {"id": "b", "response": "二"},
        ])
        assert read_responses(path) == {"a": "one", "b": "二"}

    def test_missing_fields(self, tmp_path):
        path = tmp_path / "res.jsonl"
        path.write_text('{"id": "a"}\n', encoding="utf-8")
        with pytest.raises(DataError, match="id and response"):
            read_responses(path)

    def test_non_string_response(self, tmp_path):
        path = tmp_path / "res.jsonl"
        path.write_text('{"id": "a", "response": 5}\n', encoding="utf-8")
        with pytest.raises(DataError, match="must be a string"):
            read_responses(path)

    def test_duplicate_ids(self, tmp_path):
        path = tmp_path / "res.jsonl"
        path.write_text(
            '{"id": "a", "response": "x"}\n{"id": "a", "response": "y"}\n',
            encoding="utf-8",
        )
        with pytest.raises(DataError, match="duplicate response id") as info:
            read_responses(path)
        assert info.value.line == 2

    @pytest.mark.parametrize("value", ["null", "1", "true", '["a"]'])
    def test_id_must_be_a_string(self, tmp_path, value):
        # "id": 1 would otherwise name the same record as "id": "1"
        path = tmp_path / "res.jsonl"
        path.write_text(f'{{"id": "1", "response": "x"}}\n{{"id": {value}, "response": "y"}}\n', encoding="utf-8")
        with pytest.raises(DataError) as info:
            read_responses(path)
        assert str(info.value) == f"{path}:2: id field must be a string, not {json.loads(value)!r}"

    @pytest.mark.parametrize(
        "escaped, text",
        [("\\ud83d\\ude00", "\U0001f600"), ("\\\\ud800", "\\ud800")],
        ids=["surrogate-pair", "escaped-backslash"],
    )
    def test_surrogate_escapes_that_make_a_writable_string(self, tmp_path, escaped, text):
        path = tmp_path / "res.jsonl"
        path.write_text(f'{{"id": "a", "response": "{escaped}"}}\n', encoding="utf-8")
        assert read_responses(path) == {"a": text}

    def test_extra_fields_tolerated(self, tmp_path):
        path = tmp_path / "res.jsonl"
        path.write_text('{"id": "a", "response": "x", "model": "m"}\n', encoding="utf-8")
        assert read_responses(path) == {"a": "x"}


# bytes rich in line ends, partial UTF-8 sequences and invalid bytes
_PIECES = st.sampled_from([b"\r", b"\n", b"\r\n", b" ", b"a", "二".encode("utf-8"), b"\xe4\xba", b"\xff"])


class TestTextReaders:
    @staticmethod
    def outcome(read, source):
        """The text `read` returns, or its DataError's reason after the path."""
        try:
            return "text", read()
        except DataError as exc:
            assert exc.path == str(source)
            return "error", str(exc).removeprefix(f"{source}: ")

    @settings(max_examples=200, deadline=None)
    @given(data=st.binary(max_size=64) | st.lists(_PIECES, max_size=24).map(b"".join))
    def test_file_and_stdin_read_alike(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("text") / "in.txt"
        path.write_bytes(data)
        from_file = self.outcome(lambda: read_text(path), path)
        with mock.patch("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="\n")):
            assert self.outcome(read_stdin, "<stdin>") == from_file
        if from_file[0] == "text":
            assert from_file[1].encode("utf-8") == data


class TestDataError:
    def test_message_shapes(self):
        assert str(DataError("broken")) == "broken"
        assert str(DataError("broken", "f.jsonl")) == "f.jsonl: broken"
        assert str(DataError("broken", "f.jsonl", 3)) == "f.jsonl:3: broken"
