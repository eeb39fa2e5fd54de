"""End-to-end command-line checks, run in process through main(); the
module entry point is also run as a subprocess."""

from __future__ import annotations

import io
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import lexcheck
from helpers import build_instruction, count_forks, make_text, write_responses
from lexcheck.cli import EXIT_DATA, EXIT_INTERRUPTED, EXIT_OK, EXIT_PARTIAL, EXIT_USAGE, main
from lexcheck.collect import CollectResult
from lexcheck.dsl import format_rule, parse_rule
from lexcheck.generate import GenConfig, generate_dataset
from lexcheck.records import write_instructions


# more digits than int() converts, and the error each path reports for it
LIMIT = sys.get_int_max_str_digits()
HUGE = "9" * (LIMIT + 700)
TOO_LONG = f"integer of more than {LIMIT} digits"
# JSON nested deeper than the decoder's recursion limit
DEEP = "[" * 100_000
# regexes on which re.compile raises OverflowError and RecursionError
HOSTILE_REGEXES = ("a{99999999999999}", "(" * 2_000)


def feed_stdin(monkeypatch, data: str | bytes) -> None:
    """Stand in for stdin: `data`'s bytes (a str's in UTF-8) behind a text
    stream that, like a POSIX stdin, splits lines at "\n" only."""
    raw = data.encode("utf-8") if isinstance(data, str) else data
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline="\n"))


@pytest.fixture()
def scoring_files(tmp_path):
    """Two instructions plus responses: one passes, one fails."""
    instructions = [
        build_instruction("en-aaa", "en", "Say two words.", (parse_rule("word# >= 2"),)),
        build_instruction("en-bbb", "en", "Mention apples.", (parse_rule('answer contain "apple"'),)),
    ]
    ins_path = tmp_path / "ins.jsonl"
    res_path = tmp_path / "res.jsonl"
    write_instructions(ins_path, instructions)
    write_responses(
        res_path,
        [
            {"id": "en-aaa", "response": "two little words"},
            {"id": "en-bbb", "response": "no fruit here"},
        ],
    )
    return ins_path, res_path


class TestParser:
    def test_help_exits_ok(self, capsys):
        assert main(["--help"]) == EXIT_OK
        assert "verify" in capsys.readouterr().out

    def test_missing_subcommand(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_unknown_flag(self, capsys):
        assert main(["verify", "word# = 1", "--bogus"]) == EXIT_USAGE


class TestEntryPoint:
    """`python -m lexcheck.cli` exits with the code main() returns."""

    @pytest.mark.parametrize(
        "argv, code, err",
        [
            (["--help"], EXIT_OK, ""),
            (
                ["verify", "word# startswith 3"],
                EXIT_DATA,
                "error: bad rule expression: invalid rule: text-relation-with-count, value-type-mismatch\n",
            ),
            (["score", "nope.jsonl", "nope.jsonl"], EXIT_DATA, "error: nope.jsonl: cannot open (No such file or directory)\n"),
        ],
        ids=["help", "bad-rule", "missing-file"],
    )
    def test_exit_code(self, tmp_path, argv, code, err):
        src = str(Path(lexcheck.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "lexcheck.cli", *argv],
            input="", capture_output=True, text=True, cwd=tmp_path, env=env, timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (code, err)


class TestVerify:
    def test_strict_and_loose_pass(self, monkeypatch, capsys):
        feed_stdin(monkeypatch, "three short words")
        assert main(["verify", "word# = 3"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out == "strict: pass\nloose: pass (identity)\n"

    def test_loose_only_pass_names_variant(self, monkeypatch, capsys):
        feed_stdin(monkeypatch, "keep me\nnoise")
        assert main(["verify", "line# = 1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out == "strict: fail\nloose: pass (drop-first-line)\n"

    def test_both_fail(self, monkeypatch, capsys):
        feed_stdin(monkeypatch, "nothing to see")
        assert main(["verify", 'answer contain "zebra"']) == EXIT_OK
        assert capsys.readouterr().out == "strict: fail\nloose: fail\n"

    def test_strict_only_skips_loose(self, monkeypatch, capsys):
        feed_stdin(monkeypatch, "keep me\nnoise")
        assert main(["verify", "line# = 1", "--strict-only"]) == EXIT_OK
        assert capsys.readouterr().out == "strict: fail\n"

    def test_language_flag(self, monkeypatch, capsys):
        feed_stdin(monkeypatch, "你好。再见。")
        assert main(["verify", "sentence# = 2", "--lang", "zh"]) == EXIT_OK
        assert "strict: pass" in capsys.readouterr().out

    def test_crlf_stdin_keeps_its_carriage_returns(self, monkeypatch, capsys):
        # stdin is read without newline translation, so the first line is "one\r"
        feed_stdin(monkeypatch, b"one\r\ntwo")
        assert main(["verify", 'line@1 endswith "e"']) == EXIT_OK
        assert capsys.readouterr().out == "strict: fail\nloose: fail\n"

    def test_non_utf8_stdin_is_data_error(self, monkeypatch, capsys):
        feed_stdin(monkeypatch, b"a \xff b")
        assert main(["verify", "word# = 3"]) == EXIT_DATA
        assert capsys.readouterr() == ("", "error: <stdin>: not valid UTF-8 (byte 2)\n")

    def test_bad_rule_is_data_error(self, monkeypatch, capsys):
        feed_stdin(monkeypatch, "text")
        assert main(["verify", "word# startswith 3"]) == EXIT_DATA
        assert capsys.readouterr().err.startswith("error: bad rule expression")

    @pytest.mark.parametrize("regex", HOSTILE_REGEXES, ids=["huge-repeat", "deep-nesting"])
    def test_hostile_regex_is_data_error(self, monkeypatch, capsys, regex):
        feed_stdin(monkeypatch, "text")
        assert main(["verify", f"pattern(/{regex}/)# = 1"]) == EXIT_DATA
        assert capsys.readouterr().err.startswith(
            "error: bad rule expression: bad regex at position 9: pattern step regex does not compile: "
        )

    def test_oversized_integer_is_data_error(self, monkeypatch, capsys):
        feed_stdin(monkeypatch, "text")
        assert main(["verify", f"answer.word# = {HUGE}"]) == EXIT_DATA
        assert capsys.readouterr().err == (
            f"error: bad rule expression: syntax error at position 15: expected a value of at most {LIMIT} digits\n"
        )


class TestGenerate:
    def write_config(self, tmp_path, **overrides):
        data = {"seed": 11, "language": "en", "easy": 2, "medium": 1}
        data.update(overrides)
        path = tmp_path / "gen.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        return path

    def test_writes_dataset(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        out = tmp_path / "ins.jsonl"
        assert main(["generate", str(config), "-o", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == f"wrote 3 instructions to {out}\n"
        assert len(out.read_text(encoding="utf-8").splitlines()) == 3

    def test_seed_override_changes_output(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        assert main(["generate", str(config), "-o", str(first)]) == EXIT_OK
        assert main(["generate", str(config), "-o", str(second), "--seed", "99"]) == EXIT_OK
        assert first.read_bytes() != second.read_bytes()

    def test_lang_override(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        out = tmp_path / "zh.jsonl"
        assert main(["generate", str(config), "-o", str(out), "--lang", "zh"]) == EXIT_OK
        assert json.loads(out.read_text(encoding="utf-8").splitlines()[0])["language"] == "zh"

    def test_config_missing_keys(self, tmp_path, capsys):
        path = tmp_path / "gen.json"
        path.write_text(json.dumps({"seed": 1}), encoding="utf-8")
        assert main(["generate", str(path), "-o", str(tmp_path / "o")]) == EXIT_USAGE
        assert "missing required keys" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides",
        [{"max_depth": "3"}, {"easy": "2"}, {"seed": True}, {"lexicon": {"words": [1]}}, {"seed_tasks": "Hi."}],
    )
    def test_value_of_wrong_type(self, tmp_path, capsys, overrides):
        config = self.write_config(tmp_path, **overrides)
        assert main(["generate", str(config), "-o", str(tmp_path / "o")]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: cannot load generation config: ")

    @pytest.mark.parametrize("lexicon", [{"words": [""]}, {"words": ["a"], "characters": ["a", ".", ""]}])
    def test_empty_lexicon_entry(self, tmp_path, capsys, lexicon):
        config = self.write_config(tmp_path, easy=20, medium=20, hard=20, lexicon={**lexicon, "regexes": ["[0-9]+"]})
        assert main(["generate", str(config), "-o", str(tmp_path / "o")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == "error: cannot load generation config: lexicon words and characters must be nonempty strings\n"
        assert not (tmp_path / "o").exists()

    def test_lexicon_regex_that_does_not_compile(self, tmp_path, capsys):
        config = self.write_config(tmp_path, lexicon={"regexes": ["("]})
        assert main(["generate", str(config), "-o", str(tmp_path / "o")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: cannot load generation config: lexicon regex '(': pattern step regex does not compile")
        assert not (tmp_path / "o").exists()

    def test_bad_template_overlay(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        overlay = tmp_path / "tpl.json"
        overlay.write_text(json.dumps({"en": {"count": {"eq": "{bogus} must"}}}), encoding="utf-8")
        argv = ["generate", str(config), "-o", str(tmp_path / "o"), "--templates", str(overlay)]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: cannot load templates: template en.count.eq: ")
        assert not (tmp_path / "o").exists()

    def test_unwritable_output(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        out = tmp_path / "no" / "ins.jsonl"
        assert main(["generate", str(config), "-o", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {out}: cannot write (No such file or directory)\n"

    def test_unknown_keys_ignored(self, tmp_path, capsys):
        config = self.write_config(tmp_path, comment="not a config field")
        assert main(["generate", str(config), "-o", str(tmp_path / "o")]) == EXIT_OK

    def test_unfillable_bucket(self, tmp_path, capsys):
        config = self.write_config(
            tmp_path,
            easy=0,
            medium=0,
            hard=1,
            max_depth=1,
            max_constraints=1,
            lexicon={"words": ("a", "b"), "characters": ("a", "e", "."), "regexes": ("aa", "bb")},
        )
        assert main(["generate", str(config), "-o", str(tmp_path / "o")]) == EXIT_USAGE
        assert "hard" in capsys.readouterr().err


class TestRender:
    def test_from_file(self, tmp_path, capsys):
        rules = tmp_path / "rules.txt"
        rules.write_text("sentence# = 2\nword@1 startswith \"A\"\n", encoding="utf-8")
        assert main(["render", str(rules)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "Requirements:" in out
        assert "1. The response must contain exactly 2 sentences." in out
        assert "2. " in out

    def test_from_stdin(self, monkeypatch, capsys):
        feed_stdin(monkeypatch, "word# <= 5\n")
        assert main(["render", "--lang", "en", "--seed-task", "Describe a fox."]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("Describe a fox.\n\nRequirements:\n")

    def test_bad_rule(self, monkeypatch, capsys):
        feed_stdin(monkeypatch, "word## = 1\n")
        assert main(["render"]) == EXIT_DATA

    def test_oversized_integer_is_data_error(self, tmp_path, capsys):
        rules = tmp_path / "rules.txt"
        rules.write_text(f"sentence# = 2\nword@{HUGE} equal \"x\"\n", encoding="utf-8")
        assert main(["render", str(rules)]) == EXIT_DATA
        assert capsys.readouterr().err == (
            f"error: bad rule expression: syntax error at position 5: "
            f"expected an element ordinal of at most {LIMIT} digits\n"
        )

    @pytest.mark.parametrize("separator", ["\u2028", "\u0085", "\r"])
    def test_value_holding_a_unicode_line_separator_is_one_rule(self, tmp_path, capsys, separator):
        """A line ends at `\\n` only, so each separator stays inside its
        value; `format_rule` writes a `\\r` as its escape, the others raw."""
        rule = parse_rule(f'word@ contain "a{separator}b"')
        rules = tmp_path / "rules.txt"
        rules.write_text(format_rule(rule) + "\nword# = 2\n", encoding="utf-8")
        assert main(["render", str(rules)]) == EXIT_OK
        out = capsys.readouterr().out
        assert f"a{separator}b".replace("\r", "\\r") in out
        assert "\n2. " in out and "\n3. " not in out

    def test_raw_carriage_return_in_a_value_reads_alike_from_file_and_stdin(self, tmp_path, monkeypatch, capsys):
        data = b'word@ contain "a\rb"\nword# = 2\n'
        rules = tmp_path / "rules.txt"
        rules.write_bytes(data)
        assert main(["render", str(rules)]) == EXIT_OK
        from_file = capsys.readouterr().out
        feed_stdin(monkeypatch, data)
        assert main(["render"]) == EXIT_OK
        assert capsys.readouterr().out == from_file
        assert "a\\rb" in from_file
        assert "\n2. " in from_file and "\n3. " not in from_file

    def test_crlf_rules_file_and_stdin(self, tmp_path, monkeypatch, capsys):
        rules = tmp_path / "rules.txt"
        rules.write_bytes(b'sentence# = 2\r\nword@1 startswith "A"\r\n')
        assert main(["render", str(rules)]) == EXIT_OK
        from_file = capsys.readouterr().out
        feed_stdin(monkeypatch, 'sentence# = 2\r\nword@1 startswith "A"\r\n')
        assert main(["render"]) == EXIT_OK
        assert capsys.readouterr().out == from_file
        assert "1. The response must contain exactly 2 sentences." in from_file

    def test_non_utf8_stdin_is_data_error(self, monkeypatch, capsys):
        feed_stdin(monkeypatch, b'word@1 equal "\xff"\n')
        assert main(["render"]) == EXIT_DATA
        assert capsys.readouterr() == ("", "error: <stdin>: not valid UTF-8 (byte 14)\n")

    def test_empty_input(self, monkeypatch, capsys):
        feed_stdin(monkeypatch, "\n  \n")
        assert main(["render"]) == EXIT_DATA
        assert "no rule expressions" in capsys.readouterr().err

    def test_non_utf8_rules_file(self, tmp_path, capsys):
        rules = tmp_path / "rules.txt"
        rules.write_bytes(b'word@1 equal "\xff"\n')
        assert main(["render", str(rules)]) == EXIT_DATA
        assert capsys.readouterr().err == f"error: {rules}: not valid UTF-8 (byte 14)\n"

    @pytest.mark.parametrize(
        "overlay, named",
        [
            ([1, 2], "{path}: not a JSON object but list\n"),
            ({"en": ["x"]}, "template entry en must be a JSON object"),
            ({"en": {"count": ["x"]}}, "template entry en.count must be a JSON object"),
            ({"en": {"count": {"eq": 2}}}, "template en.count.eq must be a string"),
            ({"en": {"size": {"eq": "x"}}}, "template entry en.size: unknown predicate kind"),
            ({"en": {"count": {"eq": "{bogus} must"}}}, "template en.count.eq: KeyError('bogus')"),
            ({"en": {"count": {"eq": "{0} must"}}}, "template en.count.eq: ValueError"),
            ({"en": {"count": {"eq": "{n must"}}}, "template en.count.eq: ValueError"),
            ({"en": {"index": {"equal": "{level}"}}}, "template en.index.equal: KeyError('level')"),
            ({"EN": {"count": {"eq": "x"}}}, "template entry EN: unknown language"),
            ({"en": {"count": {"equals": "x"}}}, "template entry en.count.equals: not a count relation"),
            ({"en": {"before": {"equal": "x"}}}, "template entry en.before.equal: not a before relation"),
        ],
    )
    def test_bad_template_overlay(self, tmp_path, capsys, overlay, named):
        rules = tmp_path / "rules.txt"
        rules.write_text("sentence# = 2\n", encoding="utf-8")
        path = tmp_path / "tpl.json"
        path.write_text(json.dumps(overlay), encoding="utf-8")
        assert main(["render", str(rules), "--templates", str(path)]) == EXIT_USAGE
        named = named.replace("{path}", str(path))
        assert capsys.readouterr().err.startswith(f"error: cannot load templates: {named}")

    def test_template_overlay(self, tmp_path, capsys):
        rules = tmp_path / "rules.txt"
        rules.write_text("sentence# = 2\n", encoding="utf-8")
        overlay = tmp_path / "tpl.json"
        overlay.write_text(
            json.dumps({"en": {"count": {"eq": "Use {n} {level}."}}}),
            encoding="utf-8",
        )
        assert main(["render", str(rules), "--templates", str(overlay)]) == EXIT_OK
        assert "1. Use 2 sentences." in capsys.readouterr().out


class TestScore:
    def test_structured_to_stdout(self, scoring_files, capsys):
        ins_path, res_path = scoring_files
        assert main(["score", str(ins_path), str(res_path)]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["overall"]["n"] == 2
        assert data["overall"]["strict"] == 0.5

    def test_table_to_file(self, scoring_files, tmp_path, capsys):
        ins_path, res_path = scoring_files
        out = tmp_path / "report.txt"
        assert main(
            ["score", str(ins_path), str(res_path), "--format", "table", "-o", str(out)]
        ) == EXIT_OK
        assert capsys.readouterr().out == ""
        assert "Overall" in out.read_text(encoding="utf-8")

    def test_strict_only_flag(self, scoring_files, capsys):
        ins_path, res_path = scoring_files
        assert main(["score", str(ins_path), str(res_path), "--strict-only"]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["overall"]["loose"] is None

    def test_jobs_flag_matches_serial(self, tmp_path, monkeypatch, capsys):
        """36 instructions are two chunks: on 2 CPUs, --jobs 2 and leaving
        out --jobs each fork one child and write the --jobs 1 report."""
        instructions = generate_dataset(GenConfig(seed=33, language="en", easy=12, medium=12, hard=12))
        rng = random.Random(33)
        ins_path, res_path = tmp_path / "ins.jsonl", tmp_path / "res.jsonl"
        write_instructions(ins_path, instructions)
        write_responses(res_path, [{"id": ins.id, "response": make_text(rng)} for ins in instructions])
        forks = count_forks(monkeypatch, 2)
        reports = []
        for jobs in (["--jobs", "1"], ["--jobs", "2"], []):
            assert main(["score", str(ins_path), str(res_path), *jobs]) == EXIT_OK
            reports.append((capsys.readouterr().out, len(forks)))
        serial = reports[0][0]
        assert reports == [(serial, 0), (serial, 1), (serial, 2)]

    @pytest.mark.parametrize("jobs", ["0", "-1", "two"])
    def test_jobs_below_one_rejected(self, scoring_files, capsys, jobs):
        ins_path, res_path = scoring_files
        assert main(["score", str(ins_path), str(res_path), "--jobs", jobs]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --jobs" in captured.err

    def test_unknown_response_id(self, scoring_files, tmp_path, capsys):
        ins_path, _ = scoring_files
        res_path = tmp_path / "bad.jsonl"
        write_responses(res_path, [{"id": "en-zzz", "response": "hi"}])
        assert main(["score", str(ins_path), str(res_path)]) == EXIT_DATA

    def test_oversized_integer_in_responses(self, scoring_files, capsys):
        ins_path, res_path = scoring_files
        res_path.write_text(f'{{"id": "en-aaa", "response": "hi", "n": {HUGE}}}\n', encoding="utf-8")
        assert main(["score", str(ins_path), str(res_path)]) == EXIT_DATA
        assert capsys.readouterr().err == f"error: {res_path}:1: {TOO_LONG}\n"

    def test_deeply_nested_response_line(self, scoring_files, capsys):
        ins_path, res_path = scoring_files
        res_path.write_text(res_path.read_text(encoding="utf-8") + "[" * 100_000 + "\n", encoding="utf-8")
        assert main(["score", str(ins_path), str(res_path)]) == EXIT_DATA
        assert capsys.readouterr().err == f"error: {res_path}:3: JSON nested too deeply\n"

    @pytest.mark.parametrize("regex", HOSTILE_REGEXES, ids=["huge-repeat", "deep-nesting"])
    def test_hostile_regex_in_instructions(self, scoring_files, capsys, regex):
        ins_path, res_path = scoring_files
        record = json.loads(ins_path.read_text(encoding="utf-8").splitlines()[0])
        record["rules"][0]["procedure"][0] = {"level": "pattern", "predicate": {"kind": "count"}, "pattern": regex}
        ins_path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        assert main(["score", str(ins_path), str(res_path)]) == EXIT_DATA
        assert capsys.readouterr().err.startswith(
            f"error: {ins_path}:1: bad instruction record: pattern step regex does not compile: "
        )

    def test_response_id_of_wrong_type(self, scoring_files, capsys):
        ins_path, res_path = scoring_files
        res_path.write_text('{"id": 1, "response": "hi"}\n', encoding="utf-8")
        assert main(["score", str(ins_path), str(res_path)]) == EXIT_DATA
        assert capsys.readouterr().err == f"error: {res_path}:1: id field must be a string, not 1\n"

    def test_instruction_id_of_wrong_type(self, scoring_files, capsys):
        ins_path, res_path = scoring_files
        record = json.loads(ins_path.read_text(encoding="utf-8").splitlines()[0])
        record["id"] = None
        ins_path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        assert main(["score", str(ins_path), str(res_path)]) == EXIT_DATA
        assert capsys.readouterr().err == f"error: {ins_path}:1: bad instruction record: id must be str, not None\n"

    def test_instruction_field_of_wrong_type(self, scoring_files, capsys):
        # the other mistyped fields are cases of test_records
        ins_path, res_path = scoring_files
        lines = ins_path.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[1])
        record["depth"] = True
        ins_path.write_text(lines[0] + "\n" + json.dumps(record) + "\n", encoding="utf-8")
        assert main(["score", str(ins_path), str(res_path)]) == EXIT_DATA
        assert capsys.readouterr().err == f"error: {ins_path}:2: bad instruction record: depth must be int, not True\n"

    def test_unwritable_output(self, scoring_files, tmp_path, capsys):
        out = tmp_path / "no" / "r.json"
        assert main(["score", *map(str, scoring_files), "-o", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {out}: cannot write (No such file or directory)\n"

    def test_interrupt_is_one_error_line(self, scoring_files, monkeypatch, capsys):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr("lexcheck.cli.score", interrupted)
        assert main(["score", *map(str, scoring_files)]) == EXIT_INTERRUPTED == 130
        assert capsys.readouterr().err == "error: interrupted\n"

    def test_unknown_response_id_names_the_responses_file(self, scoring_files, capsys):
        ins_path, res_path = scoring_files
        with res_path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps({"id": "en-ghost", "response": "boo"}) + "\n")
        assert main(["score", str(ins_path), str(res_path)]) == EXIT_DATA
        expected = f"error: {res_path}: responses reference unknown instruction ids: ['en-ghost']\n"
        assert capsys.readouterr().err == expected

    def test_lone_surrogate_escape_is_data_error(self, scoring_files, tmp_path, capsys):
        # "\ud800" is legal JSON, but its string cannot be written as UTF-8
        ins_path, res_path = scoring_files
        res_path.write_text('{"id": "en-aaa", "response": "x \\ud800 y"}\n', encoding="utf-8")
        out = tmp_path / "out.json"
        assert main(["score", str(ins_path), str(res_path), "-o", str(out)]) == EXIT_DATA
        assert capsys.readouterr().err == f"error: {res_path}:1: string with a lone surrogate ('\\ud800')\n"
        assert not out.exists()

    @pytest.mark.parametrize("which", ["instructions", "responses"])
    def test_non_utf8_input_is_data_error(self, scoring_files, capsys, which):
        path = scoring_files[("instructions", "responses").index(which)]
        path.write_bytes(path.read_bytes().replace(b'"en-bbb"', b'"en-\xff\xfe"'))
        assert main(["score", *map(str, scoring_files)]) == EXIT_DATA
        assert f"{path}:2: not valid UTF-8" in capsys.readouterr().err


class TestScoreErrorsOnAnyJobs:
    """On 2 CPUs `score --jobs 2` forks one child for a file of 36 lines,
    which reads lines 33-64.  A bad line there, or a bad line before it in
    the command's own chunk, fails with the one stderr line of --jobs 1."""

    # kind of bad line -> (its bytes, given line 1's, the start of its reason)
    BAD_LINES = {
        "not-utf8": (lambda first: b'{"id": "\xff"}\n', "not valid UTF-8"),
        "malformed": (lambda first: first[:20] + b"\n", "malformed JSON ("),
        "not-object": (lambda first: b"[1, 2]\n", "record is not a JSON object"),
        "bad-record": (lambda first: b'{"id": "x"}\n', "bad instruction record: missing required keys: "),
        "repeated-id": (lambda first: first, "duplicate instruction id "),
    }

    @pytest.fixture()
    def files(self, tmp_path):
        instructions = generate_dataset(GenConfig(seed=33, language="en", easy=12, medium=12, hard=12))
        rng = random.Random(33)
        ins_path, res_path = tmp_path / "ins.jsonl", tmp_path / "res.jsonl"
        write_instructions(ins_path, instructions)
        write_responses(res_path, [{"id": ins.id, "response": make_text(rng)} for ins in instructions])
        return ins_path, res_path

    @staticmethod
    def failure(monkeypatch, capsys, files, lines: dict[int, bytes], forks: int = 1) -> str:
        """The stderr of `score` on `files` with `lines` (number -> bytes) put
        in the instruction file's place, the same for --jobs 1 and 2."""
        ins_path, res_path = files
        text = ins_path.read_bytes().splitlines(keepends=True)
        for lineno, raw in lines.items():
            text[lineno - 1] = raw
        ins_path.write_bytes(b"".join(text))
        counted = count_forks(monkeypatch, 2)
        errors = []
        for jobs in ("1", "2"):
            assert main(["score", str(ins_path), str(res_path), "--jobs", jobs]) == EXIT_DATA
            errors.append(capsys.readouterr().err)
        assert len(counted) == forks
        assert errors[0] == errors[1] and errors[0].count("\n") == 1
        return errors[0]

    @pytest.mark.parametrize("earlier", [False, True], ids=["alone", "after-an-earlier-one"])
    @pytest.mark.parametrize("kind", sorted(BAD_LINES))
    def test_bad_line_in_the_childs_chunk(self, files, monkeypatch, capsys, kind, earlier):
        first = files[0].read_bytes().splitlines(keepends=True)[0]
        make, reason = self.BAD_LINES[kind]
        lines = {35: make(first)}
        if earlier:  # the next kind, in the command's own chunk
            kinds = sorted(self.BAD_LINES)
            make, reason = self.BAD_LINES[kinds[(kinds.index(kind) + 1) % len(kinds)]]
            lines[10] = make(first)
        err = self.failure(monkeypatch, capsys, files, lines)
        assert err.startswith(f"error: {files[0]}:{10 if earlier else 35}: {reason}")

    def test_both_files_bad(self, files, monkeypatch, capsys):
        """The instruction file's error comes first, and nothing forks."""
        files[1].write_bytes(files[1].read_bytes() + b"[1, 2]\n")
        err = self.failure(monkeypatch, capsys, files, {35: b"[1, 2]\n"}, forks=0)
        assert err == f"error: {files[0]}:35: record is not a JSON object\n"

    def test_ideographic_space_line_is_blank(self, files, monkeypatch, capsys):
        lines = {34: "\u3000\n".encode(), 36: b'{"id": "x"}\n'}
        err = self.failure(monkeypatch, capsys, files, lines)
        assert err.startswith(f"error: {files[0]}:36: bad instruction record: ")


class TestReport:
    def make_report(self, scoring_files, tmp_path, name):
        ins_path, res_path = scoring_files
        out = tmp_path / name
        assert main(["score", str(ins_path), str(res_path), "-o", str(out)]) == EXIT_OK
        return out

    def test_render_single(self, scoring_files, tmp_path, capsys):
        path = self.make_report(scoring_files, tmp_path, "r1.json")
        assert main(["report", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "Overall" in out and "50.0" in out

    def test_merge_two_runs(self, scoring_files, tmp_path, capsys):
        first = self.make_report(scoring_files, tmp_path, "r1.json")
        second = self.make_report(scoring_files, tmp_path, "r2.json")
        assert main(["report", str(first), str(second)]) == EXIT_OK
        assert "Averaged over 2 runs." in capsys.readouterr().out

    def test_csv_output(self, scoring_files, tmp_path, capsys):
        path = self.make_report(scoring_files, tmp_path, "r1.json")
        out = tmp_path / "report.csv"
        assert main(["report", str(path), "--format", "csv", "-o", str(out)]) == EXIT_OK
        assert out.read_text(encoding="utf-8").startswith("id,")

    @pytest.mark.parametrize("key", ["by_language", "by_difficulty"])
    def test_slice_map_given_as_list(self, scoring_files, tmp_path, capsys, key):
        path = self.make_report(scoring_files, tmp_path, "r1.json")
        data = json.loads(path.read_text(encoding="utf-8"))
        data[key] = list(data[key].values())
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main(["report", str(path)]) == EXIT_DATA
        assert f"{path}: bad report structure" in capsys.readouterr().err

    BAD_VALUES = {
        "overall-strict": lambda d: d["overall"].update(strict="x"),
        "unscored-ints": lambda d: d.update(unscored=[1, 2]),
        "runs-string": lambda d: d.update(runs="2"),
        "runs-zero": lambda d: d.update(runs=0),
        "rule-passes-string": lambda d: d["verdicts"][0].update(rule_passes="TF"),
        "verdict-strict-string": lambda d: d["verdicts"][0].update(strict="no"),
        "cell-depth-string": lambda d: d["cells"][0].update(depth="1"),
        "slice-n-bool": lambda d: d["by_language"]["en"].update(n=True),
    }

    @pytest.mark.parametrize("case", sorted(BAD_VALUES))
    @pytest.mark.parametrize("merged", [False, True])
    def test_value_of_wrong_type(self, scoring_files, tmp_path, capsys, case, merged):
        good = self.make_report(scoring_files, tmp_path, "good.json")
        path = tmp_path / "bad.json"
        data = json.loads(good.read_text(encoding="utf-8"))
        self.BAD_VALUES[case](data)
        path.write_text(json.dumps(data), encoding="utf-8")
        capsys.readouterr()
        paths = [str(good), str(path)] if merged else [str(path)]
        assert main(["report", *paths]) == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"error: {path}: bad report structure")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rate_in_a_merged_report(self, scoring_files, tmp_path, capsys, value):
        first = self.make_report(scoring_files, tmp_path, "r1.json")
        second = self.make_report(scoring_files, tmp_path, "r2.json")
        merged = tmp_path / "merged.json"
        assert main(["report", str(first), str(second), "--format", "structured", "-o", str(merged)]) == EXIT_OK
        data = json.loads(merged.read_text(encoding="utf-8"))
        data["overall"]["strict"] = value
        merged.write_text(json.dumps(data), encoding="utf-8")  # as NaN, Infinity or -Infinity
        capsys.readouterr()
        assert main(["report", str(merged)]) == EXIT_DATA
        literal = json.dumps(value)
        assert capsys.readouterr().err == f"error: {merged}: non-finite number {literal}\n"

    CONTRADICTIONS = {
        "cell": lambda d: d["cells"].append(d["cells"][0]),
        "verdict": lambda d: d["verdicts"].append(d["verdicts"][0]),
        "scored-and-unscored": lambda d: d["unscored"].append(d["verdicts"][0]["id"]),
    }

    @pytest.mark.parametrize("case", sorted(CONTRADICTIONS))
    def test_self_contradicting_report(self, scoring_files, tmp_path, capsys, case):
        path = self.make_report(scoring_files, tmp_path, "r1.json")
        data = json.loads(path.read_text(encoding="utf-8"))
        self.CONTRADICTIONS[case](data)
        path.write_text(json.dumps(data), encoding="utf-8")
        capsys.readouterr()
        assert main(["report", str(path)]) == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"error: {path}: bad report structure: duplicate ")

    def test_unwritable_output(self, scoring_files, tmp_path, capsys):
        path = self.make_report(scoring_files, tmp_path, "r1.json")
        out = tmp_path / "no" / "r.txt"
        assert main(["report", str(path), "-o", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {out}: cannot write (No such file or directory)\n"


@pytest.fixture()
def good_inputs(tmp_path, monkeypatch):
    """One valid input of each kind, so that a command fails only on the
    input a test breaks."""
    monkeypatch.setenv("LEX_CLI_KEY", "k")
    (tmp_path / "rules.txt").write_text("sentence# = 2\n", encoding="utf-8")
    write_instructions(tmp_path / "ins.jsonl", [])
    write_responses(tmp_path / "res.jsonl", [])
    (tmp_path / "gen.json").write_text(json.dumps({"seed": 1, "language": "en"}), encoding="utf-8")
    endpoint = {"base_url": "http://127.0.0.1:1/v1", "model": "m", "credential_env": "LEX_CLI_KEY"}
    (tmp_path / "endpoint.json").write_text(json.dumps(endpoint), encoding="utf-8")
    return tmp_path


class TestDocumentReaders:
    """Each JSON document the CLI reads fails to load in the same eight ways,
    reported as `<path>: <reason>` with its kind of file's exit code."""

    # content of the document (None: nothing at its path) -> reason
    FAILURES = {
        "missing": (None, "cannot open (No such file or directory)"),
        "not-utf8": (b'{"model": "\xff"}', "not valid UTF-8 (byte 11)"),
        "malformed": (b"sentence# = 2\n", "malformed JSON (Expecting value)"),
        "bom": (b'\xef\xbb\xbf{"seed": 1}', "malformed JSON (Unexpected UTF-8 BOM (decode using utf-8-sig))"),
        "huge-integer": (f'{{"seed": {HUGE}}}'.encode(), TOO_LONG),
        "deep": (DEEP.encode(), "JSON nested too deeply"),
        "nan": (b'{"seed": NaN}', "non-finite number NaN"),
        "overflow": (b'{"seed": -1e999}', "number -1e999 is beyond the float range"),
        "lone-surrogate": (b'{"model": "\\ud800"}', "string with a lone surrogate ('\\ud800')"),
        "list": (b"[1, 2]", "not a JSON object but list"),
    }
    # command line for a document at `doc` -> (argv, exit code, message prefix)
    READERS = {
        "generate-config": lambda doc, tmp: (
            ["generate", doc, "-o", str(tmp / "o")], EXIT_USAGE, "cannot load generation config: "
        ),
        "generate-overlay": lambda doc, tmp: (
            ["generate", str(tmp / "gen.json"), "-o", str(tmp / "o"), "--templates", doc],
            EXIT_USAGE,
            "cannot load templates: ",
        ),
        "template-overlay": lambda doc, tmp: (
            ["render", str(tmp / "rules.txt"), "--templates", doc], EXIT_USAGE, "cannot load templates: "
        ),
        "report": lambda doc, tmp: (["report", doc], EXIT_DATA, ""),
        "endpoint-config": lambda doc, tmp: (
            ["collect", str(tmp / "ins.jsonl"), doc, "-o", str(tmp / "o")], EXIT_USAGE, "endpoint config: "
        ),
    }

    @pytest.mark.parametrize("failure", sorted(FAILURES))
    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_undecodable_document(self, good_inputs, capsys, reader, failure):
        content, reason = self.FAILURES[failure]
        doc = good_inputs / "doc.json"
        if content is not None:
            doc.write_bytes(content)
        argv, code, prefix = self.READERS[reader](str(doc), good_inputs)
        assert main(argv) == code
        assert capsys.readouterr().err == f"error: {prefix}{doc}: {reason}\n"
        assert not (good_inputs / "o").exists()

    # command line with the data file at `path` -> argv
    DATA_FILES = {
        "render-rules": lambda path, tmp: ["render", path],
        "score-instructions": lambda path, tmp: ["score", path, str(tmp / "res.jsonl")],
        "score-responses": lambda path, tmp: ["score", str(tmp / "ins.jsonl"), path],
        "collect-instructions": lambda path, tmp: [
            "collect", path, str(tmp / "endpoint.json"), "-o", str(tmp / "o")
        ],
    }

    @pytest.mark.parametrize("reader", sorted(DATA_FILES))
    def test_missing_data_file(self, good_inputs, capsys, reader):
        path = good_inputs / "nope.jsonl"
        assert main(self.DATA_FILES[reader](str(path), good_inputs)) == EXIT_DATA
        assert capsys.readouterr().err == f"error: {path}: cannot open (No such file or directory)\n"
        assert not (good_inputs / "o").exists()


class TestCollectCommand:
    def write_endpoint(self, tmp_path, **overrides):
        data = {
            "base_url": "http://127.0.0.1:1/v1",
            "model": "m",
            "credential_env": "LEX_CLI_KEY",
        }
        data.update(overrides)
        path = tmp_path / "endpoint.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        return path

    def test_missing_credential(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("LEX_CLI_KEY", raising=False)
        ins_path = tmp_path / "ins.jsonl"
        write_instructions(ins_path, [])
        config = self.write_endpoint(tmp_path)
        assert main(["collect", str(ins_path), str(config), "-o", str(tmp_path / "o")]) == EXIT_USAGE
        assert "LEX_CLI_KEY" in capsys.readouterr().err

    def test_bad_endpoint_config(self, tmp_path, capsys):
        config = self.write_endpoint(tmp_path)
        config.write_text(json.dumps({"model": "m"}), encoding="utf-8")
        ins_path = tmp_path / "ins.jsonl"
        write_instructions(ins_path, [])
        assert main(["collect", str(ins_path), str(config), "-o", str(tmp_path / "o")]) == EXIT_USAGE

    def test_unwritable_output_fails_before_any_request(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("LEX_CLI_KEY", "k")
        sent = []
        monkeypatch.setattr("lexcheck.collect._send", lambda *args: sent.append(args))
        config = self.write_endpoint(tmp_path)
        ins_path = tmp_path / "ins.jsonl"
        rules = (parse_rule("word# >= 0"),)
        write_instructions(ins_path, [build_instruction("en-x", "en", "Hi.", rules)])
        out = tmp_path / "no" / "o.jsonl"
        assert main(["collect", str(ins_path), str(config), "-o", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {out}: cannot write (No such file or directory)\n"
        assert sent == []

    @pytest.mark.parametrize("overrides", [{"max_in_flight": "4"}, {"timeout_s": None}, {"model": 3}])
    def test_value_of_wrong_type(self, tmp_path, monkeypatch, capsys, overrides):
        monkeypatch.setenv("LEX_CLI_KEY", "k")
        config = self.write_endpoint(tmp_path, **overrides)
        ins_path = tmp_path / "ins.jsonl"
        write_instructions(ins_path, [])
        assert main(["collect", str(ins_path), str(config), "-o", str(tmp_path / "o")]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: endpoint config: ")

    @pytest.mark.parametrize(
        "overrides",
        [{"retry_backoff_s": -1}, {"timeout_s": 0}, {"max_tokens": 0}, {"max_in_flight": 0}, {"max_in_flight": -2}],
    )
    def test_value_out_of_range(self, tmp_path, monkeypatch, capsys, overrides):
        monkeypatch.setenv("LEX_CLI_KEY", "k")
        config = self.write_endpoint(tmp_path, **overrides)
        ins_path = tmp_path / "ins.jsonl"
        write_instructions(ins_path, [])
        assert main(["collect", str(ins_path), str(config), "-o", str(tmp_path / "o")]) == EXIT_USAGE
        (name,) = overrides
        assert capsys.readouterr().err.startswith(f"error: endpoint config: {name} must be ")

    @pytest.mark.parametrize("name", ["timeout_s", "retry_backoff_s"])
    @pytest.mark.parametrize("value", [1e300, 10**400], ids=["float", "401-digit-int"])
    def test_value_beyond_the_platform_clock(self, tmp_path, monkeypatch, capsys, name, value):
        """A finite value too large for a socket timeout, or a backoff that
        could double past every finite due time, is refused where the config
        enters, not raised as OverflowError mid-run."""
        monkeypatch.setenv("LEX_CLI_KEY", "k")
        config = self.write_endpoint(tmp_path, **{name: value})
        ins_path = tmp_path / "ins.jsonl"
        write_instructions(ins_path, [build_instruction("en-x", "en", "Hi.", (parse_rule("word# >= 0"),))])
        assert main(["collect", str(ins_path), str(config), "-o", str(tmp_path / "o")]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"error: endpoint config: {name} must be <= ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "overrides, literal",
        [({"timeout_s": math.nan}, "NaN"), ({"timeout_s": math.inf}, "Infinity"), ({"retry_backoff_s": math.nan}, "NaN")],
    )
    def test_non_finite_value(self, tmp_path, monkeypatch, capsys, overrides, literal):
        monkeypatch.setenv("LEX_CLI_KEY", "k")
        config = self.write_endpoint(tmp_path, **overrides)  # json.dumps writes NaN and Infinity
        ins_path = tmp_path / "ins.jsonl"
        write_instructions(ins_path, [build_instruction("en-x", "en", "Hi.", (parse_rule("word# >= 0"),))])
        assert main(["collect", str(ins_path), str(config), "-o", str(tmp_path / "o")]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: endpoint config: {config}: non-finite number {literal}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("base_url", ["localhost:8000", "ftp://example.com/v1", "file:///etc/hostname", "http://"])
    def test_base_url_without_http_scheme_or_host(self, tmp_path, monkeypatch, capsys, base_url):
        """Refused before any request: urllib would open file: and ftp: URLs."""
        monkeypatch.setenv("LEX_CLI_KEY", "k")
        config = self.write_endpoint(tmp_path, base_url=base_url)
        ins_path = tmp_path / "ins.jsonl"
        write_instructions(ins_path, [build_instruction("en-x", "en", "Hi.", (parse_rule("word# >= 0"),))])
        assert main(["collect", str(ins_path), str(config), "-o", str(tmp_path / "o")]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: endpoint config: base_url must be an http:// or https:// URL with a host, not {base_url!r}\n"
        )
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("base_url", ["http://127.0.0.1:1/v1?api-version=2", "http://127.0.0.1:1/v1#x"])
    def test_base_url_with_query_or_fragment(self, tmp_path, monkeypatch, capsys, base_url):
        monkeypatch.setenv("LEX_CLI_KEY", "k")
        config = self.write_endpoint(tmp_path, base_url=base_url)
        ins_path = tmp_path / "ins.jsonl"
        write_instructions(ins_path, [build_instruction("en-x", "en", "Hi.", (parse_rule("word# >= 0"),))])
        assert main(["collect", str(ins_path), str(config), "-o", str(tmp_path / "o")]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: endpoint config: base_url must hold no query or fragment ('?' or '#'), not {base_url!r}\n"
        )
        assert not (tmp_path / "o").exists()

    def test_base_url_with_user_info(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("LEX_CLI_KEY", "k")
        config = self.write_endpoint(tmp_path, base_url="http://user:pw@127.0.0.1:1/v1")
        ins_path = tmp_path / "ins.jsonl"
        write_instructions(ins_path, [build_instruction("en-x", "en", "Hi.", (parse_rule("word# >= 0"),))])
        assert main(["collect", str(ins_path), str(config), "-o", str(tmp_path / "o")]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: endpoint config: base_url must hold no user info ('user@' or 'user:password@' before the host)\n"
        )
        assert not (tmp_path / "o").exists()

    def test_credential_with_a_line_break(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("LEX_CLI_KEY", "k\nX-Injected: 1")
        config = self.write_endpoint(tmp_path)
        ins_path = tmp_path / "ins.jsonl"
        write_instructions(ins_path, [build_instruction("en-x", "en", "Hi.", (parse_rule("word# >= 0"),))])
        assert main(["collect", str(ins_path), str(config), "-o", str(tmp_path / "o")]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: endpoint config: environment variable LEX_CLI_KEY holds a control or non-ASCII character\n"
        )
        assert not (tmp_path / "o").exists()

    def test_jobs_override_the_config(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("LEX_CLI_KEY", "k")
        seen = []
        monkeypatch.setattr("lexcheck.cli.collect", lambda _, config, __: seen.append(config) or CollectResult(0, 0, 0, ()))
        config = self.write_endpoint(tmp_path, max_in_flight=1)
        argv = ["collect", str(tmp_path / "ins.jsonl"), str(config), "-o", str(tmp_path / "o")]
        assert main(argv) == EXIT_OK
        assert main([*argv, "--jobs", "3"]) == EXIT_OK
        assert [c.max_in_flight for c in seen] == [1, 3]

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_rejected(self, tmp_path, monkeypatch, capsys, jobs):
        monkeypatch.setenv("LEX_CLI_KEY", "k")
        config = self.write_endpoint(tmp_path)
        ins_path = tmp_path / "ins.jsonl"
        write_instructions(ins_path, [])
        argv = ["collect", str(ins_path), str(config), "-o", str(tmp_path / "o"), "--jobs", jobs]
        assert main(argv) == EXIT_USAGE
        assert "argument --jobs: must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_already_present_counts_only_the_instructions(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("LEX_CLI_KEY", "k")
        config = self.write_endpoint(tmp_path)
        ins_path = tmp_path / "ins.jsonl"
        rules = (parse_rule("word# >= 0"),)
        write_instructions(ins_path, [build_instruction(f"en-{k}", "en", "Hi.", rules) for k in range(2)])
        out = tmp_path / "o"
        out.write_text("".join(json.dumps({"id": i, "response": "r"}) + "\n" for i in ("en-0", "en-1", "x")))
        assert main(["collect", str(ins_path), str(config), "-o", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == "collected 0/0 responses (2 already present, 0 failed)\n"

    def test_partial_collection_exit_code(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("LEX_CLI_KEY", "k")
        config = self.write_endpoint(tmp_path, timeout_s=0.2, retry_backoff_s=0.01)
        ins_path = tmp_path / "ins.jsonl"
        rules = (parse_rule("word# >= 0"),)
        write_instructions(ins_path, [build_instruction("en-x", "en", "Hi.", rules)])
        assert main(["collect", str(ins_path), str(config), "-o", str(tmp_path / "o")]) == EXIT_PARTIAL
        captured = capsys.readouterr()
        assert "collected 0/1" in captured.out
        assert "failed ids: en-x" in captured.err
