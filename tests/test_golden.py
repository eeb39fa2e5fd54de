"""Byte-for-byte pins on the program's outputs.

Each digest is the sha256 of an output produced from fixed seeds: small en
and zh datasets, the three score report formats (loose and strict-only), the
three `lexcheck report` formats over merged runs, one rendered prompt per
language, and `lexcheck verify` stdout.  A change that is meant to keep every
output the same must leave these digests alone; a change that alters an
output on purpose updates the digest and says why.
"""

from __future__ import annotations

import hashlib
import io
import random

from helpers import make_long_text, make_text
from lexcheck.cli import main
from lexcheck.dsl import parse_rule
from lexcheck.generate import GenConfig, generate_dataset
from lexcheck.records import write_instructions
from lexcheck.report import render_report, score
from lexcheck.templates import render_prompt

GOLDEN = {
    "dataset-en": "579055869d4cd710f142fcab9b1b0c700d5365b7f3e779c1116fbde370d4c190",
    "dataset-zh": "073dc073c4fbee0b214602d2163b4cb0d162d40ccadaec677b901c346da26b60",
    "score-structured": "00b7146f30f4e2de874a169356da35439f34445e06c1475e0bd04b15a5178d06",
    "score-table": "b1fe83cc9d7cbfe5dea95dbcded38712a7970f60951fe23acc1bc4e603c513f1",
    "score-csv": "8161d4f2360f33eebef3bfdcc28543a9b72bc6711e92f96f2f7c477d3fe53d5f",
    "score-strict-structured": "2024eb4f705742e6b199826f2e6c85227e29665d4b2dae8a8cca50eafe9476f9",
    "score-strict-table": "2815fddada7d66956ae076ac8c106ec4ef0b9f9245c43aff474f08073b1677bd",
    "score-strict-csv": "db1e0354f997b5aae89a9ee1946dddf6acf281702a8d7b3ecdaa7f03f9c6b904",
    "prompt-en": "da5baeef2011b9e37c547f957798649adce48037fcb3c895220355d614333b33",
    "prompt-zh": "883497ab2dc9e24ef84fc01277843d7ffac1fb189a50959b9c6727f4510bb6dc",
    "verify": "201390c09de1a097befd14d529d2fb84bff9dc06ef8b2b9a528e5360d31d97e4",
    "report-merged-structured": "af561dc22a7eb7e7f66879821e5b7bfcd5428cc39ac5075bbb555b53a181b987",
    "report-merged-table": "d43f1a5e337e80f8bcc3883c116fba93bd4e3fcf42bbd14625241a57992fed54",
    "report-merged-csv": "b5b770f73d04ab9c1e4038002e52bd4674f4df6d4f233289f828610af2d19e2f",
}

#: sha256 of the structured `score` report over 300 generated en and zh
#: instructions answered with 2,000+-character multi-line texts that hold
#: bold markers, so the relaxed rewrites have lines and asterisks to remove.
LONG_SCORE_STRUCTURED = "9712d4f53d742b7f50726b0cae835e5715381135ec1e5094cf62c5199bbef5bc"

PROMPT_RULES = {
    "en": (
        'paragraph@1.sentence@-1 endswith "."',
        "line@.word# >= 3",
        'bullet$2 contain "note"',
        'sentence% equal " "',
        'pattern(/[A-Z][a-z]+/)!2 notcontain "x"',
    ),
    "zh": (
        'paragraph@2.character@1 equal "的"',
        "sentence# < 5",
        'line!3 contain "数据"',
        'paragraph% equal "\\n\\n"',
        'pattern(/[0-9]+/)@-1 notstartswith "0"',
    ),
}

VERIFY_CASES = (
    ('sentence# = 2', "One. Two."),
    ('word@1 equal "**Hello**"', "**Hello** world\nbye"),
    ('line@-1 notcontain "Sincerely"', "Intro\nbody text\nSincerely"),
    ('paragraph@1.word# >= 3', "Title\n\nthree short words"),
)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _digests(tmp_path, capsys, monkeypatch) -> dict[str, str]:
    out: dict[str, str] = {}
    instructions = []
    for language, seed in (("en", 11), ("zh", 12)):
        config = GenConfig(seed=seed, language=language, easy=5, medium=5, hard=5)
        dataset = generate_dataset(config)
        path = tmp_path / f"{language}.jsonl"
        write_instructions(path, dataset)
        out[f"dataset-{language}"] = hashlib.sha256(path.read_bytes()).hexdigest()
        instructions.extend(dataset)

    rng = random.Random(5)
    # leave the last instruction unanswered so the unscored rows show
    responses = {i.id: make_text(rng, i.language) for i in instructions[:-1]}
    for prefix, loose in (("score", True), ("score-strict", False)):
        report = score(instructions, responses, loose=loose)
        for fmt in ("structured", "table", "csv"):
            out[f"{prefix}-{fmt}"] = _sha(render_report(report, fmt))

    # three runs to merge: loose, strict-only, and loose on other responses
    # with the first two instructions unanswered instead of the last
    rng = random.Random(6)
    other = {i.id: make_text(rng, i.language) for i in instructions[2:]}
    runs = []
    for name, answers, loose in (("a", responses, True), ("b", responses, False), ("c", other, True)):
        path = tmp_path / f"run-{name}.json"
        path.write_text(render_report(score(instructions, answers, loose=loose), "structured"), encoding="utf-8")
        runs.append(str(path))
    for fmt in ("structured", "table", "csv"):
        stdout = []
        # all three runs (no verdict row survives the strict-only one), then
        # the two loose runs, which keep only the rows they agree on
        for paths in (runs, [runs[2], runs[0]]):
            capsys.readouterr()
            code = main(["report", *paths, "--format", fmt])
            stdout.append(f"{code}:{capsys.readouterr().out}")
        out[f"report-merged-{fmt}"] = _sha("".join(stdout))

    for language, lines in PROMPT_RULES.items():
        rules = [parse_rule(line) for line in lines]
        out[f"prompt-{language}"] = _sha(render_prompt(rules, language, "Task."))

    stdout = []
    for rule, text in VERIFY_CASES:
        for flags in ((), ("--strict-only",)):
            capsys.readouterr()
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            code = main(["verify", rule, *flags])
            stdout.append(f"{code}:{capsys.readouterr().out}")
    out["verify"] = _sha("".join(stdout))
    return out


def test_outputs_match_golden_digests(tmp_path, capsys, monkeypatch):
    assert _digests(tmp_path, capsys, monkeypatch) == GOLDEN


def test_long_response_report_matches_golden_digest():
    instructions = []
    for language, seed in (("en", 21), ("zh", 22)):
        instructions.extend(generate_dataset(GenConfig(seed=seed, language=language, easy=50, medium=50, hard=50)))
    rng = random.Random(23)
    responses = {i.id: make_long_text(rng, i.language) for i in instructions}
    report = score(instructions, responses)
    assert _sha(render_report(report, "structured")) == LONG_SCORE_STRUCTURED
