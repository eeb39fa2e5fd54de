"""Acceptance gate: one check per release criterion, one printed line each.

Each test prints ``[acceptance] <name>: PASS|FAIL (detail)`` to the real
stdout so the lines survive pytest's capture, then asserts.  The large
fixtures (full-size datasets, the 2,475-instruction scoring run) are module
scoped and shared between criteria.
"""

from __future__ import annotations

import functools
import json
import random
import re
import time
from types import SimpleNamespace

import pytest

from helpers import make_text, sample_rules, violations
from lexcheck.dsl import format_rule, parse_rule
from lexcheck.engine import verify_rule
from lexcheck.generate import GenConfig, generate_dataset
from lexcheck.records import (
    build,
    instruction_to_dict,
    write_instructions,
)
from lexcheck.report import (
    InstructionVerdict,
    aggregate,
    render_table,
    report_from_dict,
    report_to_dict,
    score,
)
from lexcheck.rules import (
    Instruction,
    Level,
    Predicate,
    PredicateKind,
    ProcedureStep,
    Relation,
    Violation,
)
from oracle import brute_verify

import sys


def criterion(name):
    """Print one pass/fail line per criterion, whatever happens inside."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                print(f"[acceptance] {name}: FAIL ({exc!r})", file=sys.__stdout__, flush=True)
                raise
            print(f"[acceptance] {name}: PASS ({detail})", file=sys.__stdout__, flush=True)

        return wrapper

    return decorate


@pytest.fixture(scope="module")
def big_sets():
    """Full-size EN and ZH datasets, generated once and timed."""
    en_config = GenConfig(seed=104729, language="en", easy=321, medium=372, hard=550)
    zh_config = GenConfig(seed=1299709, language="zh", easy=332, medium=372, hard=528)
    start = time.perf_counter()
    en = generate_dataset(en_config)
    zh = generate_dataset(zh_config)
    seconds = time.perf_counter() - start
    return SimpleNamespace(en=en, zh=zh, en_config=en_config, zh_config=zh_config, seconds=seconds)


@pytest.fixture(scope="module")
def all_instructions(big_sets):
    return list(big_sets.en) + list(big_sets.zh)


@pytest.fixture(scope="module")
def responses(all_instructions):
    rng = random.Random(8675309)
    return {ins.id: make_text(rng, ins.language) for ins in all_instructions}


@pytest.fixture(scope="module")
def scored(all_instructions, responses):
    """Single-threaded scoring of all 2,475 instructions, timed."""
    start = time.perf_counter()
    report = score(all_instructions, responses, jobs=1, loose=True)
    seconds = time.perf_counter() - start
    return report, seconds


@pytest.fixture(scope="module")
def sampled_rules():
    return {
        "en": sample_rules("en", seed=271828, n=5_000),
        "zh": sample_rules("zh", seed=314159, n=5_000),
    }


@criterion("oracle equivalence")
def test_a1_oracle_equivalence():
    start = time.perf_counter()
    pairs = 0
    mismatches = []
    for language, seed in (("en", 11), ("zh", 12)):
        rules = sample_rules(language, seed=seed, n=10_000)
        rng = random.Random(seed * 1000)
        for rule in rules:
            text = make_text(rng, language)
            if verify_rule(rule, text, language) != brute_verify(rule, text, language):
                mismatches.append((format_rule(rule), text))
            pairs += 1
    seconds = time.perf_counter() - start
    assert not mismatches, f"engine/oracle disagreement on {mismatches[:3]}"
    assert seconds < 60.0, f"took {seconds:.1f}s"
    return f"{pairs} pairs agree, {seconds:.1f}s"


_ANSWER = ProcedureStep(Level.ANSWER, Predicate(PredicateKind.ALL))


def _codes(kind: PredicateKind, n: int | None, relation: Relation, value: int | str) -> list[Violation]:
    """The codes an answer.sentence rule with this terminal is refused with."""
    step = ProcedureStep(Level.SENTENCE, Predicate(kind, n))
    return violations((_ANSWER, step), relation, value)


FORBIDDEN_PAIRINGS = [
    # textual relations restricted to index/all: before admits contain family only
    (PredicateKind.BEFORE, 2, Relation.STARTSWITH, "x"),
    (PredicateKind.BEFORE, 2, Relation.ENDSWITH, "x"),
    (PredicateKind.BEFORE, 2, Relation.EQUAL, "x"),
    (PredicateKind.BEFORE, 2, Relation.NOTSTARTSWITH, "x"),
    (PredicateKind.BEFORE, 2, Relation.NOTENDSWITH, "x"),
    # between admits equal only
    (PredicateKind.BETWEEN, None, Relation.STARTSWITH, "x"),
    (PredicateKind.BETWEEN, None, Relation.ENDSWITH, "x"),
    (PredicateKind.BETWEEN, None, Relation.CONTAIN, "x"),
    (PredicateKind.BETWEEN, None, Relation.NOTSTARTSWITH, "x"),
    (PredicateKind.BETWEEN, None, Relation.NOTENDSWITH, "x"),
    (PredicateKind.BETWEEN, None, Relation.NOTCONTAIN, "x"),
    # after admits contain, notcontain, equal only
    (PredicateKind.AFTER, 1, Relation.STARTSWITH, "x"),
    (PredicateKind.AFTER, 1, Relation.ENDSWITH, "x"),
    (PredicateKind.AFTER, 1, Relation.NOTSTARTSWITH, "x"),
    (PredicateKind.AFTER, 1, Relation.NOTENDSWITH, "x"),
    # numerical relations require a terminal count
    (PredicateKind.INDEX, 1, Relation.EQ, 3),
    (PredicateKind.ALL, None, Relation.GT, 3),
    (PredicateKind.BEFORE, 2, Relation.LT, 3),
    (PredicateKind.AFTER, 1, Relation.GTE, 3),
    # and count admits numerical relations only
    (PredicateKind.COUNT, None, Relation.CONTAIN, "x"),
]


@criterion("grammar closure")
def test_a2_grammar_closure(sampled_rules):
    # sample_rule builds each rule as a Rule, which raises ValidityError when invalid
    assert sum(map(len, sampled_rules.values())) == 10_000
    assert len(FORBIDDEN_PAIRINGS) == 20
    accepted = [pairing for pairing in FORBIDDEN_PAIRINGS if not _codes(*pairing)]
    assert not accepted, f"forbidden pairings accepted: {accepted}"
    return "10000 sampled rules valid, 20 forbidden pairings rejected"


@criterion("strict <= loose on every slice")
def test_a3_strict_not_above_loose(scored):
    report, _ = scored
    assert report.overall.n >= 1_000
    for verdict in report.verdicts:
        assert not (verdict.strict and not verdict.loose), verdict.id
    slices = {"overall": report.overall}
    slices.update({f"language {k}": v for k, v in report.by_language.items()})
    slices.update({f"difficulty {k}": v for k, v in report.by_difficulty.items()})
    for name, stats in slices.items():
        assert stats.loose is not None, name
        assert stats.strict <= stats.loose, f"{name}: {stats.strict} > {stats.loose}"
    return f"{report.overall.n} fixtures, {len(slices)} slices all satisfy strict <= loose"


@criterion("dataset shape")
def test_a4_dataset_shape(big_sets):
    def by_difficulty(instructions):
        out = {"easy": 0, "medium": 0, "hard": 0}
        for ins in instructions:
            out[ins.difficulty] += 1
        return out

    assert by_difficulty(big_sets.en) == {"easy": 321, "medium": 372, "hard": 550}
    assert by_difficulty(big_sets.zh) == {"easy": 332, "medium": 372, "hard": 528}
    assert len(big_sets.en) == 1_243
    assert len(big_sets.zh) == 1_232
    combined = list(big_sets.en) + list(big_sets.zh)
    assert len(combined) == 2_475
    assert len({ins.id for ins in combined}) == 2_475
    for dataset in (big_sets.en, big_sets.zh):
        multisets = {tuple(sorted(format_rule(r) for r in ins.rules)) for ins in dataset}
        assert len(multisets) == len(dataset), "duplicate rule multiset"
    assert big_sets.seconds < 300.0, f"generation took {big_sets.seconds:.1f}s"
    return f"321/372/550 en + 332/372/528 zh, no duplicates, {big_sets.seconds:.1f}s"


@criterion("round-trips")
def test_a5_round_trips(sampled_rules, all_instructions, scored):
    checked = 0
    for rules in sampled_rules.values():
        for rule in rules:
            assert parse_rule(format_rule(rule)) == rule
            checked += 1
    assert checked == 10_000
    for ins in all_instructions:
        encoded = json.loads(json.dumps(instruction_to_dict(ins), ensure_ascii=False))
        assert build(Instruction, encoded) == ins
    report, _ = scored
    encoded = json.loads(json.dumps(report_to_dict(report)))
    assert report_from_dict(encoded) == report
    return f"{checked} rule expressions, {len(all_instructions)} instructions, 1 report"


@criterion("determinism")
def test_a6_determinism(big_sets, all_instructions, responses, scored, tmp_path):
    again = generate_dataset(big_sets.en_config)
    first_path = tmp_path / "first.jsonl"
    second_path = tmp_path / "second.jsonl"
    write_instructions(first_path, big_sets.en)
    write_instructions(second_path, again)
    assert first_path.read_bytes() == second_path.read_bytes()
    serial_report, _ = scored
    parallel_report = score(all_instructions, responses, jobs=8, loose=True)
    assert parallel_report == serial_report
    return "byte-identical regeneration; jobs=1 == jobs=8"


@criterion("scoring performance")
def test_a7_scoring_performance(scored):
    report, seconds = scored
    assert report.overall.n == 2_475
    assert seconds < 5.0, f"scoring took {seconds:.2f}s"
    return f"2475 instructions scored in {seconds:.2f}s single-threaded"


@criterion("report fidelity")
def test_a8_report_fidelity():
    def verdict(k: int, strict: bool, loose: bool) -> InstructionVerdict:
        return InstructionVerdict(
            id=f"x-{k:04d}",
            language="en" if k % 2 else "zh",
            difficulty="easy",
            depth=1,
            count=1,
            strict=strict,
            loose=loose,
            loose_variant="identity" if loose else None,
            rule_passes=(strict,),
        )

    rows = (
        [verdict(k, True, True) for k in range(142)]
        + [verdict(142 + k, False, True) for k in range(14)]
        + [verdict(156 + k, False, False) for k in range(469)]
    )
    report = aggregate(rows)
    assert report.overall.n == 625
    table = render_table(report)
    match = re.search(r"^Overall\s+22\.7\s+25\.0\s+2\.2\s*$", table, re.MULTILINE)
    assert match, f"overall row not rendered as expected:\n{table}"
    return "strict 22.7, loose 25.0, gain rendered 2.2 from full precision"
