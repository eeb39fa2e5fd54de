"""Every terminal predicate paired with every relation and both value types.

The expected codes are written out from the pairing table in the README
("Relations and values"), not read from the library's own tables, so a
change to those tables that alters which rules are valid fails here.
"""

from __future__ import annotations

import pytest

from helpers import violations
from lexcheck.dsl import format_rule, parse_rule
from lexcheck.rules import Level, Predicate, PredicateKind, ProcedureStep, Relation, Rule

NUMERIC = ("eq", "neq", "gt", "gte", "lt", "lte")
TEXTUAL = ("startswith", "endswith", "equal", "contain", "notstartswith", "notendswith", "notcontain")

# README: terminal predicate -> allowed textual relations
README_TEXTUAL = {
    "index": set(TEXTUAL),
    "all": set(TEXTUAL),
    "before": {"contain", "notcontain"},
    "after": {"contain", "notcontain", "equal"},
    "between": {"equal"},
}

PREDICATES = {
    "index": Predicate(PredicateKind.INDEX, 2),
    "all": Predicate(PredicateKind.ALL),
    "before": Predicate(PredicateKind.BEFORE, 2),
    "after": Predicate(PredicateKind.AFTER, 1),
    "between": Predicate(PredicateKind.BETWEEN),
    "count": Predicate(PredicateKind.COUNT),
}

VALUES = {"int": 3, "str": "ab"}


def expected_codes(kind: str, relation: str, value: int | str) -> list[str]:
    codes = []
    if relation in NUMERIC:
        if kind != "count":
            codes.append("numeric-relation-without-count")
    elif kind == "count":
        codes.append("text-relation-with-count")
    elif relation not in README_TEXTUAL[kind]:
        codes.append(f"relation-not-allowed-for-{kind}")
    if (relation in NUMERIC) != isinstance(value, int):
        codes.append("value-type-mismatch")
    return codes


def grid_steps(kind: str) -> tuple[ProcedureStep, ...]:
    return (
        ProcedureStep(Level.PARAGRAPH, Predicate(PredicateKind.INDEX, 1)),
        ProcedureStep(Level.WORD, PREDICATES[kind]),
    )


CASES = [
    (kind, relation, vtype)
    for kind in PREDICATES
    for relation in NUMERIC + TEXTUAL
    for vtype in VALUES
]


def test_grid_covers_every_kind_and_relation():
    assert {k.value for k in PredicateKind} == set(PREDICATES)
    assert {r.value for r in Relation} == set(NUMERIC + TEXTUAL)
    assert len(CASES) == 6 * 13 * 2


@pytest.mark.parametrize("kind,relation,vtype", CASES)
def test_validity_codes(kind, relation, vtype):
    value = VALUES[vtype]
    codes = [v.value for v in violations(grid_steps(kind), Relation(relation), value)]
    assert codes == expected_codes(kind, relation, value)


@pytest.mark.parametrize("relation", NUMERIC + TEXTUAL)
def test_every_relation_round_trips(relation):
    valid = [
        Rule(grid_steps(kind), Relation(relation), VALUES[vtype])
        for kind, rel, vtype in CASES
        if rel == relation and not expected_codes(kind, relation, VALUES[vtype])
    ]
    assert valid
    for rule in valid:
        assert parse_rule(format_rule(rule)) == rule
