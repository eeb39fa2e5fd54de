"""Correctness gates, run outside the timed window on every benchmark run.

Verdicts are checked against the brute-force oracle in ``tests/oracle.py``;
the eight relaxed rewrites are re-implemented here from the README rather
than taken from ``lexcheck.engine``.  Each gate adds the number of wrong
items to a ``GateResult`` together with a short message.
"""

from __future__ import annotations

from typing import Any

from oracle import brute_verify

TABLE_TOLERANCE = 0.05 + 1e-9  # the table prints percentages with one decimal


def rewrites(text: str) -> list[tuple[str, str]]:
    """The README's eight relaxed rewrites, in evaluation order."""

    def drop(t: str, first: bool, last: bool) -> str:
        lines = t.split("\n")
        return "\n".join(lines[1 if first else 0 : len(lines) - 1 if last else len(lines)])

    unstarred = text.replace("*", "")
    drops = (("drop-first-line", True, False), ("drop-last-line", False, True),
             ("drop-first-last-lines", True, True))
    return (
        [("identity", text), ("strip-asterisks", unstarred)]
        + [(name, drop(text, f, l)) for name, f, l in drops]
        + [(f"strip-asterisks+{name}", drop(unstarred, f, l)) for name, f, l in drops]
    )


def check_verdicts(instructions: list, responses: dict[str, str], rows: list[dict], result) -> None:
    """Every per-rule strict verdict and every loose verdict equals the oracle's."""
    if len(rows) != len(instructions):
        result.fail(abs(len(rows) - len(instructions)), f"{len(rows)} verdict rows for {len(instructions)} instructions")
        return
    bad = []
    for ins, row in zip(instructions, rows):
        response = responses[ins.id]
        passes = [brute_verify(rule, response, ins.language) for rule in ins.rules]
        variant = None
        for vid, text in rewrites(response):
            ok = all(passes) if vid == "identity" else all(
                brute_verify(rule, text, ins.language) for rule in ins.rules
            )
            if ok:
                variant = vid
                break
        expected = (passes, all(passes), variant is not None, variant)
        reported = (row["rule_passes"], row["strict"], row["loose"], row["loose_variant"])
        if row["id"] != ins.id or expected != reported:
            bad.append(f"{ins.id}: oracle {expected} != reported {reported}")
    if bad:
        result.fail(len(bad), f"{len(bad)} verdicts disagree with the oracle, e.g. {bad[0]}")


def check_dataset_shape(generated: dict[str, list[dict]], shapes: dict[str, dict[str, int]], result) -> None:
    for language, records in generated.items():
        counts = {grade: 0 for grade in shapes[language]}
        for record in records:
            counts[record["difficulty"]] = counts.get(record["difficulty"], 0) + 1
        if counts != shapes[language]:
            result.fail(1, f"{language} dataset shape {counts} != {shapes[language]}")
        if any(r["language"] != language for r in records):
            result.fail(1, f"{language} dataset holds records of another language")


def _mean(values: list[float | None]) -> float | None:
    present = [v for v in values if v is not None]
    return sum(present) / len(present) if present else None


def _close(a: float | None, b: float | None, tolerance: float) -> bool:
    if a is None or b is None:
        return a is b
    return abs(a - b) <= tolerance


def _expected_slices(inputs: list[dict]) -> dict[str, dict[str, float | None]]:
    """slice label -> mean n/strict/loose over the inputs holding that slice."""
    out = {"overall": {k: _mean([r["overall"][k] for r in inputs]) for k in ("n", "strict", "loose")}}
    for group in ("by_language", "by_difficulty"):
        for key in sorted({k for r in inputs for k in r[group]}):
            present = [r[group][key] for r in inputs if key in r[group]]
            out[f"{group}:{key}"] = {k: _mean([s[k] for s in present]) for k in ("n", "strict", "loose")}
    return out


def check_merge(inputs: list[dict], merged: dict, table: str, result) -> None:
    """Merged slices are the means of the inputs; rows survive iff identical in all."""
    expected = _expected_slices(inputs)
    got = {"overall": merged["overall"]}
    for group in ("by_language", "by_difficulty"):
        got.update({f"{group}:{k}": v for k, v in merged[group].items()})
    if set(got) != set(expected):
        result.fail(1, f"merged slices {sorted(got)} != {sorted(expected)}")
    for label, stats in expected.items():
        if label in got and not all(_close(got[label][k], stats[k], 1e-12) for k in stats):
            result.fail(1, f"merged slice {label} = {got[label]}, expected mean {stats}")
    keyed = [{row["id"]: row for row in r["verdicts"]} for r in inputs]
    survivors = [row["id"] for row in inputs[0]["verdicts"] if all(k.get(row["id"]) == row for k in keyed[1:])]
    if [row["id"] for row in merged["verdicts"]] != survivors:
        result.fail(1, "merged verdict rows are not exactly the rows identical in every input")
    # the rendered table shows the same means, to one decimal
    labels = {"Overall": "overall", "EN": "by_language:en", "CN": "by_language:zh"}
    labels.update({grade: f"by_difficulty:{grade}" for grade in ("easy", "medium", "hard")})
    seen = 0
    for line in table.splitlines():
        fields = line.split()
        if len(fields) == 4 and fields[0] in labels and labels[fields[0]] in expected:
            stats = expected[labels[fields[0]]]
            seen += 1
            for cell, key in zip(fields[1:3], ("strict", "loose")):
                if not _close(float(cell), 100.0 * stats[key], TABLE_TOLERANCE):
                    result.fail(1, f"table row {fields[0]} shows {key} {cell}, expected {100.0 * stats[key]:.3f}")
    if seen != len(labels):
        result.fail(1, f"table shows {seen} of {len(labels)} accuracy rows")
    if "Averaged over 3 runs." not in table:
        result.fail(1, "table does not state the three merged runs")


def check_collect_pass(
    tag: str, journal: list[dict], sidecar: list[dict], stats: dict, state: dict[str, Any],
    texts: dict[str, str], result,
) -> None:
    """Journal, sidecar and stub attempts of one collect pass are exactly as seeded."""
    permanent = set(state["permanent"])
    ids = [r["id"] for r in journal]
    expected_ids = set(state["language"]) - permanent
    if len(ids) != len(set(ids)) or set(ids) != expected_ids:
        missing = len(expected_ids - set(ids))
        result.fail(max(1, missing), f"pass {tag}: journal holds {len(ids)} ids, expected {len(expected_ids)}")
    wrong = [r["id"] for r in journal if texts.get(r["id"]) != r["response"]]
    if wrong:
        result.fail(len(wrong), f"pass {tag}: {len(wrong)} journal texts differ, e.g. {wrong[0]}")
    failed_ids = {r["id"] for r in sidecar}
    if failed_ids != permanent:
        result.fail(
            max(1, len(failed_ids - permanent)),
            f"pass {tag}: sidecar {sorted(failed_ids)[:5]} != permanent 404s {sorted(permanent)[:5]}",
        )
    if stats["attempts"] != state["expected_attempts"]:
        diff = sum(1 for i, n in state["expected_attempts"].items() if stats["attempts"].get(i) != n)
        result.fail(max(1, diff), f"pass {tag}: stub saw unexpected attempts for {diff} ids")
