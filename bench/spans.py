"""In-memory span tracer for the traced benchmark run.

The tracer replaces public lexcheck functions *in the namespace that calls
them* (``lexcheck.engine.segment``, ``lexcheck.cli.score``, ...) with thin
wrappers that record one span per call: id, parent id, name, start, end,
the instruction id being verified, and an optional note.  Nothing is
aggregated on the hot path; self time and per-layer figures are computed
from the spans after the traced passes, and the spans can be written out
when the run ends.  Wrappers are removed again by :meth:`Tracer.uninstall`.

``lexcheck/__init__`` re-exports the ``segment`` *function*, so
``import lexcheck.segment`` does not yield the submodule; modules are
reached through ``sys.modules`` instead.
"""

from __future__ import annotations

import itertools
import math
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable

#: namespace module -> public names called from it.  Span names use the
#: module that *defines* the function, e.g. ``segment.segment``.
WRAP_SITES: dict[str, tuple[str, ...]] = {
    "lexcheck.cli": (
        "score", "render_report", "load_report", "merge", "generate_dataset",
        "write_instructions", "collect",
    ),
    "lexcheck.report": (
        "read_instructions", "read_responses", "verify_instruction", "aggregate",
        "render_table", "report_to_dict", "report_from_dict",
    ),
    "lexcheck.engine": (
        "segment", "gaps", "check_validity", "refine_scope", "identify_target",
        "adjudicate", "verify_rule", "loose_variants",
    ),
    "lexcheck.records": ("parse_rule", "grade_difficulty", "check_validity"),
    "lexcheck.grading": ("check_validity",),
    "lexcheck.dsl": ("check_validity", "format_rule"),
    "lexcheck.templates": ("check_validity", "render_rule_sentence"),
    "lexcheck.generate": ("sample_rule", "grade_difficulty", "check_validity", "render_prompt"),
    "lexcheck.collect": ("read_instructions", "read_responses"),
}

# Span layout, kept as a plain tuple for cheap appends.
SID, PARENT, NAME, START, END, INSTRUCTION, NOTE = range(7)


class _HttpProxy:
    """Stand-in for the ``requests`` module inside ``lexcheck.collect``:
    ``post`` is traced, every other attribute is the real one."""

    def __init__(self, real: Any, post: Callable[..., Any]):
        self._real = real
        self.post = post

    def __getattr__(self, name: str) -> Any:
        return getattr(self._real, name)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved: list[tuple[Any, str, Any]] = []
        self._seen_keys: set[tuple] = set()

    # -- recording -------------------------------------------------------

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        note: Callable[..., Any] | None = None,
        instruction: Callable[..., str] | None = None,
    ) -> Callable[..., Any]:
        spans = self.spans
        ids = self._ids
        local = self._local
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else -1
            outer = getattr(local, "instruction", None)
            current = instruction(*args, **kwargs) if instruction else outer
            local.instruction = current
            extra = note(*args, **kwargs) if note else None
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                local.instruction = outer
                spans.append((sid, parent, name, start, end, current, extra))

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def _segment_note(self, text: str, level: Any, language: str = "en", pattern: str | None = None):
        """(chars, level, repeated): repeated means the same (text, level,
        language, pattern) was already segmented for this instruction."""
        key = (getattr(self._local, "instruction", None), text, level, language, pattern)
        repeated = key in self._seen_keys
        self._seen_keys.add(key)
        return (len(text), level.value, repeated)

    def _first_rule_note(self, rule: Any, *_args: Any, **_kwargs: Any) -> bool:
        """True when ``rule`` is the instruction's first rule: in the loose
        pass each rewrite is tried starting from that rule."""
        return rule is getattr(self._local, "first_rule", None)

    def _instruction_of(self, instruction: Any, *_args: Any, **_kwargs: Any) -> str:
        # a new instruction starts: forget the previous one's segment keys
        self._seen_keys.clear()
        self._local.first_rule = instruction.rules[0] if instruction.rules else None
        return instruction.id

    # -- installation ----------------------------------------------------

    def _patch(self, module: Any, attr: str, value: Any) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self) -> None:
        for module_name, names in WRAP_SITES.items():
            module = sys.modules[module_name]
            for attr in names:
                fn = getattr(module, attr, None)
                if fn is None:
                    continue  # the program no longer calls it from here
                name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
                note = {
                    "segment.segment": self._segment_note,
                    "engine.verify_rule": self._first_rule_note,
                }.get(name)
                ident = self._instruction_of if name == "engine.verify_instruction" else None
                self._patch(module, attr, self.wrap(fn, name, note=note, instruction=ident))
        collect_mod = sys.modules["lexcheck.collect"]
        real = collect_mod.requests
        self._patch(collect_mod, "requests", _HttpProxy(real, self.wrap(real.post, "collect.http_post")))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)

    def write(self, path: str) -> None:
        """Write the spans as tab-separated lines, one per call."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("sid\tparent\tname\tstart\tend\tinstruction\tnote\n")
            for span in sorted(self.spans):
                fh.write("\t".join("" if v is None else str(v) for v in span))
                fh.write("\n")


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    child = defaultdict(float)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return {s[SID]: s[END] - s[START] - child[s[SID]] for s in spans}


LEVELS = (
    "answer", "paragraph", "line", "bullet", "sentence", "word",
    "character", "letter", "punc", "pattern",
)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(spans: list[tuple], passes: int, rules_per_pass: int) -> dict[str, float]:
    """Per-layer figures from the spans of ``passes`` traced passes.

    Times and counts are per pass; ratios, percentiles and their sample
    counts are over all traced passes.
    """
    by_name: dict[str, list[tuple]] = defaultdict(list)
    children: dict[int, list[tuple]] = defaultdict(list)
    for s in spans:
        by_name[s[NAME]].append(s)
        children[s[PARENT]].append(s)
    names = {s[SID]: s[NAME] for s in spans}
    own = self_times(spans)

    def count(name: str) -> int:
        return len(by_name[name])

    def total(name: str, within: str | None = None) -> float:
        return sum(
            s[END] - s[START]
            for s in by_name[name]
            if within is None or names.get(s[PARENT]) == within
        )

    def self_total(name: str) -> float:
        return sum(own[s[SID]] for s in by_name[name])

    def durations_ms(name: str) -> list[float]:
        return [1000.0 * (s[END] - s[START]) for s in by_name[name]]

    seg = by_name["segment.segment"]
    loose_s = 0.0
    tried = 0
    for verdict in by_name["engine.verify_instruction"]:
        kids = children[verdict[SID]]
        loose = [k for k in kids if k[NAME] == "engine.loose_variants"]
        if not loose:
            continue  # strict-only verdict
        began = loose[0][START]
        loose_s += verdict[END] - began
        tried += 1 + sum(
            1 for k in kids if k[NAME] == "engine.verify_rule" and k[START] > began and k[NOTE]
        )
    generated = [s for s in by_name["grading.grade_difficulty"] if names.get(s[PARENT]) == "generate.generate_dataset"]
    accepted = [s for s in by_name["templates.render_prompt"] if names.get(s[PARENT]) == "generate.generate_dataset"]
    verdict_ms = durations_ms("engine.verify_instruction")
    request_ms = durations_ms("collect.http_post")
    rules_total = rules_per_pass * passes

    per_pass = {
        "segment.calls": len(seg),
        "segment.self_s": self_total("segment.segment"),
        "segment.chars": sum(s[NOTE][0] for s in seg),
        **{f"segment.{lv}_s": sum(s[END] - s[START] for s in seg if s[NOTE][1] == lv) for lv in LEVELS},
        "engine.verify_rule_calls": count("engine.verify_rule"),
        "engine.refine_scope_self_s": self_total("engine.refine_scope"),
        "engine.identify_target_self_s": self_total("engine.identify_target"),
        "engine.adjudicate_s": total("engine.adjudicate"),
        "engine.loose_s": loose_s,
        "engine.loose_variants_tried": tried,
        "records.read_instructions_s": total("records.read_instructions"),
        "records.read_responses_s": total("records.read_responses"),
        "records.write_s": total("records.write_instructions"),
        "dsl.parse_rule_calls": count("dsl.parse_rule"),
        "dsl.parse_rule_s": total("dsl.parse_rule"),
        "rules.check_validity_calls": count("rules.check_validity"),
        "grading.grade_difficulty_calls": count("grading.grade_difficulty"),
        "grading.grade_difficulty_s": total("grading.grade_difficulty"),
        "report.aggregate_s": total("report.aggregate"),
        "report.render_s": total("report.render_report"),
        "report.load_report_s": total("report.load_report"),
        "report.merge_s": total("report.merge"),
        "generate.self_s": self_total("generate.generate_dataset"),
        "generate.sample_rule_calls": count("generate.sample_rule"),
        "templates.render_prompt_calls": count("templates.render_prompt"),
        "templates.render_prompt_s": total("templates.render_prompt"),
        "collect.resume_read_s": total("records.read_responses", within="collect.collect"),
        "cli.self_s": self_total("cli.main"),
    }
    out = {name: value / passes for name, value in per_pass.items()}
    # measured outside the spans by the workloads that have them
    out.update({
        "collect.attempts": 0.0,
        "collect.retries": 0.0,
        "collect.connections": 0.0,
        "engine.loose_rescue_ratio": 0.0,
    })
    out.update({
        "segment.repeat_ratio": sum(s[NOTE][2] for s in seg) / len(seg) if seg else 0.0,
        "engine.verdict_p50_ms": percentile(verdict_ms, 0.50),
        "engine.verdict_p99_ms": percentile(verdict_ms, 0.99),
        "engine.verdict_samples": len(verdict_ms),
        "rules.validations_per_rule": count("rules.check_validity") / rules_total if rules_total else 0.0,
        "generate.accept_ratio": len(accepted) / len(generated) if generated else 0.0,
        "collect.request_p50_ms": percentile(request_ms, 0.50),
        "collect.request_p99_ms": percentile(request_ms, 0.99),
        "collect.request_samples": len(request_ms),
    })
    return out
