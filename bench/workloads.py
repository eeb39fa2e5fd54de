"""The four benchmark workloads: inputs, one pass of the user journey, gates.

Every workload drives ``lexcheck.cli.main`` in-process.  ``setup`` builds
the inputs from the seed into a fresh work directory and writes a
``manifest.json`` that the journey process (``journey.py``) reads; the
instruction set is always the benchmark set (2,475 instructions, en
321/372/550 at seed 104729, zh 332/372/528 at seed 1299709), only the
response seed varies.  ``before_pass``/``after_pass`` run outside the timed
window.  ``gate`` checks the outputs of every pass and returns a
:class:`GateResult`.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from textgen import length_stats, long_response

BENCH_DIR = Path(__file__).resolve().parent
SETS = {
    "en": (104729, {"easy": 321, "medium": 372, "hard": 550}),
    "zh": (1299709, {"easy": 332, "medium": 372, "hard": 528}),
}
SET_SIZE = 2475
CREDENTIAL_ENV = "LEXCHECK_BENCH_KEY"
STUB_START_TIMEOUT_S = 20.0


@dataclass
class GateResult:
    checked: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        self.messages.append(message)


def benchmark_set() -> list:
    from lexcheck.generate import GenConfig, generate_dataset

    out = []
    for language, (seed, shape) in SETS.items():
        out.extend(generate_dataset(GenConfig(seed=seed, language=language, **shape)))
    return out


def write_jsonl(path: Path, records: list[dict[str, Any]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")


def read_jsonl(path: Path) -> list[dict[str, Any]]:
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


def short_responses(instructions: list, seed: int) -> dict[str, str]:
    from helpers import make_text

    rng = random.Random(seed)
    return {ins.id: make_text(rng, ins.language) for ins in instructions}


def long_responses(instructions: list, seed: int) -> dict[str, str]:
    return {ins.id: long_response(seed, ins.id, ins.language) for ins in instructions}


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def derived_seeds(seed: int, n: int) -> list[int]:
    rng = random.Random(f"derived:{seed}")
    return [rng.randrange(2**31) for _ in range(n)]


def run_cli(argv: list[str]) -> int:
    from lexcheck.cli import main

    return main(argv)


class Workload:
    name = ""

    def setup(self, work: Path, seed: int) -> dict[str, Any]:
        """Build inputs in ``work``; return the state the gates need."""
        raise NotImplementedError

    def teardown(self, state: dict[str, Any]) -> None:
        pass

    def before_pass(self, work: Path, manifest: dict[str, Any]) -> None:
        pass

    def after_pass(self, work: Path, manifest: dict[str, Any], tag: str) -> None:
        """Keep this pass's outputs as ``<output>.<tag>``."""
        for name in manifest["outputs"]:
            src = work / name
            if src.exists():
                src.replace(work / f"{name}.{tag}")

    def trace_extras(self, work: Path, manifest: dict[str, Any], tags: list[str]) -> dict[str, float]:
        return {}

    def gate(self, work: Path, state: dict[str, Any], journey: dict[str, Any]) -> GateResult:
        raise NotImplementedError

    @staticmethod
    def same_bytes(work: Path, manifest: dict[str, Any], tags: list[str], result: GateResult) -> None:
        """Every pass produced byte-identical outputs."""
        for name in manifest["outputs"]:
            first = digest(work / f"{name}.{tags[0]}")
            differing = [t for t in tags[1:] if digest(work / f"{name}.{t}") != first]
            if differing:
                result.fail(len(differing), f"{name} differs between passes {tags[0]} and {differing}")


def _manifest(work: Path, **data: Any) -> None:
    (work / "manifest.json").write_text(json.dumps(data, indent=1), encoding="utf-8")


# ---------------------------------------------------------------------------
# score-short / score-long


class ScoreWorkload(Workload):
    def __init__(self, name: str, long_form: bool):
        self.name = name
        self.long_form = long_form

    def setup(self, work: Path, seed: int) -> dict[str, Any]:
        from lexcheck.dsl import format_rule
        from lexcheck.records import instruction_to_dict

        instructions = benchmark_set()
        responses = (long_responses if self.long_form else short_responses)(instructions, seed)
        records = []
        for ins in instructions:
            record = instruction_to_dict(ins)
            # rules as one-line expressions, so reading the file parses the DSL
            record["rules"] = [format_rule(r) for r in ins.rules]
            records.append(record)
        write_jsonl(work / "instructions.jsonl", records)
        write_jsonl(work / "responses.jsonl", [{"id": k, "response": v} for k, v in responses.items()])
        _manifest(
            work,
            passes=[[
                "score", str(work / "instructions.jsonl"), str(work / "responses.jsonl"),
                "--format", "structured", "-o", str(work / "report.json"),
            ]],
            exit_codes=[0],
            outputs=["report.json"],
            items=len(instructions),
            rules=sum(len(ins.rules) for ins in instructions),
        )
        return {
            "instructions": instructions,
            "responses": responses,
            "lengths": length_stats(list(responses.values())),
        }

    def trace_extras(self, work: Path, manifest: dict[str, Any], tags: list[str]) -> dict[str, float]:
        rows = json.loads((work / f"report.json.{tags[0]}").read_text(encoding="utf-8"))["verdicts"]
        strict_failed = [r for r in rows if not r["strict"]]
        rescued = sum(1 for r in strict_failed if r["loose"])
        return {"engine.loose_rescue_ratio": rescued / len(strict_failed) if strict_failed else 0.0}

    def gate(self, work: Path, state: dict[str, Any], journey: dict[str, Any]) -> GateResult:
        from gates import check_verdicts

        manifest = journey["manifest"]
        tags = journey["tags"]
        result = GateResult(checked=SET_SIZE)
        self.same_bytes(work, manifest, tags, result)
        first = work / f"report.json.{tags[0]}"
        rows = json.loads(first.read_text(encoding="utf-8"))["verdicts"]
        check_verdicts(state["instructions"], state["responses"], rows, result)
        if self.long_form:
            return result  # the jobs=2 gate runs on score-short, where it costs ~1.5 s, not ~6 s
        # jobs=2 must reproduce the jobs=1 report byte for byte
        argv = manifest["passes"][0][:-1] + [str(work / "report.jobs2.json"), "--jobs", "2"]
        code = run_cli(argv)
        if code != 0 or (work / "report.jobs2.json").read_bytes() != first.read_bytes():
            result.fail(1, f"jobs=2 report differs from jobs=1 report (exit {code})")
        return result


# ---------------------------------------------------------------------------
# generate-merge


class GenerateMergeWorkload(Workload):
    name = "generate-merge"

    def setup(self, work: Path, seed: int) -> dict[str, Any]:
        from lexcheck.report import render_report, score

        instructions = benchmark_set()
        for language, (set_seed, shape) in SETS.items():
            config = {"seed": set_seed, "language": language, **shape}
            (work / f"gen_{language}.json").write_text(json.dumps(config), encoding="utf-8")
        reports = []
        for k, response_seed in enumerate(derived_seeds(seed, 3)):
            report = work / f"report{k}.json"
            scored = score(instructions, short_responses(instructions, response_seed))
            report.write_text(render_report(scored, "structured"), encoding="utf-8")
            reports.append(str(report))
        _manifest(
            work,
            passes=[
                ["generate", str(work / "gen_en.json"), "-o", str(work / "out_en.jsonl")],
                ["generate", str(work / "gen_zh.json"), "-o", str(work / "out_zh.jsonl")],
                ["report", *reports, "--format", "table", "-o", str(work / "merged.txt")],
            ],
            exit_codes=[0, 0, 0],
            outputs=["out_en.jsonl", "out_zh.jsonl", "merged.txt"],
            items=len(instructions),
            rules=sum(len(ins.rules) for ins in instructions),
        )
        return {"ids": [ins.id for ins in instructions], "reports": reports}

    def gate(self, work: Path, state: dict[str, Any], journey: dict[str, Any]) -> GateResult:
        from gates import check_dataset_shape, check_merge

        manifest = journey["manifest"]
        tags = journey["tags"]
        result = GateResult(checked=SET_SIZE)
        self.same_bytes(work, manifest, tags, result)
        generated = {lang: read_jsonl(work / f"out_{lang}.jsonl.{tags[0]}") for lang in SETS}
        check_dataset_shape(generated, {lang: shape for lang, (_, shape) in SETS.items()}, result)
        ids = [r["id"] for lang in SETS for r in generated[lang]]
        if ids != state["ids"]:
            result.fail(1, "generated ids differ from the benchmark set")
        structured = work / "merged.json"
        code = run_cli(["report", *state["reports"], "--format", "structured", "-o", str(structured)])
        if code != 0:
            result.fail(1, f"report --format structured exited {code}")
            return result
        inputs = [json.loads(Path(p).read_text(encoding="utf-8")) for p in state["reports"]]
        merged = json.loads(structured.read_text(encoding="utf-8"))
        table = (work / f"merged.txt.{tags[0]}").read_text(encoding="utf-8")
        check_merge(inputs, merged, table, result)
        return result


# ---------------------------------------------------------------------------
# collect


class CollectWorkload(Workload):
    name = "collect"

    def setup(self, work: Path, seed: int) -> dict[str, Any]:
        from lexcheck.records import write_instructions

        from stub import fault_of

        instructions = benchmark_set()
        instr_path = work / "instructions.jsonl"
        write_instructions(instr_path, instructions)
        port_file = work / "port"
        log = open(work / "stub.log", "w", encoding="utf-8")
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "stub.py"), "--instructions", str(instr_path),
             "--seed", str(seed), "--port-file", str(port_file)],
            stdout=log, stderr=subprocess.STDOUT,
        )
        state: dict[str, Any] = {"stub": proc, "stub_log": log}
        try:
            deadline = time.monotonic() + STUB_START_TIMEOUT_S
            while not port_file.exists():
                if proc.poll() is not None or time.monotonic() > deadline:
                    raise RuntimeError(f"stub server did not start (exit {proc.poll()})")
                time.sleep(0.01)
            port = int(port_file.read_text(encoding="utf-8"))
            language = {ins.id: ins.language for ins in instructions}
            prefilled = set(random.Random(f"prefill:{seed}").sample(sorted(language), len(language) // 2))
            write_jsonl(
                work / "journal.prefill.jsonl",
                [{"id": i, "response": long_response(seed, i, language[i]), "latency_s": 0.0}
                 for i in language if i in prefilled],
            )
            (work / "endpoint.json").write_text(json.dumps({
                "base_url": f"http://127.0.0.1:{port}/",
                "model": "stub",
                "credential_env": CREDENTIAL_ENV,
                "timeout_s": 30,
                "max_in_flight": 2,
                "retry_backoff_s": 0,
            }), encoding="utf-8")
            pending = [i for i in language if i not in prefilled]
            faults = {i: fault_of(seed, i) for i in pending}
            permanent = sorted(i for i, f in faults.items() if f == "permanent")
            _manifest(
                work,
                passes=[[
                    "collect", str(instr_path), str(work / "endpoint.json"),
                    "-o", str(work / "journal.jsonl"), "--jobs", "2",
                ]],
                exit_codes=[3 if permanent else 0],
                outputs=["journal.jsonl", "journal.jsonl.errors.jsonl", "stats.json"],
                items=len(pending),
                rules=sum(len(ins.rules) for ins in instructions),
                stats_url=f"http://127.0.0.1:{port}/stats",
            )
        except BaseException:
            self.teardown(state)
            raise
        state.update(
            seed=seed,
            language=language,
            expected_attempts={i: 2 if f == "transient" else 1 for i, f in faults.items()},
            permanent=permanent,
        )
        return state

    def teardown(self, state: dict[str, Any]) -> None:
        proc = state.get("stub")
        if proc is not None and proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if state.get("stub_log"):
            state["stub_log"].close()

    def before_pass(self, work: Path, manifest: dict[str, Any]) -> None:
        shutil.copyfile(work / "journal.prefill.jsonl", work / "journal.jsonl")
        (work / "journal.jsonl.errors.jsonl").unlink(missing_ok=True)
        _fetch_stats(manifest["stats_url"])  # zero the stub's counters

    def after_pass(self, work: Path, manifest: dict[str, Any], tag: str) -> None:
        (work / "stats.json").write_text(json.dumps(_fetch_stats(manifest["stats_url"])), encoding="utf-8")
        super().after_pass(work, manifest, tag)

    def trace_extras(self, work: Path, manifest: dict[str, Any], tags: list[str]) -> dict[str, float]:
        attempts = retries = connections = 0
        for tag in tags:
            stats = json.loads((work / f"stats.json.{tag}").read_text(encoding="utf-8"))
            counts = stats["attempts"].values()
            attempts += sum(counts)
            retries += sum(counts) - len(counts)
            connections += stats["connections"]
        n = len(tags)
        return {
            "collect.attempts": attempts / n,
            "collect.retries": retries / n,
            "collect.connections": connections / n,
        }

    def gate(self, work: Path, state: dict[str, Any], journey: dict[str, Any]) -> GateResult:
        from gates import check_collect_pass

        result = GateResult(checked=len(state["expected_attempts"]) * len(journey["tags"]))
        expected_texts = {
            i: long_response(state["seed"], i, lang) for i, lang in state["language"].items()
        }
        state["lengths"] = length_stats([expected_texts[i] for i in state["expected_attempts"]])
        for tag in journey["tags"]:
            journal = read_jsonl(work / f"journal.jsonl.{tag}")
            sidecar = read_jsonl(work / f"journal.jsonl.errors.jsonl.{tag}")
            stats = json.loads((work / f"stats.json.{tag}").read_text(encoding="utf-8"))
            check_collect_pass(tag, journal, sidecar, stats, state, expected_texts, result)
        return result


def _fetch_stats(url: str) -> dict[str, Any]:
    with urllib.request.urlopen(url, timeout=10) as response:
        return json.loads(response.read())


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        ScoreWorkload("score-short", long_form=False),
        ScoreWorkload("score-long", long_form=True),
        GenerateMergeWorkload(),
        CollectWorkload(),
    )
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env[CREDENTIAL_ENV] = "bench-key"
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
    return env
