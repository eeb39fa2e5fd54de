"""The benchmark's span tracer installs on the live lexcheck modules.

`bench/spans.py` patches lexcheck functions by name, so a change under
`src/` that removes a name the tracer reads breaks every traced benchmark
run while the untraced gates stay green, and a name the program stops
calling in the process that runs the benchmark zeroes its rows.  These
tests read `bench/` and change nothing there.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import lexcheck.cli  # noqa: F401  (loads every module the tracer patches)
from helpers import count_forks, make_text, write_responses
from lexcheck.generate import GenConfig, generate_dataset
from lexcheck.records import write_instructions

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_and_uninstalls_on_the_live_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ under bench/
    from spans import WRAP_SITES, Tracer

    before = {name: dict(vars(sys.modules[name])) for name in WRAP_SITES}
    tracer = Tracer()
    tracer.install()
    try:
        assert sys.modules["lexcheck.cli"].score.__wrapped__ is before["lexcheck.cli"]["score"]
    finally:
        tracer.uninstall()
    assert {name: dict(vars(sys.modules[name])) for name in WRAP_SITES} == before


def test_scoring_from_files_in_two_processes_is_traced_here(monkeypatch, tmp_path):
    """The tracer wraps the names that `lexcheck.report` calls; scoring 36
    instructions from files with jobs=2 on 2 CPUs forks one child, and the
    calling process still calls each of them for its own share."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    from spans import NAME, Tracer

    instructions = generate_dataset(GenConfig(seed=33, language="en", easy=12, medium=12, hard=12))
    ins_path, res_path = tmp_path / "ins.jsonl", tmp_path / "res.jsonl"
    write_instructions(ins_path, instructions)
    rng = random.Random(33)
    write_responses(res_path, [{"id": ins.id, "response": make_text(rng)} for ins in instructions])
    forks = count_forks(monkeypatch, 2)
    tracer = Tracer()
    tracer.install()
    try:
        sys.modules["lexcheck.report"].score(ins_path, res_path, jobs=2)
    finally:
        tracer.uninstall()
    assert len(forks) == 1
    names = [span[NAME] for span in tracer.spans]
    for name in ("records.read_instructions", "records.read_responses", "report.aggregate"):
        assert names.count(name) == 1, name
    assert names.count("engine.verify_instruction") == 32  # chunk 0, this process's
