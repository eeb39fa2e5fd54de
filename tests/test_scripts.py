"""The README's quick-start scripts run from a checkout and do what it says."""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import make_text, write_responses
from lexcheck.generate import GenConfig, generate_dataset
from lexcheck.records import write_instructions

ROOT = Path(__file__).resolve().parents[1]


def _run(script: str, *args: str, cwd: Path, **env_vars: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **env_vars)
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def test_demo_end_to_end_prints_its_accuracy_tables(tmp_path):
    done = _run("demo_end_to_end.py", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    for title in ("Accuracy by language (%)", "Accuracy by difficulty (%)", "Strict accuracy by procedure depth"):
        assert title in done.stdout
    assert "Overall" in done.stdout


#: sha256 of the released benchmark files, as built by the default seeds
BENCHMARK_SHA256 = {
    "en": "71ab34239360dd8fa111d335e22d87bb76f4fe508f0efa13505b1ba66eadc3ca",
    "zh": "62e50496fa70caac33ac065161e1a010d1112b5df70019e0d7af676badb207af",
}


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_build_benchmark_writes_the_full_datasets(tmp_path, hash_seed):
    """Two string-hash seeds: a table built by iterating a set would differ
    between them, so the pins would fail under one of the two."""
    out = tmp_path / "benchmark"
    done = _run("build_benchmark.py", "-o", str(out), cwd=tmp_path, PYTHONHASHSEED=hash_seed)
    assert done.returncode == 0, done.stderr
    files = {language: (out / f"instructions_{language}.jsonl").read_bytes() for language in ("en", "zh")}
    assert {language: len(data.splitlines()) for language, data in files.items()} == {"en": 1243, "zh": 1232}
    assert {language: hashlib.sha256(data).hexdigest() for language, data in files.items()} == BENCHMARK_SHA256
    for language, digest in BENCHMARK_SHA256.items():
        assert f"instructions_{language}.jsonl: " in done.stdout
        assert f"easy/medium/hard) sha256 {digest}\n" in done.stdout
    assert "built 2475 instructions" in done.stdout


def test_report_digests_prints_one_digest_per_report(tmp_path):
    """Eight reports, two merges and the instructions' round trip, each named
    by its settings; the loose and strict-only structured reports differ,
    --jobs 2 and the default --jobs write the jobs=1 bytes, a file
    `write_instructions` wrote comes back byte for byte, and every line is
    the same under two string-hash seeds."""
    # 99 instructions are 4 chunks of `score`: up to 4 processes score them
    instructions = generate_dataset(GenConfig(seed=5, language="en", easy=33, medium=33, hard=33))
    rng = random.Random(5)
    write_instructions(tmp_path / "ins.jsonl", instructions)
    write_responses(tmp_path / "res.jsonl", [{"id": ins.id, "response": make_text(rng, "en")} for ins in instructions])
    runs = [_run("report_digests.py", "ins.jsonl", "res.jsonl", cwd=tmp_path, PYTHONHASHSEED=seed) for seed in "01"]
    for done in runs:
        assert done.returncode == 0, done.stderr
    assert runs[0].stdout == runs[1].stdout
    digests = dict(line.split(": ") for line in runs[0].stdout.splitlines())
    assert list(digests) == [
        f"{fmt} {mode} jobs=1" for mode in ("loose", "strict-only") for fmt in ("structured", "table", "csv")
    ] + [
        "structured loose jobs=2", "structured loose jobs=default",
        "merge table", "merge structured", "instructions round trip",
    ]
    assert all(len(d) == 64 for d in digests.values())
    assert digests["structured loose jobs=2"] == digests["structured loose jobs=1"]
    assert digests["structured loose jobs=default"] == digests["structured loose jobs=1"]
    assert digests["structured loose jobs=1"] != digests["structured strict-only jobs=1"]
    assert digests["instructions round trip"] == hashlib.sha256((tmp_path / "ins.jsonl").read_bytes()).hexdigest()
    assert len(set(digests.values())) == len(digests) - 2  # only the other --jobs repeat a digest
    assert set(os.listdir(tmp_path)) == {"ins.jsonl", "res.jsonl"}  # the reports went to a temporary directory
