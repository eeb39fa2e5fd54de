"""The README's quick-start scripts run from a checkout and do what it says."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
