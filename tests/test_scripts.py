"""The README's quick-start scripts run from a checkout and do what it says."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(script: str, *args: str, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
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


def test_build_benchmark_writes_the_full_datasets(tmp_path):
    out = tmp_path / "benchmark"
    done = _run("build_benchmark.py", "-o", str(out), cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    lines = {
        language: len((out / f"instructions_{language}.jsonl").read_text(encoding="utf-8").splitlines())
        for language in ("en", "zh")
    }
    assert lines == {"en": 1243, "zh": 1232}
    assert "built 2475 instructions" in done.stdout
