"""The package's public surface: every exported name resolves, and no
exported name hides a submodule."""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import lexcheck


def test_every_exported_name_resolves():
    missing = [name for name in lexcheck.__all__ if not hasattr(lexcheck, name)]
    assert missing == []
    assert len(set(lexcheck.__all__)) == len(lexcheck.__all__)


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(lexcheck.__path__)))
def test_submodule_is_not_shadowed(name):
    module = importlib.import_module(f"lexcheck.{name}")
    assert getattr(lexcheck, name) is module


def test_split_is_the_segment_splitter():
    assert lexcheck.split is lexcheck.segment.split


# modules that only `collect` (the HTTP stack) or `generate` (hashlib, which
# loads OpenSSL's libcrypto) use, and `requests`, which no command calls
_LOADED_ON_DEMAND = ("requests", "urllib3", "http.client", "ssl", "email", "hashlib")

_FRESH_RUN = """
import json, sys
from lexcheck.cli import main
codes = [main(["verify", "word# = 3"]), main(["score", *sys.argv[1:4]])]
print(json.dumps([codes, [name for name in sys.argv[4:] if name in sys.modules]]))
"""


def test_verify_and_score_load_no_http_stack_or_hashlib(tmp_path):
    instructions, responses, output = tmp_path / "i.jsonl", tmp_path / "r.jsonl", tmp_path / "out.json"
    record = {
        "id": "a", "language": "en", "prompt": "p", "rules": ["word# >= 2"],
        "difficulty": "easy", "depth": 1, "count": 1,
    }
    instructions.write_text(json.dumps(record) + "\n", encoding="utf-8")
    responses.write_text(json.dumps({"id": "a", "response": "two words"}) + "\n", encoding="utf-8")
    src = str(Path(lexcheck.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [str(instructions), str(responses), f"--output={output}", *_LOADED_ON_DEMAND]
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_RUN, *argv],
        input="three short words", capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("strict: pass\n")
    assert json.loads(proc.stdout.splitlines()[-1]) == [[0, 0], []]
    assert json.loads(output.read_text(encoding="utf-8"))["overall"]["n"] == 1
