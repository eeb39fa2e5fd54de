"""The benchmark's span tracer installs on the live lexcheck modules.

`bench/spans.py` patches lexcheck functions by name, so a change under
`src/` that removes a name the tracer reads breaks every traced benchmark
run while the untraced gates stay green.  This test reads `bench/` and
changes nothing there.
"""

from __future__ import annotations

import sys
from pathlib import Path

import lexcheck.cli  # noqa: F401  (loads every module the tracer patches)

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
