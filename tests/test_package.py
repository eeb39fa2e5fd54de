"""The package's public surface: every exported name resolves."""

from __future__ import annotations

import lexcheck


def test_every_exported_name_resolves():
    missing = [name for name in lexcheck.__all__ if not hasattr(lexcheck, name)]
    assert missing == []
    assert len(set(lexcheck.__all__)) == len(lexcheck.__all__)
