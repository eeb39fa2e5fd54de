"""The package's public surface: every exported name resolves, and no
exported name hides a submodule."""

from __future__ import annotations

import importlib
import pkgutil

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
