"""Tests for the package's public namespace."""

import taalkit


def test_every_exported_name_resolves():
    missing = [name for name in taalkit.__all__ if not hasattr(taalkit, name)]
    assert missing == []
    assert len(set(taalkit.__all__)) == len(taalkit.__all__)
