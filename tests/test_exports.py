"""The package's public names: ``iostack.__all__`` against what ``__init__`` binds."""

from __future__ import annotations

import types

import iostack


def test_every_listed_name_resolves():
    missing = [name for name in iostack.__all__ if not hasattr(iostack, name)]
    assert missing == []


def test_no_name_is_listed_twice():
    assert len(set(iostack.__all__)) == len(iostack.__all__)


def test_every_public_name_is_listed():
    bound = {
        name
        for name, value in vars(iostack).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert bound - set(iostack.__all__) == set()
