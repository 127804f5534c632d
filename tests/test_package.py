"""Tests for the package surface: submodules stay reachable under their own names."""

import importlib
import sys

import pytest

import pooltest

SUBMODULES = ("bounds", "cli", "decode", "design", "disguise", "model", "serialize", "sim")


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_not_shadowed(name):
    importlib.import_module(f"pooltest.{name}")
    assert getattr(pooltest, name) is sys.modules[f"pooltest.{name}"]


def test_every_exported_name_resolves():
    for name in pooltest.__all__:
        assert hasattr(pooltest, name), name


def test_import_as_binds_the_module():
    import pooltest.decode as m

    assert m is sys.modules["pooltest.decode"]
    assert callable(m.decode_mask)


def test_removed_names_not_exported():
    assert len(pooltest.__all__) == 38
    for name in ("DefectiveSet", "OutcomeVector", "from_dict"):
        assert name not in pooltest.__all__ and not hasattr(pooltest, name)
