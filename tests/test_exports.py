"""arcmatch's package-level names are imported lazily, on first use.

A stale entry in arcmatch._EXPORTS (a name its module no longer defines)
would fail only when someone first used it, so every exported name is
resolved here.
"""

import importlib

import pytest

import arcmatch


def test_every_exported_name_resolves_through_the_lazy_getattr():
    assert arcmatch.__all__
    for name in arcmatch.__all__:
        module = importlib.import_module(f"arcmatch.{arcmatch._MODULE_OF[name]}")
        assert getattr(arcmatch, name) is getattr(module, name), name


def test_a_name_that_is_not_exported_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'load_triples'"):
        arcmatch.load_triples
