"""Export lists: every listed name exists, and none is listed twice."""

import importlib
import pkgutil

import pytest

import mquilt
from mquilt import mechanism, oracle

MODULES = ["mquilt"] + [
    f"mquilt.{m.name}"
    for m in pkgutil.iter_modules(mquilt.__path__)
    if m.name != "errors"  # the error classes are imported by name, not exported
]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve_without_duplicates(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported)), sorted(
        n for n in set(exported) if exported.count(n) > 1
    )
    assert [n for n in exported if not hasattr(module, n)] == []


def test_brute_force_scorer_lives_in_the_oracle():
    for name in ("score", "enumerate_quilts"):
        assert name in oracle.__all__
        assert name not in mechanism.__all__
        assert not hasattr(mechanism, name)
