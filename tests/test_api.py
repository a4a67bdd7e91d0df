"""Export lists: every listed name exists, none is listed twice, and the
package re-exports each module's list; the README's library example runs
and prints what it states; only the CLI prints."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import mquilt
from mquilt import chains, composition, fit, influence, mechanism, oracle, storage

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


def test_package_exports_each_modules_names_in_order():
    # Each module's __all__ is the one list of its public names; the
    # package re-exports them all, the same objects, and nothing else but
    # the base error and the version.
    modules = [chains, influence, mechanism, composition, oracle, fit, storage]
    names = [n for module in modules for n in module.__all__]
    assert mquilt.__all__ == names + ["MquiltError", "__version__"]
    for module in modules:
        for n in module.__all__:
            assert getattr(mquilt, n) is getattr(module, n), (module.__name__, n)


def test_brute_force_scorer_lives_in_the_oracle():
    for name in ("score", "enumerate_quilts"):
        assert name in oracle.__all__
        assert name not in mechanism.__all__
        assert not hasattr(mechanism, name)


def test_readme_library_example_prints_what_it_states(capsys):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, str(readme), "exec"), {})
    noisy_sigma, composed, leakage = capsys.readouterr().out.splitlines()
    assert float(noisy_sigma.split()[1]) == pytest.approx(3.54, abs=5e-3)
    assert composed == "2.5 thm6"
    assert float(leakage) <= 2.0


@pytest.mark.parametrize("name", ["mquilt"] + [
    f"mquilt.{m.name}" for m in pkgutil.iter_modules(mquilt.__path__) if m.name != "cli"
])
def test_library_modules_do_not_print(name):
    # Library code reports through logging; only the command line prints.
    tree = ast.parse(Path(importlib.import_module(name).__file__).read_text())
    prints = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "print"
    ]
    assert prints == []
