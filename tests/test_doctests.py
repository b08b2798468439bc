"""The module doctests, run with the tests: ``testpaths`` does not collect
examples in ``src``, so each module's are run here."""

import ast
import doctest
import importlib
import pkgutil
import re
from fractions import Fraction
from pathlib import Path

import pytest

import ptlab
from ptlab import perms as pm

MODULES = ["ptlab"] + sorted(info.name for info in pkgutil.iter_modules(ptlab.__path__, "ptlab."))


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests_pass(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, f"{result.failed} of {result.attempted} examples failed"


def test_the_documented_examples_run():
    # a docstring whose examples stop parsing would pass with none attempted
    tests = {t.name: t for t in doctest.DocTestFinder().find(pm)}
    runner = doctest.DocTestRunner()
    for name in ("index_decompose", "gamma_lcm_data"):
        result = runner.run(tests[f"ptlab.perms.{name}"])
        assert result.attempted > 0 and result.failed == 0, name


def test_readme_library_tour_values():
    # every commented value in README's Library tour is what the line returns
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    source = re.search(r"## Library tour\n\n```python\n(.*?)```", readme, re.S).group(1)
    lines = source.splitlines()
    scope = {}
    exec(source, scope)
    checked = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr):
            expected = lines[node.lineno - 1].partition("#")[2].split(";")[0]
            value = eval(ast.unparse(node), scope)
            assert value == eval(expected, scope), ast.unparse(node)
            checked.append(value)
    assert checked == [Fraction(23, 18), Fraction(5, 18), 40]
    M = P = 12  # the comment on count_agreements: kappa_2 = (P/M) * 40 / M^2
    assert checked[1] == Fraction(P, M) * checked[2] / M**2
