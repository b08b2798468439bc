"""The module doctests, run with the tests: ``testpaths`` does not collect
examples in ``src``, so each module's are run here."""

import doctest
import importlib
import pkgutil

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
