"""Run every module's doctests as part of the suite."""

import doctest

import pytest

import weylkit._exact
import weylkit.charring
import weylkit.cli
import weylkit.coxeter
import weylkit.hecke
import weylkit.icstalk
import weylkit.lattice
import weylkit.lcf

MODULES = [
    weylkit._exact,
    weylkit.lattice,
    weylkit.coxeter,
    weylkit.hecke,
    weylkit.charring,
    weylkit.lcf,
    weylkit.icstalk,
    weylkit.cli,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    result = doctest.testmod(module)
    assert result.failed == 0
    assert result.attempted > 0
