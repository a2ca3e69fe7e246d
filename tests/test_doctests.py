"""Run the docstring examples of every ``ddna`` module."""

from __future__ import annotations

import doctest
import importlib
import pkgutil

import pytest

import ddna

MODULES = ["ddna"] + [f"ddna.{info.name}" for info in pkgutil.iter_modules(ddna.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_doctests_pass(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, f"{result.failed} of {result.attempted} examples failed"


def test_core_examples_run():
    assert doctest.testmod(importlib.import_module("ddna.core")).attempted >= 5
