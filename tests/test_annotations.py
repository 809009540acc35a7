"""Every annotation in the package resolves.

The modules use `from __future__ import annotations`, so an annotation that
names something never imported only fails when it is resolved. This test
resolves all of them with `typing.get_type_hints`, standing in for a linter.
"""

import importlib
import inspect
import typing

import pytest

MODULES = ["cli", "frobenius", "fsing", "graded", "ideals", "linalg", "ring", "verifier"]


def _annotated(module):
    """(qualified name, object) for each function, class and method the module defines."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            yield name, obj
            for attr, member in vars(obj).items():
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                if isinstance(member, property):
                    member = member.fget
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


@pytest.mark.parametrize("module_name", MODULES)
def test_type_hints_resolve(module_name):
    module = importlib.import_module(f"fthresh.{module_name}")
    checked = 0
    failures = []
    for name, obj in _annotated(module):
        checked += 1
        try:
            typing.get_type_hints(obj)
        except Exception as exc:
            failures.append(f"{name}: {type(exc).__name__}: {exc}")
    assert checked
    assert failures == []
