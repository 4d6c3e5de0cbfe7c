"""The package's public name list stays in step with what the package has."""

import importlib
import types

import splitbreg


def test_every_export_resolves_once():
    # a deleted name left in __all__ would break only `from splitbreg import *`
    assert len(set(splitbreg.__all__)) == len(splitbreg.__all__)
    for name in splitbreg.__all__:
        assert getattr(splitbreg, name, None) is not None, name


def test_star_import_binds_exactly_all_and_no_module():
    namespace = {}
    exec("from splitbreg import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == splitbreg.__all__
    for name, value in namespace.items():
        assert not isinstance(value, types.ModuleType), name
        # the object its defining submodule holds under the same name
        owner = importlib.import_module(value.__module__)
        assert owner.__name__.startswith("splitbreg."), name
        assert getattr(owner, name) is value, name
