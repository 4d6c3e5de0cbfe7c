"""The package's public name list stays in step with what the package has."""

import splitbreg


def test_every_export_resolves_once():
    # a deleted name left in __all__ would break only `from splitbreg import *`
    assert len(set(splitbreg.__all__)) == len(splitbreg.__all__)
    for name in splitbreg.__all__:
        assert getattr(splitbreg, name, None) is not None, name
