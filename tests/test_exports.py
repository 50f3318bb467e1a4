"""Every module's ``__all__`` lists exactly what the module defines in public."""

import inspect

import pytest

from nchv import basisfamily, cli, kscheck, opcore, pba, povmfamily, simulator


@pytest.mark.parametrize("module", [opcore, basisfamily, pba, povmfamily, simulator, kscheck, cli],
                         ids=lambda m: m.__name__)
def test_all_matches_the_public_definitions(module):
    listed = module.__all__
    assert [name for name in listed if not hasattr(module, name)] == []
    public = [name for name, obj in vars(module).items()
              if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
              and obj.__module__ == module.__name__]
    assert [name for name in public if name not in listed] == []
