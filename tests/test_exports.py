"""Every module's ``__all__`` lists exactly what the module defines in public."""

import inspect

import pytest

import nchv
from nchv import basisfamily, cli, errors, kscheck, opcore, pba, povmfamily, simulator

MODULES = [errors, opcore, basisfamily, pba, povmfamily, simulator, kscheck, cli]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_matches_the_public_definitions(module):
    listed = module.__all__
    assert [name for name in listed if not hasattr(module, name)] == []
    public = [name for name, obj in vars(module).items()
              if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
              and obj.__module__ == module.__name__]
    assert [name for name in public if name not in listed] == []


def test_package_reexports_only_listed_names():
    exported = {name: obj for name, obj in vars(nchv).items()
                if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))}
    assert exported
    assert [name for name, obj in exported.items()
            if name not in getattr(inspect.getmodule(obj), "__all__", ())] == []


@pytest.mark.parametrize("module, name", [
    (simulator, "born_probabilities"),
    (simulator, "joint_probability"),
    (opcore, "commutator"),
    (opcore, "check_projection"),
    (opcore, "basis_from_json"),
    (basisfamily, "totally_incompatible"),
    (opcore.OrthonormalBasis, "vector"),
])
def test_names_only_tests_called_are_gone(module, name):
    assert not hasattr(module, name)
    assert not hasattr(nchv, name)
