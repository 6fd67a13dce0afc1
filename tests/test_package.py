"""The package's public names are its submodules' public names."""

from importlib import import_module

import vecroute

SUBMODULES = ("tensor", "reference", "optimized", "credit", "params_io", "memtrack")


def test_package_all_is_the_union_of_the_submodules_all():
    modules = [import_module(f"vecroute.{name}") for name in SUBMODULES]
    union = set().union(*(module.__all__ for module in modules))
    assert len(vecroute.__all__) == len(set(vecroute.__all__))
    assert set(vecroute.__all__) == union
    for module in modules:
        for name in module.__all__:
            assert getattr(vecroute, name) is getattr(module, name), (module.__name__, name)

