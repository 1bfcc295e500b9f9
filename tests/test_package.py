"""The package's public surface: each module's __all__, re-exported once."""

import inspect

import erdos_straus
from erdos_straus import arith, errors, oracle, recover, report, scan, witness

MODULES = (arith, errors, oracle, recover, report, scan, witness)


def test_all_is_version_plus_every_module_all_without_repeats():
    names = erdos_straus.__all__
    assert len(names) == len(set(names))
    assert set(names) == {"__version__"}.union(*(m.__all__ for m in MODULES))


def test_each_name_is_its_modules_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(erdos_straus, name) is getattr(module, name), (module.__name__, name)


def test_exported_classes_and_functions_are_defined_where_exported():
    for module in MODULES:
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__module__ == module.__name__, (module.__name__, name)


def test_star_import_binds_exactly_all():
    ns: dict = {}
    exec("from erdos_straus import *", ns)
    assert set(ns) - {"__builtins__"} == set(erdos_straus.__all__)
