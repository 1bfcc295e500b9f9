"""The package's public surface: each module's __all__, re-exported once."""

import inspect
import subprocess
import sys
from pathlib import Path

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


def test_no_module_names_the_benchmark_harness():
    # The program serves its own callers; the tracer wraps whatever names
    # the modules bind, and no module is shaped around it.
    src = Path(erdos_straus.__file__).parent
    for path in sorted(src.glob("*.py")):
        assert "perfbench" not in path.read_text(encoding="utf-8"), path.name


def test_cli_import_leaves_multiprocessing_unloaded():
    # Only a scan pool needs multiprocessing, and importing it costs every CLI start.
    code = "import sys, erdos_straus.cli; print('multiprocessing' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
