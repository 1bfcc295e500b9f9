"""The package's public surface: each module's __all__, re-exported once."""

import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import erdos_straus
from erdos_straus import arith, errors, oracle, recover, report, scan, witness

MODULES = (arith, errors, oracle, recover, report, scan, witness)

# The whole public surface, sorted: a name that appears or vanishes fails here.
PUBLIC_NAMES = [
    "ConsistencyError",
    "CorrespondenceError",
    "DEFAULT_CAP",
    "DomainError",
    "ErdosStrausError",
    "HARD_RESIDUES_840",
    "InvalidSolutionError",
    "ResourceLimitError",
    "ScanRecord",
    "ScanReport",
    "ScanStream",
    "Solution",
    "SolutionType",
    "Witness",
    "__version__",
    "build_solution",
    "check_correspondences",
    "check_divisor_k_rule",
    "check_k0_type1_rule",
    "check_type1",
    "check_type2",
    "classify_solution",
    "divisors",
    "divisors_of_square",
    "factorize",
    "figure_points",
    "first_witness",
    "is_prime",
    "iter_witnesses",
    "k_table",
    "k_table_csv",
    "k_table_json",
    "points_csv",
    "primes_in_range",
    "record_line",
    "recover_witness",
    "render_scatter",
    "residue_stats",
    "scan_primes",
    "solve_bruteforce",
    "summary_line",
    "verify_identity",
    "x_range",
]


def test_public_names_are_pinned():
    assert sorted(erdos_straus.__all__) == PUBLIC_NAMES


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


@pytest.mark.parametrize("module", ["multiprocessing", "dataclasses", "inspect"])
def test_cli_import_leaves_module_unloaded(module):
    # Only a scan pool needs multiprocessing; the result types are named tuples,
    # so no CLI start pays for dataclasses and the inspect it imports.
    assert _run_fresh(f"import sys, erdos_straus.cli; print({module!r} in sys.modules)") == "False\n"


def _run_fresh(code: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_only_compare_table_and_figure_load_recover_and_report():
    # Package names are bound on first use, so a command loads only what it runs.
    code = (
        "import contextlib, io, sys\n"
        "from erdos_straus.cli import main\n"
        "def loaded(*argv):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):\n"
        "        assert not argv or main(list(argv)) == 0\n"
        "    return [m for m in ('recover', 'report') if 'erdos_straus.' + m in sys.modules]\n"
        "print(loaded(), loaded('scan', '2', '3'), loaded('properties', '3'))\n"
        "print(loaded('compare', '2', '10'), loaded('table', '1', '--hi', '10'))\n"
    )
    assert _run_fresh(code) == "[] [] []\n['recover'] ['recover', 'report']\n"


def test_first_lookup_binds_modules_and_only_known_names():
    code = (
        "import sys\n"
        "import erdos_straus as es\n"
        "print(es.scan is sys.modules['erdos_straus.scan'])\n"
        "print(hasattr(es, 'no_such_name'), set(es.__all__) <= set(dir(es)))\n"
    )
    assert _run_fresh(code) == "True\nFalse True\n"


def test_result_type_reprs_are_pinned():
    # ConsistencyError, CorrespondenceError and compare's violation lines embed these.
    w = erdos_straus.first_witness(73)
    assert repr(w) == "Witness(p=73, x=20, d=1, type=<SolutionType.TYPE_II: 'II'>)"
    assert repr(erdos_straus.build_solution(w)) == (
        "Solution(p=73, x=20, y=219, z=4380, type=<SolutionType.TYPE_II: 'II'>)"
    )


def test_result_types_are_immutable():
    w = erdos_straus.first_witness(73)
    report = erdos_straus.scan_primes(2, 100)
    for obj in (w, erdos_straus.build_solution(w), report.records[0], report):
        for name in obj._fields:
            with pytest.raises(AttributeError):
                setattr(obj, name, None)


def test_equal_witnesses_hash_alike():
    a = erdos_straus.first_witness(73)
    b = erdos_straus.Witness(73, 20, 1, erdos_straus.SolutionType.TYPE_II)
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_version_matches_pyproject():
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        assert erdos_straus.__version__ == tomllib.load(fh)["project"]["version"]
