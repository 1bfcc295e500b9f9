"""Brute-force oracle: exactness, ordering, pinned output, batches, independence."""

import ast
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erdos_straus import (
    DomainError,
    ResourceLimitError,
    primes_in_range,
    solve_bruteforce,
    verify_identity,
)
from erdos_straus.oracle import _solutions_x_major

ORACLE_SRC = Path(__file__).parents[1] / "src" / "erdos_straus" / "oracle.py"


def reference_solver(n: int) -> list[tuple[int, int, int]]:
    """Deliberately dumb independent enumeration for small n.

    Walks a generous rectangle and solves for z, sharing none of the
    production oracle's bound algebra. Termination rests only on
    monotonicity: den = 4xy - n(x+y) never rises once its slope in y
    is nonpositive, and z = nxy/den only sinks once it falls below y.
    """
    out = []
    for x in range(1, n + 2):
        for y in range(x, 12 * n * n + 2):
            den = 4 * x * y - n * (x + y)
            if den <= 0:
                if 4 * x - n <= 0:
                    break  # den can only fall as y grows
                continue
            num = n * x * y
            if num < den * y:
                break  # z < y here and z only shrinks from now on
            if num % den == 0:
                out.append((x, y, num // den))
    return out


class TestSpotValues:
    def test_small_n(self):
        assert solve_bruteforce(2) == [(1, 2, 2)]
        assert solve_bruteforce(4) == [(2, 3, 6), (2, 4, 4), (3, 3, 3)]
        assert solve_bruteforce(5) == [(2, 4, 20), (2, 5, 10)]

    def test_p73_has_no_solution_at_x19(self):
        sols = solve_bruteforce(73)
        assert all(x != 19 for x, _, _ in sols)
        assert sum(1 for x, y, _ in sols if x == 19 and y % 73 != 0) == 0

    def test_domain_guards(self):
        with pytest.raises(DomainError):
            solve_bruteforce(1)
        with pytest.raises(DomainError):
            solve_bruteforce(0)
        with pytest.raises(ResourceLimitError):
            solve_bruteforce(100_001)
        assert solve_bruteforce(150, cap=150)  # cap is adjustable


class TestAgainstReference:
    def test_exhaustive_sweep_small(self):
        for n in range(2, 151):
            assert solve_bruteforce(n) == reference_solver(n), n

    @given(st.integers(min_value=2, max_value=150))
    @settings(max_examples=25, deadline=None)
    def test_sampled(self, n):
        assert solve_bruteforce(n) == reference_solver(n)


class TestBatch:
    """One x-major walk over many n says what solve_bruteforce says per n."""

    def test_dense_batch_small(self):
        ns = range(2, 151)
        batch = list(_solutions_x_major(ns))
        assert [n for n, _ in batch] == list(ns)
        for n, sols in batch:
            assert sols == solve_bruteforce(n) == reference_solver(n), n

    # reference_solver takes about 0.4 s for one n near 1500, so the
    # 80 primes in [1000, 1500] are held to solve_bruteforce alone.
    @pytest.mark.parametrize(
        "ns, with_reference",
        [([2], True), ([97], True), ([5, 997, 1499], True), (primes_in_range(1000, 1500), False)],
        ids=["2", "97", "5-997-1499", "primes-1000-1500"],
    )
    def test_sparse_batches(self, ns, with_reference):
        batch = list(_solutions_x_major(ns))
        assert [n for n, _ in batch] == list(ns)
        for n, sols in batch:
            assert sols == solve_bruteforce(n), n
            if with_reference:
                assert sols == reference_solver(n), n

    def test_guards(self):
        assert list(_solutions_x_major([])) == []
        for bad in ([5, 3], [3, 3], [1, 5], [0], [2, 7, 7]):
            with pytest.raises(DomainError):
                _solutions_x_major(bad)
        # raised by the call itself, before the walk yields anything
        with pytest.raises(ResourceLimitError):
            _solutions_x_major([5, 151], cap=150)
        assert [n for n, _ in _solutions_x_major([5, 150], cap=150)] == [5, 150]


class TestInvariants:
    @given(st.integers(min_value=2, max_value=400))
    @settings(max_examples=60, deadline=None)
    def test_every_triple_is_a_normalized_solution(self, n):
        sols = solve_bruteforce(n)
        assert sols == sorted(sols)
        assert len(set(sols)) == len(sols)
        for x, y, z in sols:
            assert 1 <= x <= y <= z
            assert verify_identity(n, x, y, z)

    def test_nonempty_for_every_small_n(self):
        for n in range(2, 300):
            assert solve_bruteforce(n), n


class TestPinnedOutput:
    def test_n_2_to_300(self):
        # Measured on the earlier numpy-backed oracle; any change in the
        # triples, their order or their count moves the digest.
        digest = hashlib.sha256()
        total = 0
        for n in range(2, 301):
            sols = solve_bruteforce(n)
            total += len(sols)
            digest.update(repr((n, sols)).encode())
        assert total == 50_602
        assert digest.hexdigest() == (
            "00f92e2c09195ab31c899f33b128b0ef8d3e51a7f198f56b7fe8f4676be49b61"
        )


def test_package_does_not_import_numpy():
    src = Path(__file__).parents[1] / "src"
    code = (
        "import sys\n"
        "import erdos_straus, erdos_straus.cli\n"
        "assert erdos_straus.solve_bruteforce(47)\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr


def test_oracle_imports_only_stdlib_and_errors():
    # The two routes agree meaningfully only if the oracle shares no
    # code with arith, witness or recover.
    tree = ast.parse(ORACLE_SRC.read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(0, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append((node.level, node.module))
    assert (1, "errors") in imported
    for level, module in imported:
        if level:
            assert (level, module) == (1, "errors"), module
        else:
            assert module.split(".")[0] in sys.stdlib_module_names, module
