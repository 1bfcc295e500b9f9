"""Brute-force oracle: exactness, ordering, pinned output, and no numpy."""

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
    solve_bruteforce,
    verify_identity,
)


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
