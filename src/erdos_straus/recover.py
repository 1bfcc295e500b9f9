"""Recovery of the certifying witness from a known solution.

Witness search (the witness module) goes from (x, d) to a solution;
this module goes back: given a genuine solution (p, x, y, z), the
solution fixes its own type (TYPE_II iff p | y) and the unique d whose
witness rebuilds exactly (y, z), with q = 4*x - p:

  type I : d = q*y - p*x
  type II: d = q*(y/p) - x

Every property the characterization promises about d is re-derived
rather than assumed, each tested once; a failure raises
CorrespondenceError because it would be a counterexample, not a usage
problem. check_correspondences drives the full two-way comparison
against the brute-force oracle, under the oracle's default cap of
100,000 on p. It builds each witness once, which certifies its
solution, and re-derives the witness from that solution (the forward
round trip). An oracle solution equal to one that round-tripped
forward round-trips backward by the same derivation and build. Each
other oracle solution has its witness derived from (x, y) by
_derive_witness and built once, which must give back its z.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from .errors import CorrespondenceError, DomainError, InvalidSolutionError
from .oracle import _solutions_x_major
from .witness import (
    SolutionType,
    Witness,
    _require_prime,
    _witnesses_x_major,
    _x_bounds,
    build_solution,
    verify_identity,
)

__all__ = [
    "classify_solution",
    "recover_witness",
    "check_correspondences",
]


def classify_solution(p: int, x: int, y: int, z: int) -> SolutionType:
    """TYPE_II iff p | y, TYPE_I otherwise, for a verified solution."""
    _require_prime(p)
    if not (1 <= x <= y <= z):
        raise InvalidSolutionError(f"not ordered positive: {(x, y, z)}")
    if not verify_identity(p, x, y, z):
        raise InvalidSolutionError(f"identity fails for p={p}, {(x, y, z)}")
    return SolutionType.TYPE_II if y % p == 0 else SolutionType.TYPE_I


def _solution_prefix_z(p: int, x: int, y: int) -> int:
    """The unique z completing (x, y) to a solution, or DomainError.

    z = p*x*y / (4*x*y - p*(x + y)) must be a positive exact integer
    with x <= y <= z; anything else means the input is not a solution.
    """
    if x < 1 or y < 1:
        raise DomainError(f"x and y must be positive, got {(x, y)}")
    if y < x:
        raise DomainError(f"solutions are normalized x <= y, got {(x, y)}")
    den = 4 * x * y - p * (x + y)
    if den <= 0 or (p * x * y) % den != 0:
        raise DomainError(f"no z completes p={p}, x={x}, y={y}")
    z = (p * x * y) // den
    if z < y:
        raise DomainError(f"completion z={z} breaks ordering for y={y}")
    return z


def _derive_witness(p: int, x: int, y: int) -> tuple[Witness, int]:
    """The witness read from the solution (x, y, z) of 4/p, and that z.

    recover_witness without its primality test of p and its rebuild
    check: p must already be proven prime.
    """
    z = _solution_prefix_z(p, x, y)
    q = 4 * x - p
    if y % p:
        t, d = SolutionType.TYPE_I, q * y - p * x
    else:
        t, d = SolutionType.TYPE_II, q * (y // p) - x
    if d < 1:
        raise CorrespondenceError(f"recovered d={d} < 1 for p={p}, x={x}, y={y}")
    if (x * x) % d != 0:
        raise CorrespondenceError(f"recovered d={d} does not divide {x}**2")
    lo, hi = _x_bounds(p)
    if not lo <= x <= hi:
        raise CorrespondenceError(f"solution x={x} outside [{lo}, {hi}] for p={p}")
    if t is SolutionType.TYPE_I:
        congruent = (p * x + d) % q == 0
    else:
        congruent = d <= x and (x + d) % q == 0
    if not congruent:
        raise CorrespondenceError(f"type {t.value} congruence fails for recovered d={d}")
    return Witness(p, x, d, t), z


def recover_witness(p: int, x: int, y: int) -> Witness:
    """The unique witness of the solution (x, y, z) of 4/p, given p, x, y.

    The type is read from the solution, TYPE_II iff p | y. Re-derives
    d (see the module docstring) and checks d >= 1, d | x*x, the x
    range, the type's congruence (which includes d <= x for type II),
    and that the rebuilt solution reproduces (y, z).
    """
    _require_prime(p)
    w, z = _derive_witness(p, x, y)
    rebuilt = build_solution(w)
    if (rebuilt.y, rebuilt.z) != (y, z):
        raise CorrespondenceError(
            f"rebuild mismatch: witness {w} gives {(rebuilt.y, rebuilt.z)}, "
            f"solution has {(y, z)}"
        )
    return w


def _listing(side: Counter) -> str:
    return "[" + ", ".join(f"{t.value} {s}" for t, s in sorted(side.elements())) + "]"


def check_correspondences(primes: Sequence[int]) -> list[str]:
    """Two-way comparison of witness search against the brute-force oracle.

    Returns the violation descriptions of each of the strictly
    ascending primes, in order (empty means the correspondence is
    perfect for every one). For each prime p:

      - the witness-built solutions and the oracle's solutions, each
        counted by (type, triple), are the same multiset; a solution
        built twice or listed twice counts 2 and differs (bijection);
      - forward round-trip: witness -> solution -> recovered witness
        is the identity;
      - backward round-trip: oracle solution -> witness -> rebuilt
        solution is the identity.

    The witnesses of all the primes come from one x-major walk, grouped
    by prime, so each x is factored once for every prime it serves. The
    oracle's solutions come prime by prime from its own x-major walk,
    and each prime's witnesses are dropped once the prime is checked.
    The oracle's default cap applies: ResourceLimitError for a prime
    past 100,000. The oracle checks order, and the cap on the largest
    prime, before either walk starts.
    """
    for p in primes:
        _require_prime(p)
    oracle = _solutions_x_major(primes)
    found: dict[int, list[Witness]] = {p: [] for p in primes}
    for w in _witnesses_x_major(primes):
        found[w.p].append(w)
    return [
        line
        for p, solutions in oracle
        for line in _correspondence_problems(p, found.pop(p), solutions)
    ]


def _correspondence_problems(
    p: int, witnesses: list[Witness], solutions: list[tuple[int, int, int]]
) -> list[str]:
    """The violations check_correspondences lists for p, from its witnesses and solutions."""
    problems: list[str] = []

    # A forward trip that re-derives w makes recover_witness on its
    # solution return w, rebuilt to the same certified solution.
    round_tripped: dict[tuple[int, int, int], Witness] = {}
    witness_side: Counter[tuple[SolutionType, tuple[int, int, int]]] = Counter()
    for w in witnesses:
        s = build_solution(w)
        triple = (s.x, s.y, s.z)
        witness_side[s.type, triple] += 1
        try:
            back, _ = _derive_witness(p, s.x, s.y)
        except (DomainError, CorrespondenceError) as exc:
            problems.append(f"p={p}: forward round-trip failed for {w}: {exc}")
            continue
        if back != w:
            problems.append(f"p={p}: forward round-trip {w} -> {s} -> {back}")
            continue
        round_tripped[triple] = w

    oracle_side: Counter[tuple[SolutionType, tuple[int, int, int]]] = Counter()
    for x, y, z in solutions:
        w = round_tripped.get((x, y, z))
        if w is None:
            try:
                w, _ = _derive_witness(p, x, y)
            except (DomainError, CorrespondenceError) as exc:
                problems.append(f"p={p}: backward recovery failed for {(x, y, z)}: {exc}")
                continue
            # The derivation reads only (x, y), so a wrong z shows here.
            s = build_solution(w)
            if (s.x, s.y, s.z) != (x, y, z):
                problems.append(
                    f"p={p}: backward round-trip {(x, y, z)} -> {w} -> {(s.x, s.y, s.z)}"
                )
        oracle_side[w.type, (x, y, z)] += 1

    if witness_side != oracle_side:
        problems.append(
            f"p={p}: solutions differ (oracle-only {_listing(oracle_side - witness_side)}, "
            f"witness-only {_listing(witness_side - oracle_side)})"
        )
    return problems
