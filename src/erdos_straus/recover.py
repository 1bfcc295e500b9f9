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
100,000 on p. Both routes walk x upward, so it meets them pair by pair:
at each (x, p) it builds each witness once, which certifies its
solution, and re-derives the witness from that solution (the forward
round trip). An oracle solution equal to one that round-tripped
forward round-trips backward by the same derivation and build. Each
other oracle solution has its witness derived from (x, y) by
_derive_witness and built once, which must give back its z. Only the
pair at hand and the faults found so far are held, not the range's
solutions, whose count grows faster than the range.
"""

from __future__ import annotations

from collections import Counter
from itertools import groupby
from math import inf
from operator import attrgetter
from typing import Iterator, Sequence

from .errors import CorrespondenceError, DomainError, InvalidSolutionError
from .oracle import Triple, _solution_groups
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


Side = list[tuple[SolutionType, Triple]]  # (type, triple) per solution, repeats kept

_END = (inf,)  # after every (x, p) key


def _listing(side: Side) -> str:
    return "[" + ", ".join(f"{t.value} {s}" for t, s in sorted(side)) + "]"


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

    A p's lines are its forward problems in witness order, then its
    backward problems in oracle order, then the one line listing its
    solutions found by one side only, if any.

    Both routes walk x upward once for all the primes, factoring each x
    once: witness search yields by (x, p), the oracle by (x, n). The
    two walks are merged on (x, p), and each pair's witnesses and
    solutions are checked, and dropped, as soon as both walks are past
    it. A solution (x, y, z) comes from a witness at the same x, so the
    pairs are checked apart. What is held is one pair plus the faults
    found so far, not the range's solutions. The oracle's default cap
    applies: ResourceLimitError for a prime past 100,000. The oracle
    checks order, and the cap on the largest prime, before either walk
    starts.
    """
    for p in primes:
        _require_prime(p)
    oracle = _solution_groups(primes)
    # p -> (forward problems, backward problems, oracle-only, witness-only),
    # from its first faulty pair on
    faults: dict[int, tuple[list[str], list[str], Side, Side]] = {}
    for p, witnesses, triples in _meet(_witnesses_x_major(primes), oracle):
        found = _pair_faults(p, witnesses, triples)
        if any(found):
            for kept, new in zip(faults.setdefault(p, ([], [], [], [])), found):
                kept.extend(new)
    lines = []
    for p, (forward, backward, oracle_only, witness_only) in sorted(faults.items()):
        lines += forward + backward
        if oracle_only or witness_only:
            lines.append(
                f"p={p}: solutions differ (oracle-only {_listing(oracle_only)}, "
                f"witness-only {_listing(witness_only)})"
            )
    return lines


def _meet(
    witnesses: Iterator[Witness], oracle: Iterator[tuple[int, int, list[Triple]]]
) -> Iterator[tuple[int, list[Witness], list[Triple]]]:
    """(p, its witnesses at x, its oracle triples at x) for each (x, p)
    that either walk reaches, in (x, p) order; a side without the pair
    gives an empty list."""
    w_groups = ((key, list(ws)) for key, ws in groupby(witnesses, key=attrgetter("x", "p")))
    o_groups = (((x, n), triples) for x, n, triples in oracle)
    w_key, ws = next(w_groups, (_END, []))
    o_key, ts = next(o_groups, (_END, []))
    while (key := min(w_key, o_key)) < _END:
        here_w, here_o = w_key == key, o_key == key
        yield key[1], ws if here_w else [], ts if here_o else []
        if here_w:
            w_key, ws = next(w_groups, (_END, []))
        if here_o:
            o_key, ts = next(o_groups, (_END, []))


def _pair_faults(
    p: int, witnesses: list[Witness], triples: list[Triple]
) -> tuple[list[str], list[str], Side, Side]:
    """The forward problems, backward problems, oracle-only and
    witness-only solutions of p at one x, from its witnesses and the
    oracle's triples there."""
    forward: list[str] = []
    backward: list[str] = []

    # A forward trip that re-derives w makes recover_witness on its
    # solution return w, rebuilt to the same certified solution.
    round_tripped: dict[Triple, Witness] = {}
    witness_side: Side = []
    for w in witnesses:
        s = build_solution(w)
        triple = (s.x, s.y, s.z)
        witness_side.append((s.type, triple))
        try:
            back, _ = _derive_witness(p, s.x, s.y)
        except (DomainError, CorrespondenceError) as exc:
            forward.append(f"p={p}: forward round-trip failed for {w}: {exc}")
            continue
        if back != w:
            forward.append(f"p={p}: forward round-trip {w} -> {s} -> {back}")
            continue
        round_tripped[triple] = w

    oracle_side: Side = []
    for x, y, z in triples:
        w = round_tripped.get((x, y, z))
        if w is None:
            try:
                w, _ = _derive_witness(p, x, y)
            except (DomainError, CorrespondenceError) as exc:
                backward.append(f"p={p}: backward recovery failed for {(x, y, z)}: {exc}")
                continue
            # The derivation reads only (x, y), so a wrong z shows here.
            s = build_solution(w)
            if (s.x, s.y, s.z) != (x, y, z):
                backward.append(
                    f"p={p}: backward round-trip {(x, y, z)} -> {w} -> {(s.x, s.y, s.z)}"
                )
        oracle_side.append((w.type, (x, y, z)))

    # Counters only on a mismatch: two per pair cost about 7% of the
    # whole check on the primes to 1500.
    if sorted(witness_side) == sorted(oracle_side):
        return forward, backward, [], []
    o, w = Counter(oracle_side), Counter(witness_side)
    return forward, backward, list((o - w).elements()), list((w - o).elements())
