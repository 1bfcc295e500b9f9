"""Witness search for 4/p = 1/x + 1/y + 1/z over primes p.

A witness is a pair (x, d) with ceil(p/4) <= x <= ceil(p/2) and
d | x*x satisfying one of two congruences modulo q = 4*x - p:

  type I :              (p*x + d) % q == 0
  type II: d <= x  and  (x + d)   % q == 0

Each witness certifies one solution through closed formulas, and the
certified solutions are exactly the solutions of the equation (the
recover module walks the other direction). Type I solutions have
p not dividing y; type II solutions have p | y.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from enum import Enum
from itertools import islice
from typing import Iterator, NamedTuple, Optional, Sequence

from .arith import divisors_of_square, factorize, is_prime
from .errors import ConsistencyError, DomainError

__all__ = [
    "SolutionType",
    "Witness",
    "Solution",
    "x_range",
    "check_type1",
    "check_type2",
    "iter_witnesses",
    "first_witness",
    "build_solution",
    "verify_identity",
]


class SolutionType(str, Enum):
    """Solution class by divisibility of y: p | y for TYPE_II only."""

    TYPE_I = "I"
    TYPE_II = "II"


# Bound once for _first_witness_unchecked: looking a member up on the Enum class
# at every return took the search of the 36,401 primes p % 24 != 1 of
# 2..499999 from 7.4 to 11.8 ms (in process, 2 CPUs, medians of 11
# alternating best-of-7 runs).
_TYPE_I, _TYPE_II = SolutionType.TYPE_I, SolutionType.TYPE_II


class Witness(NamedTuple):
    """A certified (p, x, d, type) tuple; see the module docstring.

    Construction does not validate (enumeration emits only valid
    witnesses); build_solution re-checks everything it uses.
    """

    p: int
    x: int
    d: int
    type: SolutionType

    @property
    def k(self) -> int:
        """Offset of x above the smallest admissible value ceil(p/4)."""
        return self.x - _x_bounds(self.p)[0]


class Solution(NamedTuple):
    """A solution of 4/p = 1/x + 1/y + 1/z with x <= y <= z."""

    p: int
    x: int
    y: int
    z: int
    type: SolutionType


def _require_prime(p: int) -> None:
    if p < 0 or not is_prime(p):
        raise DomainError(f"expected a prime, got {p}")


# Divisors d <= _PROBE_LIMIT of x*x are found by trial division before
# x is factored. The first-witness search probes only past k = 0, for
# the primes p % 24 == 1 with no k = 0 witness (see
# _first_witness_unchecked). 2,253 of the 2,475 such primes on
# 2..499999 and 2,749 of 3,216 on 9*10**6..10**7 have a first d <= 64,
# and _ascending_square_divisors yields 37,469 divisors for those of
# 2..499999. Timed on these primes alone, in process (2 CPUs, best of
# 7, _K0_PRIMES left at the primes below 64): limits 32, 64 and 128
# tie within noise at 28-31 ms and 58-61 ms, and walking every divisor
# of x*x instead (limit 0) took 56 and 121 ms.
_PROBE_LIMIT = 64

# The odd primes = 2 (mod 3) below _PROBE_LIMIT, which settle most k = 0
# answers of p % 24 == 1 without factoring x (see _first_witness_unchecked).
_K0_PRIMES = tuple(ell for ell in range(5, _PROBE_LIMIT, 3) if is_prime(ell))


def _ascending_square_divisors(x: int) -> Iterator[int]:
    """Divisors of x*x ascending: trial division up to _PROBE_LIMIT, then,
    only if the caller reads on, x is factored (uncached) for the rest."""
    xx = x * x
    for d in range(1, _PROBE_LIMIT + 1):
        if xx % d == 0:
            yield d
    divs = divisors_of_square(x)
    yield from islice(divs, bisect_right(divs, _PROBE_LIMIT), None)


def _x_bounds(p: int) -> tuple[int, int]:
    """(ceil(p/4), ceil(p/2)) without the primality check of x_range."""
    return (p + 3) // 4, (p + 1) // 2


def x_range(p: int) -> tuple[int, int]:
    """Smallest and largest x any solution can use: (ceil(p/4), ceil(p/2)).

    4*x - p >= 1 holds throughout the range.
    """
    _require_prime(p)
    return _x_bounds(p)


def _check_preconditions(p: int, x: int, d: int) -> None:
    _require_prime(p)
    lo, hi = _x_bounds(p)
    if not lo <= x <= hi:
        raise DomainError(f"x={x} outside [{lo}, {hi}] for p={p}")
    if d < 1 or (x * x) % d != 0:
        raise DomainError(f"d={d} is not a positive divisor of {x}**2")


def check_type1(p: int, x: int, d: int) -> bool:
    """True iff (p*x + d) is divisible by 4*x - p."""
    _check_preconditions(p, x, d)
    return (p * x + d) % (4 * x - p) == 0


def check_type2(p: int, x: int, d: int) -> bool:
    """True iff d <= x and (x + d) is divisible by 4*x - p."""
    _check_preconditions(p, x, d)
    return d <= x and (x + d) % (4 * x - p) == 0


def _witnesses_x_major(primes: Sequence[int]) -> Iterator[Witness]:
    """Every witness of each of the ascending primes, walking each x once.

    x lies in the x range of each p with 2x - 1 <= p <= 4x, so it is
    factored once, uncached, for all of them. Output is ordered by x,
    then p, then d, type I first: per p, the iter_witnesses order.
    """
    if not primes:
        return
    for x in range(_x_bounds(primes[0])[0], _x_bounds(primes[-1])[1] + 1):
        first, last = bisect_left(primes, 2 * x - 1), bisect_right(primes, 4 * x)
        if first == last:
            continue
        divs = divisors_of_square(x)
        for p in primes[first:last]:
            q = 4 * x - p
            t1 = (-p * x) % q
            t2 = (-x) % q
            for d in divs:
                r = d % q
                if r == t1:
                    yield Witness(p, x, d, SolutionType.TYPE_I)
                if r == t2 and d <= x:
                    yield Witness(p, x, d, SolutionType.TYPE_II)


def iter_witnesses(p: int) -> Iterator[Witness]:
    """All witnesses for p: x ascending, d ascending, type I first.

    A pair (x, d) satisfying both congruences yields two witnesses,
    the type I one first. Lazy, so callers can stop early. DomainError
    comes at once for a p that is not prime, and from the walk if it
    reaches x = 65537**2, which arith does not factor (p > 2 * 65537**2).
    """
    _require_prime(p)
    return _witnesses_x_major((p,))


def first_witness(p: int) -> Optional[Witness]:
    """First witness in iter_witnesses order, or None.

    Most answers are read off proofs rather than searched; the proofs
    and the search order are at _first_witness_unchecked. An x at or
    past 65537**2 that needs factoring raises DomainError.
    """
    _require_prime(p)
    hit = _first_witness_unchecked(p)
    return None if hit is None else Witness(p, *hit)


def _first_witness_unchecked(p: int) -> Optional[tuple[int, int, SolutionType]]:
    """The (x, d, type) of first_witness, without the primality check.

    Only for p already proven prime, such as the primes a scan sieved;
    on a composite p the result means nothing. A plain tuple, so a
    first-only scan formats its record line without building a Witness.

    Every answer at x = ceil(p/4) is the walk's: a witness at the least
    x with the least d, type I before type II at equal d. The cases are
    tested in this order, with q = 4x - p:

    - p = 2: x = 1 and q = 2; type I fails (3 is odd), (1, 1, II) holds.
    - p % 4 == 3: q = 1, so (x, 1, I) holds.
    - Otherwise q = 3 and x = 4x = p (mod 3). So 3 divides no d | x*x
      and x*x = 1 (mod 3). Type I holds at (x, d) iff
      p*x + d = x*x + d = 1 + d = 0, i.e. d = 2 (mod 3), and type II
      holds at (x, d) iff d <= x and x + d = 0 (mod 3). So d = 1 fails
      type I.
      - x = 2 (mod 3) (p % 24 in {5, 17}): (x, 1, II) holds.
      - Otherwise x = 1 (mod 3), so d = 1 fails type II. If x is even
        (p % 24 == 13), (x, 2, I) holds.
      - x odd (p % 24 == 1): both types need d = 2 (mod 3), and type I
        comes first at equal d. A d | x*x with d = 2 (mod 3) has a
        prime factor ell = 2 (mod 3), since a product of primes
        = 1 (mod 3) is 1 (mod 3); ell divides x and ell <= d, and ell
        is itself such a d. So there is a witness at k = 0 iff x has a
        prime factor = 2 (mod 3), and the first is (x, least such ell,
        I). ell is odd: the primes of _K0_PRIMES are tried first, and x
        is factored only if none divides it, which finds ell or proves
        there is none. Otherwise the walk goes on from x + 1, through
        _ascending_square_divisors.
    """
    x = (p + 3) // 4
    if p == 2:
        return 1, 1, _TYPE_II
    if p % 4 == 3:
        return x, 1, _TYPE_I
    if x % 3 == 2:
        return x, 1, _TYPE_II
    if x % 2 == 0:
        return x, 2, _TYPE_I
    for ell in _K0_PRIMES:
        if x % ell == 0:
            return x, ell, _TYPE_I
    for ell, _ in factorize(x):
        if ell % 3 == 2:
            return x, ell, _TYPE_I
    for x in range(x + 1, (p + 1) // 2 + 1):
        q = 4 * x - p
        t1 = (-p * x) % q
        t2 = (-x) % q
        for d in _ascending_square_divisors(x):
            r = d % q
            if r == t1:
                return x, d, _TYPE_I
            if r == t2 and d <= x:
                return x, d, _TYPE_II
    return None


def verify_identity(p: int, x: int, y: int, z: int) -> bool:
    """Exact check of 4*x*y*z == p*(y*z + x*z + x*y).

    Equivalent to 4/p == 1/x + 1/y + 1/z for positive arguments;
    arbitrary-precision, never raises.
    """
    return 4 * x * y * z == p * (y * z + x * z + x * y)


def build_solution(w: Witness) -> Solution:
    """Certified solution for a witness via the closed y, z formulas.

      type I : y = (p*x + d) / q      z = p*(x + p*(x*x/d)) / q
      type II: y = p*(x + d) / q      z = p*(x + x*x/d) / q

    with q = 4*x - p. Every division is asserted exact, the ordering
    x <= y <= z, the type's divisibility, and the identity are all
    re-checked; any failure raises ConsistencyError (broken witness).
    """
    p, x, d = w.p, w.x, w.d
    lo, hi = _x_bounds(p)
    if not (is_prime(p) and lo <= x <= hi and d >= 1):
        raise ConsistencyError(f"witness fields out of domain: {w}")
    xx = x * x
    if xx % d != 0:
        raise ConsistencyError(f"d={d} does not divide {x}**2")
    q = 4 * x - p
    if w.type is SolutionType.TYPE_I:
        y_num = p * x + d
        z_num = p * (x + p * (xx // d))
    elif w.type is SolutionType.TYPE_II:
        if d > x:
            raise ConsistencyError(f"type II requires d <= x: {w}")
        y_num = p * (x + d)
        z_num = p * (x + xx // d)
    else:  # Witness does not validate its type field
        raise ConsistencyError(f"unknown solution type: {w.type!r}")
    if y_num % q != 0 or z_num % q != 0:
        raise ConsistencyError(f"non-exact division for witness {w}")
    y, z = y_num // q, z_num // q
    if not x <= y <= z:
        raise ConsistencyError(f"ordering violated: x={x}, y={y}, z={z}")
    if (y % p == 0) != (w.type is SolutionType.TYPE_II):
        raise ConsistencyError(f"type does not match divisibility of y={y}")
    if not verify_identity(p, x, y, z):
        raise ConsistencyError(f"identity fails for witness {w}")
    return Solution(p, x, y, z, w.type)
