"""Exact integer primitives: primality, sieving, factorization, divisors.

Everything here is deterministic and exact. Primality uses fixed
Miller-Rabin witness tiers that are proven complete below
3_317_044_064_679_887_385_961_981 (about 2**81.3); no probabilistic
answers are ever returned. Factorization is trial division by the
primes below 2**16, complete for n < 65537**2; past that bound it and
everything built on it raise DomainError. Nothing is cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from math import isqrt
from typing import Iterator

from .errors import DomainError

__all__ = [
    "Factorization",
    "divisors",
    "divisors_of_square",
    "factorize",
    "is_prime",
    "primes_in_range",
]

_SIEVE_LIMIT = 1 << 16
_SEGMENT_SIZE = 1 << 18


def _sieve_upto(limit: int) -> list[int]:
    """Primes <= limit by a plain sieve of Eratosthenes."""
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for i in range(2, isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(range(i * i, limit + 1, i)))
    return list(compress(range(limit + 1), flags))


_SMALL_PRIMES: tuple[int, ...] = tuple(_sieve_upto(_SIEVE_LIMIT))
_SMALL_PRIME_SET = frozenset(_SMALL_PRIMES)

# (bound, witnesses): the witness set is complete for n < bound.
_MR_TIERS: tuple[tuple[int, tuple[int, ...]], ...] = (
    (2_047, (2,)),
    (1_373_653, (2, 3)),
    (9_080_191, (31, 73)),
    (25_326_001, (2, 3, 5)),
    (3_215_031_751, (2, 3, 5, 7)),
    (4_759_123_141, (2, 7, 61)),
    (1_122_004_669_633, (2, 13, 23, 1662803)),
    (2_152_302_898_747, (2, 3, 5, 7, 11)),
    (3_474_749_660_383, (2, 3, 5, 7, 11, 13)),
    (341_550_071_728_321, (2, 3, 5, 7, 11, 13, 17)),
    (3_825_123_056_546_413_051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (318_665_857_834_031_151_167_461, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
    (3_317_044_064_679_887_385_961_981, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)),
)
_MR_EXACT_BOUND = _MR_TIERS[-1][0]


def _mr_witness_passes(n: int, a: int, d: int, r: int) -> bool:
    """One Miller-Rabin round; n - 1 = d * 2**r with d odd."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime(n: int) -> bool:
    """Exact deterministic primality for 0 <= n < 2**81.

    Raises DomainError for negative n or n at or beyond the proven
    witness-set bound, rather than guessing.
    """
    if n < 0:
        raise DomainError(f"is_prime expects a nonnegative integer, got {n}")
    if n < 2:
        return False
    if n <= _SIEVE_LIMIT:
        return n in _SMALL_PRIME_SET
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return False
    if n >= _MR_EXACT_BOUND:
        raise DomainError(
            f"is_prime is only proven exact below {_MR_EXACT_BOUND}; got {n}"
        )
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    for bound, witnesses in _MR_TIERS:
        if n < bound:
            return all(
                a % n == 0 or _mr_witness_passes(n, a, d, r) for a in witnesses
            )
    raise AssertionError("unreachable: bound checked above")


def primes_in_range(lo: int, hi: int) -> list[int]:
    """All primes p with lo <= p <= hi, ascending, segment-sieved.

    Memory stays O(segment + pi(sqrt(hi))) regardless of hi - lo.
    """
    if lo > hi:
        raise DomainError(f"empty range: lo={lo} > hi={hi}")
    lo = max(lo, 2)
    if lo > hi:
        return []
    if hi <= _SIEVE_LIMIT:
        return [p for p in _SMALL_PRIMES if lo <= p <= hi]
    root = isqrt(hi)
    base = _SMALL_PRIMES if root <= _SIEVE_LIMIT else tuple(_sieve_upto(root))
    out: list[int] = []
    for seg_lo in range(lo, hi + 1, _SEGMENT_SIZE):
        seg_hi = min(seg_lo + _SEGMENT_SIZE - 1, hi)
        flags = bytearray([1]) * (seg_hi - seg_lo + 1)
        for p in base:
            if p * p > seg_hi:
                break
            start = max(p * p, ((seg_lo + p - 1) // p) * p)
            flags[start - seg_lo :: p] = bytearray(
                len(range(start, seg_hi + 1, p))
            )
        out.extend(compress(range(seg_lo, seg_hi + 1), flags))
    return out


@dataclass(frozen=True, slots=True)
class Factorization:
    """Prime-power decomposition: n = prod(p**e for p, e in factors).

    factors is sorted by prime ascending; n == 1 iff factors is empty.
    """

    n: int
    factors: tuple[tuple[int, int], ...]

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.factors)


# After division by every prime below 2**16 (the last is 65521), a
# cofactor below 65537**2 is 1 or a prime. Scans stop at p <= 2**32,
# so every x they factor is below this bound.
_FACTOR_BOUND = 65_537**2


def factorize(n: int) -> Factorization:
    """Full prime-power factorization of 1 <= n < 65537**2, by trial division.

    Raises DomainError past that bound rather than factoring further.
    """
    if not 1 <= n < _FACTOR_BOUND:
        raise DomainError(f"factorize expects 1 <= n < 65537**2, got {n}")
    pairs: list[tuple[int, int]] = []
    m = n
    for p in _SMALL_PRIMES:
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            pairs.append((p, e))
    if m > 1:
        pairs.append((m, 1))
    return Factorization(n, tuple(pairs))


def _expand_divisors(factors: tuple[tuple[int, int], ...]) -> list[int]:
    divs = [1]
    for p, e in factors:
        power = 1
        scaled = []
        for _ in range(e):
            power *= p
            scaled.extend(d * power for d in divs)
        divs.extend(scaled)
    divs.sort()
    return divs


def divisors(n: int) -> list[int]:
    """All positive divisors of 1 <= n < 65537**2, ascending."""
    return _expand_divisors(factorize(n).factors)


def divisors_of_square(x: int) -> list[int]:
    """All divisors of x*x, ascending, via doubled exponents of factorize(x).

    x itself is factored, so x < 65537**2 (DomainError past it); x*x never is.
    """
    if x < 1:
        raise DomainError(f"divisors_of_square expects x >= 1, got {x}")
    return _expand_divisors(tuple((p, 2 * e) for p, e in factorize(x).factors))
