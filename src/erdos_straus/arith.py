"""Exact integer primitives: primality, sieving, factorization, divisors.

Everything here is deterministic and exact. Primality uses fixed
Miller-Rabin witness tiers that are proven complete below
3_317_044_064_679_887_385_961_981 (about 2**81.3); no probabilistic
answers are ever returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt
from typing import Iterator

from .errors import DomainError

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
    return [i for i, f in enumerate(flags) if f]


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
        out.extend(seg_lo + i for i, f in enumerate(flags) if f)
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


def _brent_rho(n: int) -> int:
    """A nontrivial factor of composite odd n, deterministic Brent cycle.

    The additive constant walks 1, 2, 3, ... so runs are reproducible.
    """
    if n % 2 == 0:
        return 2
    c = 1
    while True:
        y, m = 2, 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
        c += 1


def _factor_large(n: int, out: list[int]) -> None:
    """Append the prime factors of n (no factor below the sieve limit)."""
    if n == 1:
        return
    if is_prime(n):
        out.append(n)
        return
    d = _brent_rho(n)
    _factor_large(d, out)
    _factor_large(n // d, out)


def factorize(n: int) -> Factorization:
    """Full prime-power factorization of n >= 1."""
    if n < 1:
        raise DomainError(f"factorize expects n >= 1, got {n}")
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
        if is_prime(m):
            pairs.append((m, 1))
        else:
            large: list[int] = []
            _factor_large(m, large)
            counts: dict[int, int] = {}
            for q in large:
                counts[q] = counts.get(q, 0) + 1
            pairs.extend(sorted(counts.items()))
    pairs.sort()
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
    """All positive divisors of n >= 1, ascending."""
    return _expand_divisors(factorize(n).factors)


def _square_divisors(x: int) -> tuple[int, ...]:
    """Divisors of x*x ascending, via doubled exponents of factorize(x)."""
    doubled = tuple((p, 2 * e) for p, e in factorize(x).factors)
    return tuple(_expand_divisors(doubled))


# Cached for the callers that revisit x: `compare` enumerates every x of
# each prime and hits about 98% of the time. A first-only search visits
# each x about once, so it reads _square_divisors uncached.
_square_divisor_cache = lru_cache(maxsize=1 << 16)(_square_divisors)


def divisors_of_square(x: int) -> list[int]:
    """All divisors of x*x, ascending, via doubled exponents of factorize(x).

    x itself is factored; x*x never is.
    """
    if x < 1:
        raise DomainError(f"divisors_of_square expects x >= 1, got {x}")
    return list(_square_divisor_cache(x))
