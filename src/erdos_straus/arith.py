"""Exact integer primitives: primality, sieving, factorization, divisors.

Everything here is deterministic and exact. Primality uses one of two
fixed Miller-Rabin base sets: (2, 7, 61), proven complete below
4_759_123_141 (Jaeschke 1993), and the 13 primes up to 41, proven
complete below 3_317_044_064_679_887_385_961_981, about 2**81.3
(Sorenson and Webster 2015); no probabilistic answers are ever
returned. primes_in_range is the one sieve: it sieves its window in
one pass, one flag byte per odd number, so its memory follows the
window. The primes below 2**16 are sieved by it once, at import, and
then serve as its base primes, as factorize's trial divisors and, as
one flag byte per number, as is_prime's answer up to 2**16.
Trial division by them factors every n < 65537**2, and stops early at a
large cofactor is_prime proves prime; past that bound factorize and
everything built on it raise DomainError. Nothing is cached.
"""

from __future__ import annotations

from itertools import compress, islice
from math import isqrt
from typing import Iterable

from .errors import DomainError

__all__ = [
    "divisors",
    "divisors_of_square",
    "factorize",
    "is_prime",
    "primes_in_range",
]

_SIEVE_LIMIT = 1 << 16


def primes_in_range(lo: int, hi: int) -> list[int]:
    """All primes p with lo <= p <= hi, ascending, from one sieve pass.

    The only sieve. For 2**16 < hi < 65537**2 its base primes to
    sqrt(hi) are the primes below 2**16, which it sieved at import;
    otherwise, as when it builds that table, it lists them with itself.
    Memory follows the window, one flag byte per odd number, besides
    the primes returned and, past 65537**2, the base primes to
    sqrt(hi); callers walking a wide range sieve a window at a time.
    """
    if lo > hi:
        raise DomainError(f"empty range: lo={lo} > hi={hi}")
    lo = max(lo, 2)
    if lo > hi:
        return []
    root = isqrt(hi)
    table = _SIEVE_LIMIT < hi and root <= _SIEVE_LIMIT
    # from 1, not 2: root is 1 when hi < 4, and [1, 1] holds no prime
    base = _SMALL_PRIMES if table else primes_in_range(1, root)
    first = lo | 1  # flags[i] stands for the odd number first + 2*i
    flags = bytearray([1]) * ((hi - first) // 2 + 1)
    for p in islice(base, 1, None):  # 2 divides no flagged number
        if p > root:
            break
        start = max(p * p, -(-lo // p) * p)
        if start % 2 == 0:  # the least odd multiple
            start += p
        flags[(start - first) // 2 :: p] = bytearray(len(range(start, hi + 1, 2 * p)))
    odd = compress(range(first, hi + 1, 2), flags)
    return [2, *odd] if lo == 2 else list(odd)


_SMALL_PRIMES: tuple[int, ...] = tuple(primes_in_range(2, _SIEVE_LIMIT))
# is_prime's answer for n <= 2**16, one byte per number
_SMALL_PRIME_FLAGS = bytearray(_SIEVE_LIMIT + 1)
for _p in _SMALL_PRIMES:
    _SMALL_PRIME_FLAGS[_p] = 1
del _p

# Each base set is complete for n below its bound. Miller-Rabin runs only
# for n > 2**16, above every base, so no base is a multiple of n.
_MR_SMALL_BOUND = 4_759_123_141
_MR_SMALL_BASES = (2, 7, 61)
_MR_EXACT_BOUND = 3_317_044_064_679_887_385_961_981
_MR_EXACT_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


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
        return _SMALL_PRIME_FLAGS[n] == 1
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
    bases = _MR_SMALL_BASES if n < _MR_SMALL_BOUND else _MR_EXACT_BASES
    return all(_mr_witness_passes(n, a, d, r) for a in bases)


# After division by every prime below 2**16 (the last is 65521), a
# cofactor below 65537**2 is 1 or a prime. Scans stop at p <= 2**32,
# so every x they factor is below this bound.
_FACTOR_BOUND = 65_537**2

# Least cofactor whose primality factorize checks, after the primes
# below 100; below it trial division to its square root costs less
# than is_prime. Timed on the first-witness search of the primes
# p % 24 == 1 (2 CPUs, best of 5): on 2..499999, 33 ms with the check
# from 2**18 or 2**20 on or with none, 34-36 ms from 0 or 2**16 on; on
# 2**32 - 10**6..2**32, 115 ms with the check from 2**20 on against
# 298 ms with none.
_PRIME_CHECK_FROM = 1 << 20


def _divide_out(m: int, primes: Iterable[int], pairs: list[tuple[int, int]]) -> int:
    """m with every prime of primes (ascending) divided out while p*p <= m,
    each dividing one appended to pairs with its exponent."""
    for p in primes:
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            pairs.append((p, e))
    return m


def factorize(n: int) -> list[tuple[int, int]]:
    """The (p, e) pairs with n = prod(p**e), primes ascending, by trial division.

    Empty iff n == 1. For 1 <= n < 65537**2 only: raises DomainError
    past that bound rather than factoring further. After the primes
    below 100, a cofactor above _PRIME_CHECK_FROM that is_prime proves
    prime ends the trial division.
    """
    if not 1 <= n < _FACTOR_BOUND:
        raise DomainError(f"factorize expects 1 <= n < 65537**2, got {n}")
    pairs: list[tuple[int, int]] = []
    m = _divide_out(n, islice(_SMALL_PRIMES, 25), pairs)  # the primes below 100
    if not (m > _PRIME_CHECK_FROM and is_prime(m)):
        m = _divide_out(m, islice(_SMALL_PRIMES, 25, None), pairs)
    if m > 1:
        pairs.append((m, 1))
    return pairs


def _expand_divisors(factors: Iterable[tuple[int, int]]) -> list[int]:
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
    return _expand_divisors(factorize(n))


def divisors_of_square(x: int) -> list[int]:
    """All divisors of x*x, ascending, via doubled exponents of factorize(x).

    x itself is factored, so x < 65537**2 (DomainError past it); x*x never is.
    """
    if x < 1:
        raise DomainError(f"divisors_of_square expects x >= 1, got {x}")
    return _expand_divisors((p, 2 * e) for p, e in factorize(x))
