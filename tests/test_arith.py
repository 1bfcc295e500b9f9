"""Integer primitives, each checked against an independent in-test oracle."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import erdos_straus.arith as arith
from erdos_straus import (
    DomainError,
    divisors,
    divisors_of_square,
    factorize,
    is_prime,
    primes_in_range,
)


def naive_sieve(limit: int) -> list[int]:
    flags = [True] * (limit + 1)
    flags[0:2] = [False, False]
    for i in range(2, int(math.isqrt(limit)) + 1):
        if flags[i]:
            for j in range(i * i, limit + 1, i):
                flags[j] = False
    return [i for i, f in enumerate(flags) if f]


def naive_window(lo: int, hi: int) -> list[int]:
    """The primes in [lo, hi], crossing out multiples of naive_sieve's primes."""
    flags = [n >= 2 for n in range(lo, hi + 1)]
    for p in naive_sieve(math.isqrt(hi)):
        for n in range(max(p * p, -(-lo // p) * p), hi + 1, p):
            flags[n - lo] = False
    return [n for n, f in zip(range(lo, hi + 1), flags) if f]


def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def factorize_by_trial(n: int) -> list[tuple[int, int]]:
    """The (p, e) pairs of n, dividing by 2 and every odd number up to the
    square root of what is left: no table and no primality test."""
    pairs = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            pairs.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        pairs.append((n, 1))
    return pairs


def divisors_by_trial(m: int) -> list[int]:
    found = set()
    for d in range(1, math.isqrt(m) + 1):
        if m % d == 0:
            found.add(d)
            found.add(m // d)
    return sorted(found)


class TestIsPrime:
    def test_small_values(self):
        assert is_prime(2)
        assert not is_prime(1)
        assert not is_prime(0)
        assert is_prime(97)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            is_prime(-7)

    def test_agrees_with_trial_division_below_3000(self):
        for n in range(3000):
            assert is_prime(n) == trial_division_is_prime(n), n

    def test_carmichael_and_strong_pseudoprimes(self):
        # Composites that defeat weak probabilistic tests.
        assert not is_prime(561)
        assert not is_prime(1729)
        assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7
        assert not is_prime(3825123056546413051)

    def test_large_known_primes(self):
        assert is_prime(2**31 - 1)
        assert is_prime(2**61 - 1)
        assert not is_prime(2**62 - 1)

    def test_beyond_proven_bound_rejected(self):
        with pytest.raises(DomainError):
            is_prime(3_317_044_064_679_887_385_961_981)

    def test_agrees_with_the_sieve_across_the_base_set_switch(self):
        # (2, 7, 61) below 4,759,123,141, the 13 primes <= 41 from there on;
        # past 65537**2, primes_in_range lists this window's base primes itself.
        lo, hi = 4_759_123_141 - 10**5, 4_759_123_141 + 10**5
        assert primes_in_range(lo, hi) == [n for n in range(lo, hi + 1) if is_prime(n)]

    @pytest.mark.parametrize(
        "n, bases",
        [
            # The least strong pseudoprime to each set of bases: the bound
            # below which that set is complete (Jaeschke 1993; Sorenson and
            # Webster 2015). Each defeats its bases, so is_prime needs more.
            (2_047, (2,)),
            (1_373_653, (2, 3)),
            (9_080_191, (31, 73)),
            (25_326_001, (2, 3, 5)),
            (3_215_031_751, (2, 3, 5, 7)),
            (4_759_123_141, (2, 7, 61)),
            (1_122_004_669_633, (2, 13, 23, 1_662_803)),
            (2_152_302_898_747, (2, 3, 5, 7, 11)),
            (3_474_749_660_383, (2, 3, 5, 7, 11, 13)),
            (341_550_071_728_321, (2, 3, 5, 7, 11, 13, 17)),
            (3_825_123_056_546_413_051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
            (318_665_857_834_031_151_167_461, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
        ],
    )
    def test_strong_pseudoprimes_are_composite(self, n, bases):
        d = n - 1
        r = (d & -d).bit_length() - 1
        assert all(arith._mr_witness_passes(n, a, d >> r, r) for a in bases)
        assert not is_prime(n)
        if n < 65_537**2:
            assert sum(e for _, e in factorize(n)) > 1

    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=300)
    def test_matches_trial_division(self, n):
        assert is_prime(n) == trial_division_is_prime(n)


class TestPrimesInRange:
    def test_spot_ranges(self):
        assert primes_in_range(2, 10) == [2, 3, 5, 7]
        assert primes_in_range(90, 100) == [97]
        assert primes_in_range(8, 10) == []

    def test_reversed_range_rejected(self):
        with pytest.raises(DomainError):
            primes_in_range(10, 2)

    def test_prime_counting_spot_values(self):
        assert len(primes_in_range(2, 100)) == 25
        assert len(primes_in_range(2, 10_000)) == 1229

    def test_matches_naive_sieve(self):
        expected = naive_sieve(5000)
        assert primes_in_range(2, 5000) == expected
        assert primes_in_range(1000, 3000) == [p for p in expected if 1000 <= p <= 3000]

    def test_window_across_sieve_limit(self):
        # A window across 2**16, the top of the stored small primes; endpoints prime.
        out = primes_in_range(65519, 65539)
        assert out == [65519, 65521, 65537, 65539]
        for p in out:
            assert trial_division_is_prime(p)

    @pytest.mark.parametrize(
        "lo, hi",
        [
            (2**18 - 500, 2**19 + 500),  # across 2**18 and 2**19
            (65_537, 65_537 + 2 * 2**18 + 3),  # from a prime, over 2**19 numbers
            (1_000_003 - 2**18 + 1, 1_000_003 + 500),  # the prime 1,000,003 is number 2**18
            (1_000_003 - 2**18, 1_000_003 + 500),  # and here number 2**18 + 1
            (2**32 - 10**5, 2**32),  # the top of the scan range
            (65_537**2 - 1000, 65_537**2 + 1000),  # base primes by recursion to 65537
        ],
    )
    def test_windows_across_segment_edges(self, lo, hi):
        # The name is from the 2**18-number segments the sieve no longer cuts:
        # wide windows with a prime at number 2**18 or past it, and windows at
        # 2**32 and past 65537**2, each against an is_prime filter: a prime
        # the one pass loses, repeats or invents shows.
        assert is_prime(1_000_003)
        assert primes_in_range(lo, hi) == [n for n in range(lo, hi + 1) if is_prime(n)]

    def test_low_clamped_to_two(self):
        assert primes_in_range(1, 10) == [2, 3, 5, 7]
        assert primes_in_range(0, 1) == []

    def test_plain_sieve_below_two_is_empty(self):
        # The bottom of the recursion: base primes to sqrt(hi) = 1 are none.
        assert primes_in_range(1, 1) == []
        assert primes_in_range(1, 2) == [2]

    @pytest.mark.parametrize(
        "lo, hi",
        [
            (0, 1), (1, 1), (2, 2), (2, 3), (3, 3), (4, 4), (9, 9), (1, 100),
            # even and odd ends: the odd-only flags start at lo | 1
            (10**6, 10**6 + 500), (10**6 + 1, 10**6 + 501),
            (10**6, 10**6 + 501), (10**6 + 1, 10**6 + 500),
            (65519, 65539), (65536, 66000),
            (2**32 - 2000, 2**32),
        ],
    )
    def test_windows_match_a_naive_sieve(self, lo, hi):
        assert primes_in_range(lo, hi) == naive_window(lo, hi)

    def test_every_small_window_matches_naive_sieve(self):
        # sqrt(hi) runs 1..17 here, so the base primes come by recursion
        # down to its bottom, where hi < 4 needs none.
        expected = naive_sieve(300)
        for lo in range(301):
            for hi in range(lo, 301):
                assert primes_in_range(lo, hi) == [p for p in expected if lo <= p <= hi], (lo, hi)

    def test_small_prime_table_is_the_primes_below_2_16(self):
        # Built at import by primes_in_range; the base primes of every window
        # with 2**16 < hi < 65537**2, and factorize's trial divisors.
        expected = naive_sieve(2**16)
        assert arith._SMALL_PRIMES == tuple(expected)
        # is_prime's flags for n <= 2**16, one byte per number
        primes = set(expected)
        assert arith._SMALL_PRIME_FLAGS == bytearray(n in primes for n in range(2**16 + 1))
        assert len(expected) == 6542 and expected[-1] == 65_521

    def test_window_where_the_base_switches_to_the_table(self):
        # hi <= 2**16 lists its base primes by recursion, hi > 2**16 takes the table.
        expected = naive_sieve(2**16 + 100)
        for lo, hi in [(2**16 - 100, 2**16 + 100), (2**16 - 100, 2**16), (2**16 - 100, 2**16 + 1)]:
            assert primes_in_range(lo, hi) == [p for p in expected if lo <= p <= hi]


class TestFactorize:
    def test_unit(self):
        assert factorize(1) == []

    def test_spot_values(self):
        assert factorize(12) == [(2, 2), (3, 1)]
        assert factorize(361) == [(19, 2)]
        assert factorize(360) == [(2, 3), (3, 2), (5, 1)]

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            factorize(0)

    def test_largest_prime_pair_below_the_bound(self):
        # 65521 is the last trial divisor; the cofactor 65537 is prime
        # without a primality test because n < 65537**2.
        assert factorize(65_521 * 65_537) == [(65_521, 1), (65_537, 1)]
        assert factorize(65_521**2) == [(65_521, 2)]
        assert factorize(65_537**2 - 1) == [(2, 17), (3, 2), (11, 1), (331, 1)]

    def test_square_of_65537_rejected(self):
        with pytest.raises(DomainError):
            factorize(65_537**2)
        with pytest.raises(DomainError):
            divisors(65_537**2)
        with pytest.raises(DomainError):
            divisors_of_square(65_537**2)

    @pytest.mark.parametrize(
        "ns",
        [
            # the x = ceil(p/4) of the top scan window's primes p % 24 == 1,
            # the one class whose search factors x
            [(p + 3) // 4 for p in primes_in_range(2**32 - 10**5, 2**32) if p % 24 == 1],
            range(65_537**2 - 300, 65_537**2),
            range(arith._PRIME_CHECK_FROM - 100, arith._PRIME_CHECK_FROM + 100),
            # cofactors past the check, composite and prime, after the primes below 100
            [101 * 65_521, 97 * 101 * 10_007, 65_519 * 65_521, 1_009 * 1_048_583, 2**11 * 1_048_583],
        ],
    )
    def test_matches_plain_trial_division(self, ns):
        # A cofactor above _PRIME_CHECK_FROM that is prime after the primes
        # below 100 ends the trial division; the answer must not change.
        for n in ns:
            assert factorize(n) == factorize_by_trial(n), n

    @given(st.integers(min_value=1, max_value=1_000_000))
    @settings(max_examples=300)
    def test_reassembles_and_certifies(self, n):
        prod = 1
        last = 0
        for prime, exp in factorize(n):
            assert prime > last, "primes must strictly increase"
            assert exp >= 1
            assert is_prime(prime)
            prod *= prime**exp
            last = prime
        assert prod == n

    @given(st.integers(min_value=2, max_value=100_000))
    @settings(max_examples=200)
    def test_primality_iff_single_unit_exponent(self, n):
        f = factorize(n)
        assert is_prime(n) == (len(f) == 1 and f[0][1] == 1)


class TestDivisors:
    def test_divisors_of_square_spot_values(self):
        assert divisors_of_square(1) == [1]
        assert divisors_of_square(6) == [1, 2, 3, 4, 6, 9, 12, 18, 36]
        assert divisors_of_square(19) == [1, 19, 361]

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            divisors_of_square(0)

    def test_divisors_spot_values(self):
        assert divisors(12) == [1, 2, 3, 4, 6, 12]
        assert divisors(1) == [1]

    def test_matches_trial_division_exhaustively(self):
        for x in range(1, 400):
            assert divisors_of_square(x) == divisors_by_trial(x * x), x
            assert divisors(x) == divisors_by_trial(x), x

    @given(st.integers(min_value=1, max_value=10_000))
    @settings(max_examples=150)
    def test_matches_trial_division_sampled(self, x):
        assert divisors_of_square(x) == divisors_by_trial(x * x)

    @given(st.integers(min_value=1, max_value=10_000))
    @settings(max_examples=100)
    def test_every_entry_divides_square(self, x):
        ds = divisors_of_square(x)
        assert ds[0] == 1 and ds[-1] == x * x
        assert ds == sorted(set(ds))
        assert all((x * x) % d == 0 for d in ds)
