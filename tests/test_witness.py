"""Witness search: congruence checks, enumeration order, solution building."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import erdos_straus.witness as witness_module
from erdos_straus import (
    ConsistencyError,
    DomainError,
    SolutionType,
    Witness,
    build_solution,
    check_type1,
    check_type2,
    divisors_of_square,
    factorize,
    first_witness,
    is_prime,
    iter_witnesses,
    primes_in_range,
    verify_identity,
    x_range,
)

PRIMES_TO_400 = primes_in_range(2, 400)


def _full_walk_first(p):
    """(x, d, type) of p's first witness, found by testing every divisor
    of x*x in turn: no small-divisor probe and no k = 0 fast path."""
    for x in range((p + 3) // 4, (p + 1) // 2 + 1):
        q = 4 * x - p
        for d in divisors_of_square(x):
            if (p * x + d) % q == 0:
                return x, d, SolutionType.TYPE_I
            if d <= x and (x + d) % q == 0:
                return x, d, SolutionType.TYPE_II
    return None


class TestXRange:
    def test_spot_values(self):
        assert x_range(2) == (1, 1)
        assert x_range(41) == (11, 21)
        assert x_range(97) == (25, 49)

    def test_composite_rejected(self):
        with pytest.raises(DomainError):
            x_range(4)

    @given(st.sampled_from(PRIMES_TO_400))
    def test_modulus_positive_throughout(self, p):
        lo, hi = x_range(p)
        assert lo >= 1
        assert all(4 * x - p >= 1 for x in range(lo, hi + 1))


class TestCheckType1:
    def test_spot_values(self):
        assert check_type1(3, 1, 1) is True  # modulus 1 accepts everything
        assert check_type1(5, 2, 2) is True
        assert check_type1(5, 2, 1) is False

    def test_precondition_violations(self):
        with pytest.raises(DomainError):
            check_type1(4, 2, 1)  # composite p
        with pytest.raises(DomainError):
            check_type1(5, 4, 1)  # x above ceil(p/2)
        with pytest.raises(DomainError):
            check_type1(5, 1, 1)  # x below ceil(p/4)
        with pytest.raises(DomainError):
            check_type1(5, 2, 3)  # d does not divide x**2
        with pytest.raises(DomainError):
            check_type1(5, 2, 0)  # d must be positive


class TestCheckType2:
    def test_spot_values(self):
        assert check_type2(2, 1, 1) is True
        assert check_type2(41, 14, 1) is True
        assert check_type2(73, 19, 19) is False

    def test_divisor_larger_than_x_fails_quietly(self):
        # 361 divides 19**2 but exceeds x, so the check is simply false.
        assert check_type2(73, 19, 361) is False

    def test_precondition_violations(self):
        with pytest.raises(DomainError):
            check_type2(9, 3, 1)
        with pytest.raises(DomainError):
            check_type2(41, 14, 3)


class TestEnumeration:
    def test_p2_has_single_type2_witness(self):
        ws = list(iter_witnesses(2))
        assert ws == [Witness(2, 1, 1, SolutionType.TYPE_II)]
        assert all(w.type is not SolutionType.TYPE_I for w in ws)

    def test_p73_has_nothing_at_smallest_x(self):
        assert all(w.x != 19 for w in iter_witnesses(73))

    def test_p5_type1_only_at_x2(self):
        xs = {w.x for w in iter_witnesses(5) if w.type is SolutionType.TYPE_I}
        assert xs == {2}

    def test_order_is_x_then_d_then_type(self):
        ws = list(iter_witnesses(41))
        keys = [(w.x, w.d, 0 if w.type is SolutionType.TYPE_I else 1) for w in ws]
        assert keys == sorted(keys)

    def test_double_hit_emits_type1_first(self):
        # p=3, x=1: modulus 1 accepts d=1 for both congruences.
        ws = [w for w in iter_witnesses(3) if (w.x, w.d) == (1, 1)]
        assert [w.type for w in ws] == [SolutionType.TYPE_I, SolutionType.TYPE_II]

    def test_deterministic(self):
        assert list(iter_witnesses(97)) == list(iter_witnesses(97))

    def test_composite_rejected(self):
        with pytest.raises(DomainError):
            list(iter_witnesses(10))

    def test_x_major_walk_skips_x_serving_no_prime(self, monkeypatch):
        # x in 2..3 serves 5 and x in 38..76 serves 151; x in 4..37 serves
        # neither and is never factored.
        merged = sorted([*iter_witnesses(5), *iter_witnesses(151)], key=lambda w: (w.x, w.p))
        factored = []

        def recording(x):
            factored.append(x)
            return divisors_of_square(x)

        monkeypatch.setattr(witness_module, "divisors_of_square", recording)
        assert list(witness_module._witnesses_x_major((5, 151))) == merged
        assert factored == [2, 3, *range(38, 77)]

    def test_lazy_iteration_stops_early(self):
        it = iter_witnesses(97)
        first = next(it)
        assert first == first_witness(97)


class TestFirstWitness:
    def test_spot_values(self):
        assert first_witness(2) == Witness(2, 1, 1, SolutionType.TYPE_II)
        assert first_witness(3) == Witness(3, 1, 1, SolutionType.TYPE_I)
        w73 = first_witness(73)
        assert w73 is not None
        assert (w73.x, w73.k) == (20, 1)

    def test_matches_enumeration_head(self):
        # first_witness probes small divisors before factoring x;
        # iter_witnesses walks the full divisor list. Some of these
        # primes need a first d above the probe limit (p = 9241 with
        # a limit of 64), so the fallback is compared as well.
        fallback = []
        for p in primes_in_range(2, 30_000):
            w = first_witness(p)
            assert w == next(iter_witnesses(p), None), p
            if w.d > witness_module._PROBE_LIMIT:
                fallback.append(p)
        assert fallback

    @pytest.mark.parametrize("lo, hi", [(2, 10**6), (2**32 - 10**5, 2**32)])
    def test_search_core_equals_the_full_divisor_walk(self, lo, hi):
        # The core answers k = 0 from the proof's cases and the k = 0 rule,
        # then probes small divisors before factoring x; the reference
        # does neither.
        for p in primes_in_range(lo, hi):
            assert witness_module._first_witness_unchecked(p) == _full_walk_first(p), p

    @pytest.mark.parametrize("lo, hi", [(2, 10**6), (2**32 - 10**5, 2**32)])
    def test_k0_rule_for_p_1_mod_24(self, lo, hi):
        # The rule _first_witness_unchecked answers k = 0 by: at x = ceil(p/4)
        # q = 3, so a witness at k = 0 exists iff x has a prime factor
        # = 2 (mod 3), and the first is then (x, least such factor, I).
        seen = set()
        for p in primes_in_range(lo, hi):
            if p % 24 != 1:
                continue
            x = (p + 3) // 4
            ells = [ell for ell, _ in factorize(x) if ell % 3 == 2]
            walk = _full_walk_first(p)
            assert (walk[0] == x) == bool(ells), p
            if ells:
                assert walk == (x, ells[0], SolutionType.TYPE_I), p
                # the least such factor is at most sqrt(x), so the primes up
                # to isqrt(x) settle k = 0
                assert ells[0] ** 2 <= x, p
            seen.add((bool(ells), bool(ells) and ells[0] > witness_module._PROBE_LIMIT))
        # k = 0 and k > 0 both occur, and some k = 0 answers need x factored
        assert seen == {(False, False), (True, False), (True, True)}

    def test_fast_path_residue_table(self):
        # The proof in _first_witness_unchecked's docstring: the answer
        # is at k = 0 with d <= 2 iff p % 24 != 1, as (d, type) below.
        table = {5: (1, SolutionType.TYPE_II), 17: (1, SolutionType.TYPE_II),
                 13: (2, SolutionType.TYPE_I)}
        for p in primes_in_range(3, 10**6 - 1):
            x, d, t = witness_module._first_witness_unchecked(p)
            at_fast_path = x == (p + 3) // 4 and d <= 2
            assert at_fast_path == (p % 24 != 1), p
            if p % 4 == 3:
                assert (d, t) == (1, SolutionType.TYPE_I), p
            elif p % 24 != 1:
                assert (d, t) == table[p % 24], p

    def test_fast_path_never_factors(self, monkeypatch):
        # Every p % 24 != 1 gets its case's answer at x = ceil(p/4) with
        # factoring made to raise, also just past 4 * 65537**2, where
        # factorize raises DomainError anyway. Prime classes: 3 holds only
        # p = 3, so seven classes have primes at that height.
        def no_factoring(x):
            raise AssertionError(f"x={x} factored")

        monkeypatch.setattr(witness_module, "factorize", no_factoring)
        monkeypatch.setattr(witness_module, "divisors_of_square", no_factoring)
        cases = {5: (1, SolutionType.TYPE_II), 13: (2, SolutionType.TYPE_I),
                 17: (1, SolutionType.TYPE_II)}  # else p % 4 == 3: (1, I)
        for lo, hi in [(3, 10**6), (2**32 - 10**5, 2**32)]:
            for p in primes_in_range(lo, hi):
                if p % 24 != 1:
                    d, t = cases.get(p % 24, (1, SolutionType.TYPE_I))
                    assert witness_module._first_witness_unchecked(p) == ((p + 3) // 4, d, t), p
        assert first_witness(2) == Witness(2, 1, 1, SolutionType.TYPE_II)
        base = 4 * 65537**2
        for r in (5, 7, 11, 13, 17, 19, 23):
            p = next(n for n in range(base + (r - base) % 24, base + 10**6, 24) if is_prime(n))
            d, t = cases.get(r, (1, SolutionType.TYPE_I))
            assert first_witness(p) == Witness(p, (p + 3) // 4, d, t), p

    def test_none_when_no_divisor_is_a_witness(self, monkeypatch):
        # 73 % 24 == 1 and x = 19 has no prime factor = 2 (mod 3), so the
        # search goes past k = 0 into the walk, which finds nothing.
        monkeypatch.setattr(witness_module, "_ascending_square_divisors", lambda x: iter(()))
        assert first_witness(73) is None

    def test_public_function_rejects_non_primes(self):
        # Only the scan's private core skips the primality check.
        for n in (1, 4, 91, 65_537 * 65_539, -7):
            with pytest.raises(DomainError):
                first_witness(n)


class TestFactorBound:
    # x is factored only below 65537**2; an answer that needs a larger
    # x factored is a DomainError, never a guess.
    P_PROBED = 17_180_393_497  # least prime above 4 * 65537**2
    P_UNPROBED = 17_180_393_521  # no d <= _PROBE_LIMIT works at ceil(p/4)

    def test_iter_witnesses_raises_at_the_first_x(self):
        it = iter_witnesses(self.P_PROBED)
        with pytest.raises(DomainError):
            next(it)

    def test_first_witness_answers_from_the_probe_or_raises(self):
        w = first_witness(self.P_PROBED)
        assert w == Witness(self.P_PROBED, 4_295_098_375, 5, SolutionType.TYPE_I)
        s = build_solution(w)
        assert verify_identity(s.p, s.x, s.y, s.z)
        with pytest.raises(DomainError):
            first_witness(self.P_UNPROBED)


class TestAscendingSquareDivisors:
    @pytest.mark.parametrize("xs", [range(1, 5001), [720_720, 2**31 - 1]])
    def test_matches_divisors_of_square(self, xs):
        for x in xs:
            assert list(witness_module._ascending_square_divisors(x)) == divisors_of_square(x), x


class TestBuildSolution:
    def test_spot_values(self):
        s = build_solution(Witness(3, 1, 1, SolutionType.TYPE_I))
        assert (s.x, s.y, s.z) == (1, 4, 12)
        s = build_solution(Witness(2, 1, 1, SolutionType.TYPE_II))
        assert (s.x, s.y, s.z) == (1, 2, 2)
        s = build_solution(Witness(5, 2, 2, SolutionType.TYPE_I))
        assert (s.x, s.y, s.z) == (2, 4, 20)

    def test_broken_witness_rejected(self):
        with pytest.raises(ConsistencyError):
            build_solution(Witness(5, 2, 1, SolutionType.TYPE_I))
        with pytest.raises(ConsistencyError):
            build_solution(Witness(5, 2, 4, SolutionType.TYPE_II))  # d > x
        with pytest.raises(ConsistencyError):
            build_solution(Witness(10, 3, 1, SolutionType.TYPE_I))  # composite

    def test_d_not_dividing_x_squared_rejected(self):
        with pytest.raises(ConsistencyError, match=r"^d=3 does not divide 2\*\*2$"):
            build_solution(Witness(5, 2, 3, SolutionType.TYPE_I))

    def test_ordering_violation_rejected(self, monkeypatch):
        # x = 5 is past the x range of p = 5; widened, d = 5 divides exactly.
        monkeypatch.setattr(witness_module, "_x_bounds", lambda p: (1, p))
        with pytest.raises(ConsistencyError, match="^ordering violated: x=5, y=2, z=10$"):
            build_solution(Witness(5, 5, 5, SolutionType.TYPE_I))

    def test_type_mismatch_rejected(self, monkeypatch):
        # For a prime p, p | y exactly for type II; the composite 6 breaks that.
        monkeypatch.setattr(witness_module, "is_prime", lambda n: True)
        with pytest.raises(ConsistencyError, match="^type does not match divisibility of y=9$"):
            build_solution(Witness(6, 2, 1, SolutionType.TYPE_II))

    def test_identity_failure_rejected(self, monkeypatch):
        monkeypatch.setattr(witness_module, "verify_identity", lambda p, x, y, z: False)
        w = Witness(5, 2, 2, SolutionType.TYPE_I)
        with pytest.raises(ConsistencyError) as exc:
            build_solution(w)
        assert str(exc.value) == f"identity fails for witness {w}"

    def test_unknown_type_rejected(self):
        # Witness does not validate its type; a bare string is no SolutionType.
        with pytest.raises(ConsistencyError, match="^unknown solution type: 'II'$"):
            build_solution(Witness(73, 20, 1, "II"))

    def test_witness_accessors(self):
        w = Witness(41, 14, 1, SolutionType.TYPE_II)
        assert w.k == 3


class TestVerifyIdentity:
    def test_spot_values(self):
        assert verify_identity(2, 1, 2, 2) is True
        assert verify_identity(5, 2, 4, 20) is True
        assert verify_identity(5, 2, 4, 21) is False

    def test_huge_arguments_exact(self):
        # z reaches order p**2 * x**2 here, far past 64 bits.
        s = build_solution(first_witness(999_983))
        assert verify_identity(s.p, s.x, s.y, s.z)
        assert not verify_identity(s.p, s.x, s.y, s.z + 1)


class TestWitnessProperties:
    @given(st.sampled_from(PRIMES_TO_400))
    @settings(max_examples=60, deadline=None)
    def test_every_witness_builds_a_valid_solution(self, p):
        lo, hi = x_range(p)
        for w in iter_witnesses(p):
            assert lo <= w.x <= hi
            assert (w.x * w.x) % w.d == 0
            assert 0 <= w.k <= hi - lo
            s = build_solution(w)
            assert verify_identity(s.p, s.x, s.y, s.z)
            assert s.x <= s.y <= s.z
            assert (s.y % p == 0) == (w.type is SolutionType.TYPE_II)
            assert s.z % p == 0
            assert s.x % p != 0

    def test_k0_type1_witness_for_p_3_mod_4(self):
        # Modulus 1 at the smallest x guarantees a type I witness.
        for p in primes_in_range(3, 10_000):
            if p % 4 != 3:
                continue
            lo, _ = x_range(p)
            assert any(
                w.x == lo and w.type is SolutionType.TYPE_I
                for w in iter_witnesses(p)
            ), p
