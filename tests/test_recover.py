"""Divisor recovery: classification, round trips, oracle agreement."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erdos_straus import (
    CorrespondenceError,
    DomainError,
    InvalidSolutionError,
    ResourceLimitError,
    SolutionType,
    Witness,
    build_solution,
    check_correspondences,
    classify_solution,
    iter_witnesses,
    primes_in_range,
    recover_witness,
    solve_bruteforce,
)
import erdos_straus.recover as recover_module
from erdos_straus.cli import main

PRIMES_TO_300 = primes_in_range(2, 300)


class TestClassify:
    def test_spot_values(self):
        assert classify_solution(2, 1, 2, 2) is SolutionType.TYPE_II
        assert classify_solution(5, 2, 4, 20) is SolutionType.TYPE_I
        assert classify_solution(3, 1, 6, 6) is SolutionType.TYPE_II

    def test_non_solution_rejected(self):
        with pytest.raises(InvalidSolutionError):
            classify_solution(5, 2, 4, 21)
        with pytest.raises(InvalidSolutionError):
            classify_solution(2, 2, 2, 1)  # unordered

    def test_composite_rejected(self):
        with pytest.raises(DomainError):
            classify_solution(4, 2, 3, 6)


class TestRecoverType1:
    """recover_witness on solutions with p not dividing y."""

    def test_spot_values(self):
        assert recover_witness(5, 2, 4) == Witness(5, 2, 2, SolutionType.TYPE_I)
        assert recover_witness(3, 1, 4) == Witness(3, 1, 1, SolutionType.TYPE_I)

    def test_wrong_type_rejected(self):
        with pytest.raises(DomainError):
            recover_witness(7, 2, 14)  # 7 | 14 reads as type II; 4/7 - 1/2 - 1/14 = 0

    def test_non_solution_rejected(self):
        with pytest.raises(DomainError):
            recover_witness(5, 2, 3)  # no z completes (2, 3)
        with pytest.raises(DomainError):
            recover_witness(5, 4, 2)  # y < x
        with pytest.raises(DomainError):
            recover_witness(6, 2, 4)  # composite


class TestRecoverType2:
    """recover_witness on solutions with p | y."""

    def test_spot_values(self):
        assert recover_witness(2, 1, 2) == Witness(2, 1, 1, SolutionType.TYPE_II)
        assert recover_witness(3, 1, 6) == Witness(3, 1, 1, SolutionType.TYPE_II)
        assert recover_witness(41, 14, 41) == Witness(41, 14, 1, SolutionType.TYPE_II)

    def test_non_solution_rejected(self):
        with pytest.raises(DomainError):
            recover_witness(7, 3, 7)  # no z completes (3, 7)

    def test_guards_on_x_and_ordering(self):
        with pytest.raises(DomainError, match="x and y must be positive"):
            recover_witness(41, 0, 41)
        # (14, 574) is the (x, z) of the solution (14, 41, 574); read as
        # (x, y), its completion z = 41 falls below y.
        with pytest.raises(DomainError, match="completion z=41 breaks ordering for y=574"):
            recover_witness(41, 14, 574)


class TestRoundTrips:
    @given(st.sampled_from(PRIMES_TO_300))
    @settings(max_examples=50, deadline=None)
    def test_forward_round_trip_is_identity(self, p):
        for w in iter_witnesses(p):
            s = build_solution(w)
            assert recover_witness(s.p, s.x, s.y) == w

    def test_forward_round_trip_distinguishes_double_hits(self):
        # (x, d) pairs satisfying both congruences must round-trip per type.
        p = 3
        ws = list(iter_witnesses(p))
        assert {w.type for w in ws if (w.x, w.d) == (1, 1)} == {
            SolutionType.TYPE_I,
            SolutionType.TYPE_II,
        }
        for w in ws:
            s = build_solution(w)
            assert recover_witness(s.p, s.x, s.y) == w

    def test_recovered_witness_carries_matching_type(self):
        w = recover_witness(41, 14, 41)
        assert w == Witness(41, 14, 1, SolutionType.TYPE_II)
        s = build_solution(w)
        assert (s.y, s.z) == (41, 574)


class TestUnreachableRaises:
    """Checks that no solution of 4/p for prime p fails, reached through
    composite n, whose solutions the characterization does not cover,
    or through a patched seam."""

    @pytest.mark.parametrize(
        "x, y, message",
        [
            (2, 3, "recovered d=-1 < 1 for p=5, x=2, y=3"),
            (2, 6, "recovered d=8 does not divide 2**2"),
            (4, 2, "solution x=4 outside [2, 3] for p=5"),
            (2, 10, "type II congruence fails for recovered d=4"),
        ],
    )
    def test_derive_witness_checks_each_property(self, monkeypatch, x, y, message):
        # With no z to complete, (x, y) need not come from a solution.
        monkeypatch.setattr(recover_module, "_solution_prefix_z", lambda p, x, y: y)
        with pytest.raises(CorrespondenceError) as exc:
            recover_module._derive_witness(5, x, y)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "n, x, y, z, message",
        [
            (6, 2, 9, 18, "recovered d=6 does not divide 2**2"),
            (6, 4, 4, 6, "solution x=4 outside [2, 3] for p=6"),
        ],
    )
    def test_derive_witness_rejects_composite_n(self, n, x, y, z, message):
        assert (x, y, z) in solve_bruteforce(n)
        with pytest.raises(CorrespondenceError) as exc:
            recover_module._derive_witness(n, x, y)
        assert str(exc.value) == message

    def test_recover_witness_checks_the_rebuild(self, monkeypatch):
        derive = recover_module._derive_witness
        monkeypatch.setattr(recover_module, "_derive_witness", lambda p, x, y: (derive(p, x, y)[0], 21))
        with pytest.raises(CorrespondenceError) as exc:
            recover_witness(5, 2, 4)
        assert str(exc.value) == (
            f"rebuild mismatch: witness {Witness(5, 2, 2, SolutionType.TYPE_I)} gives (4, 20), "
            "solution has (4, 21)"
        )

    def test_failed_forward_derivation_is_listed(self, monkeypatch):
        def failing(p, x, y):
            raise CorrespondenceError("planted")

        monkeypatch.setattr(recover_module, "_derive_witness", failing)
        w = Witness(5, 2, 2, SolutionType.TYPE_I)
        problems = recover_module._correspondence_problems(5, [w], [(2, 4, 20)])
        assert problems[0] == f"p=5: forward round-trip failed for {w}: planted"

    def test_wrong_forward_derivation_is_listed(self, monkeypatch):
        other = Witness(5, 2, 1, SolutionType.TYPE_II)
        monkeypatch.setattr(recover_module, "_derive_witness", lambda p, x, y: (other, 10))
        w = Witness(5, 2, 2, SolutionType.TYPE_I)
        problems = recover_module._correspondence_problems(5, [w], [(2, 4, 20)])
        assert problems[0] == f"p=5: forward round-trip {w} -> {build_solution(w)} -> {other}"


class TestCorrespondence:
    def test_clean_for_sample_primes(self):
        for p in (2, 3, 5, 41, 73, 97, 113, 193):
            assert check_correspondences((p,)) == []

    def test_clean_below_300(self):
        for p in PRIMES_TO_300:
            assert check_correspondences((p,)) == [], p


class TestCorrespondenceInput:
    def test_cap_checked_before_the_witness_walk(self, monkeypatch):
        # 100,003 is the least prime past the default cap of 100,000; its
        # witness walk over x = 25,001..50,002 must not start.
        def walk(primes):
            raise AssertionError("witness walk started before the cap check")

        monkeypatch.setattr(recover_module, "_witnesses_x_major", walk)
        with pytest.raises(ResourceLimitError, match="^n=100003 exceeds the cap 100000$"):
            check_correspondences([100_003])

    def test_primes_must_ascend_strictly(self):
        with pytest.raises(DomainError):
            check_correspondences([5, 3])
        with pytest.raises(DomainError):
            check_correspondences([5, 5])


def _patch_oracle(monkeypatch, edit, only=None):
    """Make check_correspondences see edit(true oracle triples) for
    every prime, or for the prime only alone."""
    true_oracle = recover_module._solutions_x_major

    def edited(ns):
        for n, sols in true_oracle(ns):
            yield n, edit(sols) if only in (None, n) else sols

    monkeypatch.setattr(recover_module, "_solutions_x_major", edited)


class TestCorrespondenceViolations:
    def test_dropped_solution(self, monkeypatch):
        _patch_oracle(monkeypatch, lambda ts: ts[1:])
        dropped = solve_bruteforce(41)[0]
        problems = check_correspondences((41,))
        assert any(str(dropped) in line for line in problems), problems

    def test_duplicated_solution(self, monkeypatch):
        _patch_oracle(monkeypatch, lambda ts: ts + ts[:1])
        problems = check_correspondences((41,))
        assert problems
        assert all(line.startswith("p=41: ") for line in problems), problems

    def test_non_solution(self, monkeypatch):
        _patch_oracle(monkeypatch, lambda ts: ts + [(11, 50, 60)])
        problems = check_correspondences((41,))
        assert len(problems) == 1
        assert "backward recovery failed for (11, 50, 60)" in problems[0]

    def test_non_solution_exits_5_from_compare(self, monkeypatch, capsys):
        _patch_oracle(monkeypatch, lambda ts: ts + [(11, 50, 60)])
        assert main(["compare", "41", "41"]) == 5
        out = capsys.readouterr().out
        assert "VIOLATION p=41: backward recovery failed for (11, 50, 60)" in out


class TestCorrespondenceOverRange:
    """check_correspondences groups one x-major walk's witnesses by prime;
    it must say exactly what it says for each prime alone."""

    @pytest.mark.parametrize(
        "edit, violated",
        [
            (lambda ts: ts, False),
            (lambda ts: ts[1:], True),  # dropped solution
            (lambda ts: ts + ts[:1], True),  # duplicated solution
            (lambda ts: ts + [(11, 50, 60)], True),  # non-solution
        ],
        ids=["clean", "drop", "duplicate", "non-solution"],
    )
    def test_equals_per_prime_concatenation(self, monkeypatch, edit, violated):
        _patch_oracle(monkeypatch, edit)
        primes = primes_in_range(2, 300)
        per_prime = [line for p in primes for line in check_correspondences((p,))]
        assert check_correspondences(primes) == per_prime
        assert bool(per_prime) == violated

    @pytest.mark.parametrize(
        "edit",
        [lambda ts: ts[1:], lambda ts: ts + ts[:1], lambda ts: ts + [(11, 50, 60)]],
        ids=["drop", "duplicate", "non-solution"],
    )
    def test_fault_on_one_prime_is_reported_for_it_alone(self, monkeypatch, edit):
        _patch_oracle(monkeypatch, edit, only=41)
        problems = check_correspondences([37, 41, 43])
        assert problems
        assert all(line.startswith("p=41: ") for line in problems), problems

    def test_domain(self):
        assert check_correspondences([]) == []
        with pytest.raises(DomainError):
            check_correspondences([2, 9, 11])
        with pytest.raises(DomainError):
            check_correspondences([5, 3])
        with pytest.raises(DomainError):
            check_correspondences([3, 3])


def _reference_problems(p, witnesses, solutions):
    """The two-way check as first written: every witness built and
    recovered, every oracle triple recovered and rebuilt."""
    problems = []
    witness_side = Counter()
    for w in witnesses:
        s = build_solution(w)
        witness_side[s.type, (s.x, s.y, s.z)] += 1
        try:
            back = recover_witness(s.p, s.x, s.y)
        except (DomainError, CorrespondenceError) as exc:
            problems.append(f"p={p}: forward round-trip failed for {w}: {exc}")
            continue
        if back != w:
            problems.append(f"p={p}: forward round-trip {w} -> {s} -> {back}")
    oracle_side = Counter()
    for x, y, z in solutions:
        try:
            w = recover_witness(p, x, y)
        except (DomainError, CorrespondenceError) as exc:
            problems.append(f"p={p}: backward recovery failed for {(x, y, z)}: {exc}")
            continue
        oracle_side[w.type, (x, y, z)] += 1
        s = build_solution(w)
        if (s.x, s.y, s.z) != (x, y, z):
            problems.append(f"p={p}: backward round-trip {(x, y, z)} -> {w} -> {(s.x, s.y, s.z)}")
    if witness_side != oracle_side:

        def listing(side):
            return "[" + ", ".join(f"{t.value} {s}" for t, s in sorted(side.elements())) + "]"

        problems.append(
            f"p={p}: solutions differ (oracle-only {listing(oracle_side - witness_side)}, "
            f"witness-only {listing(witness_side - oracle_side)})"
        )
    return problems


def _reference_check(primes):
    found = {p: [] for p in primes}
    for w in recover_module._witnesses_x_major(primes):
        found[w.p].append(w)
    return [
        line
        for p, solutions in recover_module._solutions_x_major(primes)
        for line in _reference_problems(p, found.pop(p), solutions)
    ]


def _patch_witnesses(monkeypatch, edit):
    """Make check_correspondences see edit(the walk's witnesses, in order)."""
    true_walk = recover_module._witnesses_x_major

    def edited(ps):
        return iter(edit(list(true_walk(ps))))

    monkeypatch.setattr(recover_module, "_witnesses_x_major", edited)


class TestCertifiedOnce:
    """check_correspondences builds each witness once and recovers no
    solution a witness built, yet says what the full check says."""

    @pytest.mark.parametrize(
        "oracle_edit, witness_edit",
        [
            (None, None),
            (lambda ts: ts[1:], None),
            (lambda ts: ts + ts[:1], None),
            (lambda ts: ts + [(11, 50, 60)], None),
            (lambda ts: [(x, y, z + 1) for x, y, z in ts[:1]] + ts[1:], None),
            (None, lambda ws: ws[:500] + ws[501:]),
            (None, lambda ws: ws[:501] + ws[500:]),
        ],
        ids=[
            "clean",
            "oracle-drop",
            "oracle-duplicate",
            "oracle-non-solution",
            "oracle-wrong-z",
            "witness-drop",
            "witness-duplicate",
        ],
    )
    def test_equals_the_full_two_way_check(self, monkeypatch, oracle_edit, witness_edit):
        if oracle_edit:
            _patch_oracle(monkeypatch, oracle_edit)
        if witness_edit:
            _patch_witnesses(monkeypatch, witness_edit)
        expected = _reference_check(PRIMES_TO_300)
        assert check_correspondences(PRIMES_TO_300) == expected
        assert bool(expected) == bool(oracle_edit or witness_edit)

    @pytest.fixture
    def calls(self, monkeypatch):
        """Counts of the calls check_correspondences makes to build_solution
        and recover_witness."""
        calls = Counter()

        def counted(name):
            f = getattr(recover_module, name)

            def wrapper(*args):
                calls[name] += 1
                return f(*args)

            monkeypatch.setattr(recover_module, name, wrapper)

        counted("build_solution")
        counted("recover_witness")
        return calls

    def test_one_build_per_witness_and_no_recovery(self, calls):
        assert check_correspondences(PRIMES_TO_300) == []
        assert calls == {"build_solution": 1563}
        assert sum(len(list(iter_witnesses(p))) for p in PRIMES_TO_300) == 1563

    def test_one_build_per_unmatched_triple(self, monkeypatch, calls):
        # Each prime's first triple gets a wrong z, so none of the 62 is
        # matched by a witness; each is derived and built once, not recovered.
        _patch_oracle(monkeypatch, lambda ts: [(x, y, z + 1) for x, y, z in ts[:1]] + ts[1:])
        problems = check_correspondences(PRIMES_TO_300)
        assert calls == {"build_solution": 1563 + 62}
        assert problems == _reference_check(PRIMES_TO_300)
        assert len(PRIMES_TO_300) == 62 and len(problems) == 124
