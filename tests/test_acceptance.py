"""Acceptance gate: one test per shipped guarantee, each timed where the
guarantee states a budget and printing one PASS/FAIL line.

The type I table fixture is transcribed verbatim from the published
reference tabulation, and it stays byte-for-byte as transcribed. Its
p=47 row is an erratum of that tabulation: it lists k=5, where no
solution exists, and omits k=6 and k=8, which have type I solutions.
The correction lives here, in TYPE1_ERRATA, and the type I test proves
it (brute-force oracle plus exact identities) before applying it, so
the fixture guard still fails if the fixture is edited or the
correction is wrong.
"""

import json
import time
from fractions import Fraction
from pathlib import Path

from erdos_straus import (
    SolutionType,
    check_divisor_k_rule,
    check_k0_type1_rule,
    check_correspondences,
    iter_witnesses,
    k_table,
    primes_in_range,
    solve_bruteforce,
)
from erdos_straus.cli import main

DATA = Path(__file__).parent / "data"

# Rows of the reference type I tabulation known to be wrong:
# p -> (row as transcribed in the fixture, corrected row).
TYPE1_ERRATA = {
    47: ((0, 1, 2, 3, 4, 5, 9, 12), (0, 1, 2, 3, 4, 6, 8, 9, 12)),
}


def load_fixture(name: str) -> dict[int, tuple[int, ...]]:
    rows = {}
    for line in (DATA / name).read_text().splitlines():
        p, *ks = line.split(",")
        rows[int(p)] = tuple(int(k) for k in ks)
    return rows


def verdict(name: str, ok: bool, detail: str = "") -> bool:
    state = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{state} {name}{suffix}")
    return ok


def compare_table(
    fixture_name: str,
    stype: SolutionType,
    errata: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] | None = None,
) -> tuple[list[str], float]:
    fixture = load_fixture(fixture_name)
    for p, (transcribed, corrected) in (errata or {}).items():
        assert fixture[p] == transcribed, (
            f"{fixture_name} row p={p} is {fixture[p]}, not the transcribed "
            f"{transcribed}; the fixture must stay as transcribed"
        )
        fixture[p] = corrected
    start = time.perf_counter()
    rows = k_table(100, stype)
    elapsed = time.perf_counter() - start
    mismatches = []
    computed = dict(rows)
    if set(computed) != set(fixture):
        mismatches.append(f"prime sets differ: {sorted(set(computed) ^ set(fixture))}")
    for p in sorted(fixture):
        if computed.get(p) != fixture[p]:
            mismatches.append(
                f"p={p}: fixture {fixture[p]} vs computed {computed.get(p)}"
            )
    return mismatches, elapsed


def prove_p47_type1_erratum(corrected: tuple[int, ...]) -> None:
    """Check the corrected p=47 type I row without going through k_table."""
    p, lo = 47, 12  # lo = ceil(p/4), so k = x - 12
    solutions = solve_bruteforce(p)
    # Type I means p does not divide y (README, witness table).
    oracle_ks = tuple(sorted({x - lo for x, y, _ in solutions if y % p}))
    assert oracle_ks == corrected, f"oracle type I k set for 47 is {oracle_ks}"
    # k=5 is x=17: 4/47 - 1/17 = 21/799 would need 1/y + 1/z, i.e. a
    # divisor u of 799**2 = 17**2 * 47**2 with u = -799 = 20 (mod 21).
    assert [s for s in solutions if s[0] == 17] == []
    assert Fraction(4, 47) - Fraction(1, 17) == Fraction(21, 799)
    divisors = [17**a * 47**b for a in range(3) for b in range(3)]
    assert all(u % 21 != 20 for u in divisors)
    # k=6 (x=18, d=4) and k=8 (x=20, d=50) are genuine type I solutions.
    for x, y, z in ((18, 34, 7191), (20, 30, 564)):
        assert Fraction(1, x) + Fraction(1, y) + Fraction(1, z) == Fraction(4, p)
        assert y % p != 0 and x - lo in corrected


def test_acceptance_type1_k_table_matches_fixture():
    prove_p47_type1_erratum(TYPE1_ERRATA[47][1])
    mismatches, elapsed = compare_table(
        "type1_k_table_p100.csv", SolutionType.TYPE_I, TYPE1_ERRATA
    )
    ok = not mismatches and elapsed < 1.0
    verdict(
        "type I k table reproduces the transcribed fixture with the proved "
        "p=47 erratum applied (< 1 s)",
        ok,
        f"{elapsed:.3f}s" + (f"; {len(mismatches)} row(s) differ" if mismatches else ""),
    )
    assert elapsed < 1.0
    assert not mismatches, (
        "computed table disagrees with the transcribed fixture after the "
        "TYPE1_ERRATA corrections: " + "; ".join(mismatches)
    )


def test_acceptance_type2_k_table_matches_fixture():
    mismatches, elapsed = compare_table("type2_k_table_p100.csv", SolutionType.TYPE_II)
    ok = not mismatches and elapsed < 1.0
    verdict(
        "type II k table reproduces the transcribed fixture (< 1 s)",
        ok,
        f"{elapsed:.3f}s",
    )
    assert elapsed < 1.0
    assert not mismatches, "; ".join(mismatches)
    fixture = load_fixture("type2_k_table_p100.csv")
    assert fixture[2] == (0,)
    assert fixture[73] == (1, 2)


def test_acceptance_witness_oracle_one_to_one_below_2000():
    start = time.perf_counter()
    problems = []
    for p in primes_in_range(2, 1999):
        problems.extend(check_correspondences((p,)))
    elapsed = time.perf_counter() - start
    ok = not problems and elapsed < 60.0
    verdict(
        "witness/oracle sets match per type with both round-trips, p < 2000 (< 60 s)",
        ok,
        f"{elapsed:.1f}s",
    )
    assert elapsed < 60.0
    assert problems == []


def test_acceptance_every_prime_below_one_million_has_witness(tmp_path):
    out = tmp_path / "scan_million.jsonl"
    start = time.perf_counter()
    rc = main(["scan", "2", "999999", "--threads", "8", "--out", str(out)])
    elapsed = time.perf_counter() - start
    missing = []
    count = 0
    for line in out.read_text().splitlines():
        rec = json.loads(line)
        count += 1
        if rec["first"] is None:
            missing.append(rec["p"])
    ok = rc == 0 and not missing and count == 78498 and elapsed < 300.0
    verdict(
        "first witness exists for every prime p < 10**6, exit 0 (< 5 min)",
        ok,
        f"{count} primes, {elapsed:.1f}s",
    )
    assert rc == 0
    assert count == 78498
    assert missing == []
    assert elapsed < 300.0


def test_acceptance_k0_and_divisor_rules_hold():
    start = time.perf_counter()
    k0_violations = check_k0_type1_rule(1_000_000)
    divisor_violations = check_divisor_k_rule(1_000_000)
    elapsed = time.perf_counter() - start
    ok = not k0_violations and not divisor_violations and elapsed < 120.0
    verdict(
        "k=0 and divisor-k rules to 10**6 have no violations (< 2 min)",
        ok,
        f"{elapsed:.1f}s",
    )
    assert elapsed < 120.0
    assert k0_violations == []
    assert divisor_violations == []


def test_acceptance_oracle_divisibility_invariants_below_2000():
    violations = []
    for p in primes_in_range(2, 1999):
        for x, y, z in solve_bruteforce(p, cap=2000):
            if x % p == 0:
                violations.append(f"p={p}: p | x for {(x, y, z)}")
            if z % p != 0:
                violations.append(f"p={p}: p does not divide z for {(x, y, z)}")
            pp = p * p
            if x % pp == 0 or y % pp == 0 or z % pp == 0:
                violations.append(f"p={p}: p**2 divides a coordinate of {(x, y, z)}")
    verdict(
        "oracle solutions for p < 2000 satisfy p∤x, p|z, p**2 ∤ x,y,z",
        not violations,
        f"{len(violations)} violation(s)" if violations else "",
    )
    assert violations == []


def test_acceptance_scan_bytes_identical_across_worker_counts(tmp_path):
    digests = {}
    for workers in (1, 4, 8):
        out = tmp_path / f"scan_w{workers}.jsonl"
        rc = main(
            [
                "scan",
                "2",
                "10000",
                "--exhaustive",
                "--threads",
                str(workers),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        digests[workers] = out.read_bytes()
    ok = digests[1] == digests[4] == digests[8]
    verdict(
        "exhaustive scan of (2, 10**4) is byte-identical for 1, 4, 8 workers",
        ok,
        f"{len(digests[1])} bytes",
    )
    assert ok


def test_acceptance_spot_negatives_p2_and_p73():
    p2_type1 = [
        w for w in iter_witnesses(2) if w.type is SolutionType.TYPE_I
    ]
    p73_at_19 = [w for w in iter_witnesses(73) if w.x == 19]
    oracle_73_at_19 = [t for t in solve_bruteforce(73) if t[0] == 19]
    ok = not p2_type1 and not p73_at_19 and not oracle_73_at_19
    verdict(
        "p=2 admits no type I witness; p=73 admits nothing at x=19",
        ok,
    )
    assert p2_type1 == []
    assert p73_at_19 == []
    assert oracle_73_at_19 == []
