"""Independent correctness checks of the CLI's outputs.

None of these checks calls the witness or recover code of the program
under test: primes come from a sieve in this file, witnesses are
searched for and re-derived from the closed forms y, z of the method
(PAPER.md), and divisors are computed here by trial division.

Every check answers with the set of primes it failed, so that the
benchmark can report failed primes against attempted primes. No check
is timed.
"""

from __future__ import annotations

import json
import re
from math import isqrt
from random import Random
from typing import Callable, Iterator, Optional

Witness = tuple[int, int, str]  # (x, d, "I" or "II")

_VIOLATION_PRIME = re.compile(r"p=(\d+):")


def sieve(lo: int, hi: int) -> list[int]:
    """Primes p with lo <= p <= hi, ascending, by a plain sieve."""
    if hi < 2:
        return []
    flags = bytearray([1]) * (hi + 1)
    flags[0] = flags[1] = 0
    for i in range(2, isqrt(hi) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(range(i * i, hi + 1, i)))
    return [i for i in range(max(lo, 2), hi + 1) if flags[i]]


def divisors_of_square(x: int) -> list[int]:
    """Divisors of x*x, ascending, from a trial-division factorization of x."""
    divs = [1]
    m, f = x, 2
    while f * f <= m:
        if m % f == 0:
            e = 0
            while m % f == 0:
                m //= f
                e += 1
            divs = [d * f**i for d in divs for i in range(2 * e + 1)]
        f += 1
    if m > 1:
        divs = [d * m**i for d in divs for i in range(3)]
    return sorted(divs)


def certifies(p: int, x: int, d: int, kind: str) -> bool:
    """True iff witness (x, d) of the given type yields a solution for p.

    Re-derives y and z from the closed forms, requires every division
    to be exact, x <= y <= z, the exact identity, and p | y exactly for
    type II.
    """
    q = 4 * x - p
    if not (p + 3) // 4 <= x <= (p + 1) // 2 or q < 1 or d < 1:
        return False
    if (x * x) % d:
        return False
    if kind == "I":
        y_num, z_num = p * x + d, p * (x + p * (x * x // d))
    elif kind == "II" and d <= x:
        y_num, z_num = p * (x + d), p * (x + x * x // d)
    else:
        return False
    if y_num % q or z_num % q:
        return False
    y, z = y_num // q, z_num // q
    return (
        x <= y <= z
        and 4 * x * y * z == p * (y * z + x * z + x * y)
        and (y % p == 0) == (kind == "II")
    )


def has_type1_at(p: int, x: int) -> bool:
    """True iff some d | x*x satisfies the type I congruence at x."""
    q = 4 * x - p
    return any((p * x + d) % q == 0 for d in divisors_of_square(x))


def witnesses(p: int) -> Iterator[Witness]:
    """Every witness (x, d, type) of p in the method's order.

    x ascending, then d ascending over the divisors of x*x, type I
    before type II at equal (x, d); see PAPER.md for the congruences.
    """
    for x in range((p + 3) // 4, (p + 1) // 2 + 1):
        q = 4 * x - p
        t1, t2 = (-p * x) % q, (-x) % q
        for d in divisors_of_square(x):
            r = d % q
            if r == t1:
                yield x, d, "I"
            if r == t2 and d <= x:
                yield x, d, "II"


def _record_ok(rec: dict) -> bool:
    p = rec["p"]
    first = rec["first"]
    if first is None or first["p"] != p:
        return False
    x, d, kind = first["x"], first["d"], first["type"]
    return (
        first["k"] == x - (p + 3) // 4
        and certifies(p, x, d, kind)
        and next(witnesses(p)) == (x, d, kind)
        and (rec["residue_24"], rec["residue_840"]) == (p % 24, p % 840)
        and (rec["type1_k_set"], rec["type2_k_set"], rec["witness_counts"]) == (None, None, None)
    )


def check_scan(data: bytes, primes: list[int], verdicts: Optional[dict[bytes, bool]] = None) -> set[int]:
    """Failed primes of one first-only scan record file.

    A prime fails when its record is missing, duplicated, out of order,
    unparsable, has no witness, or fails a record check: the witness
    must certify a solution by the closed forms and be the first one
    the search here finds. A record for a p outside the expected
    primes fails as that p. `verdicts` caches the check of each record
    line across calls.
    """
    verdicts = {} if verdicts is None else verdicts
    wanted = set(primes)
    seen: set[int] = set()
    failed: set[int] = set()
    last = 0
    for line in data.splitlines():
        try:
            rec = json.loads(line)
            p = rec["p"]
        except (ValueError, KeyError, TypeError):
            return set(primes)
        if p not in wanted or p in seen or p <= last:
            failed.add(p)
        seen.add(p)
        last = max(last, p)
        if line not in verdicts:
            try:
                verdicts[line] = _record_ok(rec)
            except (KeyError, TypeError, ValueError, ZeroDivisionError, StopIteration):
                verdicts[line] = False
        if not verdicts[line]:
            failed.add(p)
    failed.update(wanted - seen)
    return failed


def diff_lines(reference: bytes, other: bytes, primes: list[int]) -> set[int]:
    """Primes whose record lines differ between two record files."""
    if reference == other:
        return set()
    ref, oth = reference.splitlines(), other.splitlines()
    if len(ref) != len(oth) or len(ref) != len(primes):
        return set(primes)
    return {p for p, a, b in zip(primes, ref, oth) if a != b}


def check_compare(data: bytes, primes: list[int], lo: int, hi: int) -> set[int]:
    """Failed primes of `compare --json`: its range, prime count and violations."""
    try:
        doc = json.loads(data)
        if (doc["lo"], doc["hi"], doc["primes"]) != (lo, hi, len(primes)):
            return set(primes)
        failed = set()
        for line in doc["violations"]:
            m = _VIOLATION_PRIME.match(line)
            if m is None:
                return set(primes)
            failed.add(int(m.group(1)))
    except (ValueError, KeyError, TypeError):
        return set(primes)
    return failed


def check_properties(
    data: bytes, primes: list[int], hi: int, divisor_hi: int, sample: list[int]
) -> set[int]:
    """Failed primes of `properties --json`.

    Every prime in a violation list fails. On a seeded sample of
    primes the two rules are re-checked here, and a sampled prime
    whose rule fails here fails too, listed or not.
    """
    try:
        doc = json.loads(data)
        if (doc["k0_rule_hi"], doc["divisor_rule_hi"]) != (hi, divisor_hi):
            return set(primes)
        failed = {int(p) for p in doc["k0_violations"]}
        failed.update(int(p) for p, _k in doc["divisor_violations"])
    except (ValueError, KeyError, TypeError):
        return set(primes)
    for p in sample:
        m = (p + 3) // 4
        if p % 24 != 1 and not has_type1_at(p, m):
            failed.add(p)
        if p % 4 == 3 and p <= divisor_hi:
            k_max = (p + 1) // 2 - m
            ks = [k for k in range(1, min(m, k_max) + 1) if m % k == 0]
            if not all(has_type1_at(p, m + k) for k in ks):
                failed.add(p)
    return failed


def negative_selfcheck(
    kind: str, data: bytes, primes: list[int], score: Callable[[bytes], set[int]], rng: Random
) -> bool:
    """Corrupt a correct output and require the checker to flag exactly that.

    For record files: one record gets a wrong d and another record is
    dropped, so exactly those two primes must fail. For JSON reports:
    one violation naming a seeded prime is added, so exactly that prime
    must fail.
    """
    if kind == "scan":
        lines = data.splitlines(keepends=True)
        if len(lines) < 2:
            return True
        records = [json.loads(line) for line in lines]
        order = rng.sample(range(len(lines)), len(lines))
        # d + 1 must not divide x*x, so the corrupted witness cannot certify.
        wrong = next(
            i for i in order
            if (records[i]["first"]["x"] ** 2) % (records[i]["first"]["d"] + 1)
        )
        dropped = next(i for i in order if i != wrong)
        records[wrong]["first"]["d"] += 1
        lines[wrong] = (json.dumps(records[wrong], sort_keys=True, separators=(",", ":")) + "\n").encode()
        want = {records[wrong]["p"], records[dropped]["p"]}
        del lines[dropped]
        return score(b"".join(lines)) == want
    doc = json.loads(data)
    p = rng.choice(primes)
    if kind == "compare":
        doc["violations"].append(f"p={p}: injected by the benchmark's self-check")
    else:
        doc["k0_violations"].append(p)
    return score(json.dumps(doc).encode()) == {p}
