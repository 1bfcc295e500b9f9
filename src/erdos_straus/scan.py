"""Range verification: every prime in [lo, hi] should admit a witness.

A scan walks the primes of a range, records the first witness (and,
in exhaustive mode, the full k sets and counts per type), tags each
prime with its residues mod 24 and mod 840, and reports any prime
with no witness at all as a counterexample. A task sieves a range of
numbers and searches its primes one by one (first-only) or walks x
once for all of them (exhaustive, witness._witnesses_x_major). A
first-only task formats each line straight from the search's
(x, d, type) tuple; scan_primes builds ScanRecord objects instead.
ScanStream, the CLI's scan, runs one task per chunk of [lo, hi], in
process or on a pool, and yields the text in order (first-only text in
process in pieces of _PIECE_LINES lines), so output is identical for
any worker count. scan_primes runs [lo, hi] as one task in process:
the unchunked reference the stream must equal.

Also checks the k = 0 and divisor-k structural rules, both through
_rule_violations: each visit's closed-form type I witness, which the
rule's proof gives, is tested in one pass per sieve chunk, and a visit
whose witness fails is a violation. Computes residue-class statistics
including the six classes mod 840 = {1, 121, 169, 289, 361, 529} that
the known polynomial identities do not cover.
"""

from __future__ import annotations

import json
import math
import os
import time
from collections import Counter
from itertools import compress
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Optional

from .arith import primes_in_range
from .errors import DomainError
from .witness import SolutionType, Witness, _first_witness_unchecked, _witnesses_x_major

__all__ = [
    "HARD_RESIDUES_840",
    "ScanRecord",
    "ScanReport",
    "ScanStream",
    "record_line",
    "summary_line",
    "scan_primes",
    "check_k0_type1_rule",
    "check_divisor_k_rule",
    "residue_stats",
]

HARD_RESIDUES_840 = frozenset({1, 121, 169, 289, 361, 529})

_MODES = ("first-only", "exhaustive")
_HI_CAP = 1 << 32


class ScanRecord(NamedTuple):
    """Per-prime scan outcome.

    In first-only mode the k sets and counts are None (not computed);
    in exhaustive mode they are always tuples/ints. first is None only
    when the prime has no witness of either type.
    """

    p: int
    first: Optional[Witness]
    type1_k_set: Optional[tuple[int, ...]]
    type2_k_set: Optional[tuple[int, ...]]
    witness_count_by_type: Optional[tuple[int, int]]
    residue_24: int
    residue_840: int


class ScanReport(NamedTuple):
    """Outcome of one range scan; records ascend by p.

    scan_primes keeps every record. ScanStream streams them as text,
    so its report has records=(); prime_count counts the primes
    scanned either way.
    """

    lo: int
    hi: int
    mode: str
    records: tuple[ScanRecord, ...]
    counterexamples: tuple[int, ...]
    residue_summary: dict[int, dict[str, Any]]
    elapsed: float
    prime_count: int


# The JSON text of each solution type in _chunk_pieces' f-string, looked
# up faster than SolutionType.value.
_TYPE_JSON = {t: f'"{t.value}"' for t in SolutionType}


# The one encoder of every record, summary and --json line: compact,
# key-sorted JSON, no newline; made once, not per line as json.dumps does.
_compact = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _witness_json(w: Witness) -> dict[str, Any]:
    """The witness as a JSON object: a record's first, an entry of check --json."""
    return {"p": w.p, "x": w.x, "d": w.d, "k": w.k, "type": w.type.value}


def record_line(r: ScanRecord) -> str:
    """The record as one line of compact, key-sorted JSON, no newline.

    A first-only chunk task writes the same bytes with one f-string per
    line (_chunk_pieces), the one JSON written by hand, since a scan
    writes a line per prime; the tests hold the two equal.
    """
    counts = r.witness_count_by_type
    return _compact(
        {
            "p": r.p,
            "first": None if r.first is None else _witness_json(r.first),
            "type1_k_set": r.type1_k_set,
            "type2_k_set": r.type2_k_set,
            "witness_counts": None if counts is None else {"type1": counts[0], "type2": counts[1]},
            "residue_24": r.residue_24,
            "residue_840": r.residue_840,
        }
    )


def summary_line(report: ScanReport, workers: int) -> str:
    """The report's summary as one line of compact, key-sorted JSON, no newline."""
    summary = {
        "lo": report.lo,
        "hi": report.hi,
        "mode": report.mode,
        "workers": workers,
        "prime_count": report.prime_count,
        "counterexamples": list(report.counterexamples),
        "residue_summary": {str(k): v for k, v in report.residue_summary.items()},
        "elapsed_seconds": round(report.elapsed, 3),
    }
    return _compact(summary)


def _check_cap(hi: int) -> None:
    """DomainError if hi > 2**32, the top of every range a command sieves."""
    if hi > _HI_CAP:
        raise DomainError(f"hi={hi} exceeds the supported cap {_HI_CAP}")


def _usable_cpus() -> int:
    """CPUs this process may run on; the most pool processes worth starting."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _check_scan(lo: int, hi: int, mode: str) -> None:
    """DomainError unless mode is known and 2 <= lo <= hi <= 2**32."""
    if mode not in _MODES:
        raise DomainError(f"mode must be one of {_MODES}, got {mode!r}")
    if not 2 <= lo <= hi:
        raise DomainError(f"need 2 <= lo <= hi, got lo={lo}, hi={hi}")
    _check_cap(hi)


# Widest chunk of numbers one scan task covers. It bounds the sieve
# window and the text a pool chunk hands back whole (about 8,000 lines
# near 10**7); in process, first-only text goes out in pieces.
_SPAN = 1 << 17
_PIECE_LINES = 1024

# Chunks per pool process. The cost of a prime grows with p, so several
# chunks per process let the pool even out the load; exhaustive chunks
# factor the x they share again, so more chunks cost more. On 2 CPUs, 4
# against 16 ran `scan 2 499999 --threads 2` in 0.44 s against 0.50 s
# and `scan 2 20000 --exhaustive --threads 2` in 9.9 s against 10.2 s
# (medians of alternating pairs).
_CHUNKS_PER_PROCESS = 4


def _chunk_bounds(lo: int, hi: int, parts: int) -> list[tuple[int, int]]:
    """[lo, hi] cut into about `parts` contiguous pieces, none wider than _SPAN."""
    step = min(_SPAN, -(-(hi - lo + 1) // parts))
    return [(a, min(a + step - 1, hi)) for a in range(lo, hi + 1, step)]


def _exhaustive_records(primes: list[int]) -> list[ScanRecord]:
    """Exhaustive records of ascending sieved primes from one x-major walk.

    A prime's first witness is the first the walk yields for it.
    """
    first: dict[int, Witness] = {}
    k_sets = {p: (set(), set()) for p in primes}
    counts = {p: [0, 0] for p in primes}
    for w in _witnesses_x_major(primes):
        first.setdefault(w.p, w)
        t = w.type is SolutionType.TYPE_II
        k_sets[w.p][t].add(w.k)
        counts[w.p][t] += 1
    records = []
    for p in primes:
        k1, k2 = (tuple(sorted(ks)) for ks in k_sets[p])
        records.append(ScanRecord(p, first.get(p), k1, k2, tuple(counts[p]), p % 24, p % 840))
    return records


# A tally maps each residue class to [count, k0_type1, min_total,
# max_total]: its primes, counted in one pass, and the witness
# statistics of their exhaustive records, if any were given (first-only
# tallies leave the last three at their start values). with_witness is
# not kept: it is the count less the class's counterexamples.
_Tally = dict[int, list]


def _tally(primes: Iterable[int], modulus: int, records: Iterable[ScanRecord] = ()) -> _Tally:
    tally: _Tally = {
        residue: [count, 0, math.inf, 0]
        for residue, count in Counter(p % modulus for p in primes).items()
    }
    for r in records:
        entry = tally[r.p % modulus]
        total = sum(r.witness_count_by_type)
        entry[1] += 0 in r.type1_k_set
        entry[2] = min(entry[2], total)
        entry[3] = max(entry[3], total)
    return tally


def _merge_tally(into: _Tally, part: _Tally) -> None:
    for residue, (count, k0, lo, hi) in part.items():
        c, k, mn, mx = into.get(residue, (0, 0, math.inf, 0))
        into[residue] = [c + count, k + k0, min(mn, lo), max(mx, hi)]


def _finish_tally(
    tally: _Tally, modulus: int, mode: str, counterexamples: Iterable[int]
) -> dict[int, dict[str, Any]]:
    """The residue summary of one scan's tally and counterexamples; each
    fraction is divided here, once. A first-only scan has no witness
    statistics."""
    exhaustive = mode == "exhaustive"
    missing = Counter(p % modulus for p in counterexamples)
    summary: dict[int, dict[str, Any]] = {}
    for residue in sorted(tally):
        count, k0, lo, hi = tally[residue]
        summary[residue] = {
            "count": count,
            "with_witness": count - missing[residue],
            "k0_type1_fraction": k0 / count if exhaustive else None,
            "min_witness_count": lo if exhaustive else None,
            "max_witness_count": hi if exhaustive else None,
            "hard": modulus == 840 and residue in HARD_RESIDUES_840,
        }
    return summary


def _chunk_pieces(task: tuple[int, int, str], tally: _Tally, missing: list[int]) -> Iterator[str]:
    """A chunk's record text, piece by piece, from one sieve; its primes
    are counted into tally (mod 24) in one pass, and each with no
    witness goes into missing. First-only: a piece per _PIECE_LINES
    lines, formatted straight from the search's (x, d, type) in the
    bytes record_line gives for the scan_primes record. Exhaustive: the
    chunk's text as one piece."""
    lo, hi, mode = task
    primes = primes_in_range(lo, hi)
    if mode == "exhaustive":
        records = _exhaustive_records(primes)
        _merge_tally(tally, _tally(primes, 24, records))
        missing.extend(r.p for r in records if r.first is None)
        yield "".join([record_line(r) + "\n" for r in records])
        return
    _merge_tally(tally, _tally(primes, 24))
    for i in range(0, len(primes), _PIECE_LINES):
        lines = []
        for p in primes[i : i + _PIECE_LINES]:
            hit = _first_witness_unchecked(p)
            if hit is None:
                missing.append(p)
                lines.append(record_line(ScanRecord(p, None, None, None, None, p % 24, p % 840)))
                continue
            x, d, t = hit
            lines.append(
                f'{{"first":{{"d":{d},"k":{x - (p + 3) // 4},"p":{p},"type":{_TYPE_JSON[t]},'
                f'"x":{x}}},"p":{p},"residue_24":{p % 24},"residue_840":{p % 840},'
                '"type1_k_set":null,"type2_k_set":null,"witness_counts":null}'
            )
        yield "\n".join(lines) + "\n"


def _chunk_text(task: tuple[int, int, str]) -> tuple[str, _Tally, list[int]]:
    """Pool task: a chunk's record text whole, its tally mod 24 and its counterexamples."""
    tally: _Tally = {}
    missing: list[int] = []
    return "".join(_chunk_pieces(task, tally, missing)), tally, missing


def _report(
    lo: int, hi: int, mode: str, start: float, tally: _Tally, missing: list[int],
    records: Iterable[ScanRecord] = (),
) -> ScanReport:
    """The ScanReport of a scan begun at perf_counter() = start, from its
    tally mod 24, which also gives the prime count, and counterexamples."""
    summary = _finish_tally(tally, 24, mode, missing)
    prime_count = sum(entry[0] for entry in tally.values())
    elapsed = time.perf_counter() - start
    return ScanReport(lo, hi, mode, tuple(records), tuple(missing), summary, elapsed, prime_count)


def scan_primes(lo: int, hi: int, mode: str = "first-only") -> ScanReport:
    """Scan every prime in [lo, hi] in process and keep the records.

    The whole range is one task: one sieve and, in exhaustive mode, one
    x-major walk, so each x is factored once. This is the unchunked
    reference for ScanStream, whose chunked, pooled scan of the same
    range gives the same record lines and summary.
    """
    _check_scan(lo, hi, mode)
    start = time.perf_counter()
    # The primes come from the sieve, so neither mode repeats the
    # primality check that the public first_witness and iter_witnesses make.
    primes = primes_in_range(lo, hi)
    if mode == "exhaustive":
        records = _exhaustive_records(primes)
    else:
        records = []
        for p in primes:
            hit = _first_witness_unchecked(p)
            w = None if hit is None else Witness(p, *hit)
            records.append(ScanRecord(p, w, None, None, None, p % 24, p % 840))
    tally = _tally(primes, 24, records if mode == "exhaustive" else ())
    counterexamples = [r.p for r in records if r.first is None]
    return _report(lo, hi, mode, start, tally, counterexamples, records)


class ScanStream:
    """One scan's record lines as finished text, piece by piece, in order.

    Iterating cuts [lo, hi] into chunks and runs them on a pool of one
    process per worker, capped at the usable CPUs, or in process, piece
    by piece, when that is one process or the range one chunk. Each task
    formats its own record lines and tallies its primes, so only text, a
    tally and counterexamples leave the process that ran it. A first-only
    chunk's text is held whole only on a pool (see _chunk_pieces). Once
    iteration ends, `report` is the scan's ScanReport: records=(), and
    the prime count, counterexamples and residue summary merged from
    the chunk tallies, equal to scan_primes' for the same range.
    """

    def __init__(self, lo: int, hi: int, mode: str = "first-only", workers: int = 1) -> None:
        _check_scan(lo, hi, mode)
        if workers < 1:
            raise DomainError(f"workers must be >= 1, got {workers}")
        self.lo, self.hi, self.mode, self.workers = lo, hi, mode, workers
        self.report: Optional[ScanReport] = None

    def __iter__(self) -> Iterator[str]:
        start = time.perf_counter()
        tally: _Tally = {}
        counterexamples: list[int] = []
        processes = min(self.workers, _usable_cpus())
        parts = 1 if processes == 1 else _CHUNKS_PER_PROCESS * processes
        chunks = [(a, b, self.mode) for a, b in _chunk_bounds(self.lo, self.hi, parts)]
        if processes == 1 or len(chunks) == 1:
            for chunk in chunks:
                yield from _chunk_pieces(chunk, tally, counterexamples)
        else:
            from multiprocessing import Pool  # only a pool needs it; the import costs 0.9 MB
            with Pool(processes=processes) as pool:
                for text, part, found in pool.imap(_chunk_text, chunks):
                    yield text
                    _merge_tally(tally, part)
                    counterexamples.extend(found)
        self.report = _report(self.lo, self.hi, self.mode, start, tally, counterexamples)


def _check_rule_hi(hi: int) -> None:
    """DomainError unless 3 <= hi <= 2**32, the bound either rule takes."""
    if hi < 3:
        raise DomainError(f"need hi >= 3, got hi={hi}")
    _check_cap(hi)


def _rule_violations(hi: int, misses: Callable[[int, int], list]) -> list:
    """The key of each visit of a structural rule up to hi whose
    closed-form type I witness fails. misses(lo, hi) lists, sorted, the
    keys of the failed visits of the primes in one chunk [lo, hi], each
    tested inline in one pass; the chunks of [3, hi] span at most _SPAN
    numbers.
    """
    _check_rule_hi(hi)
    return [key for a, b in _chunk_bounds(3, hi, 1) for key in misses(a, b)]


def _k0_misses(primes: list[int]) -> list[int]:
    """The primes p % 24 != 1 whose d of check_k0_type1_rule fails at
    x = ceil(p/4): d does not divide x*x, or p*x + d is not 0 mod
    q = 4x - p."""
    # x and d are at least 1, so binding them never ends the test
    return [
        p
        for p in primes
        if p % 24 != 1
        and (x := (p + 3) // 4)
        and (d := 1 if p % 4 == 3 else 2 if x % 2 == 0 else x)
        and (x * x % d or (p * x + d) % (4 * x - p))
    ]


def check_k0_type1_rule(hi: int) -> list[int]:
    """Primes p <= hi (p != 2, p % 24 != 1) whose closed-form type I
    witness fails at the smallest x = ceil(p/4). A failed witness is a
    violation, never rescued by another d. Expected empty.

    The proof, also at witness._first_witness_unchecked: d = 1 for
    p % 4 == 3 (q = 1); otherwise q = 3 and any d = 2 (mod 3) works: 2
    for even x, and x for odd x (p % 24 == 17, where x = 2 (mod 3)).
    """
    return _rule_violations(hi, lambda a, b: _k0_misses(primes_in_range(a, b)))


def _divisor_k_pairs(lo: int, hi: int) -> Iterator[tuple[int, int]]:
    """The pairs (m, k) with k | m of the primes p = 4m - 1 in [lo, hi], lazily.

    One sieve of [lo, hi] marks its m in a flag table. The lesser t of
    k and m/k is at most isqrt(m), so for each t up to isqrt of the top
    m, the flagged multiples m >= t*t of t, a strided slice of the
    table, give k = t and k = m/t, once when m = t*t (only m = 1, as
    4t*t - 1 = (2t - 1)(2t + 1)): each pair comes once. Only the table
    is held. A loop, not a generator expression: an expression's tuple
    and iterator per m took 12% longer at hi = 99,800 in a fresh process.
    """
    m_lo, m_hi = (lo + 4) // 4, (hi + 1) // 4
    flags = bytearray(m_hi - m_lo + 1)
    for p in primes_in_range(lo, hi):
        if p % 4 == 3:
            flags[(p + 1) // 4 - m_lo] = 1
    for t in range(1, math.isqrt(m_hi) + 1):
        square = t * t
        first = -(-max(m_lo, square) // t) * t
        for m in compress(range(first, m_hi + 1, t), flags[first - m_lo :: t]):
            yield m, t
            if m != square:
                yield m, m // t


def _divisor_k_misses(lo: int, hi: int) -> list[tuple[int, int]]:
    """The pairs (p, k) of the primes p = 4m - 1 in [lo, hi] and each
    k | m whose d = x*x/k of check_divisor_k_rule fails at x = m + k:
    d does not divide x*x, or p*x + d is not 0 mod q = 4x - p."""
    # p, x and d are at least 1, so binding them never ends the test
    return sorted(
        (p, k)
        for m, k in _divisor_k_pairs(lo, hi)
        if (p := 4 * m - 1)
        and (x := m + k)
        and (d := x * x // k)
        and (x * x % d or (p * x + d) % (4 * x - p))
    )


def check_divisor_k_rule(hi: int) -> list[tuple[int, int]]:
    """Pairs (p, k) with p <= hi, p % 4 == 3 and k a divisor of
    m = ceil(p/4) whose closed-form type I witness fails at x = m + k.
    A failed witness is a violation, never rescued by another d.
    Expected empty.

    Every such k lies in the k range, whose top is ceil(p/2) - m = m.
    The proof: d = x*x/k, q = 4k + 1, so 4k = -1 and p = 4x (mod q),
    and -p*x = -4x*x = -4k*(x*x/k) = x*x/k (mod q); k | x since x = m + k.
    """
    return _rule_violations(hi, _divisor_k_misses)


def residue_stats(report: ScanReport, modulus: int) -> dict[int, dict[str, Any]]:
    """Residue-class statistics of an exhaustive report.

    Per class: prime count, fraction with a k = 0 type I witness,
    min/max total witness counts, and a hard flag marking the six
    uncovered classes when modulus is 840.
    """
    if modulus < 2:
        raise DomainError(f"modulus must be >= 2, got {modulus}")
    if report.mode != "exhaustive":
        raise DomainError("residue_stats needs an exhaustive-mode report")
    if len(report.records) != report.prime_count:
        raise DomainError("residue_stats needs a report that kept its records")
    records = report.records
    tally = _tally((r.p for r in records), modulus, records)
    return _finish_tally(tally, modulus, report.mode, report.counterexamples)
