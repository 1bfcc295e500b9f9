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
process or on a pool, and merges chunk results in order, so output is
identical for any worker count. scan_primes runs [lo, hi] as one task
in process: the unchunked reference the stream must equal.

Also checks two structural rules for the k = 0 and divisor-k offsets,
each against a closed-form type I witness before any divisor walk,
and computes residue-class statistics including the six classes
mod 840 = {1, 121, 169, 289, 361, 529} that the known polynomial
identities do not cover.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass
from multiprocessing import Pool
from typing import Any, Iterable, Iterator, Optional

from .arith import divisors, primes_in_range
from .errors import DomainError
from .witness import (
    SolutionType,
    Witness,
    _ascending_square_divisors,
    _first_witness_unchecked,
    _witnesses_x_major,
    _x_bounds,
)

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


@dataclass(frozen=True, slots=True)
class ScanRecord:
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


@dataclass(frozen=True)
class ScanReport:
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


def _json_ints(values: Optional[tuple[int, ...]]) -> str:
    return "null" if values is None else "[" + ",".join(map(str, values)) + "]"


# The JSON text of each solution type, looked up faster than SolutionType.value.
_TYPE_JSON = {t: f'"{t.value}"' for t in SolutionType}


def _first_json(p: int, x: int, d: int, t: SolutionType) -> str:
    """A first witness (p, x, d, t) as compact, key-sorted JSON."""
    return f'{{"d":{d},"k":{x - _x_bounds(p)[0]},"p":{p},"type":{_TYPE_JSON[t]},"x":{x}}}'


def _record_json(
    first: str, p: int, residue_24: int, residue_840: int, k1: str, k2: str, counts: str
) -> str:
    """A record as compact, key-sorted JSON, from the JSON text of its fields."""
    return (
        f'{{"first":{first},"p":{p},"residue_24":{residue_24},"residue_840":{residue_840},'
        f'"type1_k_set":{k1},"type2_k_set":{k2},"witness_counts":{counts}}}'
    )


def record_line(r: ScanRecord) -> str:
    """The record as one line of compact, key-sorted JSON, no newline.

    The same bytes as json.dumps(obj, sort_keys=True, separators=(",", ":"))
    of the record's JSON object, formatted directly because a scan
    writes one line per prime. A first-only chunk task formats its
    lines through the same _first_json and _record_json.
    """
    w = r.first
    counts = r.witness_count_by_type
    return _record_json(
        "null" if w is None else _first_json(w.p, w.x, w.d, w.type),
        r.p,
        r.residue_24,
        r.residue_840,
        _json_ints(r.type1_k_set),
        _json_ints(r.type2_k_set),
        "null" if counts is None else f'{{"type1":{counts[0]},"type2":{counts[1]}}}',
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
    return json.dumps(summary, sort_keys=True, separators=(",", ":"))


def _check_range(lo: int, hi: int) -> None:
    """DomainError unless 2 <= lo <= hi <= 2**32, the range every scan supports."""
    if not 2 <= lo <= hi:
        raise DomainError(f"need 2 <= lo <= hi, got lo={lo}, hi={hi}")
    if hi > _HI_CAP:
        raise DomainError(f"hi={hi} exceeds the supported cap {_HI_CAP}")


def _usable_cpus() -> int:
    """CPUs this process may run on; the most pool processes worth starting."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _check_scan(lo: int, hi: int, mode: str) -> None:
    if mode not in _MODES:
        raise DomainError(f"mode must be one of {_MODES}, got {mode!r}")
    _check_range(lo, hi)


# Widest chunk of numbers one scan task covers. A task's record lines
# are formatted and handed back whole, so this bounds the memory a
# chunk holds (about 8,000 primes per chunk near 10**7).
_SPAN = 1 << 17

# Chunks per pool process. The cost of a prime grows with p, steeply in
# exhaustive mode, so equal-width chunks are not equal work; many small
# ones let the pool even out the load. Exhaustive chunks factor the x
# they share again (87,393 x at 16, 27,458 at 4, 9,999 in one pass for
# `scan 2 20000 --exhaustive --threads 2`), yet on 2 CPUs 4 against 16
# left that scan level: 8.8 s against 8.9 s wall, 15.8 s against 15.9 s
# CPU (medians of alternating pairs), and `scan 2 499999 --threads 2`
# 0.41 s against 0.45 s.
_CHUNKS_PER_PROCESS = 16


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


# A tally maps each residue class to [count, with_witness, k0_type1,
# min_total, max_total]. Only exhaustive records carry witness counts;
# first-only ones leave the last three at their start values.
_Tally = dict[int, list]


def _tally(records: Iterable[ScanRecord], modulus: int) -> _Tally:
    tally: _Tally = {}
    for r in records:
        entry = tally.setdefault(r.p % modulus, [0, 0, 0, math.inf, 0])
        entry[0] += 1
        entry[1] += r.first is not None
        counts = r.witness_count_by_type
        if counts is not None:
            total = counts[0] + counts[1]
            entry[2] += 0 in r.type1_k_set
            entry[3] = min(entry[3], total)
            entry[4] = max(entry[4], total)
    return tally


def _merge_tally(into: _Tally, part: _Tally) -> None:
    for residue, (count, with_witness, k0, lo, hi) in part.items():
        c, w, k, mn, mx = into.get(residue, (0, 0, 0, math.inf, 0))
        into[residue] = [c + count, w + with_witness, k + k0, min(mn, lo), max(mx, hi)]


def _finish_tally(tally: _Tally, modulus: int, mode: str) -> dict[int, dict[str, Any]]:
    """The residue summary of one scan's tally; each fraction is divided
    here, once. A first-only scan has no witness statistics."""
    exhaustive = mode == "exhaustive"
    summary: dict[int, dict[str, Any]] = {}
    for residue in sorted(tally):
        count, with_witness, k0, lo, hi = tally[residue]
        summary[residue] = {
            "count": count,
            "with_witness": with_witness,
            "k0_type1_fraction": k0 / count if exhaustive else None,
            "min_witness_count": lo if exhaustive else None,
            "max_witness_count": hi if exhaustive else None,
            "hard": modulus == 840 and residue in HARD_RESIDUES_840,
        }
    return summary


def _summarize(records: Iterable[ScanRecord], modulus: int, mode: str) -> dict[int, dict]:
    return _finish_tally(_tally(records, modulus), modulus, mode)


def _first_only_text(lo: int, hi: int) -> tuple[str, _Tally, list[int]]:
    """_chunk_text in first-only mode: one pass over the sieved primes,
    no record objects.

    Each line is formatted straight from the search's (x, d, type), in
    the bytes record_line gives for the scan_primes record.
    """
    lines = []
    tally: _Tally = {}
    missing = []
    for p in primes_in_range(lo, hi):
        hit = _first_witness_unchecked(p)
        residue = p % 24
        entry = tally.setdefault(residue, [0, 0, 0, math.inf, 0])
        entry[0] += 1
        if hit is None:
            first = "null"
            missing.append(p)
        else:
            first = _first_json(p, *hit)
            entry[1] += 1
        lines.append(_record_json(first, p, residue, p % 840, "null", "null", "null"))
    lines.append("")  # so the join ends the last line, if any, with a newline
    return "\n".join(lines), tally, missing


def _chunk_text(task: tuple[int, int, str]) -> tuple[str, _Tally, list[int]]:
    """Worker task: a chunk's record lines, its tally mod 24 and its counterexamples."""
    lo, hi, mode = task
    if mode == "first-only":
        return _first_only_text(lo, hi)
    records = _exhaustive_records(primes_in_range(lo, hi))
    text = "".join([record_line(r) + "\n" for r in records])
    return text, _tally(records, 24), [r.p for r in records if r.first is None]


def _run_chunks(lo: int, hi: int, mode: str, workers: int) -> Iterator[tuple[str, _Tally, list]]:
    """_chunk_text of each chunk of [lo, hi], results in chunk order.

    One worker, or a range that makes one chunk, runs in process.
    Otherwise the chunks go to a pool of at most one process per usable
    CPU, and each result is yielded as soon as it and every chunk
    before it are done.
    """
    processes = min(workers, _usable_cpus())
    parts = 1 if workers == 1 else _CHUNKS_PER_PROCESS * processes
    chunks = [(a, b, mode) for a, b in _chunk_bounds(lo, hi, parts)]
    if workers == 1 or len(chunks) == 1:
        yield from map(_chunk_text, chunks)
        return
    with Pool(processes=processes) as pool:
        yield from pool.imap(_chunk_text, chunks)


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
    return ScanReport(
        lo=lo,
        hi=hi,
        mode=mode,
        records=tuple(records),
        counterexamples=tuple(r.p for r in records if r.first is None),
        residue_summary=_summarize(records, 24, mode),
        elapsed=time.perf_counter() - start,
        prime_count=len(records),
    )


class ScanStream:
    """One scan's record lines as finished text, chunk by chunk, in order.

    Iterating cuts [lo, hi] into chunks and runs them in process or on
    a pool of up to `workers` processes (see _run_chunks). Each task
    formats its own record lines and tallies them, so only text, a
    tally and counterexamples leave the process that ran it, and a
    chunk's text is kept only until it has been yielded. Once iteration
    ends, `report` is the scan's ScanReport: records=(), and the
    prime count, counterexamples and residue summary merged from the
    chunk tallies, equal to scan_primes' for the same range.
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
        for text, part, missing in _run_chunks(self.lo, self.hi, self.mode, self.workers):
            yield text
            _merge_tally(tally, part)
            counterexamples.extend(missing)
        self.report = ScanReport(
            lo=self.lo,
            hi=self.hi,
            mode=self.mode,
            records=(),
            counterexamples=tuple(counterexamples),
            residue_summary=_finish_tally(tally, 24, self.mode),
            elapsed=time.perf_counter() - start,
            prime_count=sum(entry[0] for entry in tally.values()),
        )


def _type1_candidates(x: int, k: int) -> tuple[int, ...]:
    """Closed-form type I witnesses d for the rules, tried at x = ceil(p/4) + k.

    k = 0, p % 24 != 1: q = 4x - p is 1 when p % 4 == 3, so d = 1 works.
    Otherwise q = 3 and -p*x = 2 (mod 3), met by d = 2 when p % 24 is 5
    or 13 (x is even) and by d = x when p % 24 == 17 (x = 2 mod 3).

    k | m with p = 4m - 1: q = 4k + 1, so 4k = -1 and p = 4x (mod q),
    and -p*x = -4x*x = -4k*(x*x/k) = x*x/k (mod q); k | x since x = m + k.
    """
    return (1, 2, x) if k == 0 else (x * x // k,)


def _has_type1_witness_at(p: int, x: int, candidates: Iterable[int]) -> bool:
    """True iff some d | x*x has d = -p*x (mod 4x - p).

    Each candidate is checked exactly, and one that does not divide x*x
    is skipped. Only if none passes are the divisors of x*x walked, so
    False means every divisor failed.
    """
    q = 4 * x - p
    target = (-p * x) % q
    xx = x * x
    for d in candidates:
        if xx % d == 0 and d % q == target:
            return True
    return any(d % q == target for d in _ascending_square_divisors(x))


def _rule_primes(hi: int) -> Iterator[int]:
    """The primes 3 <= p <= hi, hi checked first, sieved one chunk of at
    most _SPAN numbers at a time, so a rule holds one chunk's primes."""
    if hi < 3:
        raise DomainError(f"need hi >= 3, got hi={hi}")
    _check_range(3, hi)
    return (p for a, b in _chunk_bounds(3, hi, 1) for p in primes_in_range(a, b))


def check_k0_type1_rule(hi: int) -> list[int]:
    """Primes p <= hi (p != 2, p % 24 != 1) with no type I witness at
    the smallest x. Expected empty."""
    violations = []
    for p in _rule_primes(hi):
        if p % 24 == 1:
            continue
        x = _x_bounds(p)[0]
        if not _has_type1_witness_at(p, x, _type1_candidates(x, 0)):
            violations.append(p)
    return violations


def check_divisor_k_rule(hi: int) -> list[tuple[int, int]]:
    """Pairs (p, k) with p <= hi, p % 4 == 3, k a divisor of m = ceil(p/4),
    and no type I witness at x = m + k. Expected empty.

    Every such k lies in the k range, whose top is ceil(p/2) - m = m.
    """
    violations = []
    for p in _rule_primes(hi):
        if p % 4 != 3:
            continue
        m = _x_bounds(p)[0]
        for k in divisors(m):
            if not _has_type1_witness_at(p, m + k, _type1_candidates(m + k, k)):
                violations.append((p, k))
    return violations


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
    return _summarize(report.records, modulus, report.mode)
