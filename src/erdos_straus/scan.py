"""Range verification: every prime in [lo, hi] should admit a witness.

A scan walks the primes of a range, records the first witness (and,
in exhaustive mode, the full k sets and counts per type), tags each
prime with its residues mod 24 and mod 840, and reports any prime
with no witness at all as a counterexample. The range is chunked,
each chunk is pure per-prime work, and chunk results are merged in
order, so output is identical for any worker count.

Also implements two structural rules observed to hold for the k = 0
and divisor-k offsets, and residue-class statistics including the
six classes mod 840 = {1, 121, 169, 289, 361, 529} that the known
polynomial identities do not cover.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from multiprocessing import Pool
from typing import Any, Optional

from .arith import divisors, primes_in_range
from .errors import DomainError
from .witness import (
    SolutionType,
    Witness,
    _ascending_square_divisors,
    _x_bounds,
    first_witness,
    iter_witnesses,
)

__all__ = [
    "HARD_RESIDUES_840",
    "ScanRecord",
    "ScanReport",
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
    """Outcome of one range scan; records ascend by p."""

    lo: int
    hi: int
    mode: str
    records: tuple[ScanRecord, ...]
    counterexamples: tuple[int, ...]
    residue_summary: dict[int, dict[str, Any]]
    elapsed: float


def _json_ints(values: Optional[tuple[int, ...]]) -> str:
    return "null" if values is None else "[" + ",".join(map(str, values)) + "]"


def record_line(r: ScanRecord) -> str:
    """The record as one line of compact, key-sorted JSON, no newline.

    The same bytes as json.dumps(obj, sort_keys=True, separators=(",", ":"))
    of the record's JSON object, formatted directly because a scan
    writes one line per prime.
    """
    w = r.first
    first = (
        "null"
        if w is None
        else f'{{"d":{w.d},"k":{w.k},"p":{w.p},"type":"{w.type.value}","x":{w.x}}}'
    )
    counts = r.witness_count_by_type
    witness_counts = (
        "null" if counts is None else f'{{"type1":{counts[0]},"type2":{counts[1]}}}'
    )
    return (
        f'{{"first":{first},"p":{r.p},"residue_24":{r.residue_24},'
        f'"residue_840":{r.residue_840},"type1_k_set":{_json_ints(r.type1_k_set)},'
        f'"type2_k_set":{_json_ints(r.type2_k_set)},"witness_counts":{witness_counts}}}'
    )


def summary_line(report: ScanReport, workers: int) -> str:
    """The report's summary as one line of compact, key-sorted JSON, no newline."""
    summary = {
        "lo": report.lo,
        "hi": report.hi,
        "mode": report.mode,
        "workers": workers,
        "prime_count": len(report.records),
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


def _record_for_prime(p: int, mode: str) -> ScanRecord:
    if mode == "first-only":
        return ScanRecord(p, first_witness(p), None, None, None, p % 24, p % 840)
    first: Optional[Witness] = None
    k1: set[int] = set()
    k2: set[int] = set()
    n1 = n2 = 0
    for w in iter_witnesses(p):
        if first is None:
            first = w
        if w.type is SolutionType.TYPE_I:
            k1.add(w.k)
            n1 += 1
        else:
            k2.add(w.k)
            n2 += 1
    return ScanRecord(
        p, first, tuple(sorted(k1)), tuple(sorted(k2)), (n1, n2), p % 24, p % 840
    )


def _scan_chunk(args: tuple[tuple[int, ...], str]) -> list[ScanRecord]:
    """Worker task: pure, order-preserving, picklable."""
    primes, mode = args
    return [_record_for_prime(p, mode) for p in primes]


def _summarize(records: tuple[ScanRecord, ...], modulus: int) -> dict[int, dict[str, Any]]:
    classes: dict[int, list[ScanRecord]] = {}
    for r in records:
        classes.setdefault(r.p % modulus, []).append(r)
    summary: dict[int, dict[str, Any]] = {}
    for residue in sorted(classes):
        rs = classes[residue]
        entry: dict[str, Any] = {
            "count": len(rs),
            "with_witness": sum(1 for r in rs if r.first is not None),
        }
        if all(r.witness_count_by_type is not None for r in rs):
            totals = [sum(r.witness_count_by_type) for r in rs]
            k0 = sum(1 for r in rs if 0 in r.type1_k_set)
            entry["k0_type1_fraction"] = k0 / len(rs)
            entry["min_witness_count"] = min(totals)
            entry["max_witness_count"] = max(totals)
        else:
            entry["k0_type1_fraction"] = None
            entry["min_witness_count"] = None
            entry["max_witness_count"] = None
        entry["hard"] = modulus == 840 and residue in HARD_RESIDUES_840
        summary[residue] = entry
    return summary


def scan_primes(lo: int, hi: int, mode: str = "first-only", workers: int = 1) -> ScanReport:
    """Scan every prime in [lo, hi]; see the module docstring.

    workers > 1 splits the prime list into about 4 * workers contiguous
    chunks and maps them over a process pool of at most one process
    per usable CPU; the merged result is byte-for-byte the same as a
    single-worker run.
    """
    if mode not in _MODES:
        raise DomainError(f"mode must be one of {_MODES}, got {mode!r}")
    _check_range(lo, hi)
    if workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers}")
    start = time.perf_counter()
    primes = primes_in_range(lo, hi)
    if workers == 1 or len(primes) < 2 * workers:
        records = _scan_chunk((tuple(primes), mode))
    else:
        chunk_count = min(len(primes), workers * 4)
        step = -(-len(primes) // chunk_count)
        tasks = [
            (tuple(primes[i : i + step]), mode) for i in range(0, len(primes), step)
        ]
        with Pool(processes=min(workers, _usable_cpus())) as pool:
            records = [r for chunk in pool.map(_scan_chunk, tasks) for r in chunk]
    rec_tuple = tuple(records)
    counterexamples = tuple(r.p for r in rec_tuple if r.first is None)
    elapsed = time.perf_counter() - start
    return ScanReport(
        lo=lo,
        hi=hi,
        mode=mode,
        records=rec_tuple,
        counterexamples=counterexamples,
        residue_summary=_summarize(rec_tuple, 24),
        elapsed=elapsed,
    )


def _has_type1_witness_at(p: int, x: int) -> bool:
    q = 4 * x - p
    target = (-p * x) % q
    for d in _ascending_square_divisors(x):
        if d % q == target:
            return True
    return False


def check_k0_type1_rule(hi: int) -> list[int]:
    """Primes p <= hi (p != 2, p % 24 != 1) with no type I witness at
    the smallest x. Expected empty."""
    _check_range(3, hi)
    violations = []
    for p in primes_in_range(3, hi):
        if p % 24 == 1:
            continue
        if not _has_type1_witness_at(p, _x_bounds(p)[0]):
            violations.append(p)
    return violations


def check_divisor_k_rule(hi: int) -> list[tuple[int, int]]:
    """Pairs (p, k) with p <= hi, p % 4 == 3, k a divisor of ceil(p/4)
    inside the k range, and no type I witness at x = ceil(p/4) + k.
    Expected empty."""
    _check_range(3, hi)
    violations = []
    for p in primes_in_range(3, hi):
        if p % 4 != 3:
            continue
        m, x_hi = _x_bounds(p)
        k_max = x_hi - m
        for k in divisors(m):
            if k > k_max:
                break
            if not _has_type1_witness_at(p, m + k):
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
    return _summarize(report.records, modulus)
