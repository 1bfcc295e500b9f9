"""Range scanning, structural rules, residue statistics, determinism."""

import json
import multiprocessing
from dataclasses import replace
from pathlib import Path

import pytest

import erdos_straus.scan as scan_module
from erdos_straus import (
    HARD_RESIDUES_840,
    DomainError,
    ScanRecord,
    ScanStream,
    SolutionType,
    Witness,
    check_divisor_k_rule,
    check_k0_type1_rule,
    check_type1,
    divisors,
    divisors_of_square,
    first_witness,
    iter_witnesses,
    primes_in_range,
    record_line,
    residue_stats,
    scan_primes,
    summary_line,
)
from erdos_straus.cli import main


def record_by_p(report):
    return {r.p: r for r in report.records}


@pytest.fixture(scope="module")
def report():
    return scan_primes(2, 100, mode="exhaustive")


class TestScanExhaustive:
    def test_one_record_per_prime(self, report):
        assert len(report.records) == 25
        assert [r.p for r in report.records] == sorted(r.p for r in report.records)

    def test_spot_rows(self, report):
        recs = record_by_p(report)
        assert recs[41].type2_k_set == (0, 1, 3)
        assert recs[71].type1_k_set == (0, 1, 2, 3, 4, 6, 8, 9, 12, 14, 18)
        assert recs[2].type1_k_set == ()
        assert recs[2].type2_k_set == (0,)
        assert recs[73].type1_k_set == (1, 2, 3)

    def test_no_counterexamples(self, report):
        assert report.counterexamples == ()

    def test_counts_match_enumeration(self, report):
        for r in report.records:
            ws = list(iter_witnesses(r.p))
            n1 = sum(1 for w in ws if w.type is SolutionType.TYPE_I)
            n2 = len(ws) - n1
            assert r.witness_count_by_type == (n1, n2)
            assert r.first == (ws[0] if ws else None)

    def test_k_sets_within_bound(self, report):
        for r in report.records:
            bound = (r.p + 1) // 2 - (r.p + 3) // 4
            for k in (*r.type1_k_set, *r.type2_k_set):
                assert 0 <= k <= bound

    def test_residue_fields(self, report):
        for r in report.records:
            assert r.residue_24 == r.p % 24
            assert r.residue_840 == r.p % 840

    def test_first_absent_iff_no_witnesses(self, report):
        for r in report.records:
            assert (r.first is None) == (not r.type1_k_set and not r.type2_k_set)

    def test_builtin_summary_matches_residue_stats(self, report):
        assert report.residue_summary == residue_stats(report, 24)


class TestScanFirstOnly:
    def test_fills_only_first(self):
        report = scan_primes(2, 100, mode="first-only")
        for r in report.records:
            assert r.type1_k_set is None
            assert r.type2_k_set is None
            assert r.witness_count_by_type is None
            assert r.first is not None

    def test_agrees_with_exhaustive_on_witness_existence(self):
        first = scan_primes(2, 300, mode="first-only")
        full = scan_primes(2, 300, mode="exhaustive")
        assert [r.p for r in first.records] == [r.p for r in full.records]
        for a, b in zip(first.records, full.records):
            assert (a.first is None) == (b.first is None)
            assert a.first == b.first

    def test_unchecked_core_matches_public_first_witness(self):
        # The scan searches sieved primes through the core that skips
        # the primality check; it must find what first_witness finds.
        report = scan_primes(2, 30_000)
        assert [r.p for r in report.records] == primes_in_range(2, 30_000)
        for r in report.records:
            assert r.first == first_witness(r.p), r.p

    def test_summary_stats_unknown(self):
        report = scan_primes(2, 100, mode="first-only")
        for entry in report.residue_summary.values():
            assert entry["min_witness_count"] is None
            assert entry["k0_type1_fraction"] is None
            assert entry["count"] >= 1


def reference_record_json(r):
    """The record's JSON object, spelled out key by key."""
    w = r.first
    counts = r.witness_count_by_type
    obj = {
        "p": r.p,
        "first": None
        if w is None
        else {"p": w.p, "x": w.x, "d": w.d, "k": w.k, "type": w.type.value},
        "type1_k_set": None if r.type1_k_set is None else list(r.type1_k_set),
        "type2_k_set": None if r.type2_k_set is None else list(r.type2_k_set),
        "witness_counts": None
        if counts is None
        else {"type1": counts[0], "type2": counts[1]},
        "residue_24": r.residue_24,
        "residue_840": r.residue_840,
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class TestRecordLine:
    def test_first_only_records(self):
        for r in scan_primes(2, 3000).records:
            assert record_line(r) == reference_record_json(r)

    def test_exhaustive_records(self, report):
        for r in report.records:
            assert record_line(r) == reference_record_json(r)

    def test_counterexample_records(self):
        for r in (
            ScanRecord(73, None, None, None, None, 1, 73),
            ScanRecord(73, None, (), (), (0, 0), 1, 73),
        ):
            assert record_line(r) == reference_record_json(r)
            assert json.loads(record_line(r))["first"] is None

    def test_summary_line(self, report):
        summary = json.loads(summary_line(report, 3))
        assert summary["workers"] == 3
        assert (summary["lo"], summary["hi"], summary["mode"]) == (2, 100, "exhaustive")
        assert summary["prime_count"] == 25
        assert summary["residue_summary"]["1"]["count"] == report.residue_summary[1]["count"]
        assert summary_line(report, 3) == json.dumps(summary, sort_keys=True, separators=(",", ":"))


def timeless_summary(report):
    """The report's summary line as an object, without elapsed_seconds."""
    summary = json.loads(summary_line(report, 1))
    del summary["elapsed_seconds"]
    return summary


def assert_stream_matches(report, stream):
    """The stream's text and report, and so its summary bar the elapsed
    time, equal those of the unchunked, in-process reference scan_primes
    of the same range."""
    assert stream.report is None
    text = "".join(stream)
    assert text == "".join(record_line(r) + "\n" for r in report.records)
    streamed = stream.report
    assert streamed.records == ()
    assert streamed.prime_count == report.prime_count == len(report.records)
    assert streamed.counterexamples == report.counterexamples
    assert streamed.residue_summary == report.residue_summary
    assert timeless_summary(streamed) == timeless_summary(report)


def assert_pieces_match(report, monkeypatch):
    """With _PIECE_LINES at 7, the in-process stream of report's range
    yields only pieces of at most 7 whole lines, and equals report."""
    monkeypatch.setattr(scan_module, "_PIECE_LINES", 7)
    stream = ScanStream(report.lo, report.hi)
    pieces = list(stream)
    assert pieces and all(p.endswith("\n") and p.count("\n") <= 7 for p in pieces)
    assert "".join(pieces) == "".join(record_line(r) + "\n" for r in report.records)
    assert stream.report.counterexamples == report.counterexamples
    assert timeless_summary(stream.report) == timeless_summary(report)


class TestScanStream:
    @pytest.mark.parametrize("mode", ["first-only", "exhaustive"])
    def test_text_and_report_match_scan_primes(self, mode):
        report = scan_primes(2, 1500, mode=mode)
        stream = ScanStream(2, 1500, mode=mode)
        assert_stream_matches(report, stream)

    def test_arguments_checked_before_iteration(self):
        with pytest.raises(DomainError):
            ScanStream(9, 2)
        with pytest.raises(DomainError):
            ScanStream(2, 10, workers=0)

    def test_residue_stats_refuses_streamed_report(self):
        stream = ScanStream(2, 100, mode="exhaustive")
        "".join(stream)
        with pytest.raises(DomainError):
            residue_stats(stream.report, 24)

    @pytest.mark.parametrize("span", [1 << 17, 97])
    def test_first_only_text_goes_out_in_pieces(self, monkeypatch, span):
        monkeypatch.setattr(scan_module, "_SPAN", span)
        assert_pieces_match(scan_primes(2, 3000), monkeypatch)

    def test_chunks_cover_range_in_order(self, monkeypatch):
        monkeypatch.setattr(scan_module, "_SPAN", 7)
        for lo, hi, parts in [(2, 2, 1), (2, 100, 1), (5, 100, 8), (65_521, 70_001, 12)]:
            bounds = scan_module._chunk_bounds(lo, hi, parts)
            assert bounds[0][0] == lo and bounds[-1][1] == hi
            assert all(b[0] == a[1] + 1 for a, b in zip(bounds, bounds[1:]))
            assert all(0 <= b - a < 7 for a, b in bounds)


def reference_summary(records, modulus):
    """The residue summary computed class by class from whole records."""
    classes = {}
    for r in records:
        classes.setdefault(r.p % modulus, []).append(r)
    summary = {}
    for residue in sorted(classes):
        rs = classes[residue]
        entry = {
            "count": len(rs),
            "with_witness": sum(1 for r in rs if r.first is not None),
            "k0_type1_fraction": None,
            "min_witness_count": None,
            "max_witness_count": None,
            "hard": modulus == 840 and residue in HARD_RESIDUES_840,
        }
        if all(r.witness_count_by_type is not None for r in rs):
            totals = [sum(r.witness_count_by_type) for r in rs]
            entry["k0_type1_fraction"] = sum(1 for r in rs if 0 in r.type1_k_set) / len(rs)
            entry["min_witness_count"] = min(totals)
            entry["max_witness_count"] = max(totals)
        summary[residue] = entry
    return summary


class TestTally:
    """Chunk tallies merged in the parent give the whole range's summary."""

    @pytest.fixture(scope="class")
    def exhaustive(self):
        return scan_primes(2, 1500, mode="exhaustive").records

    @staticmethod
    def tally(records, modulus, mode):
        """The tally a chunk of that mode makes of the records' primes."""
        primes = [r.p for r in records]
        return scan_module._tally(primes, modulus, records if mode == "exhaustive" else ())

    @classmethod
    def finished(cls, records, cut, modulus, mode):
        """The summary of records tallied as two chunks cut at `cut`."""
        tally = cls.tally(records[:cut], modulus, mode)
        scan_module._merge_tally(tally, cls.tally(records[cut:], modulus, mode))
        missing = [r.p for r in records if r.first is None]
        return scan_module._finish_tally(tally, modulus, mode, missing)

    @pytest.mark.parametrize("modulus", [24, 840])
    def test_every_cut_of_exhaustive_records(self, exhaustive, modulus):
        expected = reference_summary(exhaustive, modulus)
        for cut in range(len(exhaustive) + 1):
            assert self.finished(exhaustive, cut, modulus, "exhaustive") == expected, cut

    def test_first_only_records(self):
        # A first-only scan has no witness statistics.
        records = scan_primes(2, 1500).records
        expected = reference_summary(records, 24)
        for cut in range(0, len(records) + 1, 7):
            assert self.finished(records, cut, 24, "first-only") == expected, cut

    @pytest.mark.parametrize("modulus", [24, 840])
    @pytest.mark.parametrize("mode", ["exhaustive", "first-only"])
    def test_classes_with_counterexamples(self, exhaustive, mode, modulus):
        # with_witness is derived from the counterexamples; reference_summary
        # counts the records whose first is not None.
        missing = (211, 1009, 1013)
        if mode == "exhaustive":
            records = [
                ScanRecord(r.p, None, (), (), (0, 0), r.p % 24, r.p % 840) if r.p in missing else r
                for r in exhaustive
            ]
        else:
            records = [
                replace(r, first=None) if r.p in missing else r for r in scan_primes(2, 1500).records
            ]
        expected = reference_summary(records, modulus)
        assert sum(e["count"] - e["with_witness"] for e in expected.values()) == len(missing)
        for cut in range(len(records) + 1):
            assert self.finished(records, cut, modulus, mode) == expected, cut


@pytest.fixture
def pool_sizes(monkeypatch):
    """Swap in a pool that maps serially and records its size, so no
    process is started whatever size is asked for, on a host that
    seems to have 4 usable CPUs."""
    monkeypatch.setattr(scan_module, "_usable_cpus", lambda: 4)
    sizes = []

    class SerialPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, tasks):
            return (fn(t) for t in tasks)

    # ScanStream imports Pool from multiprocessing when a pool starts
    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    return sizes


class TestScanParallel:
    """The pooled stream against the in-process reference scan."""

    def test_worker_counts_agree(self):
        report = scan_primes(2, 1500, mode="exhaustive")
        assert_stream_matches(report, ScanStream(2, 1500, mode="exhaustive", workers=3))

    def test_worker_counts_agree_first_only(self):
        report = scan_primes(2, 1500, mode="first-only")
        assert_stream_matches(report, ScanStream(2, 1500, mode="first-only", workers=4))

    def test_pool_capped_at_usable_cpus(self, pool_sizes):
        report = scan_primes(2, 5000, mode="first-only")
        assert_stream_matches(report, ScanStream(2, 5000, mode="first-only", workers=300))
        assert pool_sizes == [4]

    def test_counterexample_exit_code_pooled(self, pool_sizes, monkeypatch, tmp_path, capsys):
        # The same fabricated counterexamples as the CLI test, through the pool.
        monkeypatch.setattr(scan_module, "_first_witness_unchecked", lambda p: None)
        out = tmp_path / "scan.jsonl"
        assert main(["scan", "2", "30", "--threads", "2", "--out", str(out)]) == 3
        assert "counterexamples" in capsys.readouterr().err
        assert pool_sizes == [2]
        summary = json.loads(Path(f"{out}.summary.json").read_text())
        assert summary["counterexamples"] == primes_in_range(2, 30)
        assert all(json.loads(line)["first"] is None for line in out.read_text().splitlines())

    def test_cli_keeps_requested_workers(self, pool_sizes, tmp_path, capsys):
        outs = {}
        for threads in ("1", "300"):
            out = tmp_path / f"scan_{threads}.jsonl"
            assert main(["scan", "2", "5000", "--threads", threads, "--out", str(out)]) == 0
            summary = json.loads(Path(f"{out}.summary.json").read_text())
            assert summary["workers"] == int(threads)
            outs[threads] = out.read_bytes()
        capsys.readouterr()
        assert pool_sizes == [4]
        assert outs["1"] == outs["300"]


class TestCounterexamplesInsideChunks:
    """A few fabricated counterexamples among primes that keep their
    witnesses: the stream's lines, tally and ordered counterexamples
    must equal scan_primes' under the same patch."""

    MISSING = (211, 1009, 1013, 2003, 2999)

    @pytest.fixture
    def reference(self, monkeypatch):
        search = scan_module._first_witness_unchecked
        monkeypatch.setattr(
            scan_module,
            "_first_witness_unchecked",
            lambda p: None if p in self.MISSING else search(p),
        )
        report = scan_primes(2, 3000)
        assert report.counterexamples == self.MISSING
        summary = report.residue_summary.values()
        assert sum(e["count"] - e["with_witness"] for e in summary) == len(self.MISSING)
        return report

    def test_one_chunk(self, reference):
        assert len(scan_module._chunk_bounds(2, 3000, 1)) == 1
        assert_stream_matches(reference, ScanStream(2, 3000))

    def test_chunks_of_97(self, reference, monkeypatch):
        monkeypatch.setattr(scan_module, "_SPAN", 97)
        bounds = scan_module._chunk_bounds(2, 3000, 1)
        assert not set(self.MISSING) & {edge for bound in bounds for edge in bound}
        assert_stream_matches(reference, ScanStream(2, 3000))

    def test_pool_of_3(self, reference, pool_sizes):
        assert_stream_matches(reference, ScanStream(2, 3000, workers=3))
        assert pool_sizes == [3]

    def test_pieces_of_7_lines(self, reference, monkeypatch):
        assert_pieces_match(reference, monkeypatch)

    def test_3_workers_on_one_usable_cpu_run_in_process(self, reference, pool_sizes, monkeypatch):
        monkeypatch.setattr(scan_module, "_usable_cpus", lambda: 1)
        assert_stream_matches(reference, ScanStream(2, 3000, workers=3))
        assert pool_sizes == []


class TestExhaustiveCounterexamplesInsideChunks:
    """The same fabricated counterexamples in exhaustive mode: the walk
    yields no witness of them, so their records and the tally's classes
    carry no witness, chunked or not."""

    MISSING = TestCounterexamplesInsideChunks.MISSING

    @pytest.fixture
    def reference(self, monkeypatch):
        walk = scan_module._witnesses_x_major
        monkeypatch.setattr(
            scan_module,
            "_witnesses_x_major",
            lambda primes: (w for w in walk(primes) if w.p not in self.MISSING),
        )
        report = scan_primes(2, 3000, mode="exhaustive")
        assert report.counterexamples == self.MISSING
        summary = report.residue_summary.values()
        assert sum(e["count"] - e["with_witness"] for e in summary) == len(self.MISSING)
        return report

    def test_one_chunk(self, reference):
        assert len(scan_module._chunk_bounds(2, 3000, 1)) == 1
        assert_stream_matches(reference, ScanStream(2, 3000, mode="exhaustive"))

    def test_chunks_of_97(self, reference, monkeypatch):
        monkeypatch.setattr(scan_module, "_SPAN", 97)
        assert_stream_matches(reference, ScanStream(2, 3000, mode="exhaustive"))

    def test_pool_of_3(self, reference, pool_sizes):
        assert_stream_matches(reference, ScanStream(2, 3000, mode="exhaustive", workers=3))
        assert pool_sizes == [3]


def reference_exhaustive(hi):
    """Exhaustive records of the primes <= hi as (p, first, k1, k2, counts),
    from a per-prime walk over divisors of x*x found by trial division.

    Shares no code with the program: its own primes, its own divisors,
    the congruences written out, one prime at a time.
    """
    square_divisors = {}
    for x in range(1, (hi + 1) // 2 + 1):
        xx = x * x
        low = [d for d in range(1, x + 1) if xx % d == 0]
        square_divisors[x] = low + [xx // d for d in reversed(low[:-1])]
    rows = []
    for p in range(2, hi + 1):
        if any(p % f == 0 for f in range(2, int(p**0.5) + 1)):
            continue
        first, k1, k2, n1, n2 = None, set(), set(), 0, 0
        x_lo = (p + 3) // 4
        for x in range(x_lo, (p + 1) // 2 + 1):
            q = 4 * x - p
            for d in square_divisors[x]:
                for kind, hit in (("I", (p * x + d) % q == 0), ("II", d <= x and (x + d) % q == 0)):
                    if not hit:
                        continue
                    first = first or (x, d, kind)
                    if kind == "I":
                        k1.add(x - x_lo)
                        n1 += 1
                    else:
                        k2.add(x - x_lo)
                        n2 += 1
        rows.append((p, first, tuple(sorted(k1)), tuple(sorted(k2)), (n1, n2)))
    return rows


def exhaustive_rows(report):
    return [
        (
            r.p,
            None if r.first is None else (r.first.x, r.first.d, r.first.type.value),
            r.type1_k_set,
            r.type2_k_set,
            r.witness_count_by_type,
        )
        for r in report.records
    ]


def reference_lines(rows):
    """The record lines of reference_exhaustive rows, as a scan writes them."""
    lines = []
    for p, first, k1, k2, counts in rows:
        w = None if first is None else Witness(p, first[0], first[1], SolutionType(first[2]))
        lines.append(record_line(ScanRecord(p, w, k1, k2, counts, p % 24, p % 840)) + "\n")
    return lines


class TestExhaustiveReference:
    """Exhaustive records against an independent per-prime walk.

    A stream chunk walks x over the windows of its own primes, so chunk
    edges cut through x windows; the records must not see where they fall.
    """

    @pytest.fixture(scope="class")
    def reference(self):
        return reference_exhaustive(3000)

    def test_one_chunk(self, reference):
        assert exhaustive_rows(scan_primes(2, 3000, mode="exhaustive")) == reference

    def test_chunks_of_97(self, reference, monkeypatch):
        monkeypatch.setattr(scan_module, "_SPAN", 97)
        assert len(scan_module._chunk_bounds(2, 3000, 1)) == 31
        chunks = list(ScanStream(2, 3000, mode="exhaustive"))
        assert len(chunks) == 31
        assert "".join(chunks).splitlines(keepends=True) == reference_lines(reference)

    def test_pool_of_3(self, reference, pool_sizes):
        text = "".join(ScanStream(2, 3000, mode="exhaustive", workers=3))
        assert pool_sizes == [3]
        assert text.splitlines(keepends=True) == reference_lines(reference)


class TestScanDomain:
    def test_bad_ranges(self):
        with pytest.raises(DomainError):
            scan_primes(1, 10)
        with pytest.raises(DomainError):
            scan_primes(10, 2)
        with pytest.raises(DomainError):
            scan_primes(2, (1 << 32) + 1)

    def test_bad_mode(self):
        with pytest.raises(DomainError):
            scan_primes(2, 10, mode="everything")
        with pytest.raises(DomainError):
            ScanStream(2, 10, mode="everything")


class TestUsableCpus:
    def test_one_without_affinity_or_cpu_count(self, monkeypatch):
        monkeypatch.delattr(scan_module.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(scan_module.os, "cpu_count", lambda: None)
        assert scan_module._usable_cpus() == 1


class TestRules:
    def test_k0_rule_clean_to_2000(self):
        assert check_k0_type1_rule(2000) == []

    def test_k0_rule_exempts_1_mod_24(self):
        # 73 lacks a k=0 witness yet is exempt, so it must not appear.
        assert 73 not in check_k0_type1_rule(100)
        assert check_k0_type1_rule(100) == []

    def test_divisor_rule_clean_to_2000(self):
        assert check_divisor_k_rule(2000) == []

    def test_divisor_rule_offsets_really_appear(self):
        # p=11: ceil(11/4)=3, divisors {1, 3} and 0 all admit type I.
        ks = {w.k for w in iter_witnesses(11) if w.type is SolutionType.TYPE_I}
        assert {0, 1, 3} <= ks
        assert set(divisors(3)) == {1, 3}
        # p=19: ceil(19/4)=5, divisors {1, 5}.
        ks19 = {w.k for w in iter_witnesses(19) if w.type is SolutionType.TYPE_I}
        assert {0, 1, 5} <= ks19

    def test_domain_guards(self):
        with pytest.raises(DomainError, match=r"^need hi >= 3, got hi=2$"):
            check_k0_type1_rule(2)
        with pytest.raises(DomainError, match=r"^need hi >= 3, got hi=1$"):
            check_divisor_k_rule(1)
        # Above the scan cap both rules refuse before sieving anything.
        with pytest.raises(DomainError):
            check_k0_type1_rule((1 << 32) + 1)
        with pytest.raises(DomainError):
            check_divisor_k_rule((1 << 32) + 1)


def k0_rule_primes(hi):
    return [p for p in primes_in_range(3, hi) if p % 24 != 1]


def divisor_k_rule_pairs(hi):
    """(p, k, x) for p % 4 == 3 and k | m = ceil(p/4); k <= m is the whole k range."""
    pairs = []
    for p in primes_in_range(3, hi):
        if p % 4 == 3:
            m = (p + 1) // 4
            pairs.extend((p, k, m + k) for k in divisors(m))
    return pairs


def every_k0_visit(primes):
    """_k0_misses as if every closed form failed."""
    return [(p, (p + 3) // 4) for p in primes if p % 24 != 1]


def every_divisor_k_visit(lo, hi):
    """_divisor_k_misses as if every closed form failed, from the real pairs."""
    return sorted((4 * m - 1, k, m + k) for m, k in scan_module._divisor_k_pairs(lo, hi))


def patch_every_visit_misses(monkeypatch):
    """Every visit's closed form fails, so every visit goes to the walk."""
    monkeypatch.setattr(scan_module, "_k0_misses", every_k0_visit)
    monkeypatch.setattr(scan_module, "_divisor_k_misses", every_divisor_k_visit)


def full_walk_has_type1(p, x):
    q = 4 * x - p
    return any((p * x + d) % q == 0 for d in divisors_of_square(x))


def full_walk_k0_rule(hi):
    """The k = 0 rule as a walk over every divisor of x*x."""
    return [p for p in k0_rule_primes(hi) if not full_walk_has_type1(p, (p + 3) // 4)]


def full_walk_divisor_k_rule(hi):
    """The divisor-k rule as a walk over every divisor of x*x."""
    return [(p, k) for p, k, x in divisor_k_rule_pairs(hi) if not full_walk_has_type1(p, x)]


def assert_divisor_k_pairs_once(hi):
    """_divisor_k_pairs over the rules' chunks of [3, hi] lists every
    (p, k, x) of divisor_k_rule_pairs once; returns how many."""
    pairs = [
        (4 * m - 1, k, m + k)
        for a, b in scan_module._chunk_bounds(3, hi, 1)
        for m, k in scan_module._divisor_k_pairs(a, b)
    ]
    assert sorted(pairs) == divisor_k_rule_pairs(hi)
    assert len(set(pairs)) == len(pairs)
    return len(pairs)


class TestRuleCertificates:
    """The closed-form witnesses the rules try before walking divisors."""

    def test_k0_identity_for_every_eligible_prime(self):
        # q = 1 for p % 4 == 3; otherwise q = 3 and -p*x = 2 (mod 3).
        for p in k0_rule_primes(200_000):
            x = (p + 3) // 4
            d = 1 if p % 4 == 3 else 2 if p % 24 in (5, 13) else x
            assert check_type1(p, x, d), p

    def test_divisor_k_identity_for_every_pair(self):
        # q = 4k + 1 and -p*x = x*x/k (mod q).
        count = 0
        for p, k, x in divisor_k_rule_pairs(200_000):
            assert x * x % k == 0
            assert check_type1(p, x, x * x // k), (p, k)
            count += 1
        assert count > 100_000

    def test_each_visit_tests_one_closed_form(self):
        # The closed forms hold for every prime, so no visit misses.
        assert scan_module._k0_misses(primes_in_range(3, 3000)) == []
        assert scan_module._divisor_k_misses(3, 3000) == []
        # The k = 0 form fails only where 3 | p; these misses show the d
        # chosen for even x at q = 3.
        assert scan_module._k0_misses([21, 45]) == [(21, 6), (45, 12)]

    def test_closed_forms_never_walk_to_one_hundred_thousand(self, monkeypatch):
        # Only a failed closed form walks, so this pins each chosen d: with
        # d = 1 for even x, p = 5 (x = 2, q = 3) would walk.
        walked = []
        monkeypatch.setattr(scan_module, "divisors_of_square", lambda x: walked.append(x) or [])
        assert check_k0_type1_rule(100_000) == []
        assert check_divisor_k_rule(100_000) == []
        assert walked == []

    def test_rules_equal_the_full_walk(self):
        assert check_k0_type1_rule(20_000) == full_walk_k0_rule(20_000)
        assert check_divisor_k_rule(20_000) == full_walk_divisor_k_rule(20_000)

    def test_witness_test_equals_the_full_walk_at_every_x(self):
        # Unlike the rules' own x, the whole x range has misses (73 at x = 19).
        misses = 0
        for p in primes_in_range(3, 1500):
            lo, hi = (p + 3) // 4, (p + 1) // 2
            for x in range(lo, hi + 1):
                expected = full_walk_has_type1(p, x)
                misses += not expected
                assert scan_module._has_type1_witness_at(p, x) == expected, (p, x)
        assert misses > 0
        assert not scan_module._has_type1_witness_at(73, 19)

    def test_fallback_finds_witnesses_when_candidates_fail(self, monkeypatch):
        # Every closed form fails: every witness comes from the walk.
        patch_every_visit_misses(monkeypatch)
        walked = []
        walk = scan_module.divisors_of_square

        def counting_walk(x):
            walked.append(x)
            return walk(x)

        monkeypatch.setattr(scan_module, "divisors_of_square", counting_walk)
        assert check_k0_type1_rule(3000) == []
        assert len(walked) == len(k0_rule_primes(3000))
        walked.clear()
        assert check_divisor_k_rule(3000) == []
        assert len(walked) == len(divisor_k_rule_pairs(3000))

    def test_non_divisors_never_certify(self, monkeypatch):
        # Pairs (m, k) whose k does not divide x*x at x = m + k: the closed
        # form x*x // k is then rounded down, and a d so made is never
        # congruent (x*x = k*d + r gives -p*x = d - 4r mod 4k + 1, 0 < r < k),
        # so with no walk every such visit is a violation.
        def non_divisor_pairs(lo, hi):
            for p in primes_in_range(lo, hi):
                if p % 4 == 3:
                    m = (p + 1) // 4
                    yield from ((m, k) for k in range(1, m + 1) if (m + k) ** 2 % k)

        monkeypatch.setattr(scan_module, "_divisor_k_pairs", non_divisor_pairs)
        monkeypatch.setattr(scan_module, "divisors_of_square", lambda x: [])
        expected = [(4 * m - 1, k) for m, k in non_divisor_pairs(3, 1000)]
        assert len(expected) == 9097
        assert check_divisor_k_rule(1000) == expected

    @pytest.mark.parametrize("list_everything", [False, True])
    def test_prime_chunks_drop_and_repeat_nothing(self, monkeypatch, list_everything):
        # The rules sieve [3, hi] chunk by chunk; with every closed form
        # and witness test failing every case is listed, so a prime or a
        # pair lost or repeated at a chunk edge would show.
        if list_everything:
            patch_every_visit_misses(monkeypatch)
            monkeypatch.setattr(scan_module, "_has_type1_witness_at", lambda p, x: False)
        whole = check_k0_type1_rule(20_000), check_divisor_k_rule(20_000)
        monkeypatch.setattr(scan_module, "_SPAN", 97)
        assert len(scan_module._chunk_bounds(3, 20_000, 1)) == 207
        assert (check_k0_type1_rule(20_000), check_divisor_k_rule(20_000)) == whole
        if list_everything:
            assert whole[0] == k0_rule_primes(20_000)
            assert whole[1] == [(p, k) for p, k, _ in divisor_k_rule_pairs(20_000)]

    def test_no_candidates_and_no_walk_lists_everything(self, monkeypatch, capsys):
        # Every closed form fails and the walk finds nothing, so every
        # visit is a violation: nothing but a divisor of x*x certifies.
        patch_every_visit_misses(monkeypatch)
        monkeypatch.setattr(scan_module, "divisors_of_square", lambda x: [])
        assert check_k0_type1_rule(2000) == k0_rule_primes(2000)
        assert check_divisor_k_rule(2000) == [(p, k) for p, k, _ in divisor_k_rule_pairs(2000)]
        assert main(["properties", "200"]) == 5
        assert "VIOLATION p=199 k=1" in capsys.readouterr().out

    @pytest.mark.parametrize("span", [1 << 17, 97, 7])
    @pytest.mark.parametrize("hi", [3, 7, 11, 15, 26, 99, 1000, 20_000])
    def test_divisor_k_groups_list_each_pair_once(self, monkeypatch, span, hi):
        # _divisor_k_pairs lists each pair at the lesser t of k and m/k.
        # A chunk's m window is one wide at hi = 3 ([3, 3]), where m = 1 =
        # t*t gives k = 1 once, and empty at hi = 26 with span 7 ([24, 26]).
        monkeypatch.setattr(scan_module, "_SPAN", span)
        assert_divisor_k_pairs_once(hi)

    def test_divisor_k_pairs_at_the_real_span(self):
        # 8 chunks to 10**6, 7 of them full; a slice starts at t*t inside
        # its chunk's m window for the 499 t with m_lo < t*t <= m_hi.
        assert scan_module._SPAN == 1 << 17
        assert assert_divisor_k_pairs_once(10**6) == 597_963


class TestResidueStats:
    def test_mod_24_class_1_below_100(self):
        report = scan_primes(2, 100, mode="exhaustive")
        stats = residue_stats(report, 24)
        klass = stats[1]
        assert klass["count"] == 2  # 73 and 97
        assert klass["k0_type1_fraction"] == 0.5  # 97 has k=0, 73 does not
        assert klass["hard"] is False

    def test_mod_2_is_parity(self):
        report = scan_primes(2, 100, mode="exhaustive")
        stats = residue_stats(report, 2)
        assert stats[0]["count"] == 1  # p = 2 alone
        assert stats[1]["count"] == 24

    def test_mod_840_flags_hard_classes(self):
        report = scan_primes(2, 3000, mode="exhaustive")
        stats = residue_stats(report, 840)
        assert 169 in stats and stats[169]["hard"] is True  # e.g. p = 1009
        for residue, entry in stats.items():
            assert entry["hard"] == (residue in HARD_RESIDUES_840)

    def test_requires_exhaustive_and_sane_modulus(self):
        exhaustive = scan_primes(2, 50, mode="exhaustive")
        first_only = scan_primes(2, 50, mode="first-only")
        with pytest.raises(DomainError):
            residue_stats(first_only, 24)
        with pytest.raises(DomainError):
            residue_stats(exhaustive, 1)
