"""CLI surface: subcommands, formats, and the exit-code contract."""

import importlib
import json
import os
import shutil
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import erdos_straus.cli as cli
import erdos_straus.scan as scan_module
from erdos_straus import (
    ConsistencyError,
    CorrespondenceError,
    ScanStream,
    SolutionType,
    k_table,
    k_table_csv,
    k_table_json,
    record_line,
    scan_primes,
)
from erdos_straus.cli import main
from test_scan import patch_every_visit_misses


class TestCheck:
    def test_json_output(self, capsys):
        assert main(["check", "41", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["p"] == 41
        hit = [w for w in data["witnesses"] if (w["x"], w["d"]) == (14, 1)]
        assert hit == [
            {"p": 41, "x": 14, "d": 1, "k": 3, "type": "II", "y": 41, "z": 574, "identity": True}
        ]

    @pytest.mark.parametrize("p", [2, 3, 5, 13, 17, 73, 97, 193, 1009])
    def test_first_entry_is_the_records_first(self, p, capsys):
        # check --json and a scan record print the one witness object:
        # the first entry bar its solution is the first-only record's
        # first (the f-string of _chunk_pieces) and the exhaustive one's
        assert main(["check", str(p), "--json"]) == 0
        entry = json.loads(capsys.readouterr().out)["witnesses"][0]
        for key in ("y", "z", "identity"):
            del entry[key]
        for mode in ("first-only", "exhaustive"):
            (line,) = ScanStream(p, p, mode=mode)
            assert json.loads(line)["first"] == entry

    def test_text_output(self, capsys):
        assert main(["check", "2"]) == 0
        out = capsys.readouterr().out
        assert "x=1" in out and "y=2 z=2" in out

    def test_composite_rejected(self, capsys):
        assert main(["check", "4"]) == 2
        assert "error" in capsys.readouterr().err


class TestSolve:
    def test_json_output(self, capsys):
        assert main(["solve", "5", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {"n": 5, "solutions": [[2, 4, 20], [2, 5, 10]]}

    def test_text_output(self, capsys):
        assert main(["solve", "4"]) == 0
        out = capsys.readouterr().out
        assert "3 solution(s)" in out

    def test_domain_errors(self, capsys):
        assert main(["solve", "1"]) == 2
        assert main(["solve", "100001"]) == 2
        capsys.readouterr()

    def test_cap_option(self, capsys):
        assert main(["solve", "150", "--cap", "149"]) == 2
        assert capsys.readouterr().err == "error: n=150 exceeds the cap 149\n"
        assert main(["solve", "150", "--json"]) == 0
        default = capsys.readouterr().out
        assert main(["solve", "150", "--cap", "150", "--json"]) == 0
        assert capsys.readouterr().out == default


class TestScan:
    def test_writes_records_and_summary(self, tmp_path, capsys):
        out = tmp_path / "scan.jsonl"
        assert main(["scan", "2", "100", "--exhaustive", "--out", str(out)]) == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert len(lines) == 25
        records = [json.loads(line) for line in lines]
        assert [r["p"] for r in records] == sorted(r["p"] for r in records)
        first = records[0]
        assert first == {
            "p": 2,
            "first": {"p": 2, "x": 1, "d": 1, "k": 0, "type": "II"},
            "type1_k_set": [],
            "type2_k_set": [0],
            "witness_counts": {"type1": 0, "type2": 1},
            "residue_24": 2,
            "residue_840": 2,
        }
        by_p = {r["p"]: r for r in records}
        assert by_p[41]["type2_k_set"] == [0, 1, 3]
        summary = json.loads((tmp_path / "scan.jsonl.summary.json").read_text())
        assert summary["counterexamples"] == []
        assert summary["prime_count"] == 25
        assert summary["mode"] == "exhaustive"

    def test_first_only_nulls(self, tmp_path, capsys):
        out = tmp_path / "scan.jsonl"
        assert main(["scan", "2", "50", "--out", str(out)]) == 0
        capsys.readouterr()
        for line in out.read_text().splitlines():
            rec = json.loads(line)
            assert rec["type1_k_set"] is None
            assert rec["witness_counts"] is None
            assert rec["first"] is not None

    def test_stdout_mode(self, capsys):
        assert main(["scan", "2", "30", "--exhaustive"]) == 0
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 10
        assert json.loads(captured.err.splitlines()[-1])["prime_count"] == 10

    def test_byte_identical_across_threads(self, tmp_path, capsys):
        files = []
        for workers in (1, 2, 3):
            path = tmp_path / f"scan_w{workers}.jsonl"
            assert main(
                ["scan", "2", "500", "--exhaustive", "--threads", str(workers), "--out", str(path)]
            ) == 0
            files.append(path.read_bytes())
        capsys.readouterr()
        assert files[0] == files[1] == files[2]

    @staticmethod
    def scan_outputs(tmp_path, lo, hi, threads):
        """Record bytes and summary (bar elapsed_seconds) of one first-only CLI scan."""
        out = tmp_path / f"scan_{lo}_{hi}_t{threads}.jsonl"
        argv = ["scan", str(lo), str(hi), "--threads", str(threads), "--out", str(out)]
        assert main(argv) == 0
        summary = json.loads(Path(f"{out}.summary.json").read_text())
        del summary["elapsed_seconds"]
        assert summary["workers"] == threads
        summary["workers"] = None
        return out.read_bytes(), summary

    @pytest.mark.parametrize("lo, hi", [(2, 3000), (65_521, 70_001)])
    def test_first_only_identical_across_threads(self, tmp_path, capsys, lo, hi):
        # 65521 and 70001 are primes, and the range straddles 2**16,
        # the top of the sieve's stored small primes.
        outputs = [self.scan_outputs(tmp_path, lo, hi, t) for t in (1, 2, 3)]
        capsys.readouterr()
        assert outputs[0][0].startswith(b'{"first":') and outputs[0][0].endswith(b"}\n")
        assert outputs[0] == outputs[1] == outputs[2]

    def test_many_small_chunks_identical(self, monkeypatch, tmp_path, capsys):
        expected = self.scan_outputs(tmp_path, 65_521, 70_001, 1)
        monkeypatch.setattr(scan_module, "_SPAN", 97)
        assert len(scan_module._chunk_bounds(65_521, 70_001, 1)) == 47
        for threads in (1, 3):
            assert self.scan_outputs(tmp_path, 65_521, 70_001, threads) == expected
        capsys.readouterr()

    def test_io_failure(self, tmp_path, capsys):
        missing_dir = tmp_path / "absent" / "scan.jsonl"
        assert main(["scan", "2", "30", "--out", str(missing_dir)]) == 4
        assert "i/o error" in capsys.readouterr().err

    def test_failed_write_keeps_old_file(self, monkeypatch, tmp_path, capsys):
        out = tmp_path / "scan.jsonl"
        out.write_text("old\n")

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(cli.os, "replace", fail)
        assert main(["scan", "2", "30", "--out", str(out)]) == 4
        assert "i/o error" in capsys.readouterr().err
        assert out.read_text() == "old\n"
        assert [f.name for f in tmp_path.iterdir()] == ["scan.jsonl"]

    def test_write_error_removes_temp_file(self, tmp_path):
        out = tmp_path / "table.csv"
        out.write_text("old\n")
        with pytest.raises(UnicodeEncodeError):
            cli._write_text(str(out), "\ud800")
        assert out.read_text() == "old\n"
        assert [f.name for f in tmp_path.iterdir()] == ["table.csv"]

    def test_pipe_written_in_place(self, tmp_path):
        fifo = tmp_path / "records"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            cli._write_text(str(fifo), "abc\n")
            assert os.read(reader, 100) == b"abc\n"
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert [f.name for f in tmp_path.iterdir()] == ["records"]

    def test_scan_to_pipe_puts_summary_on_stderr(self, tmp_path, capsys):
        # No sibling <out>.summary.json can sit beside a pipe (or /dev/null),
        # so the summary goes to stderr, as with no --out.
        fifo = tmp_path / "records"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert main(["scan", "2", "3000", "--out", str(fifo)]) == 0
        reader.join(timeout=60)
        expected = "".join(record_line(r) + "\n" for r in scan_primes(2, 3000).records)
        assert received == [expected.encode()]
        assert [f.name for f in tmp_path.iterdir()] == ["records"]
        summary = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert summary["prime_count"] == 430 and summary["counterexamples"] == []

    def test_symlink_target_replaced(self, tmp_path):
        target = tmp_path / "target.csv"
        target.write_text("old\n")
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        cli._write_text(str(link), "new\n")
        assert link.is_symlink()
        assert target.read_text() == "new\n"

    def test_rewrite_replaces_old_file(self, tmp_path, capsys):
        out = tmp_path / "scan.jsonl"
        out.write_text("old\n")
        assert main(["scan", "2", "30", "--out", str(out)]) == 0
        capsys.readouterr()
        assert len(out.read_text().splitlines()) == 10
        assert sorted(f.name for f in tmp_path.iterdir()) == [
            "scan.jsonl",
            "scan.jsonl.summary.json",
        ]

    def test_counterexample_exit_code(self, monkeypatch, tmp_path, capsys):
        # No real counterexample exists in reach, so fabricate one to
        # pin the exit-code path.
        monkeypatch.setattr(scan_module, "_first_witness_unchecked", lambda p: None)
        out = tmp_path / "scan.jsonl"
        assert main(["scan", "2", "30", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "counterexamples" in err
        rec = json.loads(out.read_text().splitlines()[0])
        assert rec["first"] is None

    def test_domain_error(self, capsys):
        assert main(["scan", "9", "2"]) == 2
        capsys.readouterr()


class TestTable:
    def test_csv_matches_library(self, capsys):
        assert main(["table", "1"]) == 0
        out = capsys.readouterr().out
        assert out == k_table_csv(k_table(100, SolutionType.TYPE_I))

    def test_json_matches_library(self, capsys):
        assert main(["table", "2", "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert out == k_table_json(k_table(100, SolutionType.TYPE_II)) + "\n"

    def test_custom_hi_and_file_output(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        assert main(["table", "2", "--hi", "10", "--out", str(out)]) == 0
        capsys.readouterr()
        assert out.read_text() == "2,0\n3,0\n5,0\n7,0\n"

    def test_rejects_other_table_numbers(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table", "3"])
        assert exc.value.code == 2
        capsys.readouterr()


class TestFigure:
    def test_default_prints_points(self, capsys):
        assert main(["figure", "--hi", "5"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("p,x\n2,1\n")

    def test_file_outputs(self, tmp_path, capsys):
        pts = tmp_path / "points.csv"
        svg = tmp_path / "figure.svg"
        assert main(
            ["figure", "--hi", "100", "--points-out", str(pts), "--svg-out", str(svg)]
        ) == 0
        capsys.readouterr()
        assert pts.read_text().startswith("p,x\n")
        assert svg.read_text().startswith("<svg")


class TestCompare:
    def test_agreement(self, capsys):
        assert main(["compare", "2", "100"]) == 0
        assert "agree exactly" in capsys.readouterr().out

    def test_json(self, capsys):
        assert main(["compare", "2", "50", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["violations"] == []
        assert data["primes"] == 15

    def test_violation_exit_code(self, monkeypatch, capsys):
        # cmd_compare reads check_correspondences from recover when it runs.
        monkeypatch.setattr(
            "erdos_straus.recover.check_correspondences",
            lambda primes: [f"p={p}: fabricated" for p in primes],
        )
        assert main(["compare", "2", "10"]) == 5
        assert "VIOLATION" in capsys.readouterr().out

    def test_hi_above_scan_cap_is_refused_before_sieving(self, monkeypatch, capsys):
        def no_sieve(lo, hi):
            raise AssertionError(f"sieved [{lo}, {hi}]")

        monkeypatch.setattr(cli, "primes_in_range", no_sieve)
        assert main(["compare", "2", "100000000000"]) == 2
        err = capsys.readouterr().err
        assert "error: hi=100000000000 exceeds the oracle cap 100000" in err

    def test_hi_above_oracle_cap_is_refused_before_sieving(self, monkeypatch, capsys):
        # A sieve to 2**32 alone needs gigabytes, so the cap must come first.
        def no_sieve(lo, hi):
            raise AssertionError(f"sieved [{lo}, {hi}]")

        monkeypatch.setattr(cli, "primes_in_range", no_sieve)
        for hi in ("100001", "4294967296"):
            assert main(["compare", "2", hi]) == 2
            assert f"error: hi={hi} exceeds the oracle cap 100000" in capsys.readouterr().err

    def test_hi_at_oracle_cap_runs(self, capsys):
        assert main(["compare", "99990", "100000", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["primes"] == 1 and data["violations"] == []

    def test_lo_below_two_is_clamped(self, capsys):
        assert main(["compare", "0", "100", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["primes"] == 25

    def test_correspondence_error_exits_5(self, monkeypatch, capsys):
        def raising(primes):
            raise CorrespondenceError("planted for p=7")

        monkeypatch.setattr("erdos_straus.recover.check_correspondences", raising)
        assert main(["compare", "2", "10"]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "correspondence violation: planted for p=7" in captured.err

    def test_no_cap_option(self, capsys):
        # compare runs under the oracle's default cap, so no cap can be set.
        with pytest.raises(SystemExit) as exc:
            main(["compare", "2", "100", "--cap", "50"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --cap 50" in capsys.readouterr().err


class TestProperties:
    def test_clean(self, capsys):
        assert main(["properties", "300"]) == 0
        assert capsys.readouterr().out == (
            "k=0 type I rule up to 300: 0 violation(s)\n"
            "divisor-k rule up to 300: 0 violation(s)\n"
        )

    def test_split_bounds_json(self, capsys):
        assert main(["properties", "500", "--divisor-hi", "100", "--json"]) == 0
        assert capsys.readouterr().out == (
            '{"divisor_rule_hi":100,"divisor_violations":[],"k0_rule_hi":500,"k0_violations":[]}\n'
        )

    # Every closed form fails and no divisor walk rescues a visit, so each
    # rule lists every visit: the k = 0 rule the primes 3..59 (none is 1
    # mod 24), the divisor-k rule each k | m of p = 4m - 1 <= 40.
    VIOLATION_TEXT = (
        "k=0 type I rule up to 60: 16 violation(s)\n"
        "  VIOLATION p=3\n"
        "  VIOLATION p=5\n"
        "  VIOLATION p=7\n"
        "  VIOLATION p=11\n"
        "  VIOLATION p=13\n"
        "  VIOLATION p=17\n"
        "  VIOLATION p=19\n"
        "  VIOLATION p=23\n"
        "  VIOLATION p=29\n"
        "  VIOLATION p=31\n"
        "  VIOLATION p=37\n"
        "  VIOLATION p=41\n"
        "  VIOLATION p=43\n"
        "  VIOLATION p=47\n"
        "  VIOLATION p=53\n"
        "  VIOLATION p=59\n"
        "divisor-k rule up to 40: 15 violation(s)\n"
        "  VIOLATION p=3 k=1\n"
        "  VIOLATION p=7 k=1\n"
        "  VIOLATION p=7 k=2\n"
        "  VIOLATION p=11 k=1\n"
        "  VIOLATION p=11 k=3\n"
        "  VIOLATION p=19 k=1\n"
        "  VIOLATION p=19 k=5\n"
        "  VIOLATION p=23 k=1\n"
        "  VIOLATION p=23 k=2\n"
        "  VIOLATION p=23 k=3\n"
        "  VIOLATION p=23 k=6\n"
        "  VIOLATION p=31 k=1\n"
        "  VIOLATION p=31 k=2\n"
        "  VIOLATION p=31 k=4\n"
        "  VIOLATION p=31 k=8\n"
    )
    VIOLATION_JSON = (
        '{"divisor_rule_hi":40,"divisor_violations":[[3,1],[7,1],[7,2],[11,1],[11,3],'
        '[19,1],[19,5],[23,1],[23,2],[23,3],[23,6],[31,1],[31,2],[31,4],[31,8]],'
        '"k0_rule_hi":60,"k0_violations":[3,5,7,11,13,17,19,23,29,31,37,41,43,47,53,59]}\n'
    )

    @pytest.mark.parametrize("json_flag", [False, True])
    def test_violation_bytes(self, monkeypatch, capsys, json_flag):
        patch_every_visit_misses(monkeypatch)
        argv = ["properties", "60", "--divisor-hi", "40"] + ["--json"] * json_flag
        assert main(argv) == 5
        expected = self.VIOLATION_JSON if json_flag else self.VIOLATION_TEXT
        assert capsys.readouterr().out == expected

    def test_hi_above_scan_cap_is_usage_error(self, capsys):
        assert main(["properties", str((1 << 32) + 1)]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["3000000", "--divisor-hi", "1"], "need hi >= 3, got hi=1"),
            (["3000000", "--divisor-hi", str((1 << 32) + 1)], "exceeds the supported cap"),
            (["2", "--divisor-hi", "100"], "need hi >= 3, got hi=2"),
        ],
    )
    def test_both_bounds_checked_before_either_rule(self, monkeypatch, capsys, argv, message):
        calls = []
        monkeypatch.setattr(cli, "check_k0_type1_rule", lambda hi: calls.append(hi) or [])
        monkeypatch.setattr(cli, "check_divisor_k_rule", lambda hi: calls.append(hi) or [])
        assert main(["properties", *argv]) == 2
        assert message in capsys.readouterr().err
        assert calls == []

    def test_violation_exit_code(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "check_k0_type1_rule", lambda hi: [97])
        assert main(["properties", "100"]) == 5
        assert "VIOLATION p=97" in capsys.readouterr().out


def broken_build(w):
    raise ConsistencyError(f"planted for {w}")


class TestConsistencyError:
    """A witness that fails to build is this package's fault, not the
    user's: main catches no ConsistencyError, so Python prints the
    traceback and exits 1."""

    @pytest.mark.parametrize(
        "argv, target",
        [
            (["check", "41"], "erdos_straus.cli.build_solution"),
            # cmd_compare reads check_correspondences from recover when it runs.
            (["compare", "2", "10"], "erdos_straus.recover.build_solution"),
        ],
    )
    def test_escapes_main(self, monkeypatch, capsys, argv, target):
        monkeypatch.setattr(target, broken_build)
        with pytest.raises(ConsistencyError, match="planted for"):
            main(argv)
        assert capsys.readouterr() == ("", "")

    def test_exit_code_one_with_traceback(self):
        script = (
            "import sys\n"
            "from erdos_straus import cli\n"
            "from erdos_straus.errors import ConsistencyError\n"
            "def broken(w): raise ConsistencyError('planted')\n"
            "cli.build_solution = broken\n"
            "sys.exit(cli.main(['check', '41']))"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("Traceback")
        assert proc.stderr.endswith("erdos_straus.errors.ConsistencyError: planted\n")


class TestParsing:
    def test_no_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "erdos_straus", "check", "2", "--json"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["p"] == 2

    def test_console_script(self):
        """The [project.scripts] entry resolves and runs like its wrapper."""
        if sys.version_info >= (3, 11):
            import tomllib
        else:
            tomllib = pytest.importorskip("tomli")
        pyproject = Path(__file__).parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["erdos-straus"]
        assert target == "erdos_straus.cli:main"
        module_name, attr = target.split(":")
        assert callable(getattr(importlib.import_module(module_name), attr))
        # What the wrapper generated on install does: sys.exit(main()).
        wrapper = f"import sys\nfrom {module_name} import {attr}\nsys.exit({attr}())"
        proc = subprocess.run(
            [sys.executable, "-c", wrapper, "solve", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "1/1 + 1/2 + 1/2" in proc.stdout

    @pytest.mark.skipif(
        shutil.which("erdos-straus") is None,
        reason="erdos-straus is not on PATH (package not installed)",
    )
    def test_installed_console_script(self):
        proc = subprocess.run(
            ["erdos-straus", "solve", "2"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "1/1 + 1/2 + 1/2" in proc.stdout
