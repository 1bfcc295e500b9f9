"""Benchmark of the erdos-straus CLI: three workloads, end to end or per layer.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload first-only --seed 1 --seconds 20 --trace 0

With --trace 0 the workload's CLI command runs as a subprocess
(`python -m erdos_straus ...` with src on PYTHONPATH) as many times
as fit in --seconds, and the end-to-end metrics are medians over
those runs. With --trace 1 the command runs once in process under
the span tracer of tracing.py, and the per-layer metrics are printed
instead; that run takes 5-30 s whatever --seconds says. Every output the program writes is checked by checks.py; a
prime whose output is wrong or missing counts as failed.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Lines before it are a
human-readable report with the run context and the seed baseline.
README.md explains the workloads, the metrics and the predictions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from random import Random
from typing import Optional

import checks
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BASELINE = Path(__file__).resolve().parent / "baseline.json"
LAUNCH = Path(__file__).resolve().parent / "launch.py"
SPEC = ROOT / "BENCHMARK.json"  # names and units of the metrics each mode prints

WORKLOADS = ("first-only", "compare", "properties")
POOL_THREADS = min(2, os.cpu_count() or 1)
SETUP_SAMPLES = 11  # at least, taken between the repetitions
SETUP_PER_REP = 2
RUN_BUDGET_S = 170.0  # the whole run, set-up and checks included
RULE_SAMPLE = 200  # properties primes whose rules are re-checked here

@dataclass
class Workload:
    """One CLI command over a seeded range, and what its output must hold."""

    name: str
    kind: str  # "scan", "compare" or "properties"
    args: list[str]  # CLI arguments without --out and --threads
    lo: int
    hi: int
    primes: list[int]  # the primes one run attempts, from checks.sieve
    divisor_hi: int = 0
    pool: bool = False
    rng: Random = field(default_factory=Random)


def make_workload(name: str, seed: int) -> Workload:
    """The workload's command, with the range placed by the seed.

    Each band keeps the range's cost within about one percent across
    seeds: the seed moves the cheap end of the range only.
    """
    rng = Random(f"{name}/{seed}")
    if name == "first-only":
        lo, hi = 2 + rng.randrange(2000), 499_999
        return Workload(name, "scan", ["scan", str(lo), str(hi)], lo, hi,
                        checks.sieve(lo, hi), pool=True, rng=rng)
    if name == "compare":
        lo, hi = 2 + rng.randrange(50), 1_500
        return Workload(name, "compare", ["compare", str(lo), str(hi), "--json"], lo, hi,
                        checks.sieve(lo, hi), rng=rng)
    if name == "properties":
        hi, divisor_hi = 1_000_000 - rng.randrange(5000), 100_000 - rng.randrange(500)
        args = ["properties", str(hi), "--divisor-hi", str(divisor_hi), "--json"]
        return Workload(name, "properties", args, 3, hi, checks.sieve(3, hi),
                        divisor_hi=divisor_hi, rng=rng)
    raise ValueError(f"unknown workload {name!r}")


@dataclass
class Proc:
    """One finished subprocess: wall time, CPU time, peak RSS, outcome."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    code: int
    timed_out: bool
    output: bytes = b""


class Runner:
    """Starts the program as subprocesses inside one run's time budget."""

    def __init__(self, tmp: Path) -> None:
        self.tmp = tmp
        self.started = time.perf_counter()
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))

    def remaining(self) -> float:
        return RUN_BUDGET_S - (time.perf_counter() - self.started)

    def python(self, args: list[str]) -> Proc:
        """Run the interpreter on args through launch.py; the group is killed on timeout."""
        out_path, report_path = self.tmp / "stdout", self.tmp / "launch.json"
        report_path.unlink(missing_ok=True)
        with open(out_path, "wb") as out:
            proc = subprocess.Popen(
                [sys.executable, str(LAUNCH), str(report_path), sys.executable, *args],
                cwd=ROOT, env=self.env, stdout=out, stderr=subprocess.DEVNULL,
                start_new_session=True,
            )
            try:
                proc.wait(timeout=max(self.remaining(), 1.0))
            except subprocess.TimeoutExpired:
                pass
            finally:
                try:  # the command and any pool workers it left behind
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                proc.wait()
        if not report_path.is_file():
            return Proc(0.0, 0.0, 0.0, -1, True)
        rep = json.loads(report_path.read_text())
        return Proc(rep["wall_s"], rep["cpu_s"], rep["peak_rss_mb"], rep["code"], False,
                    out_path.read_bytes())

    def cli(self, args: list[str]) -> Proc:
        """Run `python -m erdos_straus args`; a scan's record file becomes the output."""
        record_path = self.tmp / "records.jsonl"
        scan = args[0] == "scan"
        if scan:
            args = [*args, "--out", str(record_path)]
        res = self.python(["-m", "erdos_straus", *args])
        if scan:
            res.output = record_path.read_bytes() if record_path.exists() else b""
            record_path.unlink(missing_ok=True)
        return res

    def setup_s(self, samples: int) -> list[Proc]:
        return [self.python(["-c", "import erdos_straus.cli"]) for _ in range(samples)]


class Scorer:
    """Failed primes of each output, checked once per distinct output."""

    def __init__(self, wl: Workload) -> None:
        self.wl = wl
        self._verdicts: dict[bytes, set[int]] = {}
        self._line_verdicts: dict[bytes, bool] = {}
        self.selfcheck_ok: Optional[bool] = None  # None until a correct output was seen
        sample_size = RULE_SAMPLE if wl.kind == "properties" else 0
        self.sample = wl.rng.sample(wl.primes, min(sample_size, len(wl.primes)))

    def _check(self, data: bytes) -> set[int]:
        wl = self.wl
        if wl.kind == "scan":
            return checks.check_scan(data, wl.primes, self._line_verdicts)
        if wl.kind == "compare":
            return checks.check_compare(data, wl.primes, wl.lo, wl.hi)
        return checks.check_properties(data, wl.primes, wl.hi, wl.divisor_hi, self.sample)

    def score(self, res: Proc) -> set[int]:
        """Failed primes of one run; a failed or timed-out run fails them all."""
        if res.code != 0 or res.timed_out:
            return set(self.wl.primes)
        if res.output not in self._verdicts:
            self._verdicts[res.output] = self._check(res.output)
        if self.selfcheck_ok is None and not self._verdicts[res.output]:
            self.selfcheck_ok = checks.negative_selfcheck(
                self.wl.kind, res.output, self.wl.primes, self._check, self.wl.rng)
        return self._verdicts[res.output]

    def failed(self, res: Proc, same_as: Optional[Proc] = None) -> int:
        """Failed primes of one run, plus lines differing from `same_as`'s output."""
        bad = self.score(res)
        if same_as is not None and res.code == 0 and not res.timed_out:
            bad = bad | checks.diff_lines(same_as.output, res.output, self.wl.primes)
        return min(len(bad), len(self.wl.primes))


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def measure_end_to_end(wl: Workload, seconds: float, runner: Runner) -> tuple[dict, int, int, Scorer, dict]:
    """Repeat the workload's command for `seconds`; medians of each metric."""
    scorer = Scorer(wl)
    runner.setup_s(1)  # compiles the bytecode once, before any timing
    setup: list[Proc] = []
    single_runs: list[Proc] = []
    pool_runs: list[Proc] = []
    attempted = failed = 0
    t0 = time.perf_counter()
    while True:
        setup += runner.setup_s(SETUP_PER_REP)
        single = runner.cli(wl.args)
        single_runs.append(single)
        attempted += len(wl.primes)
        failed += scorer.failed(single)
        if wl.pool:
            pooled = runner.cli([*wl.args, "--threads", str(POOL_THREADS)])
            pool_runs.append(pooled)
            attempted += len(wl.primes)
            failed += scorer.failed(pooled, same_as=single)
        spent = time.perf_counter() - t0
        reps = len(single_runs)
        if single.timed_out or spent + spent / reps > min(seconds, runner.remaining() - 10):
            break
    setup += runner.setup_s(max(0, SETUP_SAMPLES - len(setup)))
    samples = {
        "setup_s": [r.wall_s for r in setup],
        "wall_s": [r.wall_s for r in single_runs],
        # Only first-only runs a pool; elsewhere the single-process runs stand in.
        "pool_wall_s": [r.wall_s for r in pool_runs or single_runs],
        "cpu_s": [r.cpu_s for r in single_runs],
        "peak_rss_mb": [r.peak_rss_mb for r in single_runs],
    }
    metrics = {name: _median(values) for name, values in samples.items()}
    metrics["primes_per_s"] = len(wl.primes) / metrics["wall_s"] if metrics["wall_s"] else 0.0
    detail = {"repetitions": len(single_runs), "samples": samples}
    return metrics, attempted, failed, scorer, detail


def measure_layers(wl: Workload, runner: Runner) -> tuple[dict, int, int, Scorer, dict]:
    """One untraced subprocess run, then the traced in-process passes."""
    scorer = Scorer(wl)
    runner.setup_s(1)
    setup = _median([r.wall_s for r in runner.setup_s(5)])
    untraced = runner.cli(wl.args)
    attempted, failed = len(wl.primes), scorer.failed(untraced)

    import erdos_straus as es
    import erdos_straus.cli  # noqa: F401  (binds es.cli)

    def traced(extra: list[str]) -> tuple[tracing.Tracer, Proc]:
        args = list(wl.args) + extra
        out = runner.tmp / "traced.out"
        record_path = runner.tmp / "traced.jsonl"
        if wl.kind == "scan":
            args += ["--out", str(record_path)]
        tracer, code = tracing.traced_pass(es, args, str(out))
        data = record_path.read_bytes() if wl.kind == "scan" and record_path.exists() else out.read_bytes()
        return tracer, Proc(0.0, 0.0, 0.0, code, False, data)

    tracer, single = traced([])
    attempted += len(wl.primes)
    failed += scorer.failed(single)
    pool_tracer = None
    if wl.pool:
        pool_tracer, pooled = traced(["--threads", str(POOL_THREADS)])
        attempted += len(wl.primes)
        failed += scorer.failed(pooled, same_as=single)
    metrics = tracing.layer_metrics(es, tracer, pool_tracer, wl.primes, len(single.output))
    metrics["trace.overhead_s"] = metrics["cli.main_s"] - (untraced.wall_s - setup)
    detail = {"untraced_wall_s": untraced.wall_s, "setup_s": setup,
              "spans": tracing.span_summary(tracer),
              "pool_spans": tracing.span_summary(pool_tracer) if pool_tracer else None}
    return metrics, attempted, failed, scorer, detail


def run_context(wl: Workload, seed: int) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": wl.name,
        "seed": seed,
        "command": ["python", "-m", "erdos_straus", *wl.args],
        "range": [wl.lo, wl.hi],
        "prime_count": len(wl.primes),
        "divisor_hi": wl.divisor_hi or None,
        "pool_threads": POOL_THREADS if wl.pool else None,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


def report(context: dict, metrics: dict, units: dict, baseline: dict, attempted: int,
           failed: int, selfcheck: Optional[bool]) -> None:
    print(f"workload {context['workload']}  seed {context['seed']}  "
          f"range [{context['range'][0]}, {context['range'][1]}]  primes {context['prime_count']}")
    print("  command: " + " ".join(context["command"]))
    print(f"  nproc {context['nproc']}  python {context['python']}  numpy {context['numpy']}  "
          f"{context['platform']}")
    for name in units:
        base = baseline.get(name)
        suffix = f"   (seed baseline {base:.6g})" if isinstance(base, (int, float)) else ""
        print(f"  {name:34s} {metrics[name]:>16.6g} {units[name]:6s}{suffix}")
    print(f"  failed_fraction {failed / attempted:.6g} = {failed} failed / {attempted} "
          f"attempted primes (one count per prime per CLI run)")
    print(f"  negative self-check: {'passed' if selfcheck else 'FAILED' if selfcheck is False else 'not run'}")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "erdos_straus" / "cli.py").is_file():
        print(f"error: no program to measure: {SRC / 'erdos_straus'} is missing", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    wl = make_workload(args.workload, args.seed)
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        runner = Runner(Path(tmp))
        if args.trace:
            metrics, attempted, failed, scorer, detail = measure_layers(wl, runner)
        else:
            metrics, attempted, failed, scorer, detail = measure_end_to_end(wl, args.seconds, runner)

    spec = json.loads(SPEC.read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    context = run_context(wl, args.seed)
    baseline = {}
    if BASELINE.is_file():
        doc = json.loads(BASELINE.read_text())
        baseline = doc["workloads"].get(wl.name, {}).get(f"trace{args.trace}", {})
    correct = failed == 0 and scorer.selfcheck_ok is True
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    detail_path = WORK / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    detail_path.write_text(json.dumps(
        {"context": context, "result": result, "detail": detail}, indent=1, sort_keys=True))
    report(context, metrics, units, baseline, attempted, failed, scorer.selfcheck_ok)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
