"""Per-layer timing of one workload, run in process with spans.

Spans are recorded from this file, not from inside the program: for
the length of one pass, the names through which one module calls into
another (cli -> scan and recover, scan -> witness and arith, recover
-> witness and oracle) are replaced by timing wrappers, and restored
afterwards. A call site that a later version of the program no longer
has is skipped, so its span reads 0.

A span's total time includes the spans it caused; its self time
excludes them.
"""

from __future__ import annotations

import contextlib
import io
import pickle
import statistics
import time
from collections import defaultdict
from typing import Any, Callable, Iterator, Optional

perf = time.perf_counter


class Tracer:
    """Accumulates span totals, self times, call and item counts."""

    def __init__(self) -> None:
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.items: dict[str, int] = defaultdict(int)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.edges: dict[tuple[str, str], int] = defaultdict(int)
        self.last: dict[str, Any] = {}
        self.cache_info: Any = None  # divisor cache statistics after the pass
        self._stack: list[list] = []  # [span name, seconds covered by child spans]

    def _close(self, name: str, dt: float, child: float) -> None:
        self.total[name] += dt
        self.self_time[name] += dt - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][1] += dt
        self.edges[(self._stack[-1][0] if self._stack else "", name)] += 1

    def wrap(
        self, name: str, fn: Callable, *, keep: bool = False,
        count: Optional[Callable[[Any], int]] = None,
    ) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = [name, 0.0]
            self._stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                self._stack.pop()
                self._close(name, dt, frame[1])
                if keep:
                    self.durations[name].append(dt)
            if count is not None:
                self.items[name] += count(result)
            self.last[name] = result
            return result

        return traced


@contextlib.contextmanager
def patched(tracer: Tracer, es: Any) -> Iterator[None]:
    """Install the tracer's wrappers on the program's call sites."""
    arith, cli, recover, scan = es.arith, es.cli, es.recover, es.scan
    sites = [
        (cli, "scan_primes", "scan.scan_primes", {}),
        (cli, "check_correspondence", "recover.check_correspondence", {}),
        (cli, "check_k0_type1_rule", "scan.check_k0_type1_rule", {}),
        (cli, "check_divisor_k_rule", "scan.check_divisor_k_rule", {}),
        # cmd_compare imports primes_in_range from arith when it runs.
        (arith, "primes_in_range", "arith.primes_in_range", {}),
        (scan, "primes_in_range", "arith.primes_in_range", {}),
        (scan, "first_witness", "witness.first_witness", {"keep": True}),
        (recover, "enumerate_witnesses", "witness.enumerate", {"count": len}),
        (recover, "recover_type1", "recover.recover_solution", {}),
        (recover, "recover_type2", "recover.recover_solution", {}),
        (recover, "solve_bruteforce", "oracle.solve_bruteforce", {"count": len}),
    ]
    saved = []
    try:
        for module, attr, name, opts in sites:
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            saved.append((module, attr, fn))
            setattr(module, attr, tracer.wrap(name, fn, **opts))
        yield
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def divisor_cache(es: Any) -> Any:
    """The program's divisor cache, or None once a version drops it."""
    cache = getattr(es.arith, "_square_divisor_cache", None)
    return cache if hasattr(cache, "cache_info") and hasattr(cache, "cache_clear") else None


def clear_divisor_cache(es: Any) -> None:
    cache = divisor_cache(es)
    if cache is not None:
        cache.cache_clear()


def traced_pass(es: Any, argv: list[str], stdout_path: str) -> tuple[Tracer, int]:
    """One in-process CLI run under a fresh tracer, starting with a cold cache."""
    tracer = Tracer()
    clear_divisor_cache(es)
    with patched(tracer, es), open(stdout_path, "w", encoding="utf-8") as out:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = tracer.wrap("cli.main", es.cli.main)(argv)
    cache = divisor_cache(es)
    tracer.cache_info = cache.cache_info() if cache is not None else None
    return tracer, code


def _timed(fn: Callable[[], Any]) -> float:
    t0 = perf()
    fn()
    return perf() - t0


def _quantile_us(durations: list[float], q: int) -> float:
    if len(durations) < 2:
        return durations[0] * 1e6 if durations else 0.0
    return statistics.quantiles(durations, n=100, method="inclusive")[q - 1] * 1e6


def layer_metrics(
    es: Any, tracer: Tracer, pool_tracer: Optional[Tracer], primes: list[int], record_bytes: int
) -> dict[str, float]:
    """Per-layer metrics of a traced pass, plus the standalone layer probes.

    The probes run after the pass, each on a cold divisor cache:
    is_prime over the workload's primes, divisors_of_square at
    x = ceil(p/4), build_solution over each prime's first witness, and a
    pickle round trip of the scan records the pass returned.
    """
    t, s, n = tracer.total, tracer.self_time, tracer.items
    info = tracer.cache_info
    m: dict[str, float] = {
        "arith.primes_in_range_s": t["arith.primes_in_range"],
        "arith.divisor_cache_hits": info.hits if info else 0,
        "arith.divisor_cache_misses": info.misses if info else 0,
        "witness.first_witness_s": t["witness.first_witness"],
        "witness.first_witness_us_p50": _quantile_us(tracer.durations["witness.first_witness"], 50),
        "witness.first_witness_us_p99": _quantile_us(tracer.durations["witness.first_witness"], 99),
        "witness.enumerate_s": t["witness.enumerate"],
        "witness.witnesses_per_s": n["witness.enumerate"] / t["witness.enumerate"] if t["witness.enumerate"] else 0.0,
        "recover.recover_solution_s": t["recover.recover_solution"],
        "recover.check_correspondence_s": t["recover.check_correspondence"],
        "oracle.solve_bruteforce_s": t["oracle.solve_bruteforce"],
        "oracle.solutions_per_s": n["oracle.solve_bruteforce"] / t["oracle.solve_bruteforce"] if t["oracle.solve_bruteforce"] else 0.0,
        "scan.scan_primes_s": t["scan.scan_primes"],
        "scan.scan_primes_self_s": s["scan.scan_primes"],
        "scan.scan_primes_pool_s": pool_tracer.total["scan.scan_primes"] if pool_tracer else 0.0,
        "scan.check_k0_type1_rule_s": t["scan.check_k0_type1_rule"],
        "scan.check_divisor_k_rule_s": t["scan.check_divisor_k_rule"],
        "cli.main_s": t["cli.main"],
        "cli.serialize_write_s": s["cli.main"],
        "cli.record_bytes": record_bytes,
    }

    report = tracer.last.get("scan.scan_primes")
    records = list(report.records) if report is not None else []
    if records:
        firsts = [r.first for r in records if r.first is not None]
    else:
        clear_divisor_cache(es)
        firsts = [w for w in map(es.witness.first_witness, primes) if w is not None]

    is_prime, dos, build = es.arith.is_prime, es.arith.divisors_of_square, es.witness.build_solution
    clear_divisor_cache(es)
    m["arith.is_prime_s"] = _timed(lambda: [is_prime(p) for p in primes])
    clear_divisor_cache(es)
    m["arith.divisors_of_square_s"] = _timed(lambda: [dos((p + 3) // 4) for p in primes])
    clear_divisor_cache(es)
    m["witness.build_solution_s"] = _timed(lambda: [build(w) for w in firsts])

    m["scan.ipc_codec_s"], m["scan.ipc_bytes"] = 0.0, 0
    if records:
        t0 = perf()
        blob = pickle.dumps(records)
        pickle.loads(blob)
        m["scan.ipc_codec_s"], m["scan.ipc_bytes"] = perf() - t0, len(blob)
    clear_divisor_cache(es)
    return m


def span_summary(tracer: Tracer) -> dict[str, Any]:
    """Aggregated span tree: per span its totals, and caller -> callee counts."""
    return {
        "spans": {
            name: {
                "calls": tracer.calls[name],
                "total_s": tracer.total[name],
                "self_s": tracer.self_time[name],
                "items": tracer.items.get(name, 0),
            }
            for name in sorted(tracer.total)
        },
        "edges": [
            {"parent": parent or None, "child": child, "calls": calls}
            for (parent, child), calls in sorted(tracer.edges.items())
        ],
    }
