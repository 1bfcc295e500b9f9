"""Run one command and write its wall time and resource use as JSON.

    python3 launch.py <report.json> <program> [<arg> ...]

run.py starts every measured command through this small process. A
child's peak RSS as the kernel reports it is at least the RSS of the
process it was started from, so a command started straight from the
benchmark, which holds the records it checks, would report the
benchmark's memory instead of its own. The wall time is taken here,
around the command alone.
"""

import json
import os
import sys
import time

report_path, program, *args = sys.argv[1:]
t0 = time.perf_counter()
pid = os.posix_spawn(program, [program, *args], os.environ)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - t0
with open(report_path, "w", encoding="utf-8") as fh:
    json.dump({
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "code": os.waitstatus_to_exitcode(status),
    }, fh)
