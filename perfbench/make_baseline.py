"""Write baseline.json from the detail files of finished runs.

    python3 perfbench/make_baseline.py "<label>" <seed> [<seed> ...]

For every workload and trace mode with detail files for the given
seeds under .perfbench_work, baseline.json gets the median of each
metric over those runs, the number of runs, and the run context of
the first one. run.py prints these medians beside its own figures.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from run import BASELINE, WORK, WORKLOADS


def main(label: str, seeds: list[int]) -> None:
    doc: dict = {"label": label, "seeds": seeds, "workloads": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            runs = [json.loads(p.read_text()) for seed in seeds
                    if (p := WORK / f"{name}-seed{seed}-trace{trace}.json").is_file()]
            if not runs:
                continue
            entry = doc["workloads"].setdefault(name, {})
            entry[f"trace{trace}"] = {
                metric: statistics.median(run["result"]["metrics"][metric]["value"] for run in runs)
                for metric in runs[0]["result"]["metrics"]
            }
            entry[f"trace{trace}_runs"] = len(runs)
            doc.setdefault("context", {k: v for k, v in runs[0]["context"].items()
                                       if k in ("nproc", "cpu_affinity", "python", "numpy", "platform")})
    BASELINE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1], [int(s) for s in sys.argv[2:]])
