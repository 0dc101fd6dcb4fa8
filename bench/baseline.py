"""Measure every workload of one checkout and write the numbers as a baseline.

    python3 bench/baseline.py --out bench/baselines/NAME.json

For each workload it makes ten untraced runs, seeds 1 to 10, and one
traced run at seed 1. It records each end-to-end metric's median, its
quartiles, and their spread (q3 - q1) / median, which is the figure
BENCHMARK.json's bounds must cover, plus the traced run's per-layer
metrics and one run record per workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from compare import run_once, values

ROOT = Path(__file__).resolve().parent.parent
SEEDS = list(range(1, 11))


def summarise(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]:
        series = [r[name] for r in runs]
        q1, _, q3 = statistics.quantiles(series, n=4)
        out[name] = {
            "median": statistics.median(series),
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / statistics.median(series),
            "values": series,
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    doc = {"run_seconds": seconds, "seeds": SEEDS, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in doc["seeds"]:
            record, result = run_once(ROOT, workload, seed, seconds)
            runs.append(values(result))
            print(workload, seed, {k: round(v, 6) for k, v in runs[-1].items()}, flush=True)
        _, traced = run_once(ROOT, workload, 1, seconds, trace=1)
        doc["workloads"][workload] = {
            "end_to_end": summarise(runs),
            "per_layer": values(traced),
            "run_record": record,
        }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
