"""Compare two checkouts on one workload with alternating benchmark runs.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR --workload NAME

Each directory is a source checkout holding bench/ and src/. It runs ten
pairs; pair i runs both at seed i, the parent first in even pairs and the
change first in odd ones. For every end-to-end metric it prints both medians and quartiles,
the pairs the change won (ties count for neither side), and a verdict:

  gain        the change won at least 9 pairs in 10 and the medians differ
              by more than the parent's interquartile spread
  regression  the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json
  unresolved  the parent's own spread is wider than the bound, and not every
              run of the change is better than every run of the parent
  no change   none of the above
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10


def bench_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "bench").glob("*.py")) + [root / "BENCHMARK.json"]:
        h.update(path.read_bytes())
    return h.hexdigest()


def run_once(root: Path, workload: str, seed: int, seconds: int, trace: int = 0) -> tuple:
    """(run record, result) of one benchmark run in the checkout at root."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise SystemExit(f"{root}: benchmark failed: {done.stderr.strip()[-500:]}")
    record, result = (json.loads(line) for line in done.stdout.strip().splitlines()[-2:])
    if not result["correct"]:
        print(f"warning: {root} seed {seed}: {result['failed']} of "
              f"{result['attempted']} jobs failed", file=sys.stderr)
    return record["run_record"], result


def values(result: dict) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items()}


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple:
    sign = 1 if better == "higher" else -1
    wins = sum(1 for a, b in zip(parent, change) if sign * (b - a) > 0)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    worse_by = sign * (p_med - c_med) / p_med
    if wins >= 0.9 * len(parent) and abs(c_med - p_med) > q3 - q1:
        return wins, "gain"
    if worse_by > bound:
        return wins, "regression"
    if (q3 - q1) / p_med > bound and not (
        min(sign * c for c in change) > max(sign * p for p in parent)
    ):
        return wins, "unresolved"
    return wins, "no change"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    args = parser.parse_args()
    if bench_digest(args.parent) != bench_digest(args.change):
        parser.error("the two checkouts have different benchmark code or settings")
    spec = json.loads((args.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs = {"parent": [], "change": []}
    for seed in range(PAIRS):
        order = ("parent", "change") if seed % 2 == 0 else ("change", "parent")
        for side in order:
            root = args.parent if side == "parent" else args.change
            _, result = run_once(root, args.workload, seed, spec["run_seconds"])
            runs[side].append(values(result))
    for metric in spec["end_to_end"]:
        name = metric["name"]
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        wins, word = verdict(parent, change, metric["better"], metric["bound"])
        quartiles = {
            side: statistics.quantiles(series, n=4)
            for side, series in (("parent", parent), ("change", change))
        }
        print(f"{args.workload} {name} [{metric['unit']}]: parent {quartiles['parent'][1]:.6g} "
              f"(q1 {quartiles['parent'][0]:.6g}, q3 {quartiles['parent'][2]:.6g}), change "
              f"{quartiles['change'][1]:.6g} (q1 {quartiles['change'][0]:.6g}, "
              f"q3 {quartiles['change'][2]:.6g}); change won {wins}/{len(parent)}: {word}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
