"""Run one radixca benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; radixca is imported from src/.
This program is one process. It starts one child interpreter
(bench/child.py) and feeds it CLI jobs one at a time (a closed loop with
one job in flight), in passes of jobs generated from the seed before the
child starts. It stops at the end of the first pass that takes the summed
job wall time past --seconds, so every job shape runs equally often.
Set-up is timed in fresh interpreters before the child starts and after it
exits. Once the child has exited it checks every output against the
references in bench/reference.py.

Every time it reports is in seconds at a reference speed. This machine
shares its host, and how fast it runs Python drifts by up to a factor of
two, from second to second and over minutes. So the child times a fixed
piece of pure-Python work that uses no radixca code (child.calibrate):
a slice after set-up and after every job, and probes during each
untraced job. Each measured time is multiplied by REF_STEP_S over the
mean step time of the calibration around it, so it reads as the seconds
the same work takes while a calibration step takes REF_STEP_S. The run
record keeps the unscaled figures.

--trace 0 prints the end-to-end metrics. --trace 1 runs every pass twice,
untraced and traced in alternating order, and prints the per-layer
metrics of the traced passes. The last line of stdout is the result
object; the line before it is the run record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 12  # set-up samples before the child starts, and again after it exits
REF_STEP_S = 25e-6  # a calibration step at the reference speed: the baseline machine's fast spells
HARD_LIMIT_S = 170.0  # the child is killed past this, and the run fails


class ChildError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + path if path else "")
    return env


def child_cmd(*flags: str) -> list[str]:
    return [sys.executable, str(BENCH / "child.py"), *flags]


def setup_seconds() -> tuple[float, float]:
    """(wall seconds, calibration step seconds) of one interpreter start up
    to radixca.cli imported and parser built."""
    start = time.monotonic()
    done = subprocess.run(
        child_cmd("--setup-only"), env=child_env(), cwd=ROOT,
        capture_output=True, text=True, timeout=60,
    )
    if done.returncode != 0:
        raise ChildError(f"set-up child failed: {done.stderr.strip()[-500:]}")
    first = json.loads(done.stdout.splitlines()[0])
    return first["ready"] - start, first["cal"]


def at_reference_speed(record: dict) -> float:
    """A job's wall time scaled by the mean step time of the calibration
    slices just before and after it and of the probes taken during it."""
    steps = [record["cal_before"], *record["probes"], record["cal"]]
    return record["wall"] * REF_STEP_S / statistics.fmean(steps)


class Child:
    """The workload interpreter and its line protocol."""

    def __init__(self, deadline: float) -> None:
        start = time.monotonic()
        self.proc = subprocess.Popen(
            child_cmd(), env=child_env(), cwd=ROOT, text=True, bufsize=1,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        self.watchdog = threading.Timer(deadline - time.monotonic(), self.proc.kill)
        self.watchdog.start()
        try:
            first = self._read()
        except ChildError:
            self.close()
            raise
        self.setup_s = first["ready"] - start
        self.cal = first["cal"]  # step time of the calibration slice after set-up

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise ChildError("child ended early (killed at the time limit, or crashed)")
        return json.loads(line)

    def request(self, op: str, **fields) -> dict:
        self.proc.stdin.write(json.dumps({"op": op, **fields}) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> dict:
        """Ask the child to exit and wait until it has; kill it if it will not."""
        try:
            return self.request("exit")
        finally:
            self.watchdog.cancel()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            for stream in (self.proc.stdin, self.proc.stdout):
                try:
                    stream.close()
                except OSError:  # a dead child leaves a broken pipe behind
                    pass


def pass_maker(name: str, seed: int, seconds: float, threads: int):
    """k -> pass k of the workload. The passes that --seconds needs at the
    baseline pace, twice over, are made now, before any job runs, so that
    making them leaves no gap between timed jobs. A faster run makes the
    rest between passes."""
    ahead = math.ceil(2 * seconds / workloads.PASS_SECONDS[name])
    made = [workloads.make_pass(name, seed, k, threads) for k in range(ahead)]

    def get(k: int) -> list[dict]:
        return made[k] if k < ahead else workloads.make_pass(name, seed, k, threads)

    return get


class Runner:
    """Sends jobs and keeps their outputs; checks them all once the child is
    done, so the child runs its jobs back to back and never waits on a check."""

    def __init__(self, child, workdir: Path) -> None:
        self.child = child
        self.workdir = workdir
        # {"job", "traced", "paths", "cal_before", "rc", "wall", "probes", "cal", "stderr"}
        self.ran: list[dict] = []
        self.cal = child.cal  # step time of the child's latest calibration slice

    def run(self, job: dict, traced: bool = False) -> dict:
        tag = ".traced" if traced else ""
        paths = {name: self.workdir / f"{job['id']}{tag}.{name}" for name, _ in job["outputs"]}
        argv = [a.format(**{k: str(v) for k, v in paths.items()}) for a in job["argv"]]
        record = {"job": job, "traced": traced, "paths": paths, "cal_before": self.cal}
        record.update(self.child.request("job", id=job["id"], argv=argv))
        self.cal = record["cal"]
        self.ran.append(record)
        return record

    def check(self) -> None:
        """Sets record["problems"] for every job run; deletes the outputs."""
        verdicts: dict[tuple, list[str]] = {}  # (job id, output digest) -> problems
        for record in self.ran:
            job = record["job"]
            workloads.complete(job)
            problems = [] if record["rc"] == 0 else [
                f"exit code {record['rc']}: {record['stderr'].strip()[-300:]}"
            ]
            for name, kind in job["outputs"]:
                path = record["paths"][name]
                if not path.exists():
                    problems.append(f"no {name} output")
                    continue
                text = path.read_text(encoding="utf-8")
                path.unlink()
                key = (job["id"], hashlib.sha256(text.encode()).hexdigest())
                if key not in verdicts:
                    verdicts[key] = reference.check_output(kind, text, job)
                problems += verdicts[key]
            record["problems"] = problems


def run_untraced(runner: Runner, passes, seconds: float) -> int:
    measured = 0.0
    k = 0
    while k == 0 or measured < seconds:
        measured += sum(runner.run(job)["wall"] for job in passes(k))
        k += 1
    return k


def run_traced(runner: Runner, passes, seconds: float) -> list:
    """Each pass untraced and traced, the order alternating between passes."""
    done = []
    measured = 0.0
    k = 0
    while k == 0 or measured < seconds:
        jobs = passes(k)
        walls, speed = {}, {}
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            if traced:
                runner.child.request("trace", on=True)
            records = [runner.run(job, traced) for job in jobs]
            if traced:
                trace = runner.child.request("trace", on=False)
            walls[traced] = [r["wall"] for r in records]
            speed[traced] = REF_STEP_S / statistics.median(r["cal"] for r in records)
            measured += sum(walls[traced])
        done.append({"jobs": jobs, "untraced": walls[False], "traced": walls[True],
                     "speed": {"untraced": speed[False], "traced": speed[True]}, "trace": trace})
        k += 1
    return done


def layer_metrics(p: dict) -> dict:
    """Per-layer metrics of one traced pass, times at the reference speed.
    p["speed"] holds REF_STEP_S over the median calibration step time of the
    slices after the jobs of the pass's untraced and traced halves."""
    stats, detached = p["trace"]["stats"], p["trace"]["detached"]
    jobs = p["jobs"]

    def t(name):
        return stats.get(name, [0, 0.0, 0.0])[1]

    def calls(name):
        return stats.get(name, [0])[0] + detached.get(name, [0])[0]

    def per_call_us(name):
        n = calls(name)
        busy = t(name) + detached.get(name, [0, 0.0])[1]
        return busy / n * 1e6 if n else 0.0

    def units_of(command):
        return sum(j["units"] for j in jobs if j["argv"][0] == command)

    def layer_self(layer):
        return sum(s[2] for n, s in stats.items() if n.startswith(layer + "."))

    def measured(name):
        return [v for _, n, v in p["trace"]["measures"] if n == name]

    scans = [s for s in p["trace"]["spans"] if s[1] == "realmap.bifurcation_scan"]
    scan_wall = sum(s[3] - s[2] for s in scans)
    table_states, site_steps = units_of("table"), units_of("evolve")
    job_wall = sum(p["traced"])
    m = {
        "globaldyn.transition_table_s": t("globaldyn.transition_table"),
        "globaldyn.transition_table.us_per_state":
            t("globaldyn.transition_table") / table_states * 1e6 if table_states else 0.0,
        "globaldyn.samples_to_csv_s": t("globaldyn.samples_to_csv"),
        "globaldyn.characteristic_value.calls": calls("globaldyn.characteristic_value"),
        "globaldyn.attractors_s": t("globaldyn.attractors"),
        "globaldyn.gardens_of_eden_s": t("globaldyn.gardens_of_eden"),
        "globaldyn.image_bytes": max(measured("globaldyn.transition_table"), default=0),
        "lattice.step.calls": calls("lattice.step"),
        "lattice.step_s": t("lattice.step"),
        "lattice.evolve_s": t("lattice.evolve"),
        "lattice.evolve.ns_per_site_step":
            t("lattice.evolve") / site_steps * 1e9 if site_steps else 0.0,
        "lattice.to_pgm_s": t("lattice.to_pgm"),
        "lattice.raster_from_indices_s": t("lattice.raster_from_indices"),
        "digits.digits_lsd.calls": calls("digits.digits_lsd"),
        "digits.from_digits.calls": calls("digits.from_digits"),
        "rules.parse_rule_s": t("rules.parse_rule"),
        "realmap.orbit_report_s": t("realmap.orbit_report"),
        "realmap.evolve_indices_s": t("realmap.evolve_indices"),
        "realmap.induced_ca_step.calls": calls("realmap.induced_ca_step"),
        "realmap.induced_ca_step.us_per_call": per_call_us("realmap.induced_ca_step"),
        "realmap.bifurcation_scan_s": t("realmap.bifurcation_scan"),
        "realmap.logistic_ca_step.calls": calls("realmap.logistic_ca_step"),
        "realmap.logistic_ca_step.us_per_call": per_call_us("realmap.logistic_ca_step"),
        "realmap.bifurcation_csv_s": t("realmap.bifurcation_csv"),
        "realmap.cpu_util": sum(s[7] for s in scans) / scan_wall if scan_wall else 0.0,
        "cli.serialise_s":
            t("cli.serialise") + t("lattice.to_pgm") + t("realmap.bifurcation_csv"),
        "cli.write_s": t("cli.write"),
        "cli.write_bytes": sum(measured("cli.write")),
        "cli.self_s": stats.get("cli.main", [0, 0.0, 0.0])[2],
        "trace.job_wall_s": job_wall,
        "trace.self_coverage": sum(s[2] for s in stats.values()) / job_wall,
        "trace_overhead_ratio":
            job_wall * p["speed"]["traced"] / (sum(p["untraced"]) * p["speed"]["untraced"]),
    }
    for layer in ("cli", "rules", "digits", "lattice", "globaldyn", "realmap"):
        m.setdefault(f"{layer}.self_s", layer_self(layer))
    for name, unit in declared_units("per_layer").items():
        if unit in ("s", "us", "ns"):
            m[name] *= p["speed"]["traced"]
    return m


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            ref = text[5:]
            loose = ROOT / ".git" / ref
            if loose.exists():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
        return text
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def job_digest(ran: list[dict]) -> str:
    h = hashlib.sha256()
    for r in ran:
        h.update(json.dumps([r["job"]["id"], r["job"]["argv"], r["job"]["units"]]).encode())
    return h.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "radixca" / "__init__.py").is_file():
        print(f"error: no radixca sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.monotonic()
    threads = min(2, os.cpu_count() or 1)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        make = pass_maker(args.workload, args.seed, args.seconds, threads)
        setup_seconds()  # warm-up: writes bytecode caches on a fresh checkout
        setups = [setup_seconds() for _ in range(SETUP_RUNS)]
        child = Child(started + HARD_LIMIT_S)
        setups.append((child.setup_s, child.cal))
        runner = Runner(child, workdir)
        try:
            if args.trace:
                passes = run_traced(runner, make, args.seconds)
                n_passes = len(passes)
            else:
                n_passes = run_untraced(runner, make, args.seconds)
        finally:
            rusage = child.close()
        setups += [setup_seconds() for _ in range(SETUP_RUNS)]
        runner.check()
    except (ChildError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for leftover in workdir.glob("*"):
            leftover.unlink()
        workdir.rmdir()

    ran = runner.ran
    failed = sum(1 for r in ran if r["problems"])
    for r in ran:
        if r["problems"]:
            print(f"FAILED {r['job']['id']}: {'; '.join(r['problems'][:3])}", file=sys.stderr)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "commit": git_commit(),
        "job_list_sha256": job_digest(ran),
        "passes": n_passes,
        "jobs": len(ran),
        "work_unit": workloads.WORK_UNITS[args.workload],
        "wall_s": time.monotonic() - started,
    }
    if args.trace:
        per_pass = [layer_metrics(p) for p in passes]
        metrics = {
            name: {"value": statistics.median(m[name] for m in per_pass), "unit": unit}
            for name, unit in declared_units("per_layer").items()
        }
        record["samples"] = {"traced passes": len(per_pass)}
        trace_path = ROOT / ".bench_work" / f"trace-{args.workload}-s{args.seed}.json"
        trace_path.write_text(json.dumps(
            [{"pass": k, "spans": p["trace"]["spans"], "stats": p["trace"]["stats"]}
             for k, p in enumerate(passes)]))
        record["spans_file"] = str(trace_path.relative_to(ROOT))
    else:
        timed = [r for r in ran if not r["traced"]]
        units = sum(r["job"]["units"] for r in timed if not r["problems"])
        scaled = [at_reference_speed(r) for r in timed]
        values = {
            "work_per_s": units / sum(scaled),
            "job_p50_s": statistics.median(scaled),
            "setup_s": statistics.median(wall * REF_STEP_S / cal for wall, cal in setups),
            "peak_rss_mb": rusage["maxrss_kb"] / 1024,
        }
        record["unscaled"] = {
            "work_per_s": units / sum(r["wall"] for r in timed),
            "job_p50_s": statistics.median(r["wall"] for r in timed),
            "setup_s": statistics.median(wall for wall, _ in setups),
            "cal_step_p50_s": statistics.median(r["cal"] for r in timed),
        }
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in declared_units("end_to_end").items()
        }
        record["samples"] = {
            "work_per_s": len(timed), "job_p50_s": len(timed),
            "setup_s": len(setups), "peak_rss_mb": 1,
        }
    record["failed_ratio"] = {
        "value": failed / len(ran), "unit": "1", "failed": failed, "attempted": len(ran),
    }
    print(json.dumps({"run_record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ran),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def declared_units(kind: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


if __name__ == "__main__":
    sys.exit(main())
