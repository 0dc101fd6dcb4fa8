"""Tests of the benchmark itself: job lists, references, units and tracing.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import random
import sys
import time
from functools import lru_cache
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from radixca import cli  # noqa: E402
from tracer import Tracer  # noqa: E402


@lru_cache(maxsize=None)
def first_pass(workload: str, seed: int) -> tuple:
    return tuple(wl.complete(job) for job in wl.make_pass(workload, seed, 0))


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_job_lists_repeat_for_equal_seeds_and_differ_otherwise(workload):
    jobs = wl.make_pass(workload, 5, 0)
    assert jobs == wl.make_pass(workload, 5, 0)
    assert [j["argv"] for j in jobs] != [j["argv"] for j in wl.make_pass(workload, 6, 0)]


def test_passes_made_ahead_equal_passes_made_late():
    passes = run.pass_maker("ring-evolve", 5, 1.0, 2)  # makes pass 0 ahead, the rest late
    assert [passes(k) for k in range(4)] == [wl.make_pass("ring-evolve", 5, k) for k in range(4)]


def _counted(step):
    calls = [0]

    def counted(v):
        calls[0] += 1
        return step(v)

    return counted, calls


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_work_units_add_up_to_the_declared_totals(workload, monkeypatch):
    for job in first_pass(workload, 3):
        argv, spec = job["argv"], job["check"]
        if argv[0] in ("table", "charfn"):
            p = int(argv[argv.index("--rule") + 1].split(":")[2])
            assert job["units"] == p ** int(argv[argv.index("--ns") + 1])
        elif argv[0] == "evolve":
            ns, steps = (int(argv[argv.index(f) + 1]) for f in ("--ns", "--steps"))
            assert job["units"] == ns * steps
        elif argv[0] == "approx" and "--out" in argv:  # raster: evolve_indices alone
            assert job["units"] == int(argv[argv.index("--steps") + 1])
        elif argv[0] == "approx":
            step, calls = _counted(ref.map_step(spec))
            *_, counted_calls = ref.brent(step, spec["start"], spec["max_steps"])
            assert counted_calls == calls[0]
            assert job["units"] == wl.ORBIT_STEPS + calls[0]
        else:
            made = []
            real = ref.integer_map_step

            def counting_map_step(*args):
                step, calls = _counted(real(*args))
                made.append(calls)
                return step

            monkeypatch.setattr(ref, "integer_map_step", counting_map_step)
            _, units = ref.sweep_rows(spec)
            monkeypatch.setattr(ref, "integer_map_step", real)
            assert job["units"] == units == sum(c[0] for c in made)


class InProcessChild:
    """Runs jobs through radixca.cli.main in this process, then lets the
    test damage the output before the runner reads it."""

    cal = run.REF_STEP_S

    def __init__(self, damage=None):
        self.damage = damage

    def request(self, op, **fields):
        assert op == "job"
        rc = cli.main(fields["argv"])
        if self.damage:
            out = Path(fields["argv"][-1])
            out.write_text(self.damage(out.read_text()))
        return {"rc": rc, "wall": 0.0, "probes": [], "cal": self.cal, "stderr": ""}


def _run_and_check(child, workdir, job):
    runner = run.Runner(child, workdir)
    record = runner.run(job)
    runner.check()
    return record


def _small_jobs():
    rng = random.Random(7)
    spec = (16, 3, 40, 64, "3.5", "3.9", "0.1")
    return {
        "table": wl._tabulate(rng, "t", "table", 2, 1, 1, 8),
        "charfn": wl._tabulate(rng, "c", "charfn", 3, 0, 1, 5),
        "evolve": wl._evolve(rng, "e", "totalistic", 3, 1, 1, 30),
        "orbit": wl._orbit(rng, "o", "window-logistic"),
        "map_raster": wl._orbit(rng, "r", "raster-logistic"),
        "sweep": wl.complete(wl._sweep(rng, "s", 2, *spec)),
    }


def _corrupt(text: str) -> str:
    """Change one digit of the data: image[0] of a table, the first cell of
    a raster, the last chi numerator of a charfn CSV, or the last digit of a
    sweep CSV."""
    if text.startswith("{"):
        at = text.index('"image": [')
    elif text.startswith("P2"):
        at = text.index("\n255\n") + 5
    elif text.startswith("y,chi"):
        at = text.rindex(",")
    else:
        at = len(text) - 1
        while not text[at].isdigit():
            at -= 1
    while not text[at].isdigit():
        at += 1
    return text[:at] + str((int(text[at]) + 1) % 10) + text[at + 1 :]


@pytest.mark.parametrize("kind", ["table", "charfn", "evolve", "orbit", "map_raster", "sweep"])
def test_outputs_pass_their_checks_and_a_corrupted_one_is_counted_failed(kind, tmp_path):
    job = _small_jobs()[kind]
    good = _run_and_check(InProcessChild(), tmp_path, job)
    assert good["problems"] == []
    if kind == "orbit":  # the digits of the period, wherever they are
        damage = lambda text: text.replace(  # noqa: E731
            f'"period": {job["check"]["period"]}', f'"period": {job["check"]["period"] + 1}'
        )
    else:
        damage = _corrupt
    bad = _run_and_check(InProcessChild(damage), tmp_path, job)
    assert bad["problems"]


def test_a_failing_exit_code_is_counted_failed(tmp_path):
    job = dict(_small_jobs()["table"])
    job["argv"] = ["table", "--rule", "1:1:2:999", "--ns", "8", "--out", "{out}"]
    assert _run_and_check(InProcessChild(), tmp_path, job)["problems"]


def test_self_times_sum_to_the_traced_job_wall_time(tmp_path):
    import child

    originals = (cli.main, cli.json, cli._write)
    jobs = list(_small_jobs().values())
    tracer = Tracer()
    tracer.install()
    walls = []
    try:
        assert cli.main is not originals[0]
        for job in jobs:
            paths = {name: tmp_path / f"{job['id']}.{name}" for name, _ in job["outputs"]}
            argv = [a.format(**{k: str(v) for k, v in paths.items()}) for a in job["argv"]]
            tracer.job = job["id"]
            walls.append(child.run_job(argv, tracer)["wall"])
    finally:
        tracer.uninstall()
    assert (cli.main, cli.json, cli._write) == originals
    trace = json.loads(json.dumps(child.summary(tracer)))
    self_total = sum(s[2] for s in trace["stats"].values())
    assert abs(self_total - sum(walls)) <= 0.02 * sum(walls) + 0.002
    assert trace["stats"]["cli.main"][0] == len(jobs)
    roots = [s for s in trace["spans"] if s[1] == "cli.main"]
    assert [s[4] for s in roots] == [None] * len(jobs)
    speed = {"untraced": 1.0, "traced": 1.0}
    metrics = run.layer_metrics(
        {"jobs": jobs, "untraced": walls, "traced": walls, "speed": speed, "trace": trace}
    )
    assert set(metrics) == set(run.declared_units("per_layer"))
    assert abs(metrics["trace.self_coverage"] - 1) < 0.02


def test_job_times_are_scaled_by_the_calibration_around_them():
    ref = run.REF_STEP_S
    record = {"wall": 1.0, "cal_before": ref, "probes": [], "cal": ref}
    assert run.at_reference_speed(record) == 1.0
    record["probes"] = [2 * ref] * 8  # the machine ran at half speed during the job
    assert run.at_reference_speed(record) == pytest.approx(1.0 / 1.8)


def test_benchmark_json_declares_what_run_py_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(wl.WORKLOADS)
    assert set(run.declared_units("end_to_end")) == {
        "work_per_s", "job_p50_s", "peak_rss_mb", "setup_s",
    }
    assert spec["paths"] == ["bench"]


def test_compare_claims_a_gain_only_on_nine_wins_in_ten_beyond_the_spread():
    from compare import verdict

    parent = [1.0, 1.1, 0.9, 1.0, 1.05, 0.95, 1.0, 1.02, 0.98, 1.0]
    assert verdict(parent, [v * 1.5 for v in parent], "higher", 0.25) == (10, "gain")
    assert verdict(parent, [v * 1.5 for v in parent], "lower", 0.25) == (0, "regression")
    assert verdict(parent, [v * 1.01 for v in parent], "higher", 0.25) == (10, "no change")
    mixed = [v * (1.5 if k < 8 else 0.9) for k, v in enumerate(parent)]
    assert verdict(parent, mixed, "higher", 0.25) == (8, "no change")


def test_exact_text_matches_the_decimal_expansion():
    from fractions import Fraction

    assert ref.exact_text(Fraction(383, 100)) == "3.83"
    assert ref.exact_text(Fraction(-61, 5)) == "-12.2"
    assert ref.exact_text(Fraction(1, 3)) == "1/3"
    assert ref.exact_text(Fraction(4)) == "4"
    assert ref.exact_text(Fraction(1, 2**10)) == str(1 / 2**10)


def test_run_py_refuses_to_run_without_sources(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    started = time.monotonic()
    assert run.main(["--workload", "map-orbits", "--seed", "1", "--seconds", "1"]) != 0
    assert time.monotonic() - started < 5
