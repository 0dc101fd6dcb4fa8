"""Seeded job lists for the benchmark's four workloads.

A workload is an endless sequence of passes; pass k is a fixed list of job
shapes whose free inputs (rule codes, initial conditions, map parameters)
are drawn from random.Random("<workload>/<seed>/<k>"). Jobs never repeat
within a run, so a cache kept between CLI calls in one process gains
nothing it would not gain across separate invocations.

Each job is a dict:
  id       unique within the run; also names its output files
  argv     the radixca CLI arguments; "{out}" and "{orbit}" stand for the
           output paths the child fills in
  outputs  [placeholder, check kind] for every file the job writes
  units    work the job does, fixed by its inputs: states tabulated,
           site-steps, or map steps counted by the reference stepper
  check    what the reference needs to verify the outputs
"""

from __future__ import annotations

import random
from fractions import Fraction

import reference as ref

WORKLOADS = ("global-tabulate", "ring-evolve", "map-orbits", "map-sweep")
WORK_UNITS = {
    "global-tabulate": "states tabulated",
    "ring-evolve": "site-steps",
    "map-orbits": "map steps",
    "map-sweep": "map steps",
}

# Seconds one pass takes on the baseline machine, rounded down. run.py
# makes the passes a run needs at this pace, twice over, before it starts.
PASS_SECONDS = {"global-tabulate": 6.0, "ring-evolve": 5.0, "map-orbits": 1.2, "map-sweep": 2.0}

# Each pass mixes small, middle and large jobs, and the middle shape holds
# more than half of the jobs, so the median job time falls inside one shape
# whatever the seed. work_per_s sums the units and the wall time of all
# jobs, so every shape counts by its work.

# (command, p, l, r, ns): 2^12 to 2^16 and 3^8 to 3^10 states. The 2^16 job
# is a charfn, whose output size does not depend on the rule; a table of an
# elementary rule with many cycles (204, the identity) grows to several
# times the usual JSON, and peak memory with it.
TABULATE = [
    ("table", 2, 1, 1, 14),
    ("charfn", 3, 0, 1, 8),
    ("charfn", 2, 1, 1, 14),
    ("table", 3, 1, 1, 10),
    ("table", 2, 1, 1, 14),
    ("table", 2, 1, 1, 12),
    ("charfn", 2, 1, 1, 14),
    ("charfn", 2, 1, 1, 16),
    ("table", 2, 1, 1, 14),
]

# (rule kind, p, l, r, ns = steps): rings of hundreds to a thousand sites
EVOLVE = [
    ("plain", 2, 1, 1, 600),
    ("plain", 3, 1, 1, 300),
    ("plain", 3, 1, 1, 600),
    ("plain", 2, 1, 1, 1000),
    ("totalistic", 3, 1, 1, 600),
    ("plain", 3, 0, 1, 600),
    ("plain", 2, 1, 1, 400),
    ("plain", 2, 1, 1, 600),
]

# Orbit job classes. "budget" orbits are chaotic and exhaust --max-steps;
# "long" orbits close after a long exact period; "window" orbits sit in a
# periodic window and close fast; "raster" jobs write a PGM of the orbit.
# Budget jobs are five of nine, so the median job is always one of them.
ORBITS = [
    "window-logistic",
    "budget-logistic",
    "long-logistic",
    "budget-quadratic",
    "raster-logistic",
    "budget-logistic",
    "long-cubic",
    "budget-quadratic",
    "budget-logistic",
]
WINDOWS = [("3.0", "3.44"), ("3.45", "3.54"), ("3.74", "3.7405"), ("3.832", "3.84")]
ORBIT_STEPS = 150  # --steps: the orbit prefix every approx job computes
RASTER_STEPS = 2000

# (ns, count, transient, sample_steps, lowest mu_lo, highest mu_lo, width).
# The middle shape sweeps a short interval of the chaotic range, where
# almost every row uses its whole sample budget; the small one sweeps the
# periodic range, whose rows close fast; the large one has more rows and a
# longer budget.
SWEEPS = [
    (40, 25, 3000, 2048, "3.6", "3.85", "0.1"),
    (50, 21, 3000, 2048, "2.9", "3.3", "0.4"),
    (36, 25, 3000, 2048, "3.6", "3.85", "0.1"),
    (48, 31, 3000, 4096, "3.6", "3.85", "0.1"),
    (44, 25, 3000, 2048, "3.6", "3.85", "0.1"),
    (32, 25, 3000, 2048, "3.6", "3.85", "0.1"),
    (46, 25, 3000, 2048, "3.6", "3.85", "0.1"),
]
SWEEP_SAMPLES = 8


def make_pass(workload: str, seed: int, k: int, threads: int = 2) -> list[dict]:
    """Pass k of a workload; equal arguments give equal jobs."""
    rng = random.Random(f"{workload}/{seed}/{k}")
    prefix = f"{workload}-s{seed}-p{k}"
    if workload == "global-tabulate":
        return [_tabulate(rng, f"{prefix}-{j}", *s) for j, s in enumerate(TABULATE)]
    if workload == "ring-evolve":
        return [_evolve(rng, f"{prefix}-{j}", *s) for j, s in enumerate(EVOLVE)]
    if workload == "map-orbits":
        return [_orbit(rng, f"{prefix}-{j}", c) for j, c in enumerate(ORBITS)]
    if workload == "map-sweep":
        return [_sweep(rng, f"{prefix}-{j}", threads, *s) for j, s in enumerate(SWEEPS)]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def _tabulate(rng, job_id, command, p, l, r, ns):
    rule = f"{l}:{r}:{p}:{rng.randrange(p ** p ** (l + r + 1))}"
    argv = [command, "--rule", rule, "--ns", str(ns)]
    if command == "table":
        argv += ["--threads", "1"]
    return {
        "id": job_id,
        "argv": argv + ["--out", "{out}"],
        "outputs": [["out", command]],
        "units": p**ns,
        "check": {"rule": rule, "ns": ns},
    }


def _evolve(rng, job_id, kind, p, l, r, ns):
    if kind == "totalistic":
        rule = f"{l}:{r}:{p}:{rng.randrange(p ** ((l + r + 1) * (p - 1) + 1))}T"
    else:
        rule = f"{l}:{r}:{p}:{rng.randrange(p ** p ** (l + r + 1))}"
    ic_seed = rng.randrange(10**6)
    return {
        "id": job_id,
        "argv": ["evolve", "--rule", rule, "--ns", str(ns), "--steps", str(ns),
                 "--ic", f"random:{ic_seed}", "--out", "{out}"],
        "outputs": [["out", "evolve"]],
        "units": ns * ns,
        "check": {"rule": rule, "ns": ns, "steps": ns, "ic_seed": ic_seed},
    }


def random_start(p: int, ns: int, ic_seed: int) -> int:
    """Packed index of the CLI's random:SEED initial condition."""
    ic_rng = random.Random(ic_seed)
    return ref.pack([ic_rng.randrange(p) for _ in range(ns)], p)


def _decimal(rng, lo: str, hi: str, places: int = 4) -> Fraction:
    scale = 10**places
    a, b = int(Fraction(lo) * scale), int(Fraction(hi) * scale)
    return Fraction(rng.randrange(a, b + 1), scale)


def _orbit_candidate(rng, cls):
    """(map argv, coefficients, ns, max_steps, accepted calls) of one draw."""
    kind, family = cls.split("-")
    if family == "cubic":  # c*y*(1-y)^2 stays in [0, 1] for c <= 27/4
        c = _decimal(rng, "5.5", "6.75")
        coeffs = [Fraction(0), c, -2 * c, c]
        map_argv = ["--map", "poly", "--coeffs", ",".join(ref.exact_text(x) for x in coeffs)]
        return map_argv, coeffs, rng.randrange(24, 29), 10000, (3000, 9000)
    if kind == "window":
        mu = _decimal(rng, *rng.choice(WINDOWS))
    else:
        mu = _decimal(rng, "3.7", "4")
    coeffs = ref.logistic_coeffs(mu)
    if family == "quadratic":
        map_argv = ["--map", "poly", "--coeffs", ",".join(ref.exact_text(x) for x in coeffs)]
    else:
        map_argv = ["--map", "logistic", "--mu", ref.exact_text(mu)]
    if kind == "window":
        return map_argv, coeffs, rng.randrange(24, 51), 20000, (1, 5000)
    if kind == "long":
        return map_argv, coeffs, rng.randrange(24, 31), 20000, (6000, 14000)
    if kind == "raster":
        return map_argv, coeffs, rng.randrange(32, 49), 0, None
    if family == "quadratic":
        return map_argv, coeffs, rng.randrange(36, 51), 10000, "unresolved"
    return map_argv, coeffs, rng.randrange(40, 51), 16000, "unresolved"


def _orbit(rng, job_id, cls):
    """Draw maps until the reference orbit falls in the class's step band."""
    while True:
        map_argv, coeffs, ns, max_steps, accept = _orbit_candidate(rng, cls)
        ic_seed = rng.randrange(10**6)
        spec = {"p": 2, "ns": ns, "coeffs": [str(c) for c in coeffs],
                "start": random_start(2, ns, ic_seed), "max_steps": max_steps}
        base = ["approx", *map_argv, "--ns", str(ns), "--ic", f"random:{ic_seed}"]
        if accept is None:
            spec["steps"] = RASTER_STEPS
            return {
                "id": job_id,
                "argv": base + ["--steps", str(RASTER_STEPS), "--out", "{out}"],
                "outputs": [["out", "map_raster"]],
                "units": RASTER_STEPS,
                "check": spec,
            }
        transient, period, cycle, calls = ref.brent(ref.map_step(spec), spec["start"], max_steps)
        if accept == "unresolved" and period is not None:
            continue
        if accept != "unresolved" and not (period and accept[0] <= calls <= accept[1]):
            continue
        spec.update(transient=transient, period=period, cycle=cycle)
        return {
            "id": job_id,
            "argv": base + ["--steps", str(ORBIT_STEPS), "--max-steps", str(max_steps),
                            "--orbit-out", "{orbit}"],
            "outputs": [["orbit", "orbit"]],
            "units": ORBIT_STEPS + calls,
            "check": spec,
        }


def _sweep(rng, job_id, threads, ns, count, transient, sample_steps, lo, hi, width):
    mu_lo = _decimal(rng, lo, hi, 3)
    mu_hi = min(mu_lo + Fraction(width), Fraction(4))
    ic_seed = rng.randrange(10**6)
    spec = {"p": 2, "ns": ns, "mu_lo": str(mu_lo), "mu_hi": str(mu_hi), "count": count,
            "transient": transient, "sample_steps": sample_steps,
            "samples": SWEEP_SAMPLES, "start": random_start(2, ns, ic_seed)}
    return {
        "id": job_id,
        "argv": ["bifurcate", "--mu-lo", ref.exact_text(mu_lo), "--mu-hi", ref.exact_text(mu_hi),
                 "--count", str(count), "--ns", str(ns), "--transient", str(transient),
                 "--sample-steps", str(sample_steps), "--samples", str(SWEEP_SAMPLES),
                 "--ic", f"random:{ic_seed}", "--threads", str(threads), "--out", "{out}"],
        "outputs": [["out", "sweep"]],
        "units": None,  # set by complete(): counting needs the reference rows
        "check": spec,
    }


def complete(job: dict) -> dict:
    """Fill in what a job's reference computes lazily: a sweep's rows and
    its map-step count take about as long as the sweep itself, so they are
    computed after the run, not while the child waits for its next job."""
    if job["units"] is None:
        job["check"]["rows"], job["units"] = ref.sweep_rows(job["check"])
    return job
