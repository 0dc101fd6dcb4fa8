"""Independent references that check radixca's CLI outputs.

Nothing here imports radixca or shares its code paths. Rules are decoded
from their codes by repeated division; a ring step reads every window
from a tripled packed index; real maps step by one integer floor; cycles
are found with a Brent loop of this module's own. Every check returns a
list of problems, empty when the output is correct.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import lcm

SAMPLE_STATES = 256  # packed states recomputed per table/charfn job
SAMPLE_ROWS = 24  # raster transitions recomputed per evolve job
CYCLE_CAP = 64  # cycle states the CLI lists before marking a cycle truncated
PERIOD_THRESHOLD = 1024  # longest period the CLI still calls Class2


# --- rules and the packed ring step ---------------------------------------


def base_digits(value: int, p: int, count: int) -> list[int]:
    """The first `count` base-p digits of value, least significant first."""
    out = []
    for _ in range(count):
        value, d = divmod(value, p)
        out.append(d)
    return out


def rule_table(text: str) -> tuple[int, int, int, list[int]]:
    """(l, r, p, a) for 'l:r:p:code' or 'l:r:p:codeT'; a_n is indexed by the
    neighborhood value n, totalistic codes expanded through digit sums."""
    l_text, r_text, p_text, code = text.split(":")
    l, r, p = int(l_text), int(r_text), int(p_text)
    rho = l + r + 1
    q = p**rho
    if code.endswith("T"):
        by_sum = base_digits(int(code[:-1]), p, rho * (p - 1) + 1)
        return l, r, p, [by_sum[sum(base_digits(n, p, rho))] for n in range(q)]
    return l, r, p, base_digits(int(code), p, q)


class PackedStep:
    """One CA step on packed ring states I = sum_j x_j p^j (site j+1 at digit j).

    The ring is tripled into ext = I * (1 + p^ns + p^2ns), so the window of
    every site is a run of rho consecutive digits of ext, read with one
    division and one remainder, without any wrap-around arithmetic.
    """

    def __init__(self, rule: str, ns: int) -> None:
        l, r, p, table = rule_table(rule)
        if l > ns or r > ns:
            raise ValueError("reference step needs l, r <= ns")
        self.p, self.table = p, table
        self.size = p**ns
        self.q = p ** (l + r + 1)
        self.triple = 1 + self.size + self.size * self.size
        self.lows = [p ** (ns + j - r) for j in range(ns)]
        self.weights = [p**j for j in range(ns)]

    def __call__(self, index: int) -> int:
        ext = index * self.triple
        q, table = self.q, self.table
        return sum(
            table[(ext // low) % q] * w for low, w in zip(self.lows, self.weights)
        )


def pack(sites: list[int], p: int) -> int:
    """Packed index of sites listed site 1 first."""
    value = 0
    for x in reversed(sites):
        value = value * p + x
    return value


# --- real maps ------------------------------------------------------------


def integer_map_step(coeffs: list[Fraction], p: int, ns: int):
    """I -> min(floor(S * chi(I / S)), S - 1), S = p^ns, for a polynomial chi.

    With all coefficients over one denominator D, chi(I/S) = N / (D S^d)
    where N = sum_j (c_j D) I^j S^(d-j), evaluated by Horner's rule in I.
    The floor is then one integer division and the domain check
    0 <= chi <= 1 is 0 <= N <= D S^d.
    """
    if len(coeffs) < 2:
        raise ValueError("reference map step needs degree >= 1")
    size = p**ns
    den = lcm(*(c.denominator for c in coeffs))
    d = len(coeffs) - 1
    terms = [int(c * den) * size ** (d - j) for j, c in enumerate(coeffs)]
    lead, rest = terms[-1], terms[-2::-1]
    top, divisor, last = den * size**d, den * size ** (d - 1), size - 1

    def step(index: int) -> int:
        acc = lead
        for term in rest:
            acc = acc * index + term
        if not 0 <= acc <= top:
            raise ValueError(f"map leaves [0,1] at index {index}")
        return min(acc // divisor, last)

    return step


def logistic_coeffs(mu: Fraction) -> list[Fraction]:
    return [Fraction(0), mu, -mu]


def brent(step, start: int, max_calls: int):
    """(transient, period, cycle, calls) of the orbit of start.

    Spends map applications the way the CLI does: Brent's search, which
    gives up once max_calls applications have not closed a cycle, then
    period + 2*transient more to locate the cycle's entry and
    min(period, CYCLE_CAP) to list it. calls counts every application.
    An orbit that does not close gives (None, None, [], max_calls).
    """
    power = period = 1
    tortoise = start
    hare = step(start)
    calls = 1
    while tortoise != hare:
        if calls >= max_calls:
            return None, None, [], calls
        if power == period:
            tortoise = hare
            power *= 2
            period = 0
        hare = step(hare)
        calls += 1
        period += 1
    ahead = start
    for _ in range(period):
        ahead = step(ahead)
    behind = start
    transient = 0
    while behind != ahead:
        behind = step(behind)
        ahead = step(ahead)
        transient += 1
    cycle = orbit(step, behind, min(period, CYCLE_CAP))
    calls += period + 2 * transient + len(cycle) - 1
    return transient, period, cycle[:-1], calls


def orbit(step, start: int, steps: int) -> list[int]:
    out = [start]
    for _ in range(steps):
        out.append(step(out[-1]))
    return out


def exact_text(x: Fraction) -> str:
    """Decimal text when x terminates in base 10, else 'num/den'."""
    if x < 0:
        return "-" + exact_text(-x)
    num, den = x.numerator, x.denominator
    places = 0
    while 10**places % den:
        places += 1
        if places > den.bit_length():
            return f"{num}/{den}"
    whole, frac = divmod(num * 10**places // den, 10**places)
    return f"{whole}.{frac:0{places}d}" if places else str(whole)


# --- output checks --------------------------------------------------------


def _sample(seed: str, size: int) -> list[int]:
    rng = random.Random(seed)
    k = min(SAMPLE_STATES, size)
    return sorted({0, size - 1, *rng.sample(range(size), k)})


def check_table(text: str, job: dict) -> list[str]:
    spec = job["check"]
    rule, ns = spec["rule"], spec["ns"]
    step = PackedStep(rule, ns)
    size = step.size
    doc = json.loads(text)
    if (doc.get("p"), doc.get("Ns"), doc.get("rule")) != (step.p, ns, rule):
        return [f"header {doc.get('p')}/{doc.get('Ns')}/{doc.get('rule')} != {step.p}/{ns}/{rule}"]
    image = doc.get("image")
    if not isinstance(image, list) or len(image) != size:
        return ["image has the wrong length"]
    problems = [
        f"image[{i}] = {image[i]}, reference {step(i)}"
        for i in _sample(job["id"], size)
        if image[i] != step(i)
    ][:5]
    seen = bytearray(size)
    for v in image:
        if not (isinstance(v, int) and 0 <= v < size):
            return problems + [f"image entry {v!r} out of range"]
        seen[v] = 1
    if doc.get("gardens_of_eden") != [i for i in range(size) if not seen[i]]:
        problems.append("gardens_of_eden is not the complement of the image")
    problems += _check_basins(image, doc.get("attractors"))
    return problems


def _check_basins(image: list[int], attractors) -> list[str]:
    """Cycles are true cycles of the image, listed from their least state in
    ascending order, and their basins partition the state space exactly."""
    size = len(image)
    owner = [-1] * size
    firsts = []
    for k, att in enumerate(attractors or []):
        cycle = att.get("cycle") or []
        if not all(isinstance(c, int) and 0 <= c < size for c in cycle):
            return [f"attractor {k} has a state out of range"]
        if not cycle or cycle[0] != min(cycle):
            return [f"attractor {k} does not start at its least state"]
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            if image[a] != b or owner[a] != -1:
                return [f"attractor {k} is not a cycle of the image"]
            owner[a] = k
        firsts.append(cycle[0])
    if firsts != sorted(firsts):
        return ["attractors are not sorted by their least state"]
    counts = [0] * len(firsts)
    for s in range(size):
        path = []
        v = s
        while owner[v] == -1:
            if len(path) > size:
                return ["an orbit reaches no listed attractor"]
            path.append(v)
            v = image[v]
        for u in path:
            owner[u] = owner[v]
        counts[owner[s]] += 1
    basins = [att.get("basin") for att in attractors]
    if basins != counts or sum(counts) != size:
        return ["attractor basins do not partition the state space"]
    return []


def check_charfn(text: str, job: dict) -> list[str]:
    spec = job["check"]
    step = PackedStep(spec["rule"], spec["ns"])
    size = step.size
    lines = text.split("\n")
    if lines[0] != "y,chi" or lines[-1] != "" or len(lines) != size + 2:
        return ["CSV header or line count is wrong"]
    chi = []
    tail = f"/{size}"
    for i, line in enumerate(lines[1:-1]):
        y_text, _, c_text = line.partition(",")
        if y_text != f"{i}{tail}" and Fraction(y_text) != Fraction(i, size):
            return [f"line {i + 1} has y = {y_text}"]
        if c_text.endswith(tail):
            value = Fraction(int(c_text[: -len(tail)]))
        else:
            value = Fraction(c_text) * size
        if value.denominator != 1 or not 0 <= value < size:
            return [f"line {i + 1} has chi = {c_text}"]
        chi.append(int(value))
    return [
        f"chi({i}/{size}) = {chi[i]}/{size}, reference {step(i)}/{size}"
        for i in _sample(job["id"], size)
        if chi[i] != step(i)
    ][:5]


def gray_levels(p: int) -> dict[int, int]:
    """PGM gray of each cell value: round(255 x / (p - 1)), halves up."""
    return {int(Fraction(255 * x, p - 1) + Fraction(1, 2)): x for x in range(p)}


def parse_pgm(text: str, p: int) -> list[list[int]] | str:
    """Rows of site values, site 1 first, or a description of what is wrong."""
    tokens = text.split()
    if tokens[:1] != ["P2"] or len(tokens) < 4 or tokens[3] != "255":
        return "not a plain PGM with maxval 255"
    width, height = int(tokens[1]), int(tokens[2])
    cells = tokens[4:]
    if len(cells) != width * height:
        return f"{len(cells)} cells for a {width}x{height} raster"
    levels = gray_levels(p)
    try:
        values = [levels[int(c)] for c in cells]
    except KeyError as exc:
        return f"gray level {exc} is not one of {sorted(levels)}"
    return [values[t * width : (t + 1) * width][::-1] for t in range(height)]


def check_evolve(text: str, job: dict) -> list[str]:
    spec = job["check"]
    ns, steps = spec["ns"], spec["steps"]
    step = PackedStep(spec["rule"], ns)
    rows = parse_pgm(text, step.p)
    if isinstance(rows, str):
        return [rows]
    if len(rows) != steps + 1 or len(rows[0]) != ns:
        return [f"raster is {len(rows[0])}x{len(rows)}, expected {ns}x{steps + 1}"]
    ic_rng = random.Random(spec["ic_seed"])
    if rows[0] != [ic_rng.randrange(step.p) for _ in range(ns)]:
        return ["row 0 is not the seeded initial condition"]
    rng = random.Random(job["id"])
    problems = []
    for t in sorted(rng.sample(range(1, steps + 1), min(SAMPLE_ROWS, steps))):
        if pack(rows[t], step.p) != step(pack(rows[t - 1], step.p)):
            problems.append(f"row {t} is not the step of row {t - 1}")
    return problems[:5]


def map_step(spec: dict):
    return integer_map_step([Fraction(c) for c in spec["coeffs"]], spec["p"], spec["ns"])


def check_orbit(text: str, job: dict) -> list[str]:
    spec = job["check"]
    transient, period = spec["transient"], spec["period"]
    resolved = period is not None
    doc = json.loads(text)
    want = {
        "resolved": resolved,
        "transient": transient,
        "period": period,
        "cycle": [],
        "cycle_truncated": False,
        "phi_samples": [],
        "behavior": "Class3-candidate",
    }
    if resolved:
        cycle = spec["cycle"]
        samples = [Fraction(c, spec["p"] ** spec["ns"]) for c in cycle]
        ends = base_digits(cycle[0], spec["p"], spec["ns"])
        if period == 1 and len(set(ends)) == 1:
            behavior = "Class1"
        elif period <= PERIOD_THRESHOLD:
            behavior = "Class2"
        else:
            behavior = "Unresolved"
        want.update(
            cycle=cycle,
            cycle_truncated=period > CYCLE_CAP,
            phi_samples=[f"{s.numerator}/{s.denominator}" for s in samples],
            behavior=behavior,
        )
    return [
        f"{key} = {str(doc.get(key))[:60]}, reference {str(value)[:60]}"
        for key, value in want.items()
        if doc.get(key) != value
    ]


def check_map_raster(text: str, job: dict) -> list[str]:
    spec = job["check"]
    p, ns = spec["p"], spec["ns"]
    rows = parse_pgm(text, p)
    if isinstance(rows, str):
        return [rows]
    want = orbit(map_step(spec), spec["start"], spec["steps"])
    if [pack(row, p) for row in rows] != want or any(len(r) != ns for r in rows):
        return ["raster rows are not the digits of the reference orbit"]
    return []


def sweep_rows(spec: dict) -> tuple[list[tuple[Fraction, int, list[Fraction]]], int]:
    """Reference rows of a bifurcation sweep and the map steps they take."""
    lo, hi, count = Fraction(spec["mu_lo"]), Fraction(spec["mu_hi"]), spec["count"]
    grid = [lo] if count == 1 else [lo + (hi - lo) * j / (count - 1) for j in range(count)]
    size = spec["p"] ** spec["ns"]
    rows, calls = [], 0
    for mu in grid:
        step = integer_map_step(logistic_coeffs(mu), spec["p"], spec["ns"])
        v = spec["start"]
        for _ in range(spec["transient"]):
            v = step(v)
        samples = orbit(step, v, spec["samples"])[1:]
        _, period, _, used = brent(step, v, spec["sample_steps"])
        rows.append((mu, period or 0, [Fraction(s, size) for s in samples]))
        calls += spec["transient"] + spec["samples"] + used
    return rows, calls


def check_sweep(text: str, job: dict) -> list[str]:
    rows = job["check"]["rows"]
    lines = text.split("\n")
    k = job["check"]["samples"]
    header = "mu,period," + ",".join(f"phi_{j + 1}" for j in range(k))
    if lines[0] != header or lines[-1] != "" or len(lines) != len(rows) + 2:
        return ["CSV header or row count is wrong"]
    problems = []
    for n, (line, (mu, period, phis)) in enumerate(zip(lines[1:-1], rows)):
        want = ",".join([exact_text(mu), str(period), *map(exact_text, phis)])
        if line != want and [Fraction(c) for c in line.split(",")] != [
            mu, period, *phis
        ]:
            problems.append(f"row {n + 1} = {line[:60]}, reference {want[:60]}")
    return problems[:5]


CHECKS = {
    "table": check_table,
    "charfn": check_charfn,
    "evolve": check_evolve,
    "orbit": check_orbit,
    "map_raster": check_map_raster,
    "sweep": check_sweep,
}


def check_output(kind: str, text: str, job: dict) -> list[str]:
    """Problems with one output file; a parse error is a problem too."""
    try:
        return CHECKS[kind](text, job)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return [f"unreadable {kind} output: {type(exc).__name__}: {exc}"]
