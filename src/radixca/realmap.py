"""Compiling real maps on [0,1] into whole-ring CAs at fixed precision.

A map chi: [0,1] -> [0,1] induces a step on packed states: scale the
current state phi = I/p^Ns through chi, multiply back by p^Ns and floor.
The resulting integer's digits are the new site values, and the one-step
defect chi(phi) - phi' always lies in [0, p^-Ns). Rational map kinds
(logistic, polynomial) are stepped in exact integer/Fraction arithmetic;
floating point only enters through opaque numeric maps and never decides
a digit for the exact kinds. Orbit analysis (Brent cycle detection,
bifurcation sweeps, coarse behavior classes) sits on top of the stepper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence, Union

from .digits import digits_lsd
from .errors import DomainContractError, GuardExceeded

FLOAT_SLACK = 1e-9  # tolerated overshoot of [0,1] for opaque numeric maps
SCAN_BUDGET = 5_000_000  # total orbit steps allowed in one bifurcation sweep


@dataclass(frozen=True)
class LogisticMap:
    """chi(y) = mu*y*(1-y) with exact rational mu in [0, 4]."""

    mu: Fraction

    def __post_init__(self) -> None:
        if not 0 <= self.mu <= 4:
            raise ValueError(f"mu must lie in [0, 4], got {self.mu}")

    def value(self, y: Fraction) -> Fraction:
        return self.mu * y * (1 - y)


@dataclass(frozen=True)
class PolynomialMap:
    """chi(y) = sum_j coeffs[j] * y^j with exact rational coefficients.

    The domain contract chi(grid) in [0,1] is checked at every
    evaluation, not at construction.
    """

    coeffs: tuple[Fraction, ...]

    def value(self, y: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * y + c
        return acc


@dataclass(frozen=True)
class NumericMap:
    """Opaque host function evaluated in double precision."""

    fn: Callable[[float], float]

    def value_float(self, y: float) -> float:
        return self.fn(y)


MapSpec = Union[LogisticMap, PolynomialMap, NumericMap]


def identity_map() -> PolynomialMap:
    return PolynomialMap((Fraction(0), Fraction(1)))


def _brief(x: Fraction) -> str:
    """x for messages: exact when short, else marked ~ and rounded, since
    exact values can run to thousands of digits."""
    if x.numerator.bit_length() + x.denominator.bit_length() <= 64:
        return str(x)
    try:
        return f"~{float(x)!r}"
    except OverflowError:
        sign = "-" if x < 0 else ""
        return f"~{sign}2^{x.numerator.bit_length() - x.denominator.bit_length()}"


def _scaled_floor(m: MapSpec, y: Fraction, scale: int) -> int:
    """floor(scale * chi(y)) with a domain check on chi(y)."""
    if isinstance(m, NumericMap):
        v = m.value_float(float(y))
        if not -FLOAT_SLACK <= v <= 1 + FLOAT_SLACK:
            raise DomainContractError(f"map value {v} escapes [0,1] at y={float(y)}")
        v = min(max(v, 0.0), 1.0)
        return min(math.floor(scale * v), scale)
    v = m.value(y)
    if not 0 <= v <= 1:
        raise DomainContractError(
            f"map value {_brief(v)} escapes [0,1] at y={_brief(y)}"
        )
    return math.floor(scale * v)


def induced_ca_step(m: MapSpec, p: int, ns: int, index: int) -> int:
    """One step of the CA induced by the map at precision p^-ns.

    I' = floor(p^ns * chi(I/p^ns)), clamped to p^ns - 1 when chi hits 1
    exactly; digit i of I' is the new value of site i.
    """
    size = p**ns
    if not 0 <= index < size:
        raise ValueError(f"index {index} out of range [0, {size})")
    raw = _scaled_floor(m, Fraction(index, size), size)
    return min(raw, size - 1)


def logistic_ca_step(mu: Fraction, p: int, ns: int, index: int) -> int:
    """Induced step for the logistic map in pure integer arithmetic.

    With mu = a/b: I' = floor(a*I*(p^ns - I) / (b*p^ns)), clamped like
    induced_ca_step. Identical to routing LogisticMap through the
    generic stepper.
    """
    if not 0 <= mu <= 4:
        raise ValueError(f"mu must lie in [0, 4], got {mu}")
    size = p**ns
    if not 0 <= index < size:
        raise ValueError(f"index {index} out of range [0, {size})")
    raw = (mu.numerator * index * (size - index)) // (mu.denominator * size)
    return min(raw, size - 1)


def asymptotic_step(m: MapSpec, p: int, x: int) -> int:
    """Single-cell large-alphabet limit: x' = floor(p * chi(x/p)), clamped."""
    if not 0 <= x < p:
        raise ValueError(f"cell value {x} out of range [0, {p})")
    raw = _scaled_floor(m, Fraction(x, p), p)
    return min(raw, p - 1)


@dataclass(frozen=True)
class OrbitReport:
    """Result of cycle detection on a deterministic orbit.

    resolved=False means the cycle did not close within the step budget;
    transient/period are then None and cycle is empty. cycle holds at
    most cycle_cap states starting from the first recurrent one.
    """

    transient: int | None
    period: int | None
    cycle: tuple[int, ...]
    truncated: bool
    resolved: bool
    samples: tuple[Fraction, ...] = field(default=())


def cycle_detect(
    stepper: Callable[[int], int],
    start: int,
    max_steps: int,
    cycle_cap: int = 64,
) -> OrbitReport:
    """Brent cycle detection: exact transient and period when the orbit
    closes within max_steps stepper applications, else unresolved."""
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    steps = 0
    power = 1
    period = 1
    tortoise = start
    hare = stepper(start)
    steps += 1
    while tortoise != hare:
        if steps >= max_steps:
            return OrbitReport(None, None, (), False, False)
        if power == period:
            tortoise = hare
            power *= 2
            period = 0
        hare = stepper(hare)
        steps += 1
        period += 1

    # locate the first cycle entry
    hare = start
    for _ in range(period):
        hare = stepper(hare)
    transient = 0
    tortoise = start
    while tortoise != hare:
        tortoise = stepper(tortoise)
        hare = stepper(hare)
        transient += 1

    cycle = []
    v = tortoise
    for _ in range(min(period, cycle_cap)):
        cycle.append(v)
        v = stepper(v)
    return OrbitReport(transient, period, tuple(cycle), period > cycle_cap, True)


def evolve_indices(
    stepper: Callable[[int], int], start: int, steps: int
) -> list[int]:
    """Orbit prefix [x0, x1, ..., x_steps]."""
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    out = [start]
    v = start
    for _ in range(steps):
        v = stepper(v)
        out.append(v)
    return out


def orbit_report(
    m: MapSpec, p: int, ns: int, start: int, max_steps: int, cycle_cap: int = 64
) -> OrbitReport:
    """cycle_detect on the induced CA, with phi samples over the cycle."""
    size = p**ns
    report = cycle_detect(
        lambda i: induced_ca_step(m, p, ns, i), start, max_steps, cycle_cap
    )
    if not report.resolved:
        return report
    samples = tuple(Fraction(i, size) for i in report.cycle)
    return OrbitReport(
        report.transient,
        report.period,
        report.cycle,
        report.truncated,
        True,
        samples,
    )


def classify_behavior(
    report: OrbitReport, p: int, ns: int, period_threshold: int = 1024
) -> str:
    """Coarse behavior class of a resolved (or not) orbit.

    Class1: the attractor is a single state with all sites equal.
    Class2: a cycle no longer than period_threshold.
    Class3-candidate: the orbit never closed within its step budget.
    Unresolved: closed, but too long to call simple; never Class4 (that
    call stays with a human looking at the raster).
    """
    if not report.resolved:
        return "Class3-candidate"
    if report.period == 1:
        digits = digits_lsd(p, report.cycle[0], ns).digits
        if len(set(digits)) == 1:
            return "Class1"
    if report.period is not None and report.period <= period_threshold:
        return "Class2"
    return "Unresolved"


@dataclass(frozen=True)
class BifurcationRow:
    mu: Fraction
    period: int  # 0 when the cycle did not close within the budget
    phis: tuple[Fraction, ...]


def bifurcation_scan(
    mu_lo: Fraction,
    mu_hi: Fraction,
    count: int,
    p: int,
    ns: int,
    t_transient: int,
    t_sample: int,
    start: int = 1,
    n_samples: int = 8,
) -> list[BifurcationRow]:
    """Sweep `count` evenly spaced rational mu values.

    Each row: run t_transient steps from `start`, record the next
    n_samples phi values, and report the exact cycle period found within
    t_sample further steps (0 if none).
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if mu_hi < mu_lo:
        raise ValueError("mu_hi must be >= mu_lo")
    budget = count * (t_transient + t_sample + n_samples)
    if budget > SCAN_BUDGET:
        raise GuardExceeded(f"scan budget {budget} steps exceeds {SCAN_BUDGET}")
    if count == 1:
        grid = [mu_lo]
    else:
        span = mu_hi - mu_lo
        grid = [mu_lo + span * j / (count - 1) for j in range(count)]

    size = p**ns

    def row(mu: Fraction) -> BifurcationRow:
        stepper = lambda i: logistic_ca_step(mu, p, ns, i)
        v = start
        for _ in range(t_transient):
            v = stepper(v)
        phis = []
        w = v
        for _ in range(n_samples):
            w = stepper(w)
            phis.append(Fraction(w, size))
        report = cycle_detect(stepper, v, t_sample)
        return BifurcationRow(mu, report.period or 0, tuple(phis))

    return [row(mu) for mu in grid]


def exact_decimal(x: Fraction) -> str:
    """Exact decimal string when the denominator allows one, else 'num/den'.

    Fractions whose reduced denominator is 2^a * 5^b terminate; anything
    else is emitted as an exact fraction to avoid silent rounding.
    """
    num, den = x.numerator, x.denominator
    sign = "-" if num < 0 else ""
    num = abs(num)
    d = den
    twos = 0
    while d % 2 == 0:
        d //= 2
        twos += 1
    fives = 0
    while d % 5 == 0:
        d //= 5
        fives += 1
    if d != 1:
        return f"{sign}{num}/{den}"
    places = max(twos, fives)
    scaled = num * 10**places // den
    if places == 0:
        return f"{sign}{scaled}"
    text = str(scaled).rjust(places + 1, "0")
    return f"{sign}{text[:-places]}.{text[-places:]}"


def bifurcation_csv(rows: Sequence[BifurcationRow]) -> str:
    """CSV 'mu,period,phi_1..phi_k' with exact decimal/fraction cells."""
    if not rows:
        raise ValueError("no rows to emit")
    k = len(rows[0].phis)
    header = "mu,period," + ",".join(f"phi_{j + 1}" for j in range(k))
    lines = [header]
    for r in rows:
        cells = [exact_decimal(r.mu), str(r.period)]
        cells.extend(exact_decimal(phi) for phi in r.phis)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
