"""Shared independent oracles for the test suite.

These deliberately avoid the library's own code paths: digit extraction
by repeated division, fixed points by filtering every state through the
stepper, attractor periods of the real logistic map in plain floats.
"""

from __future__ import annotations

import itertools
import random

from radixca.lattice import RingState, step
from radixca.rules import RuleSpec, TotalisticRuleSpec, local_update, totalistic_update


def div_digits(a: int, p: int, count: int) -> tuple[int, ...]:
    """Base-p digits by repeated division, least significant first."""
    out = []
    for _ in range(count):
        a, d = divmod(a, p)
        out.append(d)
    return tuple(out)


def random_rule(rng: random.Random, l: int, r: int, p: int) -> RuleSpec:
    q = p ** (l + r + 1)
    return RuleSpec(l, r, p, tuple(rng.randrange(p) for _ in range(q)))


def random_state(rng: random.Random, p: int, ns: int) -> RingState:
    return RingState(p, tuple(rng.randrange(p) for _ in range(ns)))


def oracle_rows(rule, sites: tuple[int, ...], steps: int) -> list[tuple[int, ...]]:
    """Rows of a ring run site by site: each window (x^{i+l}, ..., x^{i-r})
    is gathered by modular indexing and evaluated through the indicator
    sum of local_update (totalistic rules: totalistic_update)."""
    ns = len(sites)
    rows = [tuple(sites)]
    for _ in range(steps):
        row = rows[-1]
        windows = [
            tuple(row[(i + k) % ns] for k in range(rule.l, -rule.r - 1, -1))
            for i in range(ns)
        ]
        if isinstance(rule, TotalisticRuleSpec):
            rows.append(tuple(totalistic_update(rule, w) for w in windows))
        else:
            rows.append(tuple(local_update(rule, w, "boxcar") for w in windows))
    return rows


def brute_fixed_points(rule: RuleSpec, ns: int) -> list[tuple[int, ...]]:
    """Every state with step(s) == s, by exhaustive filtering."""
    out = []
    for sites in itertools.product(range(rule.p), repeat=ns):
        s = RingState(rule.p, sites)
        if step(rule, s).sites == sites:
            out.append(sites)
    return sorted(out)


def real_logistic_period(
    mu: float,
    u0: float = 0.5,
    burn: int = 100_000,
    probe: int = 2048,
    tol: float = 1e-9,
    max_period: int = 64,
) -> int | None:
    """Attractor period of u -> mu*u*(1-u) in double precision."""
    u = u0
    for _ in range(burn):
        u = mu * u * (1 - u)
    orbit = []
    for _ in range(probe):
        u = mu * u * (1 - u)
        orbit.append(u)
    for k in range(1, max_period + 1):
        if all(abs(orbit[t] - orbit[t + k]) < tol for t in range(probe - k)):
            return k
    return None
