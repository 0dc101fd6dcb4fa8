"""Whole-ring dynamics through the packed-state encoding.

A ring state packs into a single integer I = sum_i p^(i-1) x^i (site 1
is the least significant digit), equivalently a rational phi = I/p^Ns
in [0,1). One CA step induces a map on these indices (_packed_stepper),
and every whole-ring result reads off it: chi samples, the global
transition table, Gardens of Eden (states without preimages), attractor
cycles with exact basin sizes and the shift-group actions. The direct
digit-extraction step and the whole-ring rotation step stay as
independent test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .digits import DigitVector, boxcar, digit_of, digits_lsd, from_digits
from .errors import GuardExceeded
from .lattice import RingState
from .rules import AnyRule, RuleSpec, TotalisticRuleSpec, expand_totalistic, shift_rule

TABLE_GUARD = 2**24  # largest state space we will tabulate exhaustively
GROUP_GUARD = 2**16  # largest state space for the shift-group checks


@dataclass(frozen=True)
class GlobalIndex:
    """Packed ring state: index in [0, p^ns) whose digit i is site i."""

    p: int
    ns: int
    index: int

    def __post_init__(self) -> None:
        if self.p < 2:
            raise ValueError(f"alphabet size must be >= 2, got {self.p}")
        if self.ns < 1:
            raise ValueError(f"ring size must be >= 1, got {self.ns}")
        if not 0 <= self.index < self.p**self.ns:
            raise ValueError(
                f"index {self.index} out of range [0, {self.p}^{self.ns})"
            )

    @property
    def phi(self) -> Fraction:
        return Fraction(self.index, self.p**self.ns)


def encode(s: RingState) -> GlobalIndex:
    return GlobalIndex(s.p, s.ns, from_digits(DigitVector(s.p, s.sites)))


def decode(g: GlobalIndex) -> RingState:
    return RingState(g.p, digits_lsd(g.p, g.index, g.ns).digits)


def _packed_stepper(rule: AnyRule, ns: int) -> Callable[[int], int]:
    """The map I -> I' of one CA step on packed ns-site rings.

    I * rep stacks copies of the ring, enough for rings shorter than the
    neighborhood, so site i's window is (I * rep // p^(c*ns + i-1-r)) % p^rho.
    """
    if ns < 1:
        raise ValueError(f"ring size must be >= 1, got {ns}")
    p, l, r = rule.p, rule.l, rule.r
    size = p**ns
    if size > TABLE_GUARD:
        raise GuardExceeded(f"state space p^ns = {size} exceeds {TABLE_GUARD}")
    if isinstance(rule, TotalisticRuleSpec):  # its table is indexed by window sum
        rule = expand_totalistic(rule)
    c = -(-r // ns)  # ceil(r/ns) copies below the ring, ceil(l/ns) above
    rep = sum(p ** (j * ns) for j in range(1 + c - (-l // ns)))
    q = p**rule.rho
    sites = [(p ** (c * ns + i - 1 - r), p ** (i - 1)) for i in range(1, ns + 1)]
    table = rule.table

    def stepper(index: int) -> int:
        stacked = index * rep
        return sum(table[stacked // down % q] * up for down, up in sites)

    return stepper


def characteristic_value(rule: RuleSpec, g: GlobalIndex, tau: int = 1) -> GlobalIndex:
    """Image of a packed state after tau CA steps."""
    if tau < 1:
        raise ValueError(f"tau must be >= 1, got {tau}")
    if rule.p != g.p:
        raise ValueError(f"alphabet mismatch: state p={g.p}, rule p={rule.p}")
    stepper = _packed_stepper(rule, g.ns)
    index = g.index
    for _ in range(tau):
        index = stepper(index)
    return GlobalIndex(g.p, g.ns, index)


def characteristic_value_direct(rule: RuleSpec, g: GlobalIndex) -> GlobalIndex:
    """One step evaluated purely by digit extraction from the index.

    Each site's neighborhood value is assembled from digits of I at
    cyclically wrapped positions and matched against the table through
    the indicator sum; no RingState is built. Cross-check path for
    characteristic_value.
    """
    p, ns, index = g.p, g.ns, g.index
    if rule.p != p:
        raise ValueError(f"alphabet mismatch: state p={p}, rule p={rule.p}")
    out = 0
    for i in range(1, ns + 1):
        nv = 0
        for k in range(-rule.r, rule.l + 1):
            pos = (i + k - 1) % ns + 1
            nv += p ** (k + rule.r) * digit_of(p, pos, index)
        site = sum(a * boxcar(n - nv) for n, a in enumerate(rule.table))
        out += p ** (i - 1) * site
    return GlobalIndex(p, ns, out)


def characteristic_samples(
    rule: RuleSpec, ns: int
) -> list[tuple[Fraction, Fraction]]:
    """(phi, chi(phi)) for every state, ascending in phi."""
    stepper = _packed_stepper(rule, ns)
    size = rule.p**ns
    return [
        (Fraction(index, size), Fraction(image, size))
        for index, image in enumerate(map(stepper, range(size)))
    ]


def samples_to_csv(rule: RuleSpec, ns: int) -> str:
    """CSV 'y,chi' with exact unreduced rationals num/p^ns per cell."""
    stepper = _packed_stepper(rule, ns)
    size = rule.p**ns
    rows = (f"{i}/{size},{v}/{size}\n" for i, v in enumerate(map(stepper, range(size))))
    return "y,chi\n" + "".join(rows)


@dataclass(frozen=True)
class TransitionTable:
    """image[I] = packed successor of packed state I, for all I."""

    p: int
    ns: int
    image: tuple[int, ...]

    def __post_init__(self) -> None:
        size = self.p**self.ns
        if len(self.image) != size:
            raise ValueError(f"image length {len(self.image)} != p^ns = {size}")
        for v in self.image:
            if not 0 <= v < size:
                raise ValueError(f"image entry {v} out of range [0, {size})")


def transition_table(rule: RuleSpec, ns: int) -> TransitionTable:
    """Tabulate one CA step over the whole state space."""
    stepper = _packed_stepper(rule, ns)
    return TransitionTable(rule.p, ns, tuple(map(stepper, range(rule.p**ns))))


def gardens_of_eden(table: TransitionTable) -> list[int]:
    """States that never appear as an image (no preimage), ascending."""
    size = table.p**table.ns
    seen = bytearray(size)
    for v in table.image:
        seen[v] = 1
    return [i for i in range(size) if not seen[i]]


@dataclass(frozen=True)
class Attractor:
    """A cycle of the global map plus the size of its basin (cycle included)."""

    cycle: tuple[int, ...]
    basin: int


def attractors(table: TransitionTable) -> list[Attractor]:
    """Every cycle of the functional graph with exact basin sizes.

    Iterative pointer-chasing with a three-state visitation mark; no
    recursion, O(p^ns) time. Cycles are rotated to start at their
    smallest state and listed in that order; basins partition the state
    space.
    """
    img = table.image
    size = len(img)
    mark = bytearray(size)  # 0 fresh, 1 on current path, 2 settled
    owner = [-1] * size  # attractor id per state
    cycles: list[list[int]] = []

    for start in range(size):
        if mark[start] == 2:
            continue
        path = []
        v = start
        while mark[v] == 0:
            mark[v] = 1
            path.append(v)
            v = img[v]
        if mark[v] == 1:
            at = path.index(v)
            cid = len(cycles)
            cycles.append(path[at:])
            for u in path:
                owner[u] = cid
        else:
            cid = owner[v]
            for u in path:
                owner[u] = cid
        for u in path:
            mark[u] = 2

    basins = [0] * len(cycles)
    for u in range(size):
        basins[owner[u]] += 1

    out = []
    for cyc, basin in zip(cycles, basins):
        at = cyc.index(min(cyc))
        out.append(Attractor(tuple(cyc[at:] + cyc[:at]), basin))
    out.sort(key=lambda a: a.cycle[0])
    return out


def global_ca_step(rule: RuleSpec, g: GlobalIndex) -> GlobalIndex:
    """One step of a whole-ring rule via digit rotations of the index.

    Requires rho == ns (the neighborhood covers the ring exactly). The
    k-th output digit is the table entry selected by the k-rotated digit
    pattern of I, so the step never touches individual windows. Agrees
    exactly with characteristic_value.
    """
    p, ns, index = g.p, g.ns, g.index
    if rule.p != p:
        raise ValueError(f"alphabet mismatch: state p={p}, rule p={rule.p}")
    if rule.rho != ns:
        raise ValueError(
            f"whole-ring step needs rho == ns, got rho={rule.rho}, ns={ns}"
        )
    digits = digits_lsd(p, index, ns).digits
    out = 0
    for k in range(1, ns + 1):
        offset = k - rule.r - 1
        rotated = 0
        for j in range(ns, 0, -1):
            rotated = rotated * p + digits[(j - 1 + offset) % ns]
        out += p ** (k - 1) * rule.table[rotated]
    return GlobalIndex(p, ns, out)


@dataclass(frozen=True)
class GroupReport:
    """Axiom-by-axiom verification of the shift rules under composition."""

    l: int
    r: int
    p: int
    ns: int
    elements: tuple[int, ...]  # shift indices m
    closure: bool
    associativity: bool
    identity: bool
    inverses: bool
    commutativity: bool
    cyclic: bool
    order: int
    generator: int | None

    @property
    def all_passed(self) -> bool:
        return (
            self.closure
            and self.associativity
            and self.identity
            and self.inverses
            and self.commutativity
            and self.cyclic
        )

    def format_lines(self) -> list[str]:
        def mark(ok: bool) -> str:
            return "PASS" if ok else "FAIL"

        lines = [
            f"shift operators l={self.l} r={self.r} p={self.p} on ring ns={self.ns}",
            f"elements: m in {list(self.elements)}  (distinct actions: {self.order})",
            f"closure: {mark(self.closure)}",
            f"associativity: {mark(self.associativity)}",
            f"identity (m={self.r + 1}): {mark(self.identity)}",
            f"inverses: {mark(self.inverses)}",
            f"commutativity: {mark(self.commutativity)}",
            f"cyclic: {mark(self.cyclic)}"
            + (f" (generator m={self.generator})" if self.generator else ""),
            f"group: {mark(self.all_passed)}",
        ]
        return lines


def shift_group_report(l: int, r: int, p: int, ns: int | None = None) -> GroupReport:
    """Check the group axioms for the rho shift rules acting on rings.

    With ns equal to the neighborhood size (the default) the rho shift
    actions form a cyclic abelian group; on longer rings composition
    escapes the set and closure fails. Actions are compared as exact
    permutations of the whole state space.
    """
    rho = l + r + 1
    ring = rho if ns is None else ns
    if ring < 1:
        raise ValueError(f"ring size must be >= 1, got {ring}")
    size = p**ring
    if size > GROUP_GUARD:
        raise GuardExceeded(f"state space p^ns = {size} exceeds {GROUP_GUARD}")

    ms = tuple(range(1, rho + 1))
    perms = {m: transition_table(shift_rule(l, r, p, m), ring).image for m in ms}
    perm_set = set(perms.values())
    identity_perm = tuple(range(size))

    def compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        # apply b first, then a
        return tuple(a[b[i]] for i in range(size))

    closure = all(
        compose(perms[h], perms[k]) in perm_set for h in ms for k in ms
    )
    associativity = all(
        compose(compose(perms[h], perms[k]), perms[j])
        == compose(perms[h], compose(perms[k], perms[j]))
        for h in ms
        for k in ms
        for j in ms
    )
    identity_ok = perms[r + 1] == identity_perm
    inverses = all(
        any(compose(perms[m], perms[mm]) == identity_perm for mm in ms) for m in ms
    )
    if inverses and ring == rho:
        # the paired element 2r+2-m (wrapped into [1, rho]) must invert m
        for m in ms:
            paired = (2 * r + 2 - m - 1) % rho + 1
            if compose(perms[m], perms[paired]) != identity_perm:
                inverses = False
                break
    commutativity = all(
        compose(perms[h], perms[k]) == compose(perms[k], perms[h])
        for h in ms
        for k in ms
    )

    order = len(perm_set)
    generator = None
    for m in ms:
        generated = set()
        acc = identity_perm
        for _ in range(len(ms)):
            acc = compose(perms[m], acc)
            generated.add(acc)
        if generated == perm_set and len(perm_set) == len(ms):
            generator = m
            break
    cyclic = generator is not None

    return GroupReport(
        l=l,
        r=r,
        p=p,
        ns=ring,
        elements=ms,
        closure=closure,
        associativity=associativity,
        identity=identity_ok,
        inverses=inverses,
        commutativity=commutativity,
        cyclic=cyclic,
        order=order,
        generator=generator,
    )
