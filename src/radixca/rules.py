"""CA rule representation and the local update map.

A rule `l:r:p:R` updates site i from the window of l sites to its left,
itself, and r sites to its right (site index grows leftward). Windows are
handled as tuples ordered (x^{i+l}, ..., x^i, ..., x^{i-r}), i.e. most
significant neighborhood digit first. The window packs into the
neighborhood value n = sum_k p^{k+r} x^{i+k}, and the rule is the output
table a_n; the code R is just the table read as a base-p numeral,
R = sum_n a_n p^n.

Rules are stored as explicit tables; codes (which can run to hundreds of
decimal digits) only materialize at I/O boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .digits import (
    DigitVector,
    boxcar,
    digit_of,
    digits_lsd,
    from_digits,
    rational_digit,
)
from .errors import GuardExceeded

Window = Sequence[int]

TABLE_GUARD = 2**24  # largest rule table we will materialize

UPDATE_PATHS = ("boxcar", "digit-krone", "digit-product", "wolfram-poly")


@dataclass(frozen=True)
class RuleSpec:
    """A CA rule: geometry (l, r, p) plus output table a_n, n in [0, p^rho)."""

    l: int
    r: int
    p: int
    table: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.l < 0 or self.r < 0:
            raise ValueError(f"ranges must be >= 0, got l={self.l}, r={self.r}")
        if self.p < 2:
            raise ValueError(f"alphabet size must be >= 2, got {self.p}")
        q = self.p ** self.rho
        if q > TABLE_GUARD:
            raise GuardExceeded(f"rule table size p^rho = {q} exceeds {TABLE_GUARD}")
        if len(self.table) != q:
            raise ValueError(f"table length {len(self.table)} != p^rho = {q}")
        for a in self.table:
            if not 0 <= a < self.p:
                raise ValueError(f"table entry {a} out of range for p={self.p}")

    @property
    def rho(self) -> int:
        return self.l + self.r + 1

    @property
    def q(self) -> int:
        return self.p ** self.rho


@dataclass(frozen=True)
class TotalisticRuleSpec:
    """Rule whose output depends only on the window sum; table a_s by sum s."""

    l: int
    r: int
    p: int
    table: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.l < 0 or self.r < 0:
            raise ValueError(f"ranges must be >= 0, got l={self.l}, r={self.r}")
        if self.p < 2:
            raise ValueError(f"alphabet size must be >= 2, got {self.p}")
        want = self.rho * (self.p - 1) + 1
        if len(self.table) != want:
            raise ValueError(f"table length {len(self.table)} != rho(p-1)+1 = {want}")
        for a in self.table:
            if not 0 <= a < self.p:
                raise ValueError(f"table entry {a} out of range for p={self.p}")

    @property
    def rho(self) -> int:
        return self.l + self.r + 1


AnyRule = Union[RuleSpec, TotalisticRuleSpec]


def _check_window(rule: AnyRule, window: Window) -> None:
    if len(window) != rule.rho:
        raise ValueError(f"window length {len(window)} != rho = {rule.rho}")
    for x in window:
        if not 0 <= x < rule.p:
            raise ValueError(f"window value {x} out of range for p={rule.p}")


def neighborhood_value(p: int, window: Window) -> int:
    """Pack a window into its neighborhood value.

    window[0] = x^{i+l} carries weight p^(rho-1), window[-1] = x^{i-r}
    carries weight 1; equivalently digit k+r+1 of the result is x^{i+k}.
    """
    n = 0
    for x in window:
        n = n * p + x
    return n


def rule_from_code(l: int, r: int, p: int, code: str | int) -> RuleSpec:
    """Decode a rule from its numeric code: a_n = digit n+1 of R in base p."""
    value = int(code)
    rho = l + r + 1
    q = p**rho
    if q > TABLE_GUARD:
        raise GuardExceeded(f"rule table size p^rho = {q} exceeds {TABLE_GUARD}")
    if not 0 <= value < p**q:
        raise ValueError(
            f"rule code out of range: need 0 <= code < {p}^{q} for l={l}, r={r}, p={p}"
        )
    return RuleSpec(l, r, p, digits_lsd(p, value, q).digits)


def code_of_rule(rule: RuleSpec) -> str:
    """Decimal string of R = sum_n a_n p^n; inverse of rule_from_code."""
    return str(from_digits(DigitVector(rule.p, rule.table)))


def shift_rule(l: int, r: int, p: int, m: int) -> RuleSpec:
    """The rule with table a_n = digit m of n, 1 <= m <= rho.

    Stepping a ring with it translates every site value by m-r-1
    positions, so m = r+1 is the identity, smaller m shift from the
    right, larger m from the left.
    """
    rho = l + r + 1
    if not 1 <= m <= rho:
        raise ValueError(f"shift index m must satisfy 1 <= m <= {rho}, got {m}")
    q = p**rho
    if q > TABLE_GUARD:
        raise GuardExceeded(f"rule table size p^rho = {q} exceeds {TABLE_GUARD}")
    return RuleSpec(l, r, p, tuple(digit_of(p, m, n) for n in range(q)))


def identity_rule(l: int, r: int, p: int) -> RuleSpec:
    """shift_rule at m = r+1: every state steps to itself."""
    return shift_rule(l, r, p, r + 1)


def totalistic_from_code(l: int, r: int, p: int, code: str | int) -> TotalisticRuleSpec:
    """Decode a totalistic rule; the table is indexed by window sum."""
    value = int(code)
    rho = l + r + 1
    length = rho * (p - 1) + 1
    if not 0 <= value < p**length:
        raise ValueError(
            f"totalistic code out of range: need 0 <= code < {p}^{length} "
            f"for l={l}, r={r}, p={p}"
        )
    return TotalisticRuleSpec(l, r, p, digits_lsd(p, value, length).digits)


def totalistic_code(rule: TotalisticRuleSpec) -> str:
    return str(from_digits(DigitVector(rule.p, rule.table)))


def totalistic_update(rule: TotalisticRuleSpec, window: Window) -> int:
    """Output a_s selected by the window sum s via the indicator sum."""
    _check_window(rule, window)
    s = sum(window)
    return sum(a * boxcar(j - s) for j, a in enumerate(rule.table))


def expand_totalistic(rule: TotalisticRuleSpec) -> RuleSpec:
    """Equivalent plain rule: a_n = totalistic output at the digit sum of n."""
    q = rule.p**rule.rho
    if q > TABLE_GUARD:
        raise GuardExceeded(f"rule table size p^rho = {q} exceeds {TABLE_GUARD}")
    table = tuple(
        rule.table[sum(digits_lsd(rule.p, n, rule.rho).digits)] for n in range(q)
    )
    return RuleSpec(rule.l, rule.r, rule.p, table)


def local_update(rule: RuleSpec, window: Window, path: str = "boxcar") -> int:
    """Evaluate one local update through one of four equivalent forms.

    boxcar         sum_n a_n * [n == neighborhood value]
    digit-krone    sum_n a_n * digit(nv, p^(n-1)); the digit term acts as
                   a Kronecker selector (the n = 0 term reads a
                   fractional digit of 1/p, handled exactly)
    digit-product  sum_n a_n * prod_k [digit k+r+1 of n == x^{i+k}]
    wolfram-poly   the multilinear polynomial for p=2, l=r=1 windows

    All paths return the same digit; they exist so tests can pit them
    against each other.
    """
    _check_window(rule, window)
    p = rule.p

    if path == "boxcar":
        nv = neighborhood_value(p, window)
        return sum(a * boxcar(n - nv) for n, a in enumerate(rule.table))

    if path == "digit-krone":
        nv = neighborhood_value(p, window)
        total = 0
        for n, a in enumerate(rule.table):
            power = p ** (n - 1) if n >= 1 else Fraction(1, p)
            total += a * rational_digit(p, nv, power)
        return total

    if path == "digit-product":
        rho = rule.rho
        total = 0
        for n, a in enumerate(rule.table):
            prod = 1
            for j, x in enumerate(window):
                # window[j] = x^{i+k} with k = l-j sits at digit rho-j of n
                prod *= boxcar(digit_of(p, rho - j, n) - x)
            total += a * prod
        return total

    if path == "wolfram-poly":
        if not (p == 2 and rule.l == 1 and rule.r == 1):
            raise ValueError("wolfram-poly path requires p=2, l=r=1")
        a = rule.table
        xl, xc, xr = window  # x^{i+1}, x^i, x^{i-1}
        return (
            a[0] * (1 - xl) * (1 - xc) * (1 - xr)
            + a[1] * xr * (1 - xl) * (1 - xc)
            + a[2] * xc * (1 - xl) * (1 - xr)
            + a[3] * xc * xr * (1 - xl)
            + a[4] * xl * (1 - xc) * (1 - xr)
            + a[5] * xl * xr * (1 - xc)
            + a[6] * xl * xc * (1 - xr)
            + a[7] * xl * xc * xr
        )

    raise ValueError(f"unknown update path {path!r}; expected one of {UPDATE_PATHS}")


def parse_rule(text: str) -> AnyRule:
    """Parse 'l:r:p:code', 'l:r:p:codeT' (totalistic) or 'l:r:p:[a0,a1,...]'."""
    parts = text.split(":", 3)
    if len(parts) != 4:
        raise ValueError(f"rule spec must look like l:r:p:code, got {text!r}")
    try:
        l, r, p = int(parts[0]), int(parts[1]), int(parts[2])
    except ValueError:
        raise ValueError(f"rule geometry in {text!r} is not numeric") from None
    body = parts[3].strip()
    if body.startswith("[") and body.endswith("]"):
        entries = body[1:-1].strip()
        table = tuple(int(x) for x in entries.split(",")) if entries else ()
        return RuleSpec(l, r, p, table)
    if body.endswith("T"):
        return totalistic_from_code(l, r, p, body[:-1])
    return rule_from_code(l, r, p, body)


def format_rule(rule: AnyRule) -> str:
    """Canonical 'l:r:p:code' form (suffix T for totalistic rules)."""
    if isinstance(rule, TotalisticRuleSpec):
        return f"{rule.l}:{rule.r}:{rule.p}:{totalistic_code(rule)}T"
    return f"{rule.l}:{rule.r}:{rule.p}:{code_of_rule(rule)}"
