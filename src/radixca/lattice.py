"""Ring states, the global step with periodic boundaries, and rasters.

Sites are numbered 1..N_s with index growing to the left, so the string
form of a state prints site N_s first (it reads like the base-p numeral
of the packed state). Any N_s >= 1 is legal, including rings shorter
than the neighborhood: windows wrap modulo N_s.

step, evolve and neighborhood_sequence share one kernel: a row is held
as bytes with one 1-, 2- or 4-byte lane per site, all neighborhood
values of a row come out of one big-integer sum of shifted ring copies,
and one bytes.translate (or one map over the lanes) looks them up.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .digits import digits_lsd, format_digit_string_msd, parse_digit_string_msd
from .errors import GuardExceeded
from .rules import AnyRule, TotalisticRuleSpec

GRID_GUARD = 2**24  # most raster cells (sites x rows) evolve will build


@dataclass(frozen=True)
class RingState:
    """Periodic lattice of base-p site values; sites[0] is site 1."""

    p: int
    sites: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.p < 2:
            raise ValueError(f"alphabet size must be >= 2, got {self.p}")
        if len(self.sites) < 1:
            raise ValueError("a ring needs at least one site")
        lo, hi = min(self.sites), max(self.sites)
        if lo < 0 or hi >= self.p:
            bad = lo if lo < 0 else hi
            raise ValueError(f"site value {bad} out of range for p={self.p}")

    @property
    def ns(self) -> int:
        return len(self.sites)

    def site(self, i: int) -> int:
        """Value at site i with cyclic indexing (any integer i)."""
        return self.sites[(i - 1) % self.ns]

    def rotated(self, offset: int) -> "RingState":
        """State with x'^i = x^{i+offset}."""
        ns = self.ns
        return RingState(self.p, tuple(self.sites[(j + offset) % ns] for j in range(ns)))

    def reflected(self) -> "RingState":
        """Spatial mirror image (site order reversed)."""
        return RingState(self.p, tuple(reversed(self.sites)))

    def to_string(self) -> str:
        """Digit string, site N_s leftmost; digits above 9 are letters (p <= 36)."""
        return format_digit_string_msd(self.sites, self.p)

    @classmethod
    def from_string(cls, text: str, p: int) -> "RingState":
        """Parse a digit string written site N_s first."""
        return cls(p, parse_digit_string_msd(text, p))

    @classmethod
    def zero(cls, p: int, ns: int) -> "RingState":
        return cls(p, (0,) * ns)

    @classmethod
    def single_seed(cls, p: int, ns: int, site: int = 1, value: int = 1) -> "RingState":
        """All-zero ring with one site set (site numbering is 1-based)."""
        if not 1 <= site <= ns:
            raise ValueError(f"seed site must be in [1, {ns}], got {site}")
        sites = [0] * ns
        sites[site - 1] = value
        return cls(p, tuple(sites))

    @classmethod
    def random(cls, p: int, ns: int, seed: int) -> "RingState":
        """Seeded random ring; sites x^1..x^Ns drawn in order from
        random.Random(seed).randrange(p) (Mersenne Twister), so equal
        seeds reproduce equal states everywhere."""
        rng = random.Random(seed)
        return cls(p, tuple(rng.randrange(p) for _ in range(ns)))


def _lanes(top: int, ns: int) -> struct.Struct:
    """Row format of ns little-endian lanes, site 1 lowest, each the
    narrowest of 1, 2 or 4 bytes that holds 0..top-1."""
    for code, bits in (("B", 8), ("H", 16), ("I", 32)):
        if top <= 1 << bits:
            return struct.Struct(f"<{ns}{code}")
    raise GuardExceeded(f"lane values up to {top - 1} do not fit in 4 bytes")


def _lane_sums(
    l: int, r: int, base: int, ns: int, lanes: struct.Struct
) -> Callable[[bytes], bytes]:
    """Map a packed ns-site row to the lanes sum_k base^(k+r) * x^{i+k}:
    neighborhood values for base p, window sums for base 1.

    row * reps stacks enough ring copies for rings shorter than the
    neighborhood; the ns lanes read from lane c*ns + k on are the sites
    x^{i+k}, i = 1..ns. Each sum stays below the lane's range, so the
    big-integer sum has no carry between lanes.
    """
    c = -(-r // ns)  # ceil(r/ns) copies below the ring, ceil(l/ns) above
    reps = 1 + c - (-l // ns)
    width = lanes.size
    w = width // ns
    cuts = [(base ** (k + r), w * (c * ns + k)) for k in range(-r, l + 1)]

    def sums(row: bytes) -> bytes:
        stacked = row * reps
        total = 0
        for weight, start in cuts:
            total += weight * int.from_bytes(stacked[start : start + width], "little")
        return total.to_bytes(width, "little")

    return sums


def _lane_stepper(
    rule: AnyRule, s: RingState
) -> tuple[struct.Struct, Callable[[bytes], bytes]]:
    """Row format and the map row -> next row of packed rings like s.

    A plain rule looks up the neighborhood value sum_k p^{k+r} x^{i+k},
    a totalistic rule the window sum, so both index their own table.
    """
    if s.p != rule.p:
        raise ValueError(f"alphabet mismatch: state p={s.p}, rule p={rule.p}")
    table = rule.table
    lanes = _lanes(len(table), s.ns)
    base = 1 if isinstance(rule, TotalisticRuleSpec) else rule.p
    sums = _lane_sums(rule.l, rule.r, base, s.ns, lanes)
    if lanes.size == s.ns:  # 1-byte lanes
        lookup = bytes(table).ljust(256, b"\0")
        return lanes, lambda row: sums(row).translate(lookup)
    return lanes, lambda row: lanes.pack(
        *map(table.__getitem__, lanes.unpack(sums(row)))
    )


def step(rule: AnyRule, s: RingState) -> RingState:
    """One synchronous update of every site under the rule."""
    lanes, advance = _lane_stepper(rule, s)
    return RingState(s.p, lanes.unpack(advance(lanes.pack(*s.sites))))


def neighborhood_sequence(l: int, r: int, s: RingState) -> tuple[int, ...]:
    """Neighborhood values n^1..n^Ns of a state for geometry (l, r)."""
    lanes = _lanes(s.p ** (l + r + 1), s.ns)
    sums = _lane_sums(l, r, s.p, s.ns, lanes)
    return lanes.unpack(sums(lanes.pack(*s.sites)))


def check_grid(ns: int, steps: int) -> None:
    """Refuse a raster of more than GRID_GUARD cells before building any of it."""
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    cells = ns * (steps + 1)
    if cells > GRID_GUARD:
        raise GuardExceeded(f"raster cells ns*(steps+1) = {cells} exceeds {GRID_GUARD}")


class _GrayLevels(dict):
    """PGM gray text of each cell value, made on first use (p may be large)."""

    def __init__(self, p: int) -> None:
        super().__init__()
        self.p = p

    def __missing__(self, x: int) -> str:
        text = self[x] = str((510 * x + self.p - 1) // (2 * (self.p - 1)))
        return text


@dataclass(frozen=True)
class SpacetimeRaster:
    """Stack of ring rows; rows[0] is the initial condition."""

    p: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.rows:
            raise ValueError("a raster needs at least one row")
        width = len(self.rows[0])
        for row in self.rows:
            if len(row) != width:
                raise ValueError("all raster rows must have equal length")
            lo, hi = min(row, default=0), max(row, default=0)
            if lo < 0 or hi >= self.p:
                bad = lo if lo < 0 else hi
                raise ValueError(f"cell value {bad} out of range for p={self.p}")

    @property
    def width(self) -> int:
        return len(self.rows[0])

    @property
    def height(self) -> int:
        return len(self.rows)

    def to_pgm(self) -> str:
        """Plain PGM (P2), one raster row per line, LF endings.

        Cell value x maps to gray round(255*x/(p-1)), so 0 is black and
        p-1 is white. Column order follows to_string: site N_s leftmost.
        """
        gray = _GrayLevels(self.p)
        lines = [f"P2\n{self.width} {self.height}\n255"]
        for row in self.rows:
            lines.append(" ".join(map(gray.__getitem__, reversed(row))))
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        """Character art: '.' for 0, the digit character otherwise (p <= 36)."""
        return "".join(
            format_digit_string_msd(row, self.p).replace("0", ".") + "\n"
            for row in self.rows
        )


def evolve(rule: AnyRule, s0: RingState, steps: int) -> SpacetimeRaster:
    """Iterate the rule `steps` times; the raster has steps+1 rows."""
    check_grid(s0.ns, steps)
    lanes, advance = _lane_stepper(rule, s0)
    row, rows = lanes.pack(*s0.sites), [s0.sites]
    for _ in range(steps):
        row = advance(row)
        rows.append(lanes.unpack(row))
    return SpacetimeRaster(s0.p, tuple(rows))


def raster_from_states(p: int, states: Iterable[Sequence[int]]) -> SpacetimeRaster:
    """Raster from explicit site rows (used by the compiled-map runner)."""
    return SpacetimeRaster(p, tuple(tuple(row) for row in states))


def raster_from_indices(p: int, ns: int, indices: Iterable[int]) -> SpacetimeRaster:
    """Raster from packed state indices: row t = digits of indices[t]."""
    return SpacetimeRaster(
        p, tuple(digits_lsd(p, i, ns).digits for i in indices)
    )
