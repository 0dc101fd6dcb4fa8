"""Ring states, the global step with periodic boundaries, and rasters.

Sites are numbered 1..N_s with index growing to the left, so the string
form of a state prints site N_s first (it reads like the base-p numeral
of the packed state). Any N_s >= 1 is legal, including rings shorter
than the neighborhood: windows wrap modulo N_s.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .digits import digits_lsd, format_digit_string_msd, parse_digit_string_msd
from .rules import AnyRule, apply_rule, neighborhood_value


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
        for x in self.sites:
            if not 0 <= x < self.p:
                raise ValueError(f"site value {x} out of range for p={self.p}")

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


def _window(rule: AnyRule, s: RingState, i: int) -> tuple[int, ...]:
    # (x^{i+l}, ..., x^{i-r}) around 1-based site i, cyclic
    ns = s.ns
    return tuple(s.sites[(i - 1 + k) % ns] for k in range(rule.l, -rule.r - 1, -1))


def step(rule: AnyRule, s: RingState) -> RingState:
    """One synchronous update of every site under the rule."""
    if s.p != rule.p:
        raise ValueError(f"alphabet mismatch: state p={s.p}, rule p={rule.p}")
    return RingState(
        s.p, tuple(apply_rule(rule, _window(rule, s, i)) for i in range(1, s.ns + 1))
    )


def neighborhood_sequence(l: int, r: int, s: RingState) -> tuple[int, ...]:
    """Neighborhood values n^1..n^Ns of a state for geometry (l, r)."""
    out = []
    ns = s.ns
    for i in range(1, ns + 1):
        window = tuple(s.sites[(i - 1 + k) % ns] for k in range(l, -r - 1, -1))
        out.append(neighborhood_value(s.p, window))
    return tuple(out)


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
            for x in row:
                if not 0 <= x < self.p:
                    raise ValueError(f"cell value {x} out of range for p={self.p}")

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
        div = 2 * (self.p - 1)
        lines = [f"P2\n{self.width} {self.height}\n255"]
        for row in self.rows:
            lines.append(" ".join(str((510 * x + self.p - 1) // div) for x in reversed(row)))
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        """Character art: '.' for 0, the digit character otherwise (p <= 36)."""
        return "".join(
            format_digit_string_msd(row, self.p).replace("0", ".") + "\n"
            for row in self.rows
        )


def evolve(rule: AnyRule, s0: RingState, steps: int) -> SpacetimeRaster:
    """Iterate the rule `steps` times; the raster has steps+1 rows."""
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    rows = [s0.sites]
    s = s0
    for _ in range(steps):
        s = step(rule, s)
        rows.append(s.sites)
    return SpacetimeRaster(s0.p, tuple(rows))


def raster_from_states(p: int, states: Iterable[Sequence[int]]) -> SpacetimeRaster:
    """Raster from explicit site rows (used by the compiled-map runner)."""
    return SpacetimeRaster(p, tuple(tuple(row) for row in states))


def raster_from_indices(p: int, ns: int, indices: Iterable[int]) -> SpacetimeRaster:
    """Raster from packed state indices: row t = digits of indices[t]."""
    return SpacetimeRaster(
        p, tuple(digits_lsd(p, i, ns).digits for i in indices)
    )
