"""Radix arithmetic foundation.

Everything downstream (rule tables, ring encodings, de Bruijn vertices,
transition tables) is built from two primitives: a zero-indicator on
integers (`boxcar`) and positional digit extraction (`digit_of`). Digit
positions are 1-based and count from the least significant digit, so
`digit_of(p, 1, a) == a % p`.

Big values (rule codes routinely exceed machine words, e.g. sums of
a_n*5^n up to n=124) ride on Python's native arbitrary-precision int;
decimal strings are the interchange format at I/O boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .errors import GuardExceeded

SCAN_BOUND = 10_000  # hard ceiling for the O(m*p) scan-form evaluators


def boxcar(x: int) -> int:
    """Indicator of x == 0 for exact integer arguments.

    The window half-width is fixed at 1/2, so on integers this is exactly
    the zero test; no division or floating point is involved.
    """
    return 1 if x == 0 else 0


def _check_radix(p: int) -> None:
    if p < 2:
        raise ValueError(f"radix must be >= 2, got {p}")


def digit_of(p: int, i: int, a: int) -> int:
    """The i-th base-p digit of a nonnegative integer (i >= 1, LSD = 1).

    Computed as floor(a/p^(i-1)) - p*floor(a/p^i); positions beyond the
    digit count of `a` are 0.
    """
    _check_radix(p)
    if i < 1:
        raise ValueError(f"digit position must be >= 1, got {i}")
    if a < 0:
        raise ValueError(f"expected a nonnegative integer, got {a}")
    return (a // p ** (i - 1)) % p


def rational_digit(p: int, i: int, x: int | Fraction) -> int:
    """Digit extraction extended to exact rationals and any position i.

    floor(x/p^(i-1)) - p*floor(x/p^i) with exact arithmetic; position 0
    (and below) reads fractional digits. Used by rule-evaluation paths
    whose selector terms involve p^(n-1) at n = 0.
    """
    _check_radix(p)
    if isinstance(x, int):
        if i >= 1:
            return (x // p ** (i - 1)) % p
        # negative powers of p: multiply instead of dividing
        return x * p ** (1 - i) - p * (x * p ** (-i))
    lo = math.floor(x / Fraction(p) ** (i - 1))
    hi = math.floor(x / Fraction(p) ** i)
    return lo - p * hi


@dataclass(frozen=True)
class DigitVector:
    """Base-p digit sequence, least significant first; () denotes 0."""

    p: int
    digits: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_radix(self.p)
        for d in self.digits:
            if not 0 <= d < self.p:
                raise ValueError(f"digit {d} out of range for radix {self.p}")

    def __len__(self) -> int:
        return len(self.digits)

    def __iter__(self) -> Iterator[int]:
        return iter(self.digits)

    def serialize(self) -> str:
        """Comma-separated digits, least significant first ('' for zero)."""
        return ",".join(str(d) for d in self.digits)

    @classmethod
    def parse(cls, text: str, p: int) -> "DigitVector":
        if text == "":
            return cls(p, ())
        return cls(p, tuple(int(part) for part in text.split(",")))


def digits_lsd(p: int, a: int, count: int) -> DigitVector:
    """First `count` base-p digits of `a`, least significant first."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    return DigitVector(p, tuple(digit_of(p, i, a) for i in range(1, count + 1)))


def from_digits(v: DigitVector) -> int:
    """Reassemble the integer sum(digits[i] * p^i); inverse of digits_lsd."""
    total = 0
    for d in reversed(v.digits):
        total = total * v.p + d
    return total


def radix_convert(s: str, p: int) -> DigitVector:
    """Convert a decimal string to its canonical base-p digit vector.

    Canonical means no trailing zero limbs, so "0" maps to the empty
    vector.
    """
    if not s or not (s.isascii() and s.isdigit()):
        raise ValueError(f"expected a nonempty decimal-digit string, got {s!r}")
    _check_radix(p)
    a = int(s)
    out = []
    while a:
        a, d = divmod(a, p)
        out.append(d)
    return DigitVector(p, tuple(out))


def decimal_string(v: DigitVector) -> str:
    """Decimal string of a digit vector's value; inverse of radix_convert."""
    return str(from_digits(v))


def scan_divmod(m: int, p: int) -> tuple[int, int]:
    """Quotient and remainder of m/p found by scanning all (j, k) pairs.

    Reference evaluator: accumulates j and k over the indicator of
    m - j*p - k == 0, which singles out the unique pair with m = j*p + k,
    0 <= k < p. O(m*p); intended as a cross-check for divmod, so the
    input is capped.
    """
    _check_radix(p)
    if m < 0:
        raise ValueError(f"expected a nonnegative integer, got {m}")
    if m > SCAN_BOUND:
        raise GuardExceeded(f"scan form is O(m*p); m={m} exceeds bound {SCAN_BOUND}")
    quot = 0
    rem = 0
    for j in range(m + 1):
        for k in range(p):
            hit = boxcar(m - j * p - k)
            quot += j * hit
            rem += k * hit
    return quot, rem


def scan_digit(p: int, i: int, a: int) -> int:
    """Digit extraction via the scan form: remainder scan of floor(a/p^(i-1)).

    Same contract as digit_of; O((a/p^(i-1)) * p). Cross-check only.
    """
    _check_radix(p)
    if i < 1:
        raise ValueError(f"digit position must be >= 1, got {i}")
    if a < 0:
        raise ValueError(f"expected a nonnegative integer, got {a}")
    shifted = a // p ** (i - 1)
    if shifted > SCAN_BOUND:
        raise GuardExceeded(
            f"scan form is O(m*p); floor(a/p^(i-1))={shifted} exceeds bound {SCAN_BOUND}"
        )
    out = 0
    for j in range(shifted + 1):
        for k in range(p):
            out += k * boxcar(shifted - j * p - k)
    return out


_DIGIT_CHARS = "0123456789abcdefghijklmnopqrstuvwxyz"


def digit_string_msd(p: int, a: int, width: int) -> str:
    """Fixed-width base-p numeral, most significant digit first.

    Labels like '010' for vertex 2 at p=2, width 3. Digits above 9 use
    lowercase letters.
    """
    return format_digit_string_msd(digits_lsd(p, a, width).digits, p)


def format_digit_string_msd(digits: tuple[int, ...], p: int) -> str:
    """Inverse of parse_digit_string_msd; digits above 9 are letters (p <= 36)."""
    if p > len(_DIGIT_CHARS):
        raise ValueError(f"radix {p} too large for string labels")
    return "".join(_DIGIT_CHARS[d] for d in reversed(digits))


def parse_digit_string_msd(s: str, p: int) -> tuple[int, ...]:
    """Parse a most-significant-first numeral into an LSD-first digit tuple."""
    out = []
    for ch in reversed(s):
        d = _DIGIT_CHARS.find(ch.lower())
        if d < 0 or d >= p:
            raise ValueError(f"character {ch!r} is not a base-{p} digit")
        out.append(d)
    return tuple(out)
