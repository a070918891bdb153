"""Exact half-integer arithmetic for spin bookkeeping.

Angular momentum labels live in {0, 1/2, 1, 3/2, ...} and get chained through
long product formulas; storing twice the value in an int keeps every
admissibility check exact. Floats only appear once a square root is taken.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True, order=True)
class HalfInt:
    """Value ``twice / 2`` with ``twice`` an int."""

    twice: int

    def __post_init__(self) -> None:
        if not isinstance(self.twice, int):
            raise TypeError(f"twice must be int, got {type(self.twice).__name__}")

    @staticmethod
    def of(value) -> "HalfInt":
        """Coerce an int, Fraction, float or HalfInt. Rejects non-half-integers."""
        if isinstance(value, HalfInt):
            return value
        frac = Fraction(value)
        if frac.denominator not in (1, 2):
            raise ValueError(f"{value} is not a half-integer")
        return HalfInt(int(frac * 2))

    def as_fraction(self) -> Fraction:
        return Fraction(self.twice, 2)

    def __float__(self) -> float:
        return self.twice / 2.0

    def __add__(self, other) -> "HalfInt":
        return HalfInt(self.twice + HalfInt.of(other).twice)

    def __radd__(self, other) -> "HalfInt":
        return self.__add__(other)

    def __sub__(self, other) -> "HalfInt":
        return HalfInt(self.twice - HalfInt.of(other).twice)

    def __rsub__(self, other) -> "HalfInt":
        return HalfInt(HalfInt.of(other).twice - self.twice)

    def __neg__(self) -> "HalfInt":
        return HalfInt(-self.twice)

    def __str__(self) -> str:
        # human rendering: "2" or "3/2"
        return str(self.as_fraction())

    def __repr__(self) -> str:
        return f"HalfInt({self.twice})"


HALF = HalfInt(1)
ZERO = HalfInt(0)


def valid_total_spin(n_qubits: int, s: HalfInt) -> bool:
    """Whether s can be the total spin of n_qubits spin-1/2 systems."""
    return 0 <= s.twice <= n_qubits and (s.twice - n_qubits) % 2 == 0


def valid_z_component(s: HalfInt, m: HalfInt) -> bool:
    """Whether m is an admissible z-projection for total spin s."""
    return abs(m.twice) <= s.twice and (m.twice - s.twice) % 2 == 0
