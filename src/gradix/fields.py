"""Exact scalar arithmetic over prime fields F_p and the rationals Q.

Scalars are plain Python values: residues in ``range(p)`` for F_p and
``fractions.Fraction`` for Q.  Vectors and matrices are then ordinary
tuples of those, which keeps every computation exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral
from typing import Union

from .errors import ValidationError

Scalar = Union[int, Fraction]


# Miller-Rabin on the 13 prime bases up to 41 is exact below PSI_13, the
# least strong pseudoprime to all of them (Sorenson & Webster 2017)
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PSI_13 = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Exact for n < PSI_13; `FieldSpec` refuses larger n.  A base that
    divides n never passes the strong test, so no trial division is needed."""
    if n < 2 or n in MR_BASES:
        return n in MR_BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    return all(pow(b, d, n) == 1 or
               any(pow(b, d << r, n) == n - 1 for r in range(s))
               for b in MR_BASES)


@dataclass(frozen=True)
class FieldSpec:
    """F_p for prime p, or Q when ``p`` is None."""

    p: int | None = None

    def __post_init__(self) -> None:
        if self.p is not None and self.p >= PSI_13:
            raise ValidationError(f"p must be below {PSI_13}: {self.p!r}")
        if self.p is not None and not _is_prime(self.p):
            raise ValidationError(f"p not prime: {self.p!r}")

    @property
    def is_finite(self) -> bool:
        return self.p is not None

    @property
    def zero(self) -> Scalar:
        return Fraction(0) if self.p is None else 0

    @property
    def one(self) -> Scalar:
        return Fraction(1) if self.p is None else 1

    def coerce(self, x) -> Scalar:
        """Normalize an int, Fraction, or scalar string into this field.
        Anything else, floats and booleans included, is refused: a float
        is inexact, and truncating it would give a silent wrong answer."""
        if isinstance(x, str):
            return self.parse(x)
        if isinstance(x, bool) or not isinstance(x, (int, Fraction, Integral)):
            raise ValidationError(f"bad scalar {x!r}: expected an integer, "
                                  "a fraction or a decimal string")
        if self.p is None:
            return Fraction(x)
        if isinstance(x, Fraction):
            if x.denominator == 1:
                return x.numerator % self.p
            return self.div(x.numerator % self.p, x.denominator % self.p)
        return int(x) % self.p

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        return (a + b) % self.p if self.p is not None else a + b

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        return (a - b) % self.p if self.p is not None else a - b

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        return (a * b) % self.p if self.p is not None else a * b

    def neg(self, a: Scalar) -> Scalar:
        return (-a) % self.p if self.p is not None else -a

    def inv(self, a: Scalar) -> Scalar:
        if not a:
            raise ZeroDivisionError("inverse of zero")
        if self.p is None:
            return 1 / Fraction(a)
        return pow(a, self.p - 2, self.p)

    def div(self, a: Scalar, b: Scalar) -> Scalar:
        return self.mul(a, self.inv(b))

    def parse(self, text: str) -> Scalar:
        """Parse "2" or "-1/3" style scalar strings."""
        text = text.strip()
        try:
            if "/" in text:
                num, den = text.split("/", 1)
                return self.div(self.coerce(int(num)), self.coerce(int(den)))
            return self.coerce(int(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"bad scalar {text!r}: {exc}") from None

    def format(self, x: Scalar) -> str:
        return str(x)

    def __repr__(self) -> str:
        return "Q" if self.p is None else f"F{self.p}"


def prime_field(p: int) -> FieldSpec:
    return FieldSpec(p)


def rationals() -> FieldSpec:
    return FieldSpec(None)
