"""Exact truncated power series and dense polynomials over the rationals.

Coefficients are `fractions.Fraction` values, so everything stays in lowest
terms by construction and never overflows.  A :class:`Series` of order N is a
power series known modulo z^N; binary operations truncate to the smaller
operand's order, which keeps precision loss explicit.  All values are
immutable and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from .errors import DivisorNotUnit, IndexBeyondOrder, NotUnitSquare, OrderTooSmall

Scalar = Union[int, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)
_HALF = Fraction(1, 2)


def _as_rat(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


@dataclass(frozen=True, slots=True)
class Poly:
    """Dense univariate polynomial; ``coeffs[k]`` multiplies the k-th power.

    Trailing zero coefficients are trimmed on construction, so the zero
    polynomial has empty ``coeffs`` and degree -1.
    """

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[Scalar] = ()) -> None:
        cs = tuple(_as_rat(c) for c in coeffs)
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else _ZERO

    def __add__(self, other: Poly) -> Poly:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return Poly([a[k] + b[k] if k < len(b) else a[k] for k in range(len(a))])

    def __sub__(self, other: Poly) -> Poly:
        return self + (-other)

    def __neg__(self) -> Poly:
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other: Union[Poly, Scalar]) -> Poly:
        if isinstance(other, (int, Fraction)):
            r = _as_rat(other)
            return Poly([c * r for c in self.coeffs])
        if self.is_zero or other.is_zero:
            return Poly()
        out = [_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b != 0:
                    out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> Poly:
        if exponent < 0:
            raise ValueError("negative polynomial power")
        out = Poly([_ONE])
        for _ in range(exponent):
            out = out * self
        return out

    def __call__(self, x: Scalar) -> Fraction:
        value = _ZERO
        for c in reversed(self.coeffs):
            value = value * _as_rat(x) + c
        return value

    def derivative(self) -> Poly:
        return Poly([k * c for k, c in enumerate(self.coeffs)][1:])

    def shift_arg(self, delta: Scalar) -> Poly:
        """The polynomial x -> p(x + delta)."""
        shift = Poly([_as_rat(delta), _ONE])
        out = Poly()
        for c in reversed(self.coeffs):
            out = out * shift + Poly([c])
        return out

    def text(self, var: str = "z") -> str:
        """Human-readable rendering, highest power first."""
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            mag = abs(c)
            body = str(mag) if mag.denominator == 1 else f"({mag})"
            if k == 0:
                term = body
            else:
                power = var if k == 1 else f"{var}^{k}"
                term = power if mag == 1 else f"{body}*{power}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.text()


def poly_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Euclidean division over the rationals."""
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a.coeffs)
    quo = [_ZERO] * max(len(rem) - len(b.coeffs) + 1, 0)
    inv_lead = 1 / b.leading
    for k in range(len(quo) - 1, -1, -1):
        factor = rem[k + b.degree] * inv_lead
        if factor == 0:
            continue
        quo[k] = factor
        for j, c in enumerate(b.coeffs):
            rem[k + j] -= factor * c
    return Poly(quo), Poly(rem)


def poly_div_exact(a: Poly, b: Poly) -> Poly:
    quo, rem = poly_divmod(a, b)
    if not rem.is_zero:
        raise ValueError("polynomial division is not exact")
    return quo


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor over the rationals."""
    while not b.is_zero:
        a, b = b, poly_divmod(a, b)[1]
    if a.is_zero:
        return a
    return a * (1 / a.leading)


@dataclass(frozen=True, slots=True)
class Series:
    """Power series known modulo z^order, with ``order == len(coeffs) >= 1``."""

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[Scalar]) -> None:
        cs = tuple(_as_rat(c) for c in coeffs)
        if not cs:
            raise ValueError("a series must carry at least one coefficient")
        object.__setattr__(self, "coeffs", cs)

    @property
    def order(self) -> int:
        return len(self.coeffs)

    @classmethod
    def from_poly(cls, p: Poly, order: int) -> Series:
        if order < 1:
            raise ValueError("series order must be at least 1")
        cs = list(p.coeffs[:order])
        cs += [_ZERO] * (order - len(cs))
        return cls(cs)

    @classmethod
    def zero(cls, order: int) -> Series:
        return cls.from_poly(Poly(), order)

    @classmethod
    def one(cls, order: int) -> Series:
        return cls.from_poly(Poly([_ONE]), order)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def coeff(self, n: int) -> Fraction:
        if not 0 <= n < self.order:
            raise IndexBeyondOrder(f"coefficient {n} of a series of order {self.order}")
        return self.coeffs[n]

    def truncate(self, order: int) -> Series:
        if not 1 <= order <= self.order:
            raise ValueError("can only truncate to an order between 1 and the current order")
        return Series(self.coeffs[:order])

    def __add__(self, other: Series) -> Series:
        n = min(self.order, other.order)
        return Series([self.coeffs[k] + other.coeffs[k] for k in range(n)])

    def __sub__(self, other: Series) -> Series:
        n = min(self.order, other.order)
        return Series([self.coeffs[k] - other.coeffs[k] for k in range(n)])

    def __neg__(self) -> Series:
        return Series([-c for c in self.coeffs])

    def __mul__(self, other: Union[Series, Scalar]) -> Series:
        if isinstance(other, (int, Fraction)):
            r = _as_rat(other)
            return Series([c * r for c in self.coeffs])
        n = min(self.order, other.order)
        out = [_ZERO] * n
        for i in range(n):
            a = self.coeffs[i]
            if a == 0:
                continue
            for j in range(n - i):
                b = other.coeffs[j]
                if b != 0:
                    out[i + j] += a * b
        return Series(out)

    __rmul__ = __mul__

    def __truediv__(self, other: Union[Series, Scalar]) -> Series:
        if isinstance(other, (int, Fraction)):
            return self * (1 / _as_rat(other))
        if other.coeffs[0] == 0:
            raise DivisorNotUnit("division needs a divisor with nonzero constant term")
        n = min(self.order, other.order)
        inv0 = 1 / other.coeffs[0]
        out: list[Fraction] = []
        for k in range(n):
            acc = self.coeffs[k]
            for j in range(1, k + 1):
                b = other.coeffs[j]
                if b != 0:
                    acc -= out[k - j] * b
            out.append(acc * inv0)
        return Series(out)

    def sqrt(self) -> Series:
        """Square root, by the coefficient recurrence
        y_n = (a_n - sum_{k=1}^{n-1} y_k y_{n-k}) / 2 with y_0 = 1."""
        if self.coeffs[0] != 1:
            raise NotUnitSquare("square root needs constant term exactly 1")
        out = [_ONE] + [_ZERO] * (self.order - 1)
        for n in range(1, self.order):
            acc = self.coeffs[n]
            for k in range(1, n):
                if out[k] != 0 and out[n - k] != 0:
                    acc -= out[k] * out[n - k]
            out[n] = acc * _HALF
        return Series(out)

    def derivative(self) -> Series:
        if self.order < 2:
            raise OrderTooSmall("differentiation needs order at least 2")
        return Series([(k + 1) * c for k, c in enumerate(self.coeffs[1:])])

    def __str__(self) -> str:
        shown = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if self.order > 8 else ""
        return f"Series([{shown}{tail}] mod z^{self.order})"
