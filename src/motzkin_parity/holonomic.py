"""Algebraic equations, linear ODEs, and polynomial-coefficient recurrences.

The pipeline implemented here: verify or guess the algebraic equation a
series satisfies, convert a y-degree-2 equation to a first-order linear ODE
by implicit differentiation, homogenize an inhomogeneous ODE at the cost of
one extra order, and extract the coefficient recurrence of an ODE's series
solutions.  Guessers use exact undetermined-coefficient linear algebra with
five held-out guard equations to reject spurious fits, and they return
``None`` when no relation survives.

Conventions, fixed throughout:

* falling factorial ``ff(x, 0) = 1`` and ``ff(x, d) = x(x-1)...(x-d+1)``;
* sequence values ``a(k)`` vanish for ``k < 0``; relations that would reach
  below index 0 are absorbed into the recurrence's ``valid_from`` threshold;
* normalization clears denominators, divides by the integer content, and
  fixes the sign so the designated polynomial (highest entry for equations
  and ODEs, lowest shift for recurrences) has positive leading coefficient.

Every conversion re-verifies its own output before returning and raises
:class:`InternalInconsistency` on mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Optional, Sequence, Union

from .errors import (
    AlreadyHomogeneous,
    DegenerateDiscriminant,
    InsufficientInitialTerms,
    InsufficientTerms,
    InternalInconsistency,
    LeadingCoeffVanishes,
    NotQuadratic,
    OrderTooSmall,
)
from .linalg import nullspace
from .series import Poly, Series, poly_div_exact, poly_gcd

GUARD = 5

SeqValue = Union[int, Fraction]


def _as_values(seq: Sequence[SeqValue]) -> list[Fraction]:
    return [Fraction(v) for v in seq]


def _scaled_to_coprime(
    polys: Sequence[Poly], extras: Sequence[Fraction]
) -> tuple[list[Poly], list[Fraction]]:
    """Jointly rescale by a positive rational so all coefficients become
    coprime integers."""
    coeffs = [c for p in polys for c in p.coeffs] + list(extras)
    nonzero = [c for c in coeffs if c != 0]
    if not nonzero:
        return list(polys), list(extras)
    denom_lcm = lcm(*(c.denominator for c in nonzero))
    num_gcd = 0
    for c in nonzero:
        num_gcd = gcd(num_gcd, abs(c.numerator) * (denom_lcm // c.denominator))
    factor = Fraction(denom_lcm, num_gcd)
    return [p * factor for p in polys], [e * factor for e in extras]


@dataclass(frozen=True, slots=True)
class AlgebraicEq:
    """Polynomial relation sum_j y_coeffs[j](z) * y^j = 0.

    The identically-zero relation is rejected; the leading (highest y-power)
    entry is always nonzero.
    """

    y_coeffs: tuple[Poly, ...]

    def __init__(self, y_coeffs: Sequence[Poly]) -> None:
        cs = tuple(y_coeffs)
        while cs and cs[-1].is_zero:
            cs = cs[:-1]
        if not cs:
            raise ValueError("the zero equation is not a valid relation")
        object.__setattr__(self, "y_coeffs", cs)

    @property
    def degree(self) -> int:
        return len(self.y_coeffs) - 1

    def total_degree(self) -> int:
        return max(
            i + j
            for j, p in enumerate(self.y_coeffs)
            for i, c in enumerate(p.coeffs)
            if c != 0
        )

    def normalized(self) -> AlgebraicEq:
        polys, _ = _scaled_to_coprime(self.y_coeffs, ())
        if polys[-1].leading < 0:
            polys = [-p for p in polys]
        return AlgebraicEq(polys)

    def text(self) -> str:
        parts = []
        for j in range(self.degree, -1, -1):
            p = self.y_coeffs[j]
            if p.is_zero:
                continue
            if j == 0:
                parts.append(f"({p.text('z')})")
            elif j == 1:
                parts.append(f"({p.text('z')})*y")
            else:
                parts.append(f"({p.text('z')})*y^{j}")
        return " + ".join(parts) + " = 0"

    def __str__(self) -> str:
        return self.text()


@dataclass(frozen=True, slots=True)
class LinearODE:
    """Linear ODE sum_d deriv_coeffs[d](z) * y^(d) + inhomog(z) = 0."""

    deriv_coeffs: tuple[Poly, ...]
    inhomog: Poly

    def __init__(self, deriv_coeffs: Sequence[Poly], inhomog: Poly = Poly()) -> None:
        cs = tuple(deriv_coeffs)
        while cs and cs[-1].is_zero:
            cs = cs[:-1]
        if not cs:
            raise ValueError("an ODE must involve y")
        object.__setattr__(self, "deriv_coeffs", cs)
        object.__setattr__(self, "inhomog", inhomog)

    @property
    def order(self) -> int:
        return len(self.deriv_coeffs) - 1

    @property
    def is_homogeneous(self) -> bool:
        return self.inhomog.is_zero

    def normalized(self) -> LinearODE:
        polys, _ = _scaled_to_coprime((*self.deriv_coeffs, self.inhomog), ())
        if polys[-2].leading < 0:
            polys = [-p for p in polys]
        return LinearODE(polys[:-1], polys[-1])

    def text(self) -> str:
        marks = {0: "y", 1: "y'", 2: "y''"}
        parts = []
        for d in range(self.order, -1, -1):
            p = self.deriv_coeffs[d]
            if p.is_zero:
                continue
            mark = marks.get(d, f"y^({d})")
            parts.append(f"({p.text('z')})*{mark}")
        if not self.inhomog.is_zero:
            parts.append(f"({self.inhomog.text('z')})")
        return " + ".join(parts) + " = 0"

    def __str__(self) -> str:
        return self.text()


@dataclass(frozen=True, slots=True)
class PRecurrence:
    """Relation sum_i coeff_polys[i](n) * a(n+i) = rhs(n) for n >= valid_from.

    ``rhs`` lists right-hand-side values by n (missing entries are 0), so an
    empty tuple means a homogeneous recurrence.
    """

    coeff_polys: tuple[Poly, ...]
    rhs: tuple[Fraction, ...]
    valid_from: int

    def __init__(
        self,
        coeff_polys: Sequence[Poly],
        rhs: Sequence[SeqValue] = (),
        valid_from: int = 0,
    ) -> None:
        cs = tuple(coeff_polys)
        while cs and cs[-1].is_zero:
            cs = cs[:-1]
        if not cs:
            raise ValueError("the zero recurrence is not a valid relation")
        if valid_from < 0:
            raise ValueError("valid_from must be nonnegative")
        object.__setattr__(self, "coeff_polys", cs)
        object.__setattr__(self, "rhs", tuple(Fraction(v) for v in rhs))
        object.__setattr__(self, "valid_from", valid_from)

    @property
    def order(self) -> int:
        return len(self.coeff_polys) - 1

    @property
    def is_homogeneous(self) -> bool:
        return all(v == 0 for v in self.rhs)

    def rhs_at(self, n: int) -> Fraction:
        return self.rhs[n] if 0 <= n < len(self.rhs) else Fraction(0)

    def total_degree(self) -> int:
        return max(
            i + d
            for i, p in enumerate(self.coeff_polys)
            for d, c in enumerate(p.coeffs)
            if c != 0
        )

    def normalized(self) -> PRecurrence:
        polys = list(self.coeff_polys)
        rhs = list(self.rhs)
        valid_from = self.valid_from
        shift = 0
        while polys[shift].is_zero:
            shift += 1
        if shift:
            polys = [p.shift_arg(-shift) for p in polys[shift:]]
            rhs = [Fraction(0)] * shift + rhs
            valid_from += shift
        # entries below the validity threshold are never read
        for n in range(min(valid_from, len(rhs))):
            rhs[n] = Fraction(0)
        while rhs and rhs[-1] == 0:
            rhs.pop()
        polys, rhs = _scaled_to_coprime(polys, rhs)
        if polys[0].leading < 0:
            polys = [-p for p in polys]
            rhs = [-v for v in rhs]
        return PRecurrence(polys, rhs, valid_from)

    def text(self) -> str:
        parts = []
        for i, p in enumerate(self.coeff_polys):
            if p.is_zero:
                continue
            arg = "a(n)" if i == 0 else f"a(n+{i})"
            parts.append(f"({p.text('n')})*{arg}")
        rhs = "0" if self.is_homogeneous else f"rhs(n) with rhs={[str(v) for v in self.rhs]}"
        tail = f"  for n >= {self.valid_from}" if self.valid_from else ""
        return " + ".join(parts) + f" = {rhs}{tail}"

    def __str__(self) -> str:
        return self.text()


def _horner(polys: Sequence[Poly], at: Series) -> Series:
    """``sum(polys[j] * at**j)``, to the order of ``at``."""
    total = Series.from_poly(polys[-1], at.order)
    for p in reversed(polys[:-1]):
        total = total * at + Series.from_poly(p, at.order)
    return total


def verify_algebraic(eq: AlgebraicEq, y: Series) -> bool:
    """True iff the equation's residual vanishes modulo z^y.order."""
    return _horner(eq.y_coeffs, y).is_zero


def verify_ode(ode: LinearODE, y: Series) -> bool:
    """True iff the ODE's residual vanishes modulo z^(y.order - ode.order)."""
    if y.order <= ode.order:
        raise OrderTooSmall("the series must exceed the ODE order")
    res_order = y.order - ode.order
    total = Series.from_poly(ode.inhomog, res_order)
    deriv = y
    for d, p in enumerate(ode.deriv_coeffs):
        if d:
            deriv = deriv.derivative()
        if not p.is_zero:
            total = total + Series.from_poly(p, res_order) * deriv.truncate(res_order)
    return total.is_zero


def _rational_sqrt(x: Fraction) -> Optional[Fraction]:
    if x < 0:
        return None
    sn, sd = isqrt(x.numerator), isqrt(x.denominator)
    if sn * sn == x.numerator and sd * sd == x.denominator:
        return Fraction(sn, sd)
    return None


def series_root(eq: AlgebraicEq, order: int) -> Optional[Series]:
    """A power-series solution of the equation, found by Newton lifting.

    Returns None when the constant-term equation has no simple rational
    root (only degrees up to 2 are searched), in which case no lifting
    starting point is available.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    consts = [p(0) for p in eq.y_coeffs]

    candidates: list[Fraction] = []
    if eq.degree == 1:
        if consts[1] != 0:
            candidates.append(-consts[0] / consts[1])
    elif eq.degree == 2:
        a0, b0, c0 = consts[2], consts[1], consts[0]
        if a0 == 0:
            if b0 != 0:
                candidates.append(-c0 / b0)
        else:
            root = _rational_sqrt(b0 * b0 - 4 * a0 * c0)
            if root is not None:
                candidates.extend(
                    ((-b0 + root) / (2 * a0), (-b0 - root) / (2 * a0))
                )

    def is_simple(y0: Fraction) -> bool:
        slope = sum(j * consts[j] * y0 ** (j - 1) for j in range(1, len(consts)))
        return slope != 0

    start = next((y0 for y0 in candidates if is_simple(y0)), None)
    if start is None:
        return None

    dy_polys = [j * p for j, p in enumerate(eq.y_coeffs)][1:]
    y = Series([start])
    while y.order < order:
        new_order = min(2 * y.order, order)
        padded = Series(y.coeffs + (Fraction(0),) * (new_order - y.order))
        residual = _horner(eq.y_coeffs, padded)
        slope = _horner(dy_polys, padded)
        y = padded - residual / slope
    return y


def algeq_to_ode(eq: AlgebraicEq) -> LinearODE:
    """First-order linear ODE satisfied by the roots of a y-degree-2 equation.

    Implicit differentiation gives y' = -P_z / P_y; the inverse of
    P_y = 2ay + b is obtained from (2ay+b)^2 = b^2 - 4ac modulo the
    equation, which makes y' linear in y over the discriminant.  The common
    polynomial factor of the resulting coefficients is divided out so the
    output is primitive up to integer content.
    """
    if eq.degree != 2:
        raise NotQuadratic("conversion needs y-degree exactly 2")
    c, b, a = eq.y_coeffs
    disc = b * b - 4 * a * c
    if disc.is_zero:
        raise DegenerateDiscriminant("discriminant is identically zero")
    da, db, dc = a.derivative(), b.derivative(), c.derivative()
    # a * (P_z * P_y mod P) = u1*y + u0
    u1 = da * b * b - 2 * a * da * c - a * b * db + 2 * a * a * dc
    u0 = da * b * c - 2 * a * db * c + a * b * dc
    q1 = a * disc
    g = poly_gcd(poly_gcd(q1, u1), u0)
    if g.degree > 0:
        q1 = poly_div_exact(q1, g)
        u1 = poly_div_exact(u1, g)
        u0 = poly_div_exact(u0, g)
    ode = LinearODE((u1, q1), u0).normalized()

    witness = series_root(eq, 48)
    if witness is not None and not verify_ode(ode, witness):
        raise InternalInconsistency("derived ODE does not annihilate the equation's root")
    return ode


def _probe_poly(degree: int) -> Poly:
    # generic-looking rational test vector for structural self-checks
    return Poly([Fraction((-1) ** k * (k * k + k + 1), k + 1) for k in range(degree + 1)])


def homogenize_ode(ode: LinearODE) -> LinearODE:
    """Homogeneous ODE one order higher with the same solutions.

    Combines the derivative of the relation with the relation itself:
    rho * (relation)' - rho' * (relation) kills the inhomogeneity rho.  For
    a first-order p1*y' + p0*y + rho = 0 this is
    rho*p1*y'' + (rho*(p1' + p0) - rho'*p1)*y' + (rho*p0' - rho'*p0)*y = 0.
    """
    if ode.is_homogeneous:
        raise AlreadyHomogeneous("the equation has no inhomogeneity to remove")
    rho = ode.inhomog
    drho = rho.derivative()
    ps = ode.deriv_coeffs
    out = []
    for d in range(len(ps) + 1):
        term = Poly()
        if d < len(ps):
            term = term + rho * ps[d].derivative() - drho * ps[d]
        if d >= 1:
            term = term + rho * ps[d - 1]
        out.append(term)

    probe = _probe_poly(len(ps) + 12)
    derivs = [probe]
    for _ in range(len(ps)):
        derivs.append(derivs[-1].derivative())
    relation = rho
    for p, dv in zip(ps, derivs):
        relation = relation + p * dv
    expected = rho * relation.derivative() - drho * relation
    actual = Poly()
    for p, dv in zip(out, derivs):
        actual = actual + p * dv
    if actual != expected:
        raise InternalInconsistency("homogenization failed its structural check")
    return LinearODE(out, Poly()).normalized()


def _falling_factorial(shift: int, d: int) -> Poly:
    """ff(n + shift, d) as a polynomial in n."""
    out = Poly([Fraction(1)])
    for t in range(d):
        out = out * Poly([Fraction(shift - t), Fraction(1)])
    return out


def ode_to_recurrence(ode: LinearODE) -> PRecurrence:
    """Coefficient recurrence of the ODE's power-series solutions.

    Extracting [z^n]: a term q * z^j * y^(d) contributes
    q * ff(n+s, d) * a(n+s) at shift s = d - j, and the inhomogeneity
    contributes finitely many right-hand-side values.  The result is
    reindexed so the lowest shift is a(n); rows that would reach below
    index 0 are dropped, which is recorded in ``valid_from``.
    """
    shifts: dict[int, Poly] = {}
    for d, p in enumerate(ode.deriv_coeffs):
        for j, q in enumerate(p.coeffs):
            if q == 0:
                continue
            s = d - j
            term = _falling_factorial(s, d) * q
            shifts[s] = shifts.get(s, Poly()) + term
    nonzero = sorted(s for s, p in shifts.items() if not p.is_zero)
    if not nonzero:
        raise ValueError("the ODE contributes no coefficient relation")
    s0, s_max = nonzero[0], nonzero[-1]
    polys = [
        shifts.get(s0 + t, Poly()).shift_arg(-s0) for t in range(s_max - s0 + 1)
    ]
    valid_from = max(0, s0)
    rhs = [Fraction(0)] * valid_from
    for m in range(valid_from, s0 + len(ode.inhomog.coeffs)):
        rhs.append(-ode.inhomog.coeff(m - s0))

    span = s_max - s0
    probe = _probe_poly(valid_from + span + 10)
    derivs = [probe]
    for _ in range(ode.order):
        derivs.append(derivs[-1].derivative())
    applied = Poly()
    for p, dv in zip(ode.deriv_coeffs, derivs):
        applied = applied + p * dv
    for m in range(valid_from, valid_from + 8):
        lhs = sum((p(m) * probe.coeff(m + t) for t, p in enumerate(polys)), Fraction(0))
        if lhs != applied.coeff(m - s0):
            raise InternalInconsistency("coefficient extraction failed its structural check")

    return PRecurrence(polys, rhs, valid_from).normalized()


def rec_verify(rec: PRecurrence, seq: Sequence[SeqValue]) -> bool:
    """Check the relation at every index the data covers."""
    values = _as_values(seq)
    r = rec.order
    for n in range(rec.valid_from, len(values) - r):
        total = sum((p(n) * values[n + i] for i, p in enumerate(rec.coeff_polys)), Fraction(0))
        if total != rec.rhs_at(n):
            return False
    return True


def rec_extend(rec: PRecurrence, initial: Sequence[SeqValue], terms: int) -> list[Fraction]:
    """Extend the sequence to ``terms`` values by solving for a(n+order)."""
    values = _as_values(initial)
    r = rec.order
    if len(values) < r:
        raise InsufficientInitialTerms(f"need at least {r} initial values")
    if terms <= len(values):
        return values[:terms]
    if len(values) - r < rec.valid_from:
        raise InsufficientInitialTerms(
            f"need at least {r + rec.valid_from} initial values to reach the valid range"
        )
    lead = rec.coeff_polys[r]
    while len(values) < terms:
        n = len(values) - r
        pivot = lead(n)
        if pivot == 0:
            raise LeadingCoeffVanishes(n)
        acc = rec.rhs_at(n)
        for i in range(r):
            c = rec.coeff_polys[i](n)
            if c != 0:
                acc -= c * values[n + i]
        values.append(acc / pivot)
    return values


def guess_algebraic(
    y: Series, max_deg_y: int, max_deg_z: int
) -> Optional[AlgebraicEq]:
    """Smallest algebraic relation for the series within the degree bounds.

    Solves the undetermined-coefficient system on all but the last five
    coefficient equations, keeps only nullspace vectors that also satisfy
    those guard equations, and re-verifies the winner on the full series.
    Returns None when nothing survives.
    """
    if max_deg_y < 0 or max_deg_z < 0:
        raise ValueError("degree bounds must be nonnegative")
    unknowns = (max_deg_y + 1) * (max_deg_z + 1)
    if y.order < unknowns + GUARD:
        raise InsufficientTerms(
            f"need at least {unknowns + GUARD} series terms, got {y.order}"
        )
    powers = [Series.one(y.order)]
    for _ in range(max_deg_y):
        powers.append(powers[-1] * y)
    rows = []
    for n in range(y.order):
        row = []
        for j in range(max_deg_y + 1):
            cs = powers[j].coeffs
            for i in range(max_deg_z + 1):
                row.append(cs[n - i] if n >= i else Fraction(0))
        rows.append(row)

    def to_eq(vec: list[Fraction]) -> AlgebraicEq:
        width = max_deg_z + 1
        polys = [Poly(vec[j * width : (j + 1) * width]) for j in range(max_deg_y + 1)]
        return AlgebraicEq(polys).normalized()

    best = _guarded_smallest(rows, unknowns, to_eq, lambda e: e.total_degree(),
                             lambda e: tuple(p.coeffs for p in e.y_coeffs))
    if best is None:
        return None
    if not verify_algebraic(best, y):
        raise InternalInconsistency("guessed equation failed re-verification")
    return best


def guess_recurrence(
    seq: Sequence[SeqValue], max_order: int, max_deg: int
) -> Optional[PRecurrence]:
    """Smallest homogeneous recurrence for the data within the bounds.

    Same guard discipline as :func:`guess_algebraic`.
    """
    if max_order < 0 or max_deg < 0:
        raise ValueError("order and degree bounds must be nonnegative")
    values = _as_values(seq)
    unknowns = (max_order + 1) * (max_deg + 1)
    if len(values) < unknowns + max_order + GUARD:
        raise InsufficientTerms(
            f"need at least {unknowns + max_order + GUARD} terms, got {len(values)}"
        )
    rows = []
    for n in range(len(values) - max_order):
        row = []
        for i in range(max_order + 1):
            v = values[n + i]
            entry = v
            for d in range(max_deg + 1):
                row.append(entry)
                entry = entry * n
        rows.append(row)

    def to_rec(vec: list[Fraction]) -> PRecurrence:
        width = max_deg + 1
        polys = [Poly(vec[i * width : (i + 1) * width]) for i in range(max_order + 1)]
        return PRecurrence(polys, (), 0).normalized()

    best = _guarded_smallest(rows, unknowns, to_rec, lambda r: r.total_degree(),
                             lambda r: tuple(p.coeffs for p in r.coeff_polys))
    if best is None:
        return None
    if not rec_verify(best, values):
        raise InternalInconsistency("guessed recurrence failed re-verification")
    return best


def _guarded_smallest(rows, unknowns, build, degree_key, tiebreak_key):
    solve_rows = rows[:-GUARD]
    guard_rows = rows[-GUARD:]
    basis = nullspace(solve_rows, unknowns)
    survivors = []
    for vec in basis:
        if all(sum(g * x for g, x in zip(row, vec)) == 0 for row in guard_rows):
            survivors.append(build(vec))
    if not survivors:
        return None
    return min(survivors, key=lambda obj: (degree_key(obj), tiebreak_key(obj)))
