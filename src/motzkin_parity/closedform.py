"""Kernel-method closed forms, evaluated in integer arithmetic.

For a step model with E level-step variants on even heights and O on odd
heights, everything below is built from the polynomials

    P        = (1 - E z)(1 - O z)
    quad     = P - 4 z^2
    boundary = 1 - E z
    D        = P * quad

and from s = sqrt(D).  Every closed form of the kernel method is
R1(z) + R2(z) * s with R1 and R2 rational in z, and all of them have integer
coefficients, so everything here is computed with ``int`` alone.

s needs no square root.  It is algebraic, hence D-finite: differentiating
s^2 = D gives the first-order ODE 2 D s' = D' s, whose coefficients give

    s_0 = 1,   2n s_n = sum_{j=1..4} (3j - 2n) d_j s_{n-j},

an exact integer division, so N terms of s cost O(N) integer operations.

The admissible root of the kernel, with its 1/z^2 pole cleared, is
root = (x + s) / 2 with x = P - 2 z^2.  Its conjugate conj = (x - s) / 2
satisfies

    root * conj = (x^2 - D) / 4 = z^4,

so 1/root^(k+1) = conj^(k+1) / z^(4k+4), and conj^(k+1) = (a + b s) / 2^(k+1)
with a, b integer polynomials, built by k+1 steps of

    (a + b s)(x - s) = (a x - b D) + (b x - a) s.

Hence, since root + z^2 = (P + s) / 2 and (P + s)(P - s) = 4 z^2 P,

    level 2k+1 = z^(2k+1) / root^(k+1)             = conj^(k+1) / z^(2k+3)
    level 2k   = z^(2k) (root + z^2) / (boundary root^(k+1))
               = (P + s) conj^(k+1) / (2 z^(2k+4) boundary)
    f0         = P / (boundary (root + z^2))       = (P - s) / (2 z^2 boundary)
    open       = s / (boundary quad) + (s - quad) / (2 z quad)

Every division by a power of 2 or of z is exact, and is checked.  boundary
and quad have constant term 1, so dividing by them is a short integer
recurrence.  A level-2k or level-2k+1 series to N terms thus costs O(k N)
integer operations.

Only the even-level series see ``boundary``.  The odd-level series depend
on the model through P alone, which is symmetric in E and O, so swapping the
level-step counts of even and odd heights leaves every odd level unchanged.
Model A (E, O) = (1, 2) and model B (2, 1) are one such pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import InternalInconsistency
from .paths import StepModel
from .series import Series

#: An integer polynomial or truncated series, lowest power first.
IntPoly = tuple[int, ...]


@dataclass(frozen=True, slots=True)
class KernelContext:
    """The kernel polynomials of one model, and s = sqrt(D) to ``order``
    terms, all as integer tuples."""

    order: int
    p: IntPoly
    quad: IntPoly
    boundary: IntPoly
    disc: IntPoly
    s: IntPoly


def _mul(f: Sequence[int], g: Sequence[int]) -> IntPoly:
    out = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return tuple(out)


def _add(f: Sequence[int], g: Sequence[int], sign: int = 1) -> IntPoly:
    """f + sign * g."""
    n = max(len(f), len(g))
    return tuple((f[i] if i < len(f) else 0) + sign * (g[i] if i < len(g) else 0)
                 for i in range(n))


def kernel_context(model: StepModel, order: int) -> KernelContext:
    """P, quad, boundary and D of ``model``, and s to ``order`` terms from
    the recurrence of 2 D s' = D' s."""
    if order < 1:
        raise ValueError("order must be at least 1")
    boundary = (1, -model.even_loops)
    p = _mul(boundary, (1, -model.odd_loops))
    quad = _add(p, (0, 0, 4), -1)
    disc = _mul(p, quad)
    s = [1]
    for n in range(1, order):
        acc = sum((3 * j - 2 * n) * disc[j] * s[n - j] for j in range(1, min(n, 4) + 1))
        value, rest = divmod(acc, 2 * n)
        if rest:
            raise InternalInconsistency(f"s_{n} of sqrt(P*quad) is not an integer")
        s.append(value)
    return KernelContext(order, p, quad, boundary, disc, tuple(s))


def _conj_power(ctx: KernelContext, m: int) -> tuple[IntPoly, IntPoly]:
    """Integer polynomials a, b with conj^m = (a + b s) / 2^m."""
    x = _add(ctx.p, (0, 0, 2), -1)
    a: IntPoly = (1,)
    b: IntPoly = ()
    for _ in range(m):
        a, b = _add(_mul(a, x), _mul(b, ctx.disc), -1), _add(_mul(b, x), a, -1)
    return a, b


def _expand(ctx: KernelContext, a: Sequence[int], b: Sequence[int], halves: int,
            shift: int, divisors: Sequence[IntPoly], terms: int) -> list[int]:
    """The first ``terms`` coefficients of
    (a + b s) / (2^halves * z^shift * product of divisors),
    where every divisor has constant term 1."""
    s = ctx.s
    values = []
    for n in range(shift + terms):
        acc = a[n] if n < len(a) else 0
        for j in range(min(n + 1, len(b))):
            acc += b[j] * s[n - j]
        values.append(acc)
    mask = (1 << halves) - 1
    if any(values[:shift]) or any(v & mask for v in values):
        raise InternalInconsistency(f"not divisible by 2^{halves} z^{shift}")
    out = [v >> halves for v in values[shift:]]
    for divisor in divisors:
        for n in range(1, terms):
            out[n] -= sum(divisor[j] * out[n - j]
                          for j in range(1, min(n, len(divisor) - 1) + 1))
    return out


def f0_series(model: StepModel, order: int) -> Series:
    """Series of weighted paths returning to height 0:
    P / (boundary * (root + z^2)) = (P - s) / (2 z^2 boundary)."""
    ctx = kernel_context(model, order + 2)
    return Series(_expand(ctx, ctx.p, (-1,), 1, 2, (ctx.boundary,), order))


def even_level_series(model: StepModel, k: int, order: int) -> Series:
    """Series of paths ending at height 2k:
    z^(2k) * (root + z^2) / (boundary * root^(k+1))
    = (P + s) conj^(k+1) / (2 z^(2k+4) boundary)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if 2 * k >= order:  # no path shorter than 2k reaches height 2k
        return Series([0] * order)
    ctx = kernel_context(model, order + 2 * k + 4)
    a, b = _conj_power(ctx, k + 1)
    # (P + s)(a + b s) = (P a + b D) + (P b + a) s
    a, b = _add(_mul(ctx.p, a), _mul(b, ctx.disc)), _add(_mul(ctx.p, b), a)
    return Series(_expand(ctx, a, b, k + 2, 2 * k + 4, (ctx.boundary,), order))


def odd_level_series(model: StepModel, k: int, order: int) -> Series:
    """Series of paths ending at height 2k+1:
    z^(2k+1) / root^(k+1) = conj^(k+1) / z^(2k+3).

    Unchanged when the model's even and odd level-step counts are swapped.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if 2 * k + 1 >= order:  # no path shorter than 2k+1 reaches height 2k+1
        return Series([0] * order)
    ctx = kernel_context(model, order + 2 * k + 3)
    a, b = _conj_power(ctx, k + 1)
    return Series(_expand(ctx, a, b, k + 1, 2 * k + 3, (), order))


def open_series(model: StepModel, order: int) -> Series:
    """Series of paths ending at any height.

    Sums the even- and odd-level families in closed form:

        s / (boundary * quad)  +  (s - quad) / (2z * quad)
    """
    ctx = kernel_context(model, order + 1)
    even = _expand(ctx, (), (1,), 0, 0, (ctx.boundary, ctx.quad), order)
    odd = _expand(ctx, _add((), ctx.quad, -1), (1,), 1, 1, (ctx.quad,), order)
    return Series([e + o for e, o in zip(even, odd)])
