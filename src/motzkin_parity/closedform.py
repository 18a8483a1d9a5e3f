"""Pole-free evaluation of the kernel-method closed forms as exact series.

For a step model with E level-step variants on even heights and O on odd
heights, everything below is built from three polynomials

    P        = (1 - E z)(1 - O z)
    quad     = P - 4 z^2
    boundary = 1 - E z

and from

    sqrt_disc = sqrt(P * quad)
    root      = (P + sqrt_disc) / 2 - z^2

``root`` carries the admissible solution of the kernel equation with the
1/z^2 pole already cleared, so every object below is an ordinary power
series and every division is by a unit.  The load-bearing identity is

    (root + z^2)^2 = P * root

which follows from squaring ``2*(root + z^2) = P + sqrt_disc``.  The series
of paths returning to height 0 is

    P / (boundary * (root + z^2)).

Only the even-level series see ``boundary``.  The odd-level series
z^(2k+1) / root^(k+1) depend on the model through P alone, which is
symmetric in E and O, so swapping the level-step counts of even and odd
heights leaves every odd level unchanged.  Model A (E, O) = (1, 2) and
model B (2, 1) are one such pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .paths import StepModel
from .series import Poly, Series

_Z2 = Poly([0, 0, 1])


@dataclass(frozen=True, slots=True)
class KernelContext:
    """Shared series data for closed-form evaluation of one model at a
    fixed order."""

    order: int
    p: Poly
    quad: Poly
    boundary: Poly
    sqrt_disc: Series
    root: Series


def kernel_context(model: StepModel, order: int) -> KernelContext:
    if order < 1:
        raise ValueError("order must be at least 1")
    p = Poly([1, -model.even_loops]) * Poly([1, -model.odd_loops])
    quad = p - _Z2 * 4
    sqrt_disc = Series.from_poly(p * quad, order).sqrt()
    root = (Series.from_poly(p - _Z2 * 2, order) + sqrt_disc) * Fraction(1, 2)
    boundary = Poly([1, -model.even_loops])
    return KernelContext(order, p, quad, boundary, sqrt_disc, root)


def _root_plus_z2(ctx: KernelContext) -> Series:
    return ctx.root + Series.from_poly(_Z2, ctx.order)


def f0_series(model: StepModel, order: int) -> Series:
    """Series of weighted paths returning to height 0.

    Evaluates P / (boundary * (root + z^2)), which equals
    (1 - O z) / (root + z^2) because boundary divides P.
    """
    ctx = kernel_context(model, order)
    numer = Series.from_poly(ctx.p, order)
    return numer / (Series.from_poly(ctx.boundary, order) * _root_plus_z2(ctx))


def even_level_series(model: StepModel, k: int, order: int) -> Series:
    """Series of paths ending at height 2k:
    z^(2k) * (root + z^2) / (boundary * root^(k+1))."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    ctx = kernel_context(model, order)
    numer = _root_plus_z2(ctx).shift_up(2 * k)
    return numer / (Series.from_poly(ctx.boundary, order) * ctx.root ** (k + 1))


def odd_level_series(model: StepModel, k: int, order: int) -> Series:
    """Series of paths ending at height 2k+1: z^(2k+1) / root^(k+1).

    Unchanged when the model's even and odd level-step counts are swapped.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    ctx = kernel_context(model, order)
    return Series.one(order).shift_up(2 * k + 1) / ctx.root ** (k + 1)


def open_series(model: StepModel, order: int) -> Series:
    """Series of paths ending at any height.

    Sums the even- and odd-level families in closed form:

        sqrt_disc / (boundary * quad)  +  (sqrt_disc - quad) / (2z * quad)

    The numerator of the second part has zero constant and z^1
    coefficients, so the division by z is exact; the context is built one
    order higher to absorb the shift.
    """
    ctx = kernel_context(model, order + 1)
    quad_wide = Series.from_poly(ctx.quad, order + 1)
    even_part = ctx.sqrt_disc / (Series.from_poly(ctx.boundary, order + 1) * quad_wide)
    odd_part = (ctx.sqrt_disc - quad_wide).shift_down(1) / (
        Series.from_poly(ctx.quad, order) * 2
    )
    return even_part.truncate(order) + odd_part
