"""Parity-weighted Motzkin step models and the exact path-count table.

A path takes up steps (1,1), down steps (1,-1) and level steps (1,0), never
dips below height 0, and may end anywhere.  A level step taken at height h
can be any of ``weight(h)`` distinguishable variants, where the weight
depends only on the parity of h.  Counting is done with integer weights
rather than by materializing labelled paths, which keeps memory polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .series import Series


@dataclass(frozen=True, slots=True)
class StepModel:
    """Number of distinguishable level-step variants at even and odd heights."""

    even_loops: int
    odd_loops: int

    def __post_init__(self) -> None:
        if self.even_loops < 0 or self.odd_loops < 0:
            raise ValueError("loop multiplicities must be nonnegative")

    def weight(self, height: int) -> int:
        return self.even_loops if height % 2 == 0 else self.odd_loops


#: Two level-step variants on odd heights, one on even heights.
MODEL_A = StepModel(1, 2)
#: Two level-step variants on even heights, one on odd heights.
MODEL_B = StepModel(2, 1)


@dataclass(frozen=True, slots=True)
class CountTable:
    """``counts[n][h]``: weighted paths of length n from height 0 to height h,
    for h = 0..n (no path of length n climbs above height n)."""

    model: StepModel
    length: int
    counts: tuple[tuple[int, ...], ...]

    def count(self, n: int, height: int) -> int:
        if not 0 <= n <= self.length:
            raise IndexError(f"length {n} outside table range 0..{self.length}")
        row = self.counts[n]
        return row[height] if 0 <= height < len(row) else 0


def _rows(model: StepModel, length: int) -> Iterator[list[int]]:
    """Rows ``c(n, 0..n)`` of the count table for n = 0..length, one at a time.

    Uses ``c(n+1,h) = c(n,h-1) + weight(h)*c(n,h) + c(n,h+1)`` with
    ``c(n,-1) = 0``; row n has n+1 entries because no path of length n
    climbs above height n.
    """
    if length < 0:
        raise ValueError("length must be nonnegative")
    weights = [model.weight(h) for h in range(length)]
    row = [1]
    yield row
    for _ in range(length):
        stay = [w * c for w, c in zip(weights, row)] + [0]
        row = [a + b + c for a, b, c in zip([0] + row, stay, row[1:] + [0, 0])]
        yield row


def dp_table(model: StepModel, length: int) -> CountTable:
    """Exact count table for all path lengths up to ``length``."""
    counts = tuple(tuple(row) for row in _rows(model, length))
    return CountTable(model, length, counts)


def level_series(model: StepModel, level: int, terms: int) -> Series:
    """Generating series of paths ending at ``level``, to ``terms`` coefficients."""
    if terms < 1:
        raise ValueError("terms must be at least 1")
    if level < 0:
        raise ValueError("level must be nonnegative")
    return Series([row[level] if level < len(row) else 0
                   for row in _rows(model, terms - 1)])


def open_series_dp(model: StepModel, terms: int) -> Series:
    """Generating series of paths ending at any height (row sums of the table)."""
    if terms < 1:
        raise ValueError("terms must be at least 1")
    return Series([sum(row) for row in _rows(model, terms - 1)])
