"""Seeded job lists for the four benchmark workloads.

A workload runs as a sequence of rounds.  One round is the workload's whole
job list: every kind of job the workload is made of, once or a fixed number
of times.  The seed chooses the model, the weights, the level, the job order
and the exact sizes; the round template fixes which kinds a round holds and
which slice of each size range each job draws from.  Slot ``i`` of round
``r`` draws from slice ``i + r`` (modulo the number of slices, sometimes with
a stride), so each round covers its size ranges evenly and every run,
whatever its seed, has the same mix of cheap and costly jobs.  Without that the medians of short runs
move with the seed by more than the bounds in ``BENCHMARK.json``.

Each job carries the argv the CLI receives and a spec the oracle checks the
output against.  The program sees only the argv.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import count
from typing import Iterator

WORKLOADS = ("expand", "table", "guess", "check")

MODEL_WEIGHTS = {"A": (1, 2), "B": (2, 1)}

#: Size ranges, inclusive.  ``TINY`` keeps the same shapes at sizes small
#: enough for the benchmark's own tests.
SIZES = {
    "expand": {"terms": (200, 400)},
    "table": {"terms": (800, 1200), "weight": (0, 5), "level": (0, 12)},
    "guess": {
        "rec_terms": (160, 250), "rec_order": (8, 12), "rec_degree": (4, 6),
        "alg_terms": (120, 200), "alg_ydeg": (2, 3), "alg_zdeg": (6, 8),
        "derive_terms": (40, 120), "weight": (0, 5),
    },
    "check": {"terms": (40, 80)},
}
TINY = {
    "expand": {"terms": (12, 40)},
    "table": {"terms": (8, 30), "weight": (0, 5), "level": (0, 6)},
    "guess": {
        "rec_terms": (30, 40), "rec_order": (4, 5), "rec_degree": (1, 2),
        "alg_terms": (20, 30), "alg_ydeg": (2, 2), "alg_zdeg": (3, 3),
        "derive_terms": (20, 30), "weight": (0, 5),
    },
    "check": {"terms": (18, 22)},
}

#: Rounds the end-to-end metrics cover: 2 of ``expand``, 4 of ``table`` and
#: ``check`` (24 jobs each), 5 of ``guess`` (40 jobs).  Enough for 10 samples
#: beyond the tail percentile, few enough that a run stays under about 40
#: seconds on a 2-core machine.  On ``table`` and ``check`` the tail
#: percentile then falls in the middle of one size slice rather than between
#: two, where the jump between the slices' costs made it swing with the host's
#: speed.
MIN_ROUNDS = {"expand": 2, "table": 4, "guess": 5, "check": 4}

#: The live defect of ROADMAP item 4: both jobs exit 1 at the seed commit.
DERIVE_17 = ("derive", "--terms", "17")
PIPELINE_17 = ("check", "--what", "pipeline", "--terms", "17")


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    #: What the oracle checks: ``("sequence", E, O, level or None, terms)``,
    #: ``("rec" | "algeq" | "derive", E, O, terms)`` or ``("check",)``.
    spec: tuple


_GOLDEN = 0.6180339887498949


class _Strata:
    """An inclusive range cut into equal slices.

    Each slice hands out its values along a golden-ratio walk from a seeded
    start, so the values a run draws from one slice spread evenly over it
    however few there are, and none repeats before the slice is used up.
    """

    def __init__(self, rng: random.Random, span: tuple[int, int], slices: int) -> None:
        lo, hi = span
        width = (hi - lo + 1) / slices
        self._slices = []
        for s in range(slices):
            first = lo + int(s * width)
            last = max(first, lo + int((s + 1) * width) - 1)
            self._slices.append((list(range(first, last + 1)), rng.random(), set()))

    def take(self, index: int) -> int:
        values, start, used = self._slices[index % len(self._slices)]
        if len(used) == len(values):
            used.clear()
        pos = int(len(values) * ((start + len(used) * _GOLDEN) % 1.0))
        while pos in used:
            pos = (pos + 1) % len(values)
        used.add(pos)
        return values[pos]


class _WeightPool:
    """All (E, O) pairs but ``exclude`` in seeded order, drawn without
    replacement, so a run covers the weight range evenly."""

    def __init__(self, rng: random.Random, span: tuple[int, int], exclude=()) -> None:
        lo, hi = span
        self._rng = rng
        self._pairs = [(e, o) for e in range(lo, hi + 1) for o in range(lo, hi + 1)
                       if (e, o) not in exclude]
        self._queue: list[tuple[int, int]] = []

    def next(self) -> tuple[int, int]:
        if not self._queue:
            self._queue = self._pairs[:]
            self._rng.shuffle(self._queue)
        return self._queue.pop()


def _expand(rng: random.Random, sizes: dict) -> Iterator[list[Job]]:
    kinds = [("f0", 0)] + [(w, k) for w in ("even", "odd") for k in range(5)] + [("open", 0)]
    # Jobs are drawn by kernel order (open builds its context at terms + 1),
    # and no order repeats within a slice, so no two jobs of a run build a
    # context at the same order and a cache of contexts has nothing to reuse.
    lo, hi = sizes["terms"]
    orders = _Strata(rng, (lo + 1, hi), len(kinds))
    for r in count():
        jobs = []
        for i, (what, k) in enumerate(kinds):
            order = orders.take(5 * (i + r))
            model = rng.choice("AB")
            even, odd = MODEL_WEIGHTS[model]
            if what == "open":
                terms = order - 1
                argv = ("open", "--model", model, "--terms", str(terms), "--format", "bfile")
                spec = ("sequence", even, odd, None, terms)
            else:
                terms = order
                argv = ("series", "--what", what)
                if what != "f0":
                    argv += ("--k", str(k))
                argv += ("--model", model, "--terms", str(terms), "--format", "bfile")
                level = 0 if what == "f0" else 2 * k + (what == "odd")
                spec = ("sequence", even, odd, level, terms)
            jobs.append(Job(argv, spec))
        rng.shuffle(jobs)
        yield jobs


def _table(rng: random.Random, sizes: dict) -> Iterator[list[Job]]:
    kinds = ("dp", "dp", "dp", "dp", "open", "open")
    lengths = _Strata(rng, sizes["terms"], len(kinds))
    # The CLI takes weights equal to model A's or B's as that model, and
    # `open` then uses its closed form; leaving those pairs out keeps every
    # job on the table.
    weights = _WeightPool(rng, sizes["weight"], exclude=set(MODEL_WEIGHTS.values()))
    for r in count():
        jobs = []
        for i, kind in enumerate(kinds):
            terms = lengths.take(i + r)
            even, odd = weights.next()
            model = ("--model", "general", "--weights", f"{even},{odd}")
            if kind == "dp":
                level = rng.randint(*sizes["level"])
                argv = ("dp", *model, "--level", str(level), "--terms", str(terms))
                spec = ("sequence", even, odd, level, terms)
            else:
                argv = ("open", *model, "--terms", str(terms))
                spec = ("sequence", even, odd, None, terms)
            jobs.append(Job(argv + ("--format", "bfile"), spec))
        rng.shuffle(jobs)
        yield jobs


def _guess(rng: random.Random, sizes: dict) -> Iterator[list[Job]]:
    weights = _WeightPool(rng, sizes["weight"])
    strata = {key: _Strata(rng, sizes[key], n) for key, n in (
        ("rec_order", 3), ("rec_degree", 3), ("rec_terms", 3),
        ("alg_ydeg", 2), ("alg_zdeg", 2), ("alg_terms", 2), ("derive_terms", 2))}
    for r in count():
        jobs = []
        for i in range(3):
            order = strata["rec_order"].take(i + r)
            degree = strata["rec_degree"].take(i + 2 * r)
            terms = strata["rec_terms"].take(i)
            even, odd = weights.next()
            argv = ("guess", "--kind", "rec", "--model", "general", "--weights",
                    f"{even},{odd}", "--terms", str(terms), "--order", str(order),
                    "--degree", str(degree))
            jobs.append(Job(argv, ("rec", even, odd, terms)))
        for i in range(2):
            ydeg = strata["alg_ydeg"].take(i + r)
            zdeg = strata["alg_zdeg"].take(i)
            terms = strata["alg_terms"].take(i + r)
            even, odd = weights.next()
            argv = ("guess", "--kind", "algeq", "--model", "general", "--weights",
                    f"{even},{odd}", "--terms", str(terms), "--ydeg", str(ydeg),
                    "--zdeg", str(zdeg))
            jobs.append(Job(argv, ("algeq", even, odd, terms)))
        for i in range(2):
            model = rng.choice("AB")
            terms = strata["derive_terms"].take(i + r)
            argv = ("derive", "--model", model, "--terms", str(terms))
            jobs.append(Job(argv, ("derive", *MODEL_WEIGHTS[model], terms)))
        jobs.append(Job(DERIVE_17, ("derive", *MODEL_WEIGHTS["A"], 17)))
        rng.shuffle(jobs)
        yield jobs


def _check(rng: random.Random, sizes: dict) -> Iterator[list[Job]]:
    lengths = _Strata(rng, sizes["terms"], 5)
    for r in count():
        jobs = [Job(("check", "--what", "all", "--terms", str(lengths.take(i + r))), ("check",))
                for i in range(5)]
        jobs.append(Job(PIPELINE_17, ("check",)))
        rng.shuffle(jobs)
        yield jobs


_MAKERS = {"expand": _expand, "table": _table, "guess": _guess, "check": _check}


def rounds(workload: str, seed: int, sizes: dict = SIZES) -> Iterator[list[Job]]:
    """Endless rounds of the workload's job list; equal seeds give equal jobs."""
    if workload not in _MAKERS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return _MAKERS[workload](random.Random(f"{workload}:{seed}"), sizes[workload])
