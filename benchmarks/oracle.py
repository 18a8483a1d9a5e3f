"""Independent checks of every job's output.

Nothing here imports the package under test.  Path counts come from a small
integer DP over heights that keeps one row at a time; printed relations are
re-evaluated on those counts, on more terms than the program used.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Optional, Sequence

#: Reference data for a printed relation reaches this many terms past the
#: data the program guessed from.
EXTRA_TERMS = 32


def walk_counts(even: int, odd: int, terms: int, level: Optional[int]) -> list[int]:
    """Weighted Motzkin paths of length n = 0..terms-1 that end at ``level``,
    or at any height when ``level`` is None.

    A level step at height h has ``even`` variants when h is even and ``odd``
    when h is odd.  For a fixed level, heights that can no longer come back
    down to it are dropped, so a row never grows past ``level + remaining``.
    """
    row = [1]
    out = []
    for n in range(terms):
        if level is None:
            out.append(sum(row))
        else:
            out.append(row[level] if level < len(row) else 0)
        if n == terms - 1:
            break
        stay = [(even if h % 2 == 0 else odd) * c for h, c in enumerate(row)]
        up = [0] + row
        down = row[1:] + [0, 0]
        row = [a + b + c for a, b, c in zip(up, stay + [0], down)]
        if level is not None:
            del row[level + terms - 1 - n:]
    return out


def _number(text: str):
    value = Fraction(text)
    return value.numerator if value.denominator == 1 else value


def _poly(coeffs: Sequence[str]) -> list:
    return [_number(c) for c in coeffs]


def _at(poly: list, x: int):
    value = 0
    for c in reversed(poly):
        value = value * x + c
    return value


def _mul_trunc(a: Sequence, b: Sequence, order: int) -> list:
    out = [0] * order
    for i, x in enumerate(a[:order]):
        if x:
            for j, y in enumerate(b[: order - i]):
                out[i + j] += x * y
    return out


def algebraic_holds(y_power_coeffs: Sequence[Sequence[str]], series: Sequence[int]) -> bool:
    """sum_j P_j(z) y^j vanishes modulo z^len(series), by Horner in y."""
    polys = [_poly(p) for p in y_power_coeffs]
    if not any(any(p) for p in polys):
        return False
    order = len(series)
    total = (polys[-1] + [0] * order)[:order]
    for p in reversed(polys[:-1]):
        total = _mul_trunc(total, series, order)
        for i, c in enumerate(p[:order]):
            total[i] += c
    return not any(total)


def ode_holds(deriv_coeffs: Sequence[Sequence[str]], inhomog: Sequence[str],
              series: Sequence[int]) -> bool:
    """sum_d p_d(z) y^(d) + q(z) vanishes modulo z^(len(series) - order)."""
    polys = [_poly(p) for p in deriv_coeffs]
    if not any(any(p) for p in polys):
        return False
    order = len(series) - (len(polys) - 1)
    total = (_poly(inhomog) + [0] * order)[:order]
    deriv = list(series)
    for d, p in enumerate(polys):
        if d:
            deriv = [k * c for k, c in enumerate(deriv)][1:]
        for i, c in enumerate(p[:order]):
            if c:
                for n in range(i, order):
                    total[n] += c * deriv[n - i]
    return not any(total)


def recurrence_holds(rec: dict, values: Sequence[int]) -> bool:
    """sum_i p_i(n) a(n+i) = rhs(n) at every n >= valid_from the data covers."""
    polys = [_poly(p) for p in rec["coeff_polys"]]
    if not any(any(p) for p in polys):
        return False
    rhs = _poly(rec["rhs"])
    r = len(polys) - 1
    for n in range(rec["valid_from"], len(values) - r):
        total = sum(_at(p, n) * values[n + i] for i, p in enumerate(polys) if p)
        if total != (rhs[n] if n < len(rhs) else 0):
            return False
    return True


def _sequence(spec: tuple, stdout: str) -> Optional[str]:
    _, even, odd, level, terms = spec
    expected = walk_counts(even, odd, terms, level)
    lines = stdout.splitlines()
    for n, (line, value) in enumerate(zip(lines, expected)):
        if line != f"{n} {value}":
            return f"coefficient {n} differs from the reference DP"
    if len(lines) != len(expected) or not stdout.endswith("\n"):
        return f"{len(lines)} lines for {len(expected)} terms"
    return None


def _relation(spec: tuple, stdout: str) -> Optional[str]:
    kind, even, odd, terms = spec
    payload = json.loads(stdout)
    if payload.get("terms") != terms:
        return "terms not echoed"
    reference = walk_counts(even, odd, terms + EXTRA_TERMS, 0)
    if kind == "rec":
        if not payload.get("found"):
            return "no recurrence found although the series is D-finite within the bounds"
        if not recurrence_holds(payload["recurrence"], reference):
            return "printed recurrence fails on the reference counts"
        return None
    if kind == "algeq":
        if not payload.get("found"):
            return "no equation found although the series is algebraic within the bounds"
        if not algebraic_holds(payload["algebraic"]["y_power_coeffs"], reference):
            return "printed equation fails on the reference series"
        return None
    stages = ("algebraic", "ode", "homogeneous_ode", "recurrence")
    if not all(payload.get(s, {}).get("verified") is True for s in stages):
        return "a derive stage is not verified"
    if not algebraic_holds(payload["algebraic"]["y_power_coeffs"], reference):
        return "derived equation fails on the reference series"
    for stage in ("ode", "homogeneous_ode"):
        ode = payload[stage]
        if not ode_holds(ode["deriv_coeffs"], ode["inhomog"], reference):
            return f"derived {stage} fails on the reference series"
    if not recurrence_holds(payload["recurrence"], reference):
        return "derived recurrence fails on the reference counts"
    return None


def _check(stdout: str) -> Optional[str]:
    payload = json.loads(stdout)
    checks = payload.get("checks") or []
    if not checks or payload.get("passed") is not True:
        return "check report does not pass"
    if not all(c.get("passed") is True for c in checks):
        return "a check inside the report failed"
    return None


def verify(spec: tuple, stdout: str) -> Optional[str]:
    """None when the output is right, else why it is wrong."""
    try:
        if spec[0] == "sequence":
            return _sequence(spec, stdout)
        if spec[0] == "check":
            return _check(stdout)
        return _relation(spec, stdout)
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return f"unreadable output: {exc!r}"
