"""Command-line interface.

Subcommands: ``dp`` (count-table enumeration), ``series`` (closed-form level
series), ``open`` (closed-form series of paths ending anywhere),
``derive`` (equation -> ODE -> homogeneous ODE -> recurrence, all stages
printed and verified), ``guess`` (fit an equation or recurrence to
enumerated data) and ``check`` (cross-verification suite).  Every command
that takes a model accepts ``--model A``, ``B`` or ``general --weights E,O``.
Payload goes to stdout, diagnostics to stderr; exit status is 0 on success,
1 when a check fails, 2 on usage errors.

Output formats: OEIS b-file (one "n value" pair per line), CSV (one line of
decimal values), and JSON with coefficients as decimal strings so arbitrary
precision survives consumers with 64-bit integers.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .closedform import even_level_series, f0_series, odd_level_series, open_series
from .errors import InsufficientTerms
from .holonomic import (
    AlgebraicEq,
    LinearODE,
    PRecurrence,
    algeq_to_ode,
    guess_algebraic,
    guess_recurrence,
    homogenize_ode,
    ode_to_recurrence,
    rec_extend,
    rec_verify,
    verify_algebraic,
    verify_ode,
)
from .paths import (
    MODEL_A, MODEL_B, CountTable, StepModel, dp_table, level_series, open_series_dp,
)
from .series import Poly, Series

_NAMED_MODELS = (("A", MODEL_A), ("B", MODEL_B))


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# output formats

def format_bfile(values: Sequence) -> str:
    """OEIS b-file: "n value" per line, n from 0, newline-terminated."""
    return "".join(f"{n} {v}\n" for n, v in enumerate(values))


def format_csv(values: Sequence) -> str:
    return ",".join(str(v) for v in values) + "\n"


def format_series_json(
    model_label: str, what: str, values: Sequence, extra: Optional[dict] = None
) -> str:
    payload: dict = {"model": model_label, "what": what}
    if extra:
        payload.update(extra)
    payload["terms"] = len(values)
    payload["coefficients"] = [str(v) for v in values]
    return _dumps(payload)


def _dumps(payload: dict) -> str:
    return json.dumps(payload, separators=(",", ":")) + "\n"


def _emit_sequence(args, label: str, what: str, values, extra=None) -> int:
    if args.format == "bfile":
        sys.stdout.write(format_bfile(values))
    elif args.format == "csv":
        sys.stdout.write(format_csv(values))
    else:
        sys.stdout.write(format_series_json(label, what, values, extra))
    return 0


# ---------------------------------------------------------------------------
# argument helpers

def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def _resolve_model(args) -> tuple[StepModel, str]:
    if args.model == "A":
        return MODEL_A, "A"
    if args.model == "B":
        return MODEL_B, "B"
    if args.weights is None:
        raise UsageError("--weights E,O is required with --model general")
    parts = args.weights.split(",")
    if len(parts) != 2:
        raise UsageError("--weights expects two comma-separated integers E,O")
    try:
        even, odd = (int(p) for p in parts)
    except ValueError:
        raise UsageError("--weights expects two comma-separated integers E,O") from None
    if even < 0 or odd < 0:
        raise UsageError("--weights values must be nonnegative")
    return StepModel(even, odd), f"general({even},{odd})"


# ---------------------------------------------------------------------------
# serialization of holonomic objects

def _poly_json(p: Poly) -> list[str]:
    return [str(c) for c in p.coeffs]


def _eq_json(eq: AlgebraicEq, verified: Optional[bool] = None) -> dict:
    payload = {"y_power_coeffs": [_poly_json(p) for p in eq.y_coeffs], "text": eq.text()}
    if verified is not None:
        payload["verified"] = verified
    return payload


def _ode_json(ode: LinearODE, verified: bool) -> dict:
    return {
        "deriv_coeffs": [_poly_json(p) for p in ode.deriv_coeffs],
        "inhomog": _poly_json(ode.inhomog),
        "text": ode.text(),
        "verified": verified,
    }


def _rec_json(rec: PRecurrence, verified: Optional[bool] = None) -> dict:
    payload = {
        "order": rec.order,
        "coeff_polys": [_poly_json(p) for p in rec.coeff_polys],
        "rhs": [str(v) for v in rec.rhs],
        "valid_from": rec.valid_from,
        "text": rec.text(),
    }
    if verified is not None:
        payload["verified"] = verified
    return payload


# ---------------------------------------------------------------------------
# subcommands

def _derive(model: StepModel, terms: int, ydeg: int, zdeg: int):
    """The derivation pipeline of ``derive`` and ``check --what pipeline``.

    Guesses the equation of the returning series from ``terms`` coefficients
    and converts it to an ODE, a homogeneous ODE and a recurrence.  Returns
    None if no equation is found.  Otherwise returns the four stages, whether
    each one verifies, and the table column of paths returning to 0.  The
    equation and both ODEs are verified against the series to order
    max(2*terms, 48), the recurrence against the column, one term longer.
    """
    eq = guess_algebraic(f0_series(model, terms), ydeg, zdeg)
    if eq is None:
        return None
    order = max(2 * terms, 48)
    y = f0_series(model, order)
    column = level_series(model, 0, order + 1).coeffs
    ode = algeq_to_ode(eq)
    hom = homogenize_ode(ode)
    rec = ode_to_recurrence(ode)
    verified = (verify_algebraic(eq, y), verify_ode(ode, y), verify_ode(hom, y),
                rec_verify(rec, column))
    return (eq, ode, hom, rec), verified, column


def cmd_dp(args) -> int:
    model, label = _resolve_model(args)
    values = level_series(model, args.level, args.terms).coeffs
    return _emit_sequence(args, label, "dp", values, {"level": args.level})


def cmd_series(args) -> int:
    model, label = _resolve_model(args)
    if args.what == "f0":
        values = f0_series(model, args.terms).coeffs
        return _emit_sequence(args, label, "f0", values)
    closed_form = even_level_series if args.what == "even" else odd_level_series
    values = closed_form(model, args.k, args.terms).coeffs
    return _emit_sequence(args, label, args.what, values, {"k": args.k})


def cmd_open(args) -> int:
    model, label = _resolve_model(args)
    values = open_series(model, args.terms).coeffs
    return _emit_sequence(args, label, "open", values)


def cmd_derive(args) -> int:
    model, label = _resolve_model(args)
    derived = _derive(model, args.terms, args.ydeg, args.zdeg)
    if derived is None:
        sys.stdout.write(_dumps({"model": label, "terms": args.terms, "found": False}))
        return 1
    (eq, ode, hom, rec), verified, _ = derived
    payload = {
        "model": label,
        "terms": args.terms,
        "algebraic": _eq_json(eq, verified[0]),
        "ode": _ode_json(ode, verified[1]),
        "homogeneous_ode": _ode_json(hom, verified[2]),
        "recurrence": _rec_json(rec, verified[3]),
    }
    sys.stdout.write(_dumps(payload))
    return 0


def cmd_guess(args) -> int:
    model, label = _resolve_model(args)
    data = level_series(model, 0, args.terms).coeffs
    if args.kind == "rec":
        rec = guess_recurrence(data, args.order, args.degree)
        payload: dict = {"model": label, "kind": "rec", "terms": args.terms,
                         "found": rec is not None}
        if rec is not None:
            payload["recurrence"] = _rec_json(rec)
    else:
        eq = guess_algebraic(Series(data), args.ydeg, args.zdeg)
        payload = {"model": label, "kind": "algeq", "terms": args.terms,
                   "found": eq is not None}
        if eq is not None:
            payload["algebraic"] = _eq_json(eq)
    sys.stdout.write(_dumps(payload))
    return 0


# ---------------------------------------------------------------------------
# cross-verification suite

CheckResult = tuple[str, bool, Optional[int]]


def _first_mismatch(left: Sequence, right: Sequence) -> Optional[int]:
    for n, (a, b) in enumerate(zip(left, right)):
        if a != b:
            return n
    return None


def _oracle_checks(terms: int, tables: dict[str, CountTable]) -> list[CheckResult]:
    results = []
    for label, model in _NAMED_MODELS:
        for level in range(13):
            if level % 2 == 0:
                closed = even_level_series(model, level // 2, terms + 1)
            else:
                closed = odd_level_series(model, level // 2, terms + 1)
            column = [tables[label].count(n, level) for n in range(terms + 1)]
            bad = _first_mismatch(closed.coeffs, column)
            results.append((f"closed-vs-table:{label}:level{level}", bad is None, bad))
    return results


def _parity_checks(terms: int, tables: dict[str, CountTable]) -> list[CheckResult]:
    results = []
    for level in range(1, 13, 2):
        col_a = [tables["A"].count(n, level) for n in range(terms + 1)]
        col_b = [tables["B"].count(n, level) for n in range(terms + 1)]
        bad = _first_mismatch(col_a, col_b)
        results.append((f"odd-level-model-agreement:level{level}", bad is None, bad))
    return results


def _open_checks(terms: int) -> list[CheckResult]:
    closed = {label: open_series(model, terms).coeffs for label, model in _NAMED_MODELS}
    results = []
    for label, model in _NAMED_MODELS:
        bad = _first_mismatch(closed[label], open_series_dp(model, terms).coeffs)
        results.append((f"open-closed-vs-table:{label}", bad is None, bad))
    prefix = [1, 2, 6, 19, 62][:terms]
    bad = _first_mismatch(closed["A"], prefix)
    results.append(("open-prefix:A", bad is None, bad))
    return results


def _pipeline_checks(terms: int) -> list[CheckResult]:
    results = []
    for label, model in _NAMED_MODELS:
        derived = _derive(model, terms, 2, 3)
        results.append((f"pipeline:{label}:equation-found", derived is not None, None))
        if derived is None:
            continue
        (*_, rec), verified, column = derived
        for stage, ok in zip(("equation", "ode", "homogeneous-ode", "recurrence"), verified):
            results.append((f"pipeline:{label}:{stage}-verifies", ok, None))
        extended = rec_extend(rec, column[: rec.order], len(column))
        bad = _first_mismatch(extended, column)
        results.append((f"pipeline:{label}:recurrence-extends", bad is None, bad))
    return results


def _render_check_report(what: str, terms: int, results: list[CheckResult]) -> tuple[str, int]:
    checks = [
        {"name": name, "passed": passed, "first_failure_index": index if not passed else None}
        for name, passed, index in results
    ]
    all_passed = all(passed for _, passed, _ in results)
    payload: dict = {"what": what, "terms": terms, "checks": checks, "passed": all_passed}
    if not all_passed:
        name, _, index = next(r for r in results if not r[1])
        payload["first_failure"] = {"check": name, "index": index}
    return _dumps(payload), 0 if all_passed else 1


def cmd_check(args) -> int:
    groups = ("oracle", "parity", "open", "pipeline") if args.what == "all" else (args.what,)
    if "pipeline" in groups and args.terms < 17:
        raise UsageError("pipeline checks need --terms of at least 17")
    tables = ({label: dp_table(model, args.terms) for label, model in _NAMED_MODELS}
              if {"oracle", "parity"} & set(groups) else {})
    results: list[CheckResult] = []
    for group in groups:
        if group == "oracle":
            results.extend(_oracle_checks(args.terms, tables))
        elif group == "parity":
            results.extend(_parity_checks(args.terms, tables))
        elif group == "open":
            results.extend(_open_checks(args.terms))
        else:
            results.extend(_pipeline_checks(args.terms))
    report, code = _render_check_report(args.what, args.terms, results)
    sys.stdout.write(report)
    return code


# ---------------------------------------------------------------------------
# parser wiring

def _add_model_flags(parser) -> None:
    parser.add_argument("--model", choices=("A", "B", "general"), default="A",
                        help="step model (default A)")
    parser.add_argument("--weights", metavar="E,O",
                        help="level-step multiplicities for --model general")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motzkin-parity",
        description="Exact enumeration of Motzkin paths with parity-dependent "
                    "level-step multiplicities, closed-form series, and the "
                    "holonomic derivation pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    dp = sub.add_parser("dp", help="enumerate path counts from the table")
    _add_model_flags(dp)
    dp.add_argument("--level", type=_nonnegative, default=0, help="final height (default 0)")
    dp.add_argument("--terms", type=_positive, required=True)
    dp.add_argument("--format", choices=("bfile", "csv", "json"), default="bfile")
    dp.set_defaults(func=cmd_dp)

    series = sub.add_parser("series", help="evaluate a closed-form level series")
    series.add_argument("--what", choices=("f0", "even", "odd"), required=True,
                        help="f0: paths returning to 0; even/odd: level 2k / 2k+1")
    series.add_argument("--k", type=_nonnegative, default=0)
    _add_model_flags(series)
    series.add_argument("--terms", type=_positive, required=True)
    series.add_argument("--format", choices=("bfile", "csv", "json"), default="bfile")
    series.set_defaults(func=cmd_series)

    open_cmd = sub.add_parser("open", help="paths ending at any height")
    _add_model_flags(open_cmd)
    open_cmd.add_argument("--terms", type=_positive, required=True)
    open_cmd.add_argument("--format", choices=("bfile", "csv", "json"), default="bfile")
    open_cmd.set_defaults(func=cmd_open)

    derive = sub.add_parser(
        "derive",
        help="derive equation, ODE, homogeneous ODE and recurrence, all verified",
    )
    _add_model_flags(derive)
    derive.add_argument("--terms", type=_positive, default=40,
                        help="series terms used for guessing (default 40)")
    derive.add_argument("--ydeg", type=_nonnegative, default=2)
    derive.add_argument("--zdeg", type=_nonnegative, default=3)
    derive.set_defaults(func=cmd_derive)

    guess = sub.add_parser("guess", help="fit a relation to enumerated data")
    guess.add_argument("--kind", choices=("rec", "algeq"), required=True)
    _add_model_flags(guess)
    guess.add_argument("--terms", type=_positive, required=True)
    guess.add_argument("--order", type=_nonnegative, default=4,
                       help="max recurrence order (kind=rec)")
    guess.add_argument("--degree", type=_nonnegative, default=1,
                       help="max coefficient degree in n (kind=rec)")
    guess.add_argument("--ydeg", type=_nonnegative, default=2)
    guess.add_argument("--zdeg", type=_nonnegative, default=3)
    guess.set_defaults(func=cmd_guess)

    check = sub.add_parser("check", help="run the cross-verification suite")
    check.add_argument("--what", choices=("all", "oracle", "parity", "open", "pipeline"),
                       default="all")
    check.add_argument("--terms", type=_positive, default=40)
    check.set_defaults(func=cmd_check)

    return parser


def run(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (UsageError, InsufficientTerms) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))
