"""Acceptance suite: one test per exit criterion, one printed line each.

Everything here is exact integer/rational arithmetic, so every tolerance is
exact equality.  Run with ``pytest -s tests/test_acceptance.py`` to see the
PASS lines.
"""

import random
from fractions import Fraction
from math import gcd

from motzkin_parity import (
    MODEL_A,
    MODEL_B,
    AlgebraicEq,
    LinearODE,
    Poly,
    PRecurrence,
    Series,
    StepModel,
    algeq_to_ode,
    dp_table,
    even_level_series,
    f0_series,
    guess_algebraic,
    guess_recurrence,
    homogenize_ode,
    level_series,
    ode_to_recurrence,
    odd_level_series,
    open_series,
    open_series_dp,
    rec_extend,
    rec_verify,
    verify_algebraic,
    verify_ode,
)
from reference_data import (
    A176677_PREFIX,
    FIRST_ORDER_ODE_A,
    HOMOGENEOUS_Y2_COEFF,
    MODEL_B_RETURNS_PREFIX,
    OPEN_A_PREFIX,
    QUADRATIC_A,
    RECURRENCE_A,
    motzkin_numbers,
)


def report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number}: PASS - {text}")


def test_criterion_1_model_a_returning_counts():
    assert list(f0_series(MODEL_A, 10).coeffs) == A176677_PREFIX
    table = dp_table(MODEL_A, 9)
    assert [table.count(n, 0) for n in range(10)] == A176677_PREFIX
    report(1, "model A returning counts equal A176677 prefix, closed form and table")


def test_criterion_2_model_b_returning_counts():
    assert list(f0_series(MODEL_B, 9).coeffs) == MODEL_B_RETURNS_PREFIX
    table = dp_table(MODEL_B, 8)
    assert [table.count(n, 0) for n in range(9)] == MODEL_B_RETURNS_PREFIX
    report(2, "model B returning counts equal the pinned prefix, closed form and table")


def test_criterion_3_oracle_equivalence():
    terms = 41  # coefficients n = 0..40
    for model in (MODEL_A, MODEL_B):
        for level in range(13):
            if level % 2 == 0:
                closed = even_level_series(model, level // 2, terms)
            else:
                closed = odd_level_series(model, level // 2, terms)
            assert closed == level_series(model, level, terms), (model, level)
    table_a = dp_table(MODEL_A, 40)
    table_b = dp_table(MODEL_B, 40)
    for n in range(41):
        for level in range(1, 41, 2):
            assert table_a.count(n, level) == table_b.count(n, level)
    report(3, "closed forms equal table counts for levels 0..12 and n <= 40; "
              "odd levels agree across models")


def test_criterion_4_algebraic_equation():
    assert verify_algebraic(QUADRATIC_A, f0_series(MODEL_A, 200))
    assert guess_algebraic(f0_series(MODEL_A, 40), 2, 3) == QUADRATIC_A
    report(4, "quadratic relation holds with zero residual mod z^200 and is "
              "recovered from 40 terms")


def test_criterion_5_ode_stage():
    ode = algeq_to_ode(QUADRATIC_A)
    assert ode == FIRST_ORDER_ODE_A  # equal after normalization, hence a rational multiple
    assert verify_ode(ode, f0_series(MODEL_A, 200))
    report(5, "derived first-order ODE matches the pinned form and annihilates "
              "the series at order 200")


def test_criterion_6_homogenization():
    hom = homogenize_ode(FIRST_ORDER_ODE_A)
    assert hom.deriv_coeffs[2] == HOMOGENEOUS_Y2_COEFF
    assert hom.inhomog.is_zero
    assert verify_ode(hom, f0_series(MODEL_A, 200))
    report(6, "homogenized ODE has the pinned y'' coefficient and annihilates "
              "the series at order 200")


def test_criterion_7_recurrence_stage():
    rec = ode_to_recurrence(FIRST_ORDER_ODE_A)
    assert rec == RECURRENCE_A
    assert rec.valid_from == 0
    assert rec.rhs == ()
    column = list(level_series(MODEL_A, 0, 201).coeffs)
    assert rec_extend(rec, [1, 1, 2, 5], 201) == column
    assert guess_recurrence(column[:40], 4, 1) == RECURRENCE_A
    report(7, "coefficient recurrence matches the pinned form, extends to "
              "n = 200 against the table, and is re-guessed from 40 terms")


def test_criterion_8_open_paths():
    for model in (MODEL_A, MODEL_B):
        assert open_series(model, 40) == open_series_dp(model, 40)
    assert list(open_series(MODEL_A, 5).coeffs) == OPEN_A_PREFIX
    report(8, "open-path closed form equals table row sums to order 40; "
              "model A prefix is 1,2,6,19,62")


def test_criterion_9_property_suites():
    rng = random.Random(20260809)

    def rand_series() -> Series:
        return Series(
            [Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(64)]
        )

    inputs = [rand_series() for _ in range(200)]

    # ring axioms on 66 disjoint triples
    for i in range(0, 198, 3):
        a, b, c = inputs[i], inputs[i + 1], inputs[i + 2]
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    # division/multiplication round trip on 100 disjoint pairs
    for i in range(0, 200, 2):
        a, b = inputs[i], inputs[i + 1]
        if b.coeffs[0] == 0:
            b = Series([Fraction(1), *b.coeffs[1:]])
        quotient = a / b
        assert quotient * b == a
        for coeff in quotient.coeffs:
            assert coeff.denominator >= 1
            assert gcd(abs(coeff.numerator), coeff.denominator) == 1

    # square-root round trip on all 200 inputs
    for s in inputs:
        radicand = Series([Fraction(1), *s.coeffs[1:]])
        root = radicand.sqrt()
        assert root * root == radicand

    # guess results are unchanged by rational scaling of the data
    column = list(level_series(MODEL_A, 0, 40).coeffs)
    scaled = [v * Fraction(5, 3) for v in column]
    assert guess_recurrence(scaled, 4, 1) == guess_recurrence(column, 4, 1) == RECURRENCE_A

    # normalization is idempotent on all three relation kinds
    eq = AlgebraicEq([p * Fraction(-21, 6) for p in QUADRATIC_A.y_coeffs])
    assert eq.normalized().normalized() == eq.normalized() == QUADRATIC_A
    ode = LinearODE(
        [p * Fraction(-21, 6) for p in FIRST_ORDER_ODE_A.deriv_coeffs],
        FIRST_ORDER_ODE_A.inhomog * Fraction(-21, 6),
    )
    assert ode.normalized().normalized() == ode.normalized() == FIRST_ORDER_ODE_A
    rec = PRecurrence(
        [p * Fraction(-21, 6) for p in RECURRENCE_A.coeff_polys], (), 0
    )
    assert rec.normalized().normalized() == rec.normalized() == RECURRENCE_A

    # unweighted model reproduces the classical Motzkin numbers
    from motzkin_parity import StepModel

    table = dp_table(StepModel(1, 1), 40)
    assert [table.count(n, 0) for n in range(41)] == motzkin_numbers(41)

    report(9, "series ring/div/sqrt invariants on 200 random order-64 inputs; "
              "guess scaling invariance; normalization idempotence; classical "
              "Motzkin cross-check")
