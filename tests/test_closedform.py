"""Closed-form level series against the count-table oracle."""

import pytest

from motzkin_parity import (
    MODEL_A,
    MODEL_B,
    Series,
    StepModel,
    dp_table,
    even_level_series,
    f0_series,
    kernel_context,
    level_series,
    odd_level_series,
    open_series,
    open_series_dp,
)
from reference_data import A176677_PREFIX, MODEL_B_RETURNS_PREFIX, OPEN_A_PREFIX

#: Models A and B first, so their test ids stay model0 and model1, then the
#: rest of (E, O) in 0..5 x 0..5 and two pairs with a large weight.
WEIGHTED = [MODEL_A, MODEL_B] + [
    StepModel(e, o)
    for e, o in [(e, o) for e in range(6) for o in range(6)] + [(7, 1), (0, 9)]
    if StepModel(e, o) not in (MODEL_A, MODEL_B)
]
#: A few pairs for the more expensive checks.
SAMPLE = [MODEL_A, MODEL_B, StepModel(0, 0), StepModel(3, 3), StepModel(0, 4),
          StepModel(5, 2), StepModel(7, 1)]


def _mul(f, g, order):
    """The product of two integer sequences, mod z^order."""
    out = [0] * order
    for i, a in enumerate(f[:order]):
        for j, b in enumerate(g[: order - i]):
            out[i + j] += a * b
    return out


def _padded(f, order):
    return list(f[:order]) + [0] * (order - len(f))


class TestKernelContext:
    def test_order_seven_values(self):
        ctx = kernel_context(MODEL_A, 7)
        assert ctx.s == (1, -3, 0, 0, -2, -6, -18)
        assert kernel_context(MODEL_B, 7).s == ctx.s
        assert all(type(c) is int for c in ctx.s)

    def test_polynomials(self):
        ctx = kernel_context(StepModel(3, 5), 4)
        assert ctx.p == (1, -8, 15)
        assert ctx.quad == (1, -8, 11)
        assert ctx.boundary == (1, -3)
        assert ctx.disc == (1, -16, 90, -208, 165)

    def test_sqrt_disc_squares_back(self):
        for model in SAMPLE:
            ctx = kernel_context(model, 24)
            assert _mul(ctx.s, ctx.s, 24) == _padded(ctx.disc, 24), model

    def test_root_identity(self):
        # (P - 2z^2)^2 - s^2 = 4z^4, i.e. root * conj = z^4 for
        # root, conj = (P - 2z^2 +- s) / 2: every closed form here rests on it
        for model in SAMPLE:
            ctx = kernel_context(model, 30)
            x = [ctx.p[0], ctx.p[1], ctx.p[2] - 2]
            difference = [u - v for u, v in zip(_mul(x, x, 30), _mul(ctx.s, ctx.s, 30))]
            assert difference == _padded([0, 0, 0, 0, 4], 30), model

    def test_order_one(self):
        assert kernel_context(MODEL_A, 1).s == (1,)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            kernel_context(MODEL_A, 0)


class TestReturningSeries:
    def test_model_a(self):
        assert list(f0_series(MODEL_A, 10).coeffs) == A176677_PREFIX

    def test_model_b(self):
        assert list(f0_series(MODEL_B, 9).coeffs) == MODEL_B_RETURNS_PREFIX

    def test_single_term(self):
        assert f0_series(MODEL_A, 1) == Series([1])

    @pytest.mark.parametrize("model", [MODEL_A, MODEL_B])
    def test_equals_level_zero_family(self, model):
        assert f0_series(model, 12) == even_level_series(model, 0, 12)


class TestEvenLevels:
    def test_model_a_level_two(self):
        series = even_level_series(MODEL_A, 1, 5)
        assert series == Series([0, 0, 1, 4, 14])
        assert series == level_series(MODEL_A, 2, 5)

    def test_model_b_level_zero(self):
        assert even_level_series(MODEL_B, 0, 3) == Series([1, 2, 5])


class TestOddLevels:
    def test_level_one(self):
        series = odd_level_series(MODEL_A, 0, 6)
        assert series == Series([0, 1, 3, 9, 27, 82])
        assert series == level_series(MODEL_A, 1, 6)
        assert series == level_series(MODEL_B, 1, 6)

    def test_level_three_prefix(self):
        assert odd_level_series(MODEL_B, 1, 4) == Series([0, 0, 0, 1])

    def test_level_one_short(self):
        assert odd_level_series(MODEL_A, 0, 2) == Series([0, 1])

    @pytest.mark.parametrize("even,odd", [(1, 2), (0, 3), (3, 3), (4, 1), (0, 9)])
    def test_swap_symmetry(self, even, odd):
        model, swapped = StepModel(even, odd), StepModel(odd, even)
        for k in range(4):
            series = odd_level_series(model, k, 16)
            assert series == odd_level_series(swapped, k, 16)
            assert series == level_series(swapped, 2 * k + 1, 16)


class TestOracleEquivalence:
    @pytest.mark.parametrize("model", WEIGHTED)
    def test_all_levels_match_table(self, model):
        terms = 120
        assert f0_series(model, terms) == level_series(model, 0, terms)
        for level in range(13):
            if level % 2 == 0:
                closed = even_level_series(model, level // 2, terms)
            else:
                closed = odd_level_series(model, level // 2, terms)
            assert closed == level_series(model, level, terms), f"level {level}"

    @pytest.mark.parametrize("model", WEIGHTED)
    def test_telescoping(self, model):
        order = 18
        total = Series.zero(order)
        for k in range(0, (order + 1) // 2):
            total = total + even_level_series(model, k, order)
        for k in range(0, order // 2):
            total = total + odd_level_series(model, k, order)
        assert total == open_series(model, order)


class TestOpenSeries:
    @pytest.mark.parametrize("model", WEIGHTED)
    def test_matches_table(self, model):
        assert open_series(model, 120) == open_series_dp(model, 120)

    def test_model_a_prefix(self):
        assert list(open_series(MODEL_A, 5).coeffs) == OPEN_A_PREFIX

    def test_model_b_prefix(self):
        assert open_series(MODEL_B, 2) == Series([1, 3])

    def test_single_term(self):
        assert open_series(MODEL_A, 1) == Series([1])


class TestGeneralWeights:
    def test_general_weights_accepted(self):
        general = StepModel(3, 3)
        assert f0_series(general, 6) == Series([1, 3, 10, 36, 137, 543])
        assert even_level_series(general, 1, 6) == level_series(general, 2, 6)
        assert odd_level_series(general, 0, 6) == Series([0, 1, 6, 29, 132, 590])
        assert open_series(general, 6) == open_series_dp(general, 6)


class TestIntegerEngine:
    def test_no_series_arithmetic(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the closed forms must not use Series arithmetic")

        models = (MODEL_A, StepModel(3, 3))
        with monkeypatch.context() as patch:
            for name in ("sqrt", "__mul__", "__truediv__"):
                patch.setattr(Series, name, refuse)
            computed = [[f0_series(model, 50), even_level_series(model, 1, 50),
                         odd_level_series(model, 0, 50), odd_level_series(model, 1, 50),
                         open_series(model, 50)] for model in models]
        for model, series in zip(models, computed):
            expected = [level_series(model, level, 50) for level in (0, 2, 1, 3)]
            assert series == expected + [open_series_dp(model, 50)], model

    def test_large_order(self):
        assert even_level_series(MODEL_A, 6, 2000) == level_series(MODEL_A, 12, 2000)

    @pytest.mark.parametrize("k", [0, 3, 50])
    def test_orders_below_the_level(self, k):
        # a path of length n ends at height n or lower
        for order in range(1, 2 * k + 3):
            assert even_level_series(MODEL_A, k, order) == level_series(MODEL_A, 2 * k, order)
            assert odd_level_series(MODEL_B, k, order) == level_series(MODEL_B, 2 * k + 1, order)
