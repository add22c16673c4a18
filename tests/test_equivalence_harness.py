"""The equivalence harness's comparators: what each tier lets through."""

import math

import numpy as np
import pytest

from tests.equivalence import (
    ALLCLOSE,
    BITWISE,
    COUNTER_EXACT,
    Pair,
    assert_tier,
)

ONE = 1.0
ONE_ULP_UP = math.nextafter(1.0, 2.0)


class TestComparators:
    def test_bitwise_rejects_one_ulp_and_signed_zero(self):
        with pytest.raises(AssertionError):
            assert_tier(ONE_ULP_UP, ONE, BITWISE)
        with pytest.raises(AssertionError):
            assert_tier(np.array([-0.0]), np.array([0.0]), BITWISE)
        assert_tier({"a": [ONE, 2]}, {"a": [ONE, 2]}, BITWISE)

    def test_counter_exact_integral_floats_exact_others_close(self):
        with pytest.raises(AssertionError):
            assert_tier(math.nextafter(4.0, 5.0), 4.0, COUNTER_EXACT)
        assert_tier(ONE_ULP_UP + 0.3, ONE + 0.3, COUNTER_EXACT)
        with pytest.raises(AssertionError):
            assert_tier(7, 8, COUNTER_EXACT)

    def test_allclose_keeps_integer_decisions_exact(self):
        assert_tier(ONE + 1e-10, ONE, ALLCLOSE, rtol=1e-9)
        with pytest.raises(AssertionError):
            assert_tier(3, 4, ALLCLOSE, rtol=1.0)
        with pytest.raises(AssertionError):
            assert_tier(np.array([1, 2]), np.array([1, 3]), ALLCLOSE, rtol=1.0)

    def test_field_tolerance_applies_to_its_subtree(self):
        fast = {"loose": [ONE + 1e-6], "strict": ONE + 1e-6}
        oracle = {"loose": [ONE], "strict": ONE}
        with pytest.raises(AssertionError):
            assert_tier(fast, oracle, ALLCLOSE, atol=1e-9)
        assert_tier(fast, oracle, ALLCLOSE, atol=1e-9,
                    tolerances={"loose": (0.0, 1e-5), "strict": (0.0, 1e-5)})

    def test_key_order_and_lengths_checked(self):
        with pytest.raises(AssertionError):
            assert_tier({"a": 1, "b": 2}, {"b": 2, "a": 1}, BITWISE)
        with pytest.raises(AssertionError):
            assert_tier([1, 2], [1, 2, 3], BITWISE)


def _raise(message):
    def fn(*_):
        raise ValueError(message)

    return fn


class TestPair:
    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError, match="tier"):
            Pair("p", abs, abs, "roughly")

    def test_both_sides_get_private_copies(self):
        def mutate(values):
            values.append(1)
            return len(values)

        inputs = [0]
        assert Pair("p", mutate, mutate, BITWISE).check(inputs) == (2, 2)
        assert inputs == [0]

    def test_matching_exceptions_propagate(self):
        pair = Pair("p", _raise("bad"), _raise("bad"), BITWISE)
        with pytest.raises(ValueError, match="bad"):
            pair.check()

    def test_mismatched_exceptions_fail(self):
        with pytest.raises(AssertionError):
            Pair("p", _raise("bad"), abs, BITWISE).check(1)
        with pytest.raises(AssertionError):
            Pair("p", _raise("bad"), _raise("worse"), BITWISE).check()
