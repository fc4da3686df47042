"""GF(2^8) field-axiom tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reference.gf256 import (
    alpha_pow,
    gf_add,
    gf_div,
    gf_inv,
    gf_log,
    gf_mul,
    gf_pow,
    poly_eval,
    poly_mul,
)

elements = st.integers(min_value=0, max_value=255)
nonzero = st.integers(min_value=1, max_value=255)


class TestFieldAxioms:
    @given(elements, elements)
    def test_commutativity(self, a, b):
        assert gf_mul(a, b) == gf_mul(b, a)

    @given(elements, elements, elements)
    def test_associativity(self, a, b, c):
        assert gf_mul(gf_mul(a, b), c) == gf_mul(a, gf_mul(b, c))

    @given(elements, elements, elements)
    def test_distributivity(self, a, b, c):
        assert gf_mul(a, gf_add(b, c)) == gf_add(gf_mul(a, b), gf_mul(a, c))

    @given(elements)
    def test_identity(self, a):
        assert gf_mul(a, 1) == a

    @given(nonzero)
    def test_inverse(self, a):
        assert gf_mul(a, gf_inv(a)) == 1

    @given(nonzero, nonzero)
    def test_division(self, a, b):
        quotient = gf_div(a, b)
        assert gf_mul(quotient, b) == a

    def test_zero_has_no_inverse(self):
        with pytest.raises(ZeroDivisionError):
            gf_inv(0)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            gf_div(1, 0)

    def test_zero_log_undefined(self):
        with pytest.raises(ValueError):
            gf_log(0)


class TestExpLog:
    def test_alpha_generates_field(self):
        seen = {alpha_pow(i) for i in range(255)}
        assert len(seen) == 255
        assert 0 not in seen

    @given(nonzero)
    def test_log_exp_roundtrip(self, a):
        assert alpha_pow(gf_log(a)) == a

    @given(st.integers(min_value=0, max_value=254))
    def test_exp_log_roundtrip(self, exponent):
        assert gf_log(alpha_pow(exponent)) == exponent

    @given(nonzero, st.integers(min_value=0, max_value=20))
    def test_pow_matches_repeated_mul(self, base, exponent):
        expected = 1
        for _ in range(exponent):
            expected = gf_mul(expected, base)
        assert gf_pow(base, exponent) == expected


class TestPolynomials:
    def test_poly_eval_constant(self):
        assert poly_eval([7], 99) == 7

    def test_poly_eval_linear(self):
        # p(x) = 2x + 3 at x=1 -> 2 ^ 3 = 1
        assert poly_eval([2, 3], 1) == 1

    @given(elements, elements, elements)
    def test_poly_mul_degree_one(self, a, b, x):
        # (x + a)(x + b) evaluated at x should match the product form.
        product = poly_mul([1, a], [1, b])
        left = poly_eval(product, x)
        right = gf_mul(poly_eval([1, a], x), poly_eval([1, b], x))
        assert left == right
