"""The integer-triple Gaussian rationals against the Fraction-pair oracle."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupoid_forge.gaussian import I, ONE, ZERO, GaussianRational, gauss
from helpers import FractionGaussian, fraction_gauss

parts = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-8, max_value=8, max_denominator=12),
    st.integers(-(10**30), 10**30),
)
values = st.tuples(parts, parts)
plain = st.one_of(
    st.integers(-9, 9), st.fractions(min_value=-5, max_value=5, max_denominator=7)
)


def pair(v):
    return gauss(*v), fraction_gauss(*v)


def assert_same(z, o):
    assert type(z) is GaussianRational
    assert (z.re, z.im) == (o.re, o.im)
    assert type(z.re) is Fraction and type(z.im) is Fraction
    assert str(z) == str(o) and repr(z) == str(o)
    assert bool(z) == bool(o)
    assert_normal(z)


def assert_normal(z):
    a, b, d = z._re, z._im, z._den
    assert type(a) is int and type(b) is int and type(d) is int
    assert d > 0 and math.gcd(a, b, d) == 1


class TestAgainstOracle:
    @given(values, values)
    @settings(max_examples=150, deadline=None)
    def test_binary_dunders(self, u, v):
        x, ox = pair(u)
        y, oy = pair(v)
        assert_same(x + y, ox + oy)
        assert_same(x - y, ox - oy)
        assert_same(x * y, ox * oy)
        if oy:
            assert_same(x / y, ox / oy)
        assert (x == y) == (ox == oy)
        assert (x != y) == (ox != oy)

    @given(values, plain)
    @settings(max_examples=120, deadline=None)
    def test_mixed_operands(self, u, c):
        x, ox = pair(u)
        assert_same(x + c, ox + c)
        assert_same(c + x, c + ox)
        assert_same(x - c, ox - c)
        assert_same(c - x, c - ox)
        assert_same(x * c, ox * c)
        assert_same(c * x, c * ox)
        if c:
            assert_same(x / c, ox / c)
        assert (x == c) == (ox == c)

    @given(values)
    @settings(max_examples=120, deadline=None)
    def test_unary_and_parts(self, u):
        x, ox = pair(u)
        assert_same(x, ox)
        assert_same(-x, -ox)
        assert_same(x.conjugate(), ox.conjugate())
        assert_same(GaussianRational(*u), ox)
        assert_same(GaussianRational(re=u[0], im=u[1]), ox)

    @given(plain)
    def test_of_and_gauss(self, c):
        assert_same(GaussianRational.of(c), FractionGaussian.of(c))
        assert_same(gauss(c), fraction_gauss(c))
        assert_same(gauss(im=c), fraction_gauss(im=c))
        z = gauss(c, 1)
        assert GaussianRational.of(z) is z
        with pytest.raises(TypeError):
            gauss(z)
        with pytest.raises(TypeError):
            fraction_gauss(FractionGaussian.of(c))

    def test_constants(self):
        assert_same(ZERO, fraction_gauss())
        assert_same(ONE, fraction_gauss(1))
        assert_same(I, fraction_gauss(0, 1))
        assert I * I == -ONE


class TestNormalForm:
    @given(values, st.integers(1, 50))
    @settings(max_examples=120, deadline=None)
    def test_equal_values_equal_triples_and_hashes(self, u, k):
        x, w = gauss(*u), gauss(k, -k)
        routes = [(x * w) / w, (x + w) - w, x * ONE + ZERO, x.conjugate().conjugate(), -(-x)]
        for y in routes:
            assert y == x
            assert (y._re, y._im, y._den) == (x._re, x._im, x._den)
            assert hash(y) == hash(x)

    @given(values, values)
    @settings(max_examples=80, deadline=None)
    def test_commutative_results_hash_alike(self, u, v):
        x, y = gauss(*u), gauss(*v)
        assert x * y == y * x and hash(x * y) == hash(y * x)
        assert x + y == y + x and hash(x + y) == hash(y + x)

    def test_integer_constructor_skips_fractions(self):
        z = GaussianRational(6, -4)
        assert (z._re, z._im, z._den) == (6, -4, 1)


class TestZeroDivision:
    @pytest.mark.parametrize("zero", [ZERO, 0, Fraction(0), gauss(Fraction(0), 0)])
    def test_message(self, zero):
        with pytest.raises(ZeroDivisionError) as want:
            fraction_gauss(1, 2) / fraction_gauss()
        with pytest.raises(ZeroDivisionError) as got:
            gauss(1, 2) / zero
        assert str(got.value) == str(want.value) == "division by zero Gaussian rational"
