"""Exact complex-rational scalars for the convolution algebra.

A Gaussian rational ``(re_num + im_num*i) / den`` is stored as a triple of
Python ints with ``den > 0`` and ``gcd(re_num, im_num, den) = 1``, so equal
values have equal triples and every operation costs one gcd on its result.
The parts are exposed as ``fractions.Fraction`` (``re``, ``im``); involution
(complex conjugation) and all algebra identities hold with exact equality.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Union

Scalarish = Union["GaussianRational", Fraction, int]


class GaussianRational:
    __slots__ = ("_re", "_im", "_den")

    def __init__(self, re: Scalarish = 0, im: Scalarish = 0):
        if type(re) is int and type(im) is int:
            self._re, self._im, self._den = re, im, 1
            return
        re, im = Fraction(re), Fraction(im)
        p, q = re.denominator, im.denominator
        # both fractions are in lowest terms, so over lcm(p, q) the triple is too
        den = p * q // gcd(p, q)
        self._re = re.numerator * (den // p)
        self._im = im.numerator * (den // q)
        self._den = den

    @staticmethod
    def of(value: Scalarish) -> "GaussianRational":
        if type(value) is GaussianRational:
            return value
        if type(value) is int:
            return _triple(value, 0, 1)
        value = Fraction(value)
        return _triple(value.numerator, 0, value.denominator)

    @property
    def re(self) -> Fraction:
        return Fraction(self._re, self._den)

    @property
    def im(self) -> Fraction:
        return Fraction(self._im, self._den)

    def __add__(self, other: Scalarish) -> "GaussianRational":
        o = other if type(other) is GaussianRational else GaussianRational.of(other)
        d, e = self._den, o._den
        if d == e:
            return _normal(self._re + o._re, self._im + o._im, d)
        return _normal(self._re * e + o._re * d, self._im * e + o._im * d, d * e)

    __radd__ = __add__

    def __neg__(self) -> "GaussianRational":
        return _triple(-self._re, -self._im, self._den)

    def __sub__(self, other: Scalarish) -> "GaussianRational":
        o = other if type(other) is GaussianRational else GaussianRational.of(other)
        d, e = self._den, o._den
        if d == e:
            return _normal(self._re - o._re, self._im - o._im, d)
        return _normal(self._re * e - o._re * d, self._im * e - o._im * d, d * e)

    def __rsub__(self, other: Scalarish) -> "GaussianRational":
        o = GaussianRational.of(other)
        d, e = self._den, o._den
        return _normal(o._re * d - self._re * e, o._im * d - self._im * e, d * e)

    def __mul__(self, other: Scalarish) -> "GaussianRational":
        o = other if type(other) is GaussianRational else GaussianRational.of(other)
        a, b, c, e = self._re, self._im, o._re, o._im
        return _normal(a * c - b * e, a * e + b * c, self._den * o._den)

    __rmul__ = __mul__

    def __truediv__(self, other: Scalarish) -> "GaussianRational":
        o = other if type(other) is GaussianRational else GaussianRational.of(other)
        a, b, c, e = self._re, self._im, o._re, o._im
        norm = c * c + e * e
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        # (a + bi)/d / ((c + ei)/f) = (a + bi)(c - ei) f / (d (c^2 + e^2))
        f = o._den
        return _normal((a * c + b * e) * f, (b * c - a * e) * f, self._den * norm)

    def conjugate(self) -> "GaussianRational":
        return _triple(self._re, -self._im, self._den)

    def __bool__(self) -> bool:
        return self._re != 0 or self._im != 0

    def __eq__(self, other) -> bool:
        if type(other) is not GaussianRational:
            return NotImplemented
        return self._re == other._re and self._im == other._im and self._den == other._den

    def __hash__(self) -> int:
        return hash((self._re, self._im, self._den))

    def __str__(self) -> str:
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            return f"{im}i"
        sign = "+" if im > 0 else "-"
        return f"{re}{sign}{abs(im)}i"

    __repr__ = __str__


_new = object.__new__


def _triple(re_num: int, im_num: int, den: int) -> GaussianRational:
    """A Gaussian rational from a triple already in normal form."""
    z = _new(GaussianRational)
    z._re, z._im, z._den = re_num, im_num, den
    return z


def _normal(re_num: int, im_num: int, den: int) -> GaussianRational:
    """A Gaussian rational from any triple with ``den > 0``."""
    if den != 1:
        g = gcd(re_num, im_num, den)
        if g != 1:
            re_num, im_num, den = re_num // g, im_num // g, den // g
    return _triple(re_num, im_num, den)


ZERO = GaussianRational()
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def gauss(re: Scalarish = 0, im: Scalarish = 0) -> GaussianRational:
    return GaussianRational(re, im)
