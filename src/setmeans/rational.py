"""The library's exact rational: ``Q``, a ``fractions.Fraction`` whose
arithmetic and comparisons run on the integers directly.

``Fraction``'s operators dispatch on their operand through the ``numbers``
ABCs and build each result through a general constructor.  ``Q`` reads the
integers of an ``int`` or ``Fraction`` operand directly and builds its
result from them by Henrici's method (Knuth, TAOCP vol. 2, 4.5.1): a
product divides out gcd(n1, d2) and gcd(n2, d1) before it multiplies, and a
sum reduces only by a divisor of gcd(d1, d2), so no result needs a full
gcd.  Comparisons cross-multiply.

A ``Q`` is a ``Fraction``: it equals, and hashes like, the equal
``Fraction`` or ``int``; ``str``, ``float``, ``numerator`` and
``denominator`` are ``Fraction``'s, and ``repr`` reads ``Fraction(n, d)``.
``+ - * /`` (on either side), unary ``-``, ``abs`` and integral powers give
a ``Q`` when the other operand is an ``int`` or a ``Fraction``.  Any other
operand (a float, a complex, a Decimal) goes to ``Fraction``'s own method,
so a mixed result is the one ``Fraction`` gives.  The operations not
overridden here (``//``, ``%``, ``round``, ``limit_denominator``, unary
``+``) are ``Fraction``'s and give a stdlib ``Fraction`` where they give a
rational; the library uses none of them on a rational.
"""

import operator
import sys
from fractions import Fraction
from functools import lru_cache
from math import gcd

_new = object.__new__
_MODULUS, _INF = sys.hash_info.modulus, sys.hash_info.inf

#: entries kept by each bounded memo of the library: _inverse here,
#: blocks._log_ratio, the enclosures of means (each kept per value and
#: precision) and the parsed operand texts of cli._norm
CACHE_SIZE = 1024


@lru_cache(maxsize=CACHE_SIZE)
def _inverse(d: int) -> int:
    """d's inverse modulo the hash modulus, or 0 when d is a multiple of it."""
    return pow(d, -1, _MODULUS) if d % _MODULUS else 0


def _q(n: int, d: int) -> "Q":
    """The Q n/d of coprime ints n and d > 0, built with no gcd."""
    q = _new(Q)
    q._numerator = n
    q._denominator = d
    return q


def _add(na: int, da: int, nb: int, db: int) -> "Q":
    """na/da + nb/db.  With g = gcd(da, db), the only common factor the
    sum's numerator t can share with its denominator divides g."""
    g = gcd(da, db)
    if g == 1:
        return _q(na * db + da * nb, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    if g2 == 1:
        return _q(t, s * db)
    return _q(t // g2, s * (db // g2))


def _mul(na: int, da: int, nb: int, db: int) -> "Q":
    """na/da * nb/db, with the cross gcds divided out first."""
    g1 = gcd(na, db)
    if g1 > 1:
        na //= g1
        db //= g1
    g2 = gcd(nb, da)
    if g2 > 1:
        nb //= g2
        da //= g2
    return _q(na * nb, da * db)


def _div(na: int, da: int, nb: int, db: int) -> "Q":
    """na/da / (nb/db), the product with nb/db inverted."""
    if nb == 0:
        raise ZeroDivisionError(f"Fraction({na * db}, 0)")
    if nb < 0:
        nb, db = -nb, -db
    return _mul(na, da, db, nb)


def _binary(core, name: str):
    """The forward and reflected methods of a Q operator whose exact form is
    core(na, da, nb, db); any other operand goes to Fraction's method."""
    forward_fallback = getattr(Fraction, f"__{name}__")
    reverse_fallback = getattr(Fraction, f"__r{name}__")

    def forward(a, b):
        if type(b) is Q:
            return core(a._numerator, a._denominator, b._numerator, b._denominator)
        if isinstance(b, int):
            return core(a._numerator, a._denominator, b, 1)
        if isinstance(b, Fraction):
            return core(a._numerator, a._denominator, b._numerator, b._denominator)
        return forward_fallback(a, b)

    def reverse(b, a):
        if isinstance(a, int):
            return core(a, 1, b._numerator, b._denominator)
        if isinstance(a, Fraction):
            return core(a._numerator, a._denominator, b._numerator, b._denominator)
        return reverse_fallback(b, a)

    forward.__name__, reverse.__name__ = f"__{name}__", f"__r{name}__"
    return forward, reverse


def _compare(core, name: str):
    """The Q comparison core(na * db, nb * da) of a and b; any other operand
    goes to Fraction's method."""
    fallback = getattr(Fraction, f"__{name}__")

    def method(a, b):
        if type(b) is Q:
            return core(a._numerator * b._denominator, b._numerator * a._denominator)
        if isinstance(b, int):
            return core(a._numerator, b * a._denominator)
        if isinstance(b, Fraction):
            return core(a._numerator * b._denominator, b._numerator * a._denominator)
        return fallback(a, b)

    method.__name__ = f"__{name}__"
    return method


class Q(Fraction):
    """An exact rational; see the module docstring."""

    __slots__ = ()

    def __new__(cls, numerator=0, denominator=None):
        if denominator is None:
            if type(numerator) is int:
                denominator = 1
            elif type(numerator) is cls:
                return numerator
            elif isinstance(numerator, Fraction):
                numerator, denominator = numerator._numerator, numerator._denominator
            else:
                return Fraction.__new__(cls, numerator)
        elif type(numerator) is int is type(denominator):
            if denominator == 0:
                raise ZeroDivisionError(f"Fraction({numerator}, 0)")
            g = gcd(numerator, denominator)
            if denominator < 0:
                g = -g
            numerator //= g
            denominator //= g
        else:
            return Fraction.__new__(cls, numerator, denominator)
        self = _new(cls)
        self._numerator = numerator
        self._denominator = denominator
        return self

    def __repr__(self):
        return f"Fraction({self._numerator}, {self._denominator})"

    __add__, __radd__ = _binary(_add, "add")
    __sub__, __rsub__ = _binary(lambda na, da, nb, db: _add(na, da, -nb, db), "sub")
    __mul__, __rmul__ = _binary(_mul, "mul")
    __truediv__, __rtruediv__ = _binary(_div, "truediv")

    def __neg__(a):
        return _q(-a._numerator, a._denominator)

    def __abs__(a):
        return a if a._numerator >= 0 else _q(-a._numerator, a._denominator)

    def __pow__(a, b):
        if isinstance(b, int):
            power = b
        elif isinstance(b, Fraction) and b._denominator == 1:
            power = b._numerator
        else:
            return Fraction.__pow__(a, b)
        n, d = a._numerator, a._denominator
        if power < 0:
            if n == 0:
                raise ZeroDivisionError("Fraction(1, 0)")
            n, d, power = (d, n, -power) if n > 0 else (-d, -n, -power)
        return _q(n**power, d**power)

    __lt__ = _compare(operator.lt, "lt")
    __le__ = _compare(operator.le, "le")
    __gt__ = _compare(operator.gt, "gt")
    __ge__ = _compare(operator.ge, "ge")
    __eq__ = _compare(operator.eq, "eq")

    def __hash__(a):
        """Fraction's hash: |n| * inverse(d) modulo the hash modulus, with
        n's sign; an integer's is the int's, and the inverses of recent
        denominators are kept (_inverse), where Fraction computes one on
        every call."""
        n, d = a._numerator, a._denominator
        if d == 1:
            return hash(n)
        inv = _inverse(d)
        h = hash(hash(abs(n)) * inv) if inv else _INF
        h = h if n >= 0 else -h
        return -2 if h == -1 else h
