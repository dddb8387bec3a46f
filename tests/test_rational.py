"""setmeans.Q against fractions.Fraction, and the library's values as Qs.

Q does its arithmetic and comparisons on the integers directly; every
result must be the one Fraction gives, and every rational the library
makes must be a Q, never a stdlib Fraction.
"""

import dataclasses
import operator
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from setmeans import (
    DomainViolation,
    MeanKind,
    Q,
    SetMeansError,
    bounds,
    defect_curve,
    gen_corpus,
    k_bounds,
    mean_of,
    normalize,
    weight_defect,
)
from setmeans.laws import PROFILES
from setmeans.means import weight_of
from test_weigh import translate_grid

BIG = 10**1000
INTS = st.one_of(
    st.integers(-1000, 1000),
    st.integers(BIG, 10 * BIG),
    st.integers(-10 * BIG, -BIG),
)
FRACTIONS = st.builds(Fraction, INTS, INTS.filter(bool))
QS = FRACTIONS.map(Q)
OPERANDS = st.one_of(QS, FRACTIONS, INTS, st.booleans())

BINARY = [operator.add, operator.sub, operator.mul, operator.truediv]
COMPARISONS = [operator.lt, operator.le, operator.gt, operator.ge, operator.eq, operator.ne]


def _std(x):
    """x with a Q turned into the equal stdlib Fraction."""
    return Fraction(x.numerator, x.denominator) if type(x) is Q else x


def _same(op, *args):
    """op on args gives what Fraction gives: the same exception type, or an
    equal value with the same str and repr, and a Q wherever Fraction gives
    a Fraction."""
    try:
        want = op(*map(_std, args))
    except Exception as exc:
        with pytest.raises(type(exc)):
            op(*args)
        return
    got = op(*args)
    if isinstance(want, Fraction):
        assert type(got) is Q
        assert type(got.numerator) is int and type(got.denominator) is int
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
        assert str(got) == str(want) and repr(got) == repr(want)
        assert hash(got) == hash(want)
    elif want != want:  # a nan from a float operand
        assert type(got) is float and got != got
    else:
        assert type(got) is type(want) and got == want


@given(a=QS, b=OPERANDS)
@example(a=Q(1, 2), b=0)
@example(a=Q(1, 2), b=Fraction(0))
@example(a=Q(0), b=Q(0))
@example(a=Q(-3, 4), b=True)
@example(a=Q(0), b=False)
def test_arithmetic_matches_fraction(a, b):
    for op in BINARY + COMPARISONS:
        _same(op, a, b)
        _same(op, b, a)


@given(a=QS, e=st.integers(-3, 3))
@example(a=Q(0), e=-1)
@example(a=Q(-2, 3), e=-3)
def test_unary_and_powers_match_fraction(a, e):
    _same(operator.neg, a)
    _same(abs, a)
    _same(operator.pow, a, e)
    _same(operator.pow, a, Fraction(e))
    _same(hash, a)
    _same(str, a)
    _same(repr, a)
    _same(float, a)


@given(a=QS, x=st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 0.5])))
def test_a_float_operand_gives_fractions_float(a, x):
    for op in BINARY + COMPARISONS:
        _same(op, a, x)
        _same(op, x, a)
    _same(operator.pow, a, x)


@given(a=FRACTIONS)
def test_a_q_equals_its_fraction(a):
    q = Q(a)
    assert type(q) is Q and q == a and a == q and hash(q) == hash(a)
    assert Q(a.numerator, a.denominator) == q and Q(q) is q
    if a.denominator == 1:
        assert q == a.numerator and hash(q) == hash(a.numerator)


M = sys.hash_info.modulus
HASH_INTS = st.one_of(INTS, st.integers(-3 * M, 3 * M), st.sampled_from([M, 2 * M, M - 1, M + 1, M + 2]))


@given(n=HASH_INTS, d=HASH_INTS.filter(bool))
# a denominator that is a multiple of the modulus hashes to +-inf's hash;
# -(M + 2)/2 is the rational whose hash would be -1, which reads -2
@example(n=1, d=M)
@example(n=-3, d=2 * M)
@example(n=-(M + 2), d=2)
@example(n=-1, d=1)
@example(n=-1, d=M + 1)
def test_hash_is_fractions_hash(n, d):
    q, f = Q(n, d), Fraction(n, d)
    assert hash(q) == hash(f) and hash(Q(n, d)) == hash(f)  # the second from a kept inverse
    # hash() itself turns -1 into -2; the method must too
    assert q.__hash__() == f.__hash__()


def test_construction_matches_fraction():
    for args in [(3,), (6, -4), (0, 5), (True,), ("7/3",), (1.5,), (Fraction(1, 7), 5)]:
        got, want = Q(*args), Fraction(*args)
        assert type(got) is Q and got == want and repr(got) == repr(want)
    with pytest.raises(ZeroDivisionError):
        Q(1, 0)


# ---------------------------------------------------------------------------
# the library's values


def _coordinates(obj):
    """The values of obj's dataclass fields typed Q, Optional[Q] or tuple[Q, ...]."""
    for f in dataclasses.fields(obj):
        if "Q" in str(f.type):
            v = getattr(obj, f.name)
            yield from (v if isinstance(v, tuple) else (v,))


def _exact(v):
    return [v.value] if v.is_exact else []


@pytest.mark.parametrize("profile", PROFILES)
def test_every_library_rational_is_a_q(profile):
    for seed in (1, 2):
        sets = [normalize(e) for e in gen_corpus(seed, 8, profile)]
        seen = []
        for h in sets:
            for b in h.blocks:
                seen += _coordinates(b)
            seen += [x for x in _coordinates(bounds(h)) if x is not None]
        for kind in MeanKind:
            for i, h in enumerate(sets):
                seen += _exact(mean_of(h, kind))
                try:
                    kb = k_bounds(h, kind)
                except SetMeansError:
                    pass
                else:
                    seen += _exact(kb.k_liminf) + _exact(kb.k_limsup)
                if kind is not MeanKind.LIS:
                    try:
                        w = weight_of(h, kind)
                    except DomainViolation:
                        pass
                    else:
                        # a point count stays an int: it is reported as one
                        counts = all(type(t) is int for t in w.terms)
                        assert w.total is None or type(w.total) is (int if counts else Q)
                if i % 2:
                    try:
                        curve = defect_curve(sets[i - 1], h, kind)
                        for x in translate_grid(2, sets[i - 1], h):
                            seen += _exact(weight_defect(sets[i - 1], h, kind, x))
                    except SetMeansError:
                        continue
                    for tail in (curve.right, curve.left):
                        seen += [tail.threshold] + _exact(tail.alpha) + _exact(tail.beta)
        assert seen and all(type(x) is Q for x in seen), {type(x) for x in seen}
